"""Recombination dynamics on finite product state spaces.

Measures over a chain of finite alphabets evolve by recombination: cut sets
of links split the chain into blocks, and the flow pulls every state toward
products of its block marginals.  The package provides the recombinators,
their closed-form nonlinear semigroups, the inclusion-exclusion transform
that linearizes the single-crossover flow, a cyclically twisted
generalization, and a fixed-step Runge-Kutta oracle to check all of it.

The top level holds the core types, the closed form of each rate kind on a
whole time grid (one row per time) and ``product_flow_apply``, the
multi-parameter semigroup with one time per component; every other helper is
imported from its submodule (``recombdyn.dynamics``, ``recombdyn.generalized``,
``recombdyn.lattice``, ``recombdyn.measure``, ``recombdyn.recombinator``).
"""

from .dynamics import (
    DisjointStretchSystem,
    RateMap,
    Trajectory,
    crossover_grid,
    product_flow_apply,
    product_flow_grid,
    rk4_integrate,
)
from .generalized import CyclicOperator, generalized_flow_grid
from .lattice import LinkSet
from .measure import Measure, ProductSpace, random_probability, total_variation
from .recombinator import recombine

__version__ = "0.1.0"

__all__ = [
    "CyclicOperator",
    "DisjointStretchSystem",
    "LinkSet",
    "Measure",
    "ProductSpace",
    "RateMap",
    "Trajectory",
    "crossover_grid",
    "generalized_flow_grid",
    "product_flow_apply",
    "product_flow_grid",
    "random_probability",
    "recombine",
    "rk4_integrate",
    "total_variation",
    "__version__",
]
