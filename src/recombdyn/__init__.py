"""Recombination dynamics on finite product state spaces.

Measures over a chain of finite alphabets evolve by recombination: cut sets
of links split the chain into blocks, and the flow pulls every state toward
products of its block marginals.  The package provides the recombinators,
their closed-form nonlinear semigroups, the inclusion-exclusion transform
that linearizes the single-crossover flow, a cyclically twisted
generalization, and a fixed-step Runge-Kutta oracle to check all of it.

The top level holds the core types, the closed forms on a whole time grid
(one row per time) and ``product_flow_apply``, the multi-parameter semigroup
with one time per entry of a ``RateMap``.  That map is the one rate input of
RK4 and of every flow: ``RateMap.crossover`` builds the single-crossover one,
which ``product_flow_grid`` takes, and a relabeled one takes the cyclic flow
``generalized_flow_grid``; every other
helper is imported from its submodule (``recombdyn.dynamics``, ``recombdyn.generalized``,
``recombdyn.lattice``, ``recombdyn.measure``, ``recombdyn.recombinator``,
``recombdyn.writers``).
"""

from .dynamics import (
    RateMap,
    Trajectory,
    product_flow_apply,
    product_flow_grid,
    rk4_integrate,
)
from .generalized import generalized_flow_grid
from .lattice import LinkSet
from .measure import Measure, ProductSpace, random_probability, total_variation
from .recombinator import recombine

__version__ = "0.1.0"

__all__ = [
    "LinkSet",
    "Measure",
    "ProductSpace",
    "RateMap",
    "Trajectory",
    "generalized_flow_grid",
    "product_flow_apply",
    "product_flow_grid",
    "random_probability",
    "recombine",
    "rk4_integrate",
    "total_variation",
    "__version__",
]
