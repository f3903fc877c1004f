"""Finite signed measures on finite product state spaces.

A measure is a dense vector of real weights, one entry per state of a product
space (or of a sub-product over a subset of the nodes).  Node 0 is the most
significant position of the flat mixed-radix state index, so the flat order
coincides with C-order iteration over state tuples and ``numpy`` reshapes are
exact views.  Positivity is a runtime predicate, not a type constraint:
signed measures are first-class because the inclusion-exclusion transforms
downstream genuinely produce them.

A ``Measure`` copies its weights on construction.  Many states over one time
grid are no tuple of measures but one (T, S) stack, ``dynamics.Trajectory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class ProductSpace:
    """Product of finite alphabets, one alphabet per node."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(k) for k in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("a product space needs at least one node")
        if any(k < 1 for k in sizes):
            raise ValueError(f"alphabet sizes must all be >= 1, got {sizes}")

    @property
    def n_nodes(self) -> int:
        return len(self.sizes)

    @property
    def n_links(self) -> int:
        return len(self.sizes) - 1

    @property
    def total_states(self) -> int:
        return math.prod(self.sizes)


@dataclass(frozen=True, eq=False)
class Measure:
    """Signed measure over a (sub-)product space, as a flat weight vector.

    ``nodes`` records which nodes of the ambient chain the axes refer to; a
    measure on a full space uses ``(0, ..., n)``.  Instances are immutable
    (the weight array is read-only) and safe to share across threads.
    """

    space: ProductSpace
    weights: np.ndarray
    nodes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64).ravel()
        if w.size != self.space.total_states:
            raise ValueError(
                f"weight vector of length {w.size} does not match the "
                f"{self.space.total_states} states of the space"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        nodes = self.nodes
        if nodes is None:
            nodes = tuple(range(self.space.n_nodes))
        else:
            nodes = tuple(int(i) for i in nodes)
        if len(nodes) != self.space.n_nodes:
            raise ValueError("node labels must match the number of space axes")
        if any(b <= a for a, b in zip(nodes, nodes[1:])) or (nodes and nodes[0] < 0):
            raise ValueError(f"node labels must be strictly increasing, got {nodes}")
        object.__setattr__(self, "nodes", nodes)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, space: ProductSpace, nodes: tuple[int, ...] | None = None) -> "Measure":
        return cls(space, np.zeros(space.total_states), nodes)

    # -- views and scalars -----------------------------------------------------

    def as_tensor(self) -> np.ndarray:
        """Weights reshaped to one axis per node (a read-only view)."""
        return self.weights.reshape(self.space.sizes)

    @property
    def mass(self) -> float:
        """Total (signed) weight."""
        return float(self.weights.sum())

    # -- linear-space arithmetic -----------------------------------------------

    def _require_same_layout(self, other: "Measure") -> None:
        if self.space.sizes != other.space.sizes or self.nodes != other.nodes:
            raise ValueError("measures live on different (sub-)spaces")

    def __add__(self, other: "Measure") -> "Measure":
        self._require_same_layout(other)
        return Measure(self.space, self.weights + other.weights, self.nodes)

    def __sub__(self, other: "Measure") -> "Measure":
        self._require_same_layout(other)
        return Measure(self.space, self.weights - other.weights, self.nodes)

    def __mul__(self, scalar: float) -> "Measure":
        return Measure(self.space, self.weights * float(scalar), self.nodes)

    __rmul__ = __mul__

    def __neg__(self) -> "Measure":
        return Measure(self.space, -self.weights, self.nodes)

    def __repr__(self) -> str:
        return (
            f"Measure(sizes={self.space.sizes}, nodes={self.nodes}, "
            f"mass={self.mass:.6g})"
        )


def total_variation(omega: Measure) -> float:
    """Sum of absolute weights; equals total mass for positive measures."""
    return float(np.abs(omega.weights).sum())


def is_positive(omega: Measure, tol: float = 0.0) -> bool:
    """True iff every weight is at least ``-tol``."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return bool(omega.weights.min() >= -tol)


def marginal(omega: Measure, nodes_to_keep: Iterable[int]) -> Measure:
    """Project onto a subset of nodes by summing out all other coordinates.

    ``nodes_to_keep`` uses the measure's own node labels and must be a
    nonempty strictly increasing selection.  The projection is linear and
    preserves total (signed) mass.
    """
    keep = tuple(int(i) for i in nodes_to_keep)
    if not keep:
        raise ValueError("marginal requires a nonempty node subset")
    if any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError(f"node subset must be strictly increasing, got {keep}")
    label_to_axis = {label: ax for ax, label in enumerate(omega.nodes)}
    try:
        keep_axes = tuple(label_to_axis[i] for i in keep)
    except KeyError as exc:
        raise ValueError(f"node {exc} is not part of this measure") from exc
    drop_axes = tuple(ax for ax in range(omega.space.n_nodes) if ax not in keep_axes)
    tensor_view = omega.as_tensor()
    reduced = tensor_view.sum(axis=drop_axes) if drop_axes else tensor_view
    sub_sizes = tuple(omega.space.sizes[ax] for ax in keep_axes)
    return Measure(ProductSpace(sub_sizes), np.ravel(reduced), nodes=keep)


def tensor(factors: Sequence[Measure]) -> Measure:
    """Product measure of factors living on consecutive node blocks.

    The factors' node labels, concatenated, must run ``0, 1, ..., n`` without
    gaps, i.e. the blocks of an ordered partition of the full chain.  Total
    variation is multiplicative over the factors.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("tensor requires at least one factor")
    covered: list[int] = []
    for f in factors:
        covered.extend(f.nodes)
    if covered != list(range(len(covered))):
        raise ValueError(
            f"factor blocks {[f.nodes for f in factors]} are not contiguous, "
            "ordered, and covering"
        )
    acc = factors[0].weights
    for f in factors[1:]:
        acc = np.multiply.outer(acc, f.weights).ravel()
    sizes: tuple[int, ...] = ()
    for f in factors:
        sizes = sizes + f.space.sizes
    return Measure(ProductSpace(sizes), acc)


def random_probability(space: ProductSpace, seed: int | np.random.Generator) -> Measure:
    """Strictly positive probability measure, deterministic in the seed; a
    ``np.random.Generator`` given as the seed is drawn from as it is."""
    rng = np.random.default_rng(seed)
    w = rng.random(space.total_states) + 0.05
    w /= w.sum()
    return Measure(space, w)
