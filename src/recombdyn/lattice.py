"""Links between chain nodes, link subsets, and the induced interval partitions.

A chain of ``n + 1`` nodes has ``n`` links, one between each adjacent pair;
link ``i`` separates node ``i`` from node ``i + 1``.  Link subsets are stored
as bitmasks and correspond one-to-one to ordered partitions of the node range
into contiguous blocks: cut the chain at every link in the subset.  The
Boolean lattice of link subsets carries the inclusion-exclusion combinatorics
used by the flow expansions downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

# 2**|links| enumerations appear downstream; keep the worst case bounded.
MAX_LINKS = 24


@dataclass(frozen=True)
class LinkSet:
    """A subset of the link positions ``{0, ..., n_links - 1}`` as a bitmask."""

    bits: int
    n_links: int

    def __post_init__(self) -> None:
        if self.n_links < 0 or self.n_links > MAX_LINKS:
            raise ValueError(
                f"n_links must lie in [0, {MAX_LINKS}], got {self.n_links}"
            )
        if self.bits < 0 or self.bits >> self.n_links:
            raise ValueError(
                f"bitmask {bin(self.bits)} sets a link at or beyond position "
                f"{self.n_links}"
            )

    @classmethod
    def empty(cls, n_links: int) -> "LinkSet":
        return cls(0, n_links)

    @classmethod
    def full(cls, n_links: int) -> "LinkSet":
        return cls((1 << n_links) - 1, n_links)

    @classmethod
    def from_indices(cls, indices: Iterable[int], n_links: int) -> "LinkSet":
        bits = 0
        for i in indices:
            i = int(i)
            if not 0 <= i < n_links:
                raise ValueError(f"link index {i} out of range for {n_links} links")
            bits |= 1 << i
        return cls(bits, n_links)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_links) if self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, link: int) -> bool:
        return 0 <= link < self.n_links and bool(self.bits >> link & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def _require_same_universe(self, other: "LinkSet") -> None:
        if self.n_links != other.n_links:
            raise ValueError(
                f"link sets live over different link counts "
                f"({self.n_links} vs {other.n_links})"
            )

    def union(self, other: "LinkSet") -> "LinkSet":
        self._require_same_universe(other)
        return LinkSet(self.bits | other.bits, self.n_links)

    def issubset(self, other: "LinkSet") -> bool:
        self._require_same_universe(other)
        return self.bits & ~other.bits == 0

    def blocks(self, n_nodes: int) -> tuple[tuple[int, ...], ...]:
        """Node blocks of ``partition_of(self, n_nodes)``, cached per set."""
        return _cached_blocks(self.bits, n_nodes)

    __or__ = union

    def __repr__(self) -> str:
        return f"LinkSet({list(self.indices)}, n_links={self.n_links})"


@dataclass(frozen=True)
class Stretch:
    """Closed interval of link positions, or the empty interval."""

    lo: int | None = None
    hi: int | None = None

    def __post_init__(self) -> None:
        if (self.lo is None) != (self.hi is None):
            raise ValueError("lo and hi must both be set or both be None")
        if self.lo is not None and self.lo > self.hi:  # type: ignore[operator]
            raise ValueError(f"empty-range bounds lo={self.lo} > hi={self.hi}")

    @property
    def is_empty(self) -> bool:
        return self.lo is None

    def intersects(self, other: "Stretch") -> bool:
        if self.is_empty or other.is_empty:
            return False
        return self.lo <= other.hi and other.lo <= self.hi  # type: ignore[operator]


@dataclass(frozen=True)
class OrderedPartition:
    """Contiguous ordered blocks covering the node range ``{0, ..., n-1}``."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a partition needs at least one block")
        expected = 0
        for block in self.blocks:
            if not block:
                raise ValueError("blocks must be nonempty")
            if list(block) != list(range(expected, expected + len(block))):
                raise ValueError(
                    f"block {block} breaks the contiguous ordered coverage"
                )
            expected = block[-1] + 1

    @property
    def n_nodes(self) -> int:
        return self.blocks[-1][-1] + 1

    def __len__(self) -> int:
        return len(self.blocks)

    def refines(self, coarser: "OrderedPartition") -> bool:
        """True iff every block of self lies inside one block of ``coarser``."""
        if self.n_nodes != coarser.n_nodes:
            raise ValueError("partitions cover different node ranges")
        owner = {}
        for b, block in enumerate(coarser.blocks):
            for node in block:
                owner[node] = b
        return all(owner[block[0]] == owner[block[-1]] for block in self.blocks)


def partition_of(links: LinkSet, n_nodes: int) -> OrderedPartition:
    """Ordered partition of ``{0, ..., n_nodes-1}`` cut at the given links."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be at least 1")
    if links.n_links != n_nodes - 1:
        raise ValueError(
            f"a chain of {n_nodes} nodes has {n_nodes - 1} links, "
            f"got a set over {links.n_links}"
        )
    blocks = []
    start = 0
    for cut in links.indices:
        blocks.append(tuple(range(start, cut + 1)))
        start = cut + 1
    blocks.append(tuple(range(start, n_nodes)))
    return OrderedPartition(tuple(blocks))


def stretch_of(links: LinkSet) -> Stretch:
    """Smallest closed link interval containing the set; empty for no links."""
    if links.bits == 0:
        return Stretch()
    lo = (links.bits & -links.bits).bit_length() - 1
    hi = links.bits.bit_length() - 1
    return Stretch(lo, hi)


def stretches_disjoint(a: LinkSet, b: LinkSet) -> bool:
    """True iff the link intervals spanned by the two sets do not meet."""
    return not stretch_of(a).intersects(stretch_of(b))


def moebius_sign(lower: LinkSet, upper: LinkSet) -> int:
    """Inclusion-exclusion sign ``(-1)**|upper - lower|`` for nested subsets."""
    if not lower.issubset(upper):
        raise ValueError("sign is defined only for lower <= upper in the lattice")
    return -1 if (upper.bits ^ lower.bits).bit_count() & 1 else 1


def supersets_of(links: LinkSet) -> Iterator[LinkSet]:
    """All supersets of the set (itself included), ascending by bitmask."""
    free = (1 << links.n_links) - 1 & ~links.bits
    sub = 0
    while True:
        yield LinkSet(links.bits | sub, links.n_links)
        if sub == free:
            return
        sub = (sub - free) & free


def subsets_of(links: LinkSet) -> Iterator[LinkSet]:
    """All subsets of the set (itself included), ascending by bitmask."""
    sub = 0
    while True:
        yield LinkSet(sub, links.n_links)
        if sub == links.bits:
            return
        sub = (sub - links.bits) & links.bits


def all_link_sets(n_links: int) -> Iterator[LinkSet]:
    """Every subset of the full link set, ascending by bitmask."""
    return subsets_of(LinkSet.full(n_links))


@lru_cache(maxsize=8192)
def _cached_blocks(bits: int, n_nodes: int) -> tuple[tuple[int, ...], ...]:
    # Shared by the recombination hot paths; keyed on plain ints for hashing.
    return partition_of(LinkSet(bits, n_nodes - 1), n_nodes).blocks
