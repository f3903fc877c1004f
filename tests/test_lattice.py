import pytest
from hypothesis import given
from hypothesis import strategies as st

from recombdyn.lattice import (
    MAX_LINKS,
    LinkSet,
    all_link_sets,
    moebius_sign,
    partition_of,
    stretches_disjoint,
    subsets_of,
    supersets_of,
)


def test_partition_empty_set_is_single_block():
    part = partition_of(LinkSet.empty(3), 4)
    assert part.blocks == ((0, 1, 2, 3),)


def test_partition_full_set_is_singletons():
    part = partition_of(LinkSet.full(3), 4)
    assert part.blocks == ((0,), (1,), (2,), (3,))


def test_partition_single_cut():
    # one cut between nodes 1 and 2
    part = partition_of(LinkSet.from_indices([1], 3), 4)
    assert part.blocks == ((0, 1), (2, 3))


def test_blocks_are_the_partition_blocks():
    for links in all_link_sets(4):
        assert links.blocks(5) == partition_of(links, 5).blocks


def test_partition_rejects_mismatched_link_count():
    with pytest.raises(ValueError):
        partition_of(LinkSet.empty(2), 4)


def test_linkset_rejects_bits_beyond_universe():
    with pytest.raises(ValueError):
        LinkSet(0b1000, 3)
    with pytest.raises(ValueError):
        LinkSet.from_indices([3], 3)


def test_linkset_rejects_oversized_universe():
    with pytest.raises(ValueError):
        LinkSet(0, MAX_LINKS + 1)


def test_stretches_disjoint():
    # Every pair of link sets on 5 links against the links each set's
    # stretch covers, from its lowest to its highest index; the empty set
    # covers none.
    def covered(links):
        idx = links.indices
        return set(range(idx[0], idx[-1] + 1)) if idx else set()

    for a in all_link_sets(5):
        for b in all_link_sets(5):
            assert stretches_disjoint(a, b) == (not covered(a) & covered(b)), (a, b)


def test_moebius_sign_parity():
    empty = LinkSet.empty(2)
    assert moebius_sign(empty, empty) == 1
    assert moebius_sign(empty, LinkSet.from_indices([0, 1], 2)) == 1
    assert moebius_sign(empty, LinkSet.from_indices([0], 2)) == -1


def test_moebius_sign_requires_nesting():
    with pytest.raises(ValueError):
        moebius_sign(LinkSet.from_indices([0], 2), LinkSet.from_indices([1], 2))


def test_supersets_enumeration():
    full = LinkSet.full(2)
    assert list(supersets_of(full)) == [full]
    everything = list(supersets_of(LinkSet.empty(2)))
    assert [s.bits for s in everything] == [0, 1, 2, 3]
    fixed = list(supersets_of(LinkSet.from_indices([0], 2)))
    assert [s.bits for s in fixed] == [0b01, 0b11]


def test_superset_count_and_order():
    for links in all_link_sets(4):
        sups = list(supersets_of(links))
        assert len(sups) == 1 << (4 - len(links))
        assert all(links.issubset(s) for s in sups)
        assert [s.bits for s in sups] == sorted(s.bits for s in sups)


def test_subsets_enumeration():
    subs = list(subsets_of(LinkSet.from_indices([0, 2], 3)))
    assert [s.bits for s in subs] == [0b000, 0b001, 0b100, 0b101]


def test_block_count_matches_cut_count():
    for links in all_link_sets(5):
        assert len(partition_of(links, 6)) == len(links) + 1


def test_refinement_duality_exhaustive():
    n_nodes = 5
    for a in all_link_sets(n_nodes - 1):
        part_a = partition_of(a, n_nodes)
        for b in all_link_sets(n_nodes - 1):
            part_b = partition_of(b, n_nodes)
            assert a.issubset(b) == part_b.refines(part_a)


@given(st.integers(0, 63), st.integers(0, 63))
def test_moebius_roundtrip_pointwise(bits, seed_value):
    # g(G) = sum_{H >= G} sign * f(H) followed by plain superset summation
    # must give f back; integer-valued f makes the identity exact.
    n = 6
    values = {ls.bits: (ls.bits * 37 + seed_value) % 101 - 50 for ls in all_link_sets(n)}
    target = LinkSet(bits, n)
    transformed = {
        ls.bits: sum(moebius_sign(ls, sup) * values[sup.bits] for sup in supersets_of(ls))
        for ls in supersets_of(target)
    }
    assert sum(transformed[s.bits] for s in supersets_of(target)) == values[target.bits]


@given(st.integers(0, 255), st.integers(0, 255))
def test_set_algebra_mirrors_bit_algebra(x, y):
    n = 8
    a, b = LinkSet(x, n), LinkSet(y, n)
    assert (a | b).bits == x | y
    assert a.issubset(b) == (x & ~y == 0)
    assert len(a) == bin(x).count("1")
