import pytest
from hypothesis import given
from hypothesis import strategies as st

from recombdyn.dynamics import RateMap, compile_field
from recombdyn.generalized import require_cyclic_map
from recombdyn.lattice import (
    MAX_LINKS,
    LinkSet,
    _cached_blocks,
    all_link_sets,
    moebius_sign,
    refines,
    stretches_disjoint,
    subsets_of,
    supersets_of,
)
from recombdyn.measure import ProductSpace, random_probability
from recombdyn.recombinator import recombine_rows


def test_partition_empty_set_is_single_block():
    assert LinkSet.empty(3).blocks == ((0, 1, 2, 3),)


def test_partition_full_set_is_singletons():
    assert LinkSet.full(3).blocks == ((0,), (1,), (2,), (3,))


def test_partition_single_cut():
    # one cut between nodes 1 and 2
    assert LinkSet.from_indices([1], 3).blocks == ((0, 1), (2, 3))
    # the set's own link count fixes the chain: 2 links, 3 nodes
    assert LinkSet.from_indices([0], 2).blocks == ((0,), (1, 2))


def test_blocks_are_the_partition_blocks():
    # The blocks cover the chain of n_links + 1 nodes in order, and a block
    # ends exactly at each cut; equal sets share one cached tuple.
    for links in all_link_sets(4):
        blocks = links.blocks
        assert [node for block in blocks for node in block] == list(range(5))
        assert all(list(b) == list(range(b[0], b[-1] + 1)) for b in blocks)
        assert tuple(b[-1] for b in blocks[:-1]) == links.indices
        assert LinkSet(links.bits, 4).blocks is blocks


def test_refines_rejects_blocks_of_different_chains():
    with pytest.raises(ValueError, match="different node ranges"):
        refines(LinkSet.empty(2).blocks, LinkSet.empty(3).blocks)


def test_block_lookups_of_the_hot_paths_go_through_the_cache():
    # The benchmark's lattice.blocks_cache metrics read this cache, so each
    # of these must look its blocks up there.
    space = ProductSpace((2, 3, 2))
    cut = LinkSet.from_indices([1], 2)
    lookups = [
        lambda: recombine_rows(random_probability(space, 0).weights, space, cut),
        lambda: compile_field(space, RateMap(2, ((cut, 1.0),))),
        lambda: require_cyclic_map(RateMap(2, ((cut, 1.0),), (1, 2, 3, 4, 5, 0)), space),
    ]
    for lookup in lookups:
        before = _cached_blocks.cache_info()
        lookup()
        after = _cached_blocks.cache_info()
        assert after.hits + after.misses > before.hits + before.misses


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
        assert len(links.blocks) == len(links) + 1


def test_refinement_duality_exhaustive():
    for a in all_link_sets(4):
        for b in all_link_sets(4):
            assert a.issubset(b) == refines(b.blocks, a.blocks)


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
