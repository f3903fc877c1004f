import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recombdyn.lattice import LinkSet, all_link_sets, partition_of
from recombdyn.measure import Measure, ProductSpace, random_probability, total_variation
from recombdyn.recombinator import (
    ZERO_TOTAL_VARIATION,
    check_gen_cond,
    gen_cond_rows,
    lipschitz_ratio,
    lipschitz_rows,
    recombine,
    recombine_rows,
    recombine_weights,
)


def brute_recombine(omega, links):
    """Definition chased by hand: product of block marginal values, state by
    state, divided by total variation once per cut."""
    space = omega.space
    tv = float(np.abs(omega.weights).sum())
    if tv == 0.0:
        return np.zeros_like(omega.weights)
    blocks = partition_of(links, space.n_nodes).blocks
    out = np.empty_like(omega.weights)
    for flat in range(space.total_states):
        coords = space.coords(flat)
        value = 1.0
        for block in blocks:
            block_sum = 0.0
            for other in range(space.total_states):
                other_coords = space.coords(other)
                if all(other_coords[i] == coords[i] for i in block):
                    block_sum += omega.weights[other]
            value *= block_sum
        out[flat] = value / tv ** (len(blocks) - 1)
    return out


def signed_measure(space, seed):
    rng = np.random.default_rng(seed)
    return Measure(space, rng.standard_normal(space.total_states))


def test_recombine_hand_example():
    omega = Measure(ProductSpace((2, 2)), [0.5, 0.2, 0.1, 0.2])
    got = recombine(omega, LinkSet.from_indices([0], 1))
    np.testing.assert_allclose(got.weights, [0.42, 0.28, 0.18, 0.12], atol=1e-15)


def test_recombine_empty_cut_set_is_identity():
    omega = random_probability(ProductSpace((2, 3)), 8)
    assert recombine(omega, LinkSet.empty(1)) is omega


def test_recombine_of_zero_is_zero():
    zero = Measure.zero(ProductSpace((2, 2, 2)))
    for links in all_link_sets(2):
        assert total_variation(recombine(zero, links)) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_recombine_matches_brute_force(seed):
    space = ProductSpace((2, 3, 2))
    for omega in (random_probability(space, seed), signed_measure(space, seed)):
        for links in all_link_sets(space.n_links):
            got = recombine(omega, links).weights
            np.testing.assert_allclose(got, brute_recombine(omega, links), atol=1e-13)


def test_composition_law_exhaustive_three_links():
    space = ProductSpace((2, 2, 3, 2))
    for seed in range(10):
        omega = random_probability(space, seed)
        for g in all_link_sets(3):
            for h in all_link_sets(3):
                iterated = recombine(recombine(omega, h), g)
                direct = recombine(omega, g.union(h))
                assert total_variation(iterated - direct) <= 1e-12


@given(st.integers(0, 10_000), st.integers(0, 63), st.integers(0, 63))
def test_composition_law_sampled_six_links(seed, g_bits, h_bits):
    space = ProductSpace((2,) * 7)
    omega = random_probability(space, seed)
    g, h = LinkSet(g_bits, 6), LinkSet(h_bits, 6)
    gap = recombine(recombine(omega, h), g) - recombine(omega, g.union(h))
    assert total_variation(gap) <= 1e-12


def test_idempotent_and_commutative_on_positives():
    space = ProductSpace((3, 2, 2))
    omega = random_probability(space, 0)
    a, b = LinkSet.from_indices([0], 2), LinkSet.from_indices([1], 2)
    once = recombine(omega, a)
    assert total_variation(recombine(once, a) - once) <= 1e-13
    ab = recombine(recombine(omega, b), a)
    ba = recombine(recombine(omega, a), b)
    assert total_variation(ab - ba) <= 1e-13


def test_iterated_elementary_equals_composite():
    space = ProductSpace((2, 3, 2, 2))
    omega = random_probability(space, 21)
    composite = recombine(omega, LinkSet.from_indices([0, 2], 3))
    iterated = recombine(
        recombine(omega, LinkSet.from_indices([0], 3)), LinkSet.from_indices([2], 3)
    )
    assert total_variation(composite - iterated) <= 1e-13


@given(st.integers(0, 10_000), st.floats(-3, 3), st.integers(1, 7))
def test_scaling_law_signed(seed, a, bits):
    # |a| for nonnegative a; negative a flips the sign once per even cut
    # count, straight from the defining normalization.
    space = ProductSpace((2, 2, 2, 2))
    nu = signed_measure(space, seed)
    links = LinkSet(bits, 3)
    sign = 1.0 if a >= 0 else (-1.0) ** (len(links) + 1)
    gap = recombine(a * nu, links) - sign * abs(a) * recombine(nu, links)
    assert total_variation(gap) <= 1e-12


def test_elementary_absolute_homogeneity():
    space = ProductSpace((2, 3))
    nu = signed_measure(space, 5)
    cut = LinkSet.from_indices([0], 1)
    for a in (-2.5, -1.0, -0.3, 0.0, 0.4, 2.0):
        gap = recombine(a * nu, cut) - abs(a) * recombine(nu, cut)
        assert total_variation(gap) <= 1e-13


@given(st.integers(0, 10_000), st.integers(1, 3))
def test_norm_laws(seed, bits):
    space = ProductSpace((2, 2, 3))
    links = LinkSet(bits, 2)
    nu = signed_measure(space, seed)
    assert total_variation(recombine(nu, links)) <= total_variation(nu) * (1 + 1e-12)
    pos = random_probability(space, seed)
    rec = recombine(pos, links)
    assert abs(total_variation(rec) - 1.0) <= 1e-12
    assert rec.weights.min() >= 0.0


def test_gen_cond_exact_endpoints():
    space = ProductSpace((2, 3))
    omega = random_probability(space, 12)
    cut = LinkSet.from_indices([0], 1)
    assert check_gen_cond(omega, cut, 1.0) == 0.0
    # idempotent endpoint; identical up to one round of floating point
    assert check_gen_cond(omega, cut, 0.0) <= 1e-13


def test_gen_cond_random_interior():
    omega = random_probability(ProductSpace((2, 3)), 3)
    assert check_gen_cond(omega, LinkSet.from_indices([0], 1), 0.3) <= 1e-12


def test_gen_cond_grid_all_cut_sets():
    space = ProductSpace((2, 2, 2, 3))
    for seed in range(5):
        omega = random_probability(space, seed)
        for bits in range(1, 8):
            for a in np.linspace(0.0, 1.0, 11):
                assert check_gen_cond(omega, LinkSet(bits, 3), float(a)) <= 1e-10


def test_gen_cond_rejects_signed_input():
    nu = Measure(ProductSpace((2, 2)), [0.5, -0.5, 0.6, 0.4])
    with pytest.raises(ValueError):
        check_gen_cond(nu, LinkSet.from_indices([0], 1), 0.5)
    with pytest.raises(ValueError):
        check_gen_cond(
            random_probability(ProductSpace((2, 2)), 0),
            LinkSet.from_indices([0], 1),
            1.5,
        )


def test_lipschitz_ratio_for_doubled_measure():
    omega = random_probability(ProductSpace((2, 3)), 5)
    ratio = lipschitz_ratio(2.0 * omega, omega, 0)
    assert abs(ratio - 1.0) <= 1e-12


def test_lipschitz_ratio_sweep_stays_below_three():
    space = ProductSpace((3, 2, 3))
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        omega = Measure(space, rng.standard_normal(space.total_states))
        nu = Measure(space, rng.standard_normal(space.total_states))
        for link in range(space.n_links):
            worst = max(worst, lipschitz_ratio(omega, nu, link))
    assert worst <= 3.0 + 1e-9


def test_lipschitz_ratio_rejects_equal_measures():
    omega = random_probability(ProductSpace((2, 2)), 1)
    with pytest.raises(ValueError):
        lipschitz_ratio(omega, omega, 0)
    with pytest.raises(ValueError):
        lipschitz_ratio(omega, 2.0 * omega, 5)


@pytest.mark.parametrize("sizes", [(3, 2, 3), (2, 3, 2, 2), (2,) * 7, (4, 1, 3)])
def test_lipschitz_rows_are_the_per_pair_ratios_bit_for_bit(sizes):
    space = ProductSpace(sizes)
    rng = np.random.default_rng(len(sizes))
    omegas = rng.standard_normal((40, space.total_states))
    nus = rng.standard_normal((40, space.total_states))
    nus[:5] = 2.0 * omegas[:5]  # doubled rows, ratio one
    omegas[5:10] *= 1e-200  # rows far below one, above the zero rule
    for link in range(space.n_links):
        cut = LinkSet.from_indices([link], space.n_links)
        rows = lipschitz_rows(omegas, nus, space, link)
        assert rows.shape == (40,)
        for w, v, got in zip(omegas, nus, rows.tolist()):
            omega, nu = Measure(space, w), Measure(space, v)
            assert got == lipschitz_ratio(omega, nu, link)
            # The ratio written out in measure arithmetic.
            num = total_variation(recombine(omega, cut) - recombine(nu, cut))
            assert got == num / total_variation(omega - nu)


@pytest.mark.parametrize("sizes", [(2, 3, 2, 2), (2, 2, 2, 3), (3, 2, 3)])
def test_gen_cond_rows_are_the_per_measure_residuals_bit_for_bit(sizes):
    space = ProductSpace(sizes)
    rng = np.random.default_rng(sum(sizes))
    stack = rng.random((20, space.total_states)) + 0.05
    stack /= stack.sum(axis=1, keepdims=True)
    stack[0] = 0.0
    stack[1, ::2] = 0.0
    for links in all_link_sets(space.n_links):
        for a in (0.0, 0.25, 0.3, 0.5, 0.75, 1.0):
            rows = gen_cond_rows(stack, space, links, a)
            assert rows.shape == (20,)
            for w, got in zip(stack, rows.tolist()):
                omega = Measure(space, w)
                assert got == check_gen_cond(omega, links, a)
                # The identity written out in measure arithmetic.
                recombined = recombine(omega, links)
                blend = a * omega + (1.0 - a) * recombined
                assert got == total_variation(recombine(blend, links) - recombined)


def test_row_helpers_reject_what_the_one_measure_checks_reject():
    space = ProductSpace((2, 3, 2))
    rng = np.random.default_rng(7)
    omegas = rng.standard_normal((6, space.total_states))
    nus = rng.standard_normal((6, space.total_states))
    nus[3] = omegas[3]  # one coinciding pair is enough
    with pytest.raises(ValueError, match="coincide"):
        lipschitz_rows(omegas, nus, space, 0)
    with pytest.raises(ValueError, match="out of range"):
        lipschitz_rows(omegas, omegas + 1.0, space, 2)
    with pytest.raises(ValueError):
        lipschitz_rows(omegas, nus[:5], space, 0)
    with pytest.raises(ValueError):
        lipschitz_ratio(Measure(space, omegas[0]), Measure(ProductSpace((3, 2, 2)), nus[0]), 0)

    stack = np.abs(omegas)
    links = LinkSet.from_indices([1], 2)
    assert (gen_cond_rows(stack, space, links, 0.5) <= 1e-12).all()
    negative = stack.copy()
    negative[4, 2] = -1e-3  # one negative row is enough
    with pytest.raises(ValueError, match="positive measures only"):
        gen_cond_rows(negative, space, links, 0.5)
    for a in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError, match="mixing weight"):
            gen_cond_rows(stack, space, links, a)
        with pytest.raises(ValueError, match="mixing weight"):
            check_gen_cond(Measure(space, stack[0]), links, a)


def test_recombine_weights_on_a_stack_is_the_per_row_recombination():
    # Signed rows on scales 1e-3 to 1e3, a zero row and a row below the zero
    # rule: each row keeps its own |w| and its own zero rule.
    space = ProductSpace((2, 3, 2, 2))
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((6, space.total_states))
    stack *= np.array([1.0, 1e-3, 1e3, 0.0, 1.0, 1.0])[:, None]
    stack[4] = 1e-303
    assert np.abs(stack[4]).sum() < ZERO_TOTAL_VARIATION
    stack[5, :3] = -stack[5, :3]
    for links in all_link_sets(space.n_links):
        blocks = partition_of(links, space.n_nodes).blocks
        rows = recombine_weights(stack, space.sizes, blocks)
        assert rows.shape == stack.shape
        for w, got in zip(stack, rows):
            expected = recombine_weights(w, space.sizes, blocks)
            assert np.abs(got - expected).sum() <= 1e-15 * np.abs(w).sum()
        # The zero row, the row below the zero rule, and the one-block cut
        # set (the identity on the other rows) are exact.
        assert not rows[3].any() and not rows[4].any()
        if not links.bits:
            np.testing.assert_array_equal(rows[[0, 1, 2, 5]], stack[[0, 1, 2, 5]])


def test_recombine_rows_matches_recombine_row_by_row():
    space = ProductSpace((3, 2, 2))
    measures = [random_probability(space, seed) for seed in range(4)]
    stack = np.array([omega.weights for omega in measures])
    for links in all_link_sets(space.n_links):
        rows = recombine_rows(stack, space, links)
        for omega, got in zip(measures, rows):
            assert np.abs(got - recombine(omega, links).weights).sum() <= 1e-15
    assert recombine_rows(stack, space, LinkSet.empty(2)) is stack
    with pytest.raises(ValueError):
        recombine_rows(stack, space, LinkSet.full(3))
