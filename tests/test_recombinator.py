import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recombdyn import recombinator
from recombdyn.lattice import LinkSet, all_link_sets
from recombdyn.measure import Measure, ProductSpace, random_probability, total_variation
from recombdyn.recombinator import (
    ZERO_TOTAL_VARIATION,
    gen_cond_rows,
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
    blocks = links.blocks
    out = np.empty_like(omega.weights)
    for flat in range(space.total_states):
        coords = np.unravel_index(flat, space.sizes)
        value = 1.0
        for block in blocks:
            block_sum = 0.0
            for other in range(space.total_states):
                other_coords = np.unravel_index(other, space.sizes)
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
    w = random_probability(space, 12).weights
    cut = LinkSet.from_indices([0], 1)
    assert gen_cond_rows(w, space, cut, 1.0) == 0.0
    # idempotent endpoint; identical up to one round of floating point
    assert gen_cond_rows(w, space, cut, 0.0) <= 1e-13


def test_gen_cond_random_interior():
    space = ProductSpace((2, 3))
    w = random_probability(space, 3).weights
    assert gen_cond_rows(w, space, LinkSet.from_indices([0], 1), 0.3) <= 1e-12


def test_gen_cond_grid_all_cut_sets():
    space = ProductSpace((2, 2, 2, 3))
    stack = np.array([random_probability(space, seed).weights for seed in range(5)])
    for bits in range(1, 8):
        for a in np.linspace(0.0, 1.0, 11):
            assert (gen_cond_rows(stack, space, LinkSet(bits, 3), float(a)) <= 1e-10).all()


def test_gen_cond_rejects_signed_input():
    space = ProductSpace((2, 2))
    cut = LinkSet.from_indices([0], 1)
    with pytest.raises(ValueError):
        gen_cond_rows(np.array([0.5, -0.5, 0.6, 0.4]), space, cut, 0.5)
    with pytest.raises(ValueError):
        gen_cond_rows(random_probability(space, 0).weights, space, cut, 1.5)


def test_lipschitz_ratio_for_doubled_measure():
    space = ProductSpace((2, 3))
    w = random_probability(space, 5).weights
    ratio = lipschitz_rows(2.0 * w, w, space, 0)
    assert abs(ratio - 1.0) <= 1e-12


def test_lipschitz_ratio_sweep_stays_below_three():
    space = ProductSpace((3, 2, 3))
    rng = np.random.default_rng(99)
    draws = [rng.standard_normal(space.total_states) for _ in range(2 * 1000)]
    omegas, nus = np.array(draws[0::2]), np.array(draws[1::2])
    for link in range(space.n_links):
        assert lipschitz_rows(omegas, nus, space, link).max() <= 3.0 + 1e-9


def test_lipschitz_ratio_rejects_equal_measures():
    space = ProductSpace((2, 2))
    w = random_probability(space, 1).weights
    with pytest.raises(ValueError):
        lipschitz_rows(w, w, space, 0)
    with pytest.raises(ValueError):
        lipschitz_rows(w, 2.0 * w, space, 5)


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
            # The ratio written out in measure arithmetic.
            omega, nu = Measure(space, w), Measure(space, v)
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
                # The identity written out in measure arithmetic.
                omega = Measure(space, w)
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
            gen_cond_rows(stack[0], space, links, a)


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
        blocks = links.blocks
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


def numpy_recombination(w, sizes, blocks):
    """The recombinator as numpy alone forms it: each marginal one
    ``sum`` over the dropped axes, each product one broadcast multiply."""
    rows = w.reshape(-1, w.shape[-1])
    n_rows = rows.shape[0]
    tv = np.abs(rows).sum(axis=1)
    tensor_view = rows.reshape((n_rows, *sizes))
    marginals = []
    for axes in blocks:
        drop = tuple(1 + ax for ax in range(len(sizes)) if ax not in axes)
        marginals.append(tensor_view.sum(axis=drop).reshape(n_rows, -1))
    scale = np.maximum(tv, ZERO_TOTAL_VARIATION)[:, None]
    head = marginals[0]
    for m in marginals[1:-1]:
        head = (head[:, :, None] * (m / scale)[:, None, :]).reshape(n_rows, -1)
    last = marginals[-1] / scale
    result = (head[:, :, None] * last[:, None, :]).reshape(n_rows, -1)
    result[tv < ZERO_TOTAL_VARIATION] = 0.0
    return result.reshape(w.shape)


def column_weights(sizes, n_rows, signed, seed):
    """Rows whose sums depend on the order of their addends: magnitudes over
    20 decades, signed or positive.  A signed stack has a slab of -0.0 where
    axes 2 and 3 are (0, 0), so the marginal there is a sum of -0.0 alone."""
    rng = np.random.default_rng(seed)
    n_states = int(np.prod(sizes))
    w = rng.random((n_rows, n_states)) * 10.0 ** rng.uniform(-10, 10, (n_rows, n_states))
    if signed:
        w *= rng.choice([-1.0, 1.0], w.shape)
        w.reshape((n_rows, *sizes))[:, :, :, 0, 0] = -0.0
    return w if n_rows > 1 else w[0]


def assert_recombines_as_numpy(w, sizes, cut):
    blocks = LinkSet.from_indices(cut, len(sizes) - 1).blocks
    expected = numpy_recombination(w, sizes, blocks)
    out = np.full_like(w, np.nan)
    for got in (recombine_weights(w, sizes, blocks), recombine_weights(w, sizes, blocks, out)):
        assert got.tobytes() == expected.tobytes()
    assert out.tobytes() == expected.tobytes()


@pytest.fixture
def every_column(monkeypatch):
    """Columns of any length take the column paths, so that these small
    stacks test them, not numpy's own call."""
    monkeypatch.setattr(recombinator, "_COLUMN_CELLS", 1)


@pytest.mark.usefixtures("every_column")
@pytest.mark.parametrize("trail", [(2, 2), (2, 3), (3, 2), (7,)], ids=str)
@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("n_rows", [1, 5])
@pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
def test_short_trailing_sums_keep_numpy_bits(trail, position, n_rows, signed):
    # A (3, 4) block followed by 2-7 trailing states sums them column by
    # column: as the first block, or as a middle one after a cut-off (2, 3)
    # lead.  "last" cuts every link, so that the blocks just before the
    # chain's last block sum short trailing extents too, and the last
    # block's own marginal (a sum over its leading axes) follows them.
    sizes = (2, 3, 3, 4) + trail
    cut = {"first": [3], "middle": [1, 3], "last": range(len(sizes) - 1)}[position]
    w = column_weights(sizes, n_rows, signed, seed=len(trail) + 10 * n_rows)
    assert_recombines_as_numpy(w, sizes, cut)
    # The order of the addends shows in these weights: adding a cell's
    # trailing states last to first gives other bits than numpy's first to
    # last, so a numpy that changed its order would fail above.
    v = w.reshape(-1, int(np.prod(trail)))
    assert v.cumsum(axis=1)[:, -1].tobytes() != v[:, ::-1].cumsum(axis=1)[:, -1].tobytes()


@pytest.mark.usefixtures("every_column")
@pytest.mark.parametrize("states", range(1, 8))
@pytest.mark.parametrize("position", ["middle", "last"])
def test_short_factors_keep_numpy_bits(states, position):
    # A middle or last factor of 1-7 states is multiplied one column per
    # state; each cell is the broadcast's one rounded product.  A middle
    # block of one state sums its 12 x 5 other states as numpy does, in
    # one pairwise sum, not as 12 short trailing sums.
    sizes, cut = {"middle": ((3, 4, states, 5), [1, 2]), "last": ((3, 4, 9, states), [2])}[position]
    for n_rows in (1, 5):
        for signed in (False, True):
            w = column_weights(sizes, n_rows, signed, seed=states + 10 * n_rows)
            assert_recombines_as_numpy(w, sizes, cut)


@pytest.mark.parametrize("sizes,cut", [((4,) * 7, [5]), ((4,) * 7, [4, 5]), ((2,) * 11, [8, 9])],
                         ids=["4^7-[5]", "4^7-[4,5]", "2^11-[8,9]"])
def test_wide_columns_keep_numpy_bits(sizes, cut):
    # Two rows of these spaces give every short column 1,024 cells or more,
    # so blocks followed by 2 or 4 states and factors of 2 or 4 states take
    # the column paths without the ``every_column`` fixture.
    for signed in (False, True):
        w = column_weights(sizes, 2, signed, seed=len(cut))
        assert_recombines_as_numpy(w, sizes, cut)
