import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from recombdyn.dynamics import (
    DisjointStretchSystem,
    RateMap,
    Trajectory,
    check_linearization,
    compile_field,
    crossover_grid,
    expansion_coefficients,
    integrate_field,
    moebius_rows,
    moebius_transform,
    output_grid,
    product_flow_apply,
    product_flow_grid,
    rk4_integrate,
    rk4_integrate_many,
    trajectory_to_csv,
    trajectory_to_json_dict,
)
from recombdyn.lattice import LinkSet, all_link_sets, subsets_of
from recombdyn.measure import (
    Measure,
    ProductSpace,
    random_probability,
    tensor,
    total_variation,
)
from recombdyn.recombinator import ZERO_TOTAL_VARIATION, recombine, recombine_weights

SPACE = ProductSpace((2, 2))
CUT = LinkSet.from_indices([0], 1)


def one_set_flow(omega, links, rho, t):
    """The one-set flow at one time: ``product_flow_apply`` of one component."""
    return product_flow_apply(omega, DisjointStretchSystem(((links, rho),)), [t])


def crossover_at(omega, rates, t):
    """The single-crossover flow at one time: the one-row ``crossover_grid``."""
    return Measure(omega.space, crossover_grid(omega, rates, [t])[0])


def coefficients_at(rates, t):
    """Rows a(t) and b(t) of ``expansion_coefficients``, indexed by bitmask."""
    a, b = expansion_coefficients(rates, [t])
    return a[0].tolist(), b[0].tolist()


def test_vector_field_hand_example():
    omega = Measure(SPACE, [0.5, 0.2, 0.1, 0.2])
    field = compile_field(SPACE, RateMap.single(CUT, 1.0))(omega.weights)
    np.testing.assert_allclose(field, [-0.08, 0.08, 0.08, -0.08], atol=1e-15)


def test_vector_field_vanishes_on_product_measures():
    mu = Measure(ProductSpace((2,)), [0.3, 0.7])
    nu = Measure(ProductSpace((3,)), [0.2, 0.5, 0.3], nodes=(1,))
    product = tensor([mu, nu])
    rates = RateMap(1, ((LinkSet.from_indices([0], 1), 1.0),))
    field = compile_field(product.space, rates)(product.weights)
    assert np.abs(field).sum() <= 1e-13


def test_vector_field_empty_rates_is_zero():
    omega = random_probability(SPACE, 3)
    assert np.abs(compile_field(SPACE, RateMap(1, ()))(omega.weights)).sum() == 0.0


def test_vector_field_total_weight_is_zero_on_positives():
    space = ProductSpace((2, 3, 2))
    omega = random_probability(space, 9)
    rates = RateMap(
        2, ((LinkSet.from_indices([0], 2), 0.7), (LinkSet.from_indices([0, 1], 2), 0.4))
    )
    assert abs(compile_field(space, rates)(omega.weights).sum()) <= 1e-14


def reference_field(space, rates, w):
    """sum_G rho_G (R_G(w) - w), one recombine_weights call per term."""
    out = np.zeros_like(w)
    for links, rate in rates.entries:
        out += rate * (recombine_weights(w, space.sizes, links.blocks(space.n_nodes)) - w)
    return out


# (2,3,2,3) and 3^5 take the stacked kernel; 4^6 has more than 2^18
# marginal rows x states and takes the strided one.  The cut sets share
# blocks ({0} and {0,2} share node block (0,); {2} and {0,2} share the
# block after link 2) and one entry has rate zero.
FIELD_CASES = [
    ((2, 3, 2, 3), "stacked_field"),
    ((3, 3, 3, 3, 3), "stacked_field"),
    ((4, 4, 4, 4, 4, 4), "strided_field"),
]


def _shared_block_rates(n_links):
    return RateMap(
        n_links,
        (
            (LinkSet.from_indices([0], n_links), 0.7),
            (LinkSet.from_indices([2], n_links), 1.3),
            (LinkSet.from_indices([0, 2], n_links), 0.4),
            (LinkSet.from_indices([1], n_links), 0.0),
            (LinkSet.full(n_links), 0.25),
        ),
    )


@pytest.mark.parametrize("sizes,kernel", FIELD_CASES)
def test_compile_field_matches_recombine_weights(sizes, kernel):
    space = ProductSpace(sizes)
    rates = _shared_block_rates(space.n_links)
    field = compile_field(space, rates)
    assert field.__name__ == kernel
    rng = np.random.default_rng(len(sizes))
    positive = random_probability(space, 4).weights
    signed = rng.standard_normal(space.total_states)
    # Below ZERO_TOTAL_VARIATION R(w) = 0, so the field is -sum(rho) w.
    below_zero_tv = 5e-301 * signed / np.abs(signed).sum()
    for w in (positive, signed, 1e-200 * signed, below_zero_tv):
        bound = 1e-15 * np.abs(w).sum()
        assert np.abs(field(w) - reference_field(space, rates, w)).max() <= bound


@pytest.mark.parametrize("sizes,kernel", FIELD_CASES)
def test_compile_field_zero_measure_and_empty_rates(sizes, kernel):
    space = ProductSpace(sizes)
    zero = np.zeros(space.total_states)
    field = compile_field(space, _shared_block_rates(space.n_links))
    assert field.__name__ == kernel
    np.testing.assert_array_equal(field(zero), zero)
    w = random_probability(space, 2).weights
    empty = compile_field(space, RateMap(space.n_links, ()))
    np.testing.assert_array_equal(empty(w), zero)
    only_zero_rate = compile_field(
        space, RateMap.single(LinkSet.from_indices([1], space.n_links), 0.0)
    )
    np.testing.assert_array_equal(only_zero_rate(w), zero)


def outer_product_field(space, rates, relabel=None):
    """The strided kernel before its column rule, as the bit-level reference.

    Each block marginal is divided by |w| on its own, and each term is one
    chain of ``np.multiply.outer`` added to the output whole.  (Recomputing a
    shared block's marginal per term gives the same bits.)
    """
    sizes = space.sizes
    terms = [(rate, links.blocks(space.n_nodes)) for links, rate in rates.entries if rate != 0.0]
    total_rate = math.fsum(rate for rate, _ in terms)
    inverse = slice(None) if relabel is None else np.argsort(relabel)

    def field(w):
        tv = float(np.abs(w).sum())
        out = -total_rate * w
        if tv < ZERO_TOTAL_VARIATION:
            return out
        for rate, blocks in terms:
            scaled = []
            for block in blocks:
                left = math.prod(sizes[: block[0]])
                size = math.prod(sizes[block[0] : block[-1] + 1])
                right = math.prod(sizes[block[-1] + 1 :])
                m = w if left == 1 else np.ones(left) @ w.reshape(left, size * right)
                if right > 1:
                    m = m.reshape(size, right) @ np.ones(right)
                scaled.append(m / tv)
            acc = (rate * tv) * scaled[0][inverse]
            for m in scaled[1:]:
                acc = np.multiply.outer(acc, m).ravel()
            out += acc
        return out

    return field


def rk4_step_reference(field, w, h):
    """One classical RK4 step with a new array for every operation."""
    k1 = field(w)
    k2 = field(w + (0.5 * h) * k1)
    k3 = field(w + (0.5 * h) * k2)
    k4 = field(w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _cut_sets(n_links, *cut_sets):
    entries = [(LinkSet.from_indices(links, n_links), 0.3 + 0.4 * i)
               for i, links in enumerate(cut_sets)]
    return RateMap(n_links, tuple(entries))


# Strided fields by the shape of their terms' last factors, on 4^7 (16,384)
# states unless named otherwise.
STRIDED_PATHS = {
    # [5]: 4,096 x 4 states, added four columns at a time.
    "short last factor, long lead": ((4,) * 7, _cut_sets(6, [5]), None),
    # [0]: 4 x 4,096, one outer product into a buffer.
    "long last factor": ((4,) * 7, _cut_sets(6, [0]), None),
    # [1, 4]: 16 x 64 x 16 (buffer); [2, 5]: 64 x 64 x 4 (columns).
    "three-block terms": ((4,) * 7, _cut_sets(6, [1, 4], [2, 5]), None),
    # Every shape of a 10-link crossover on 2^11 states: 1,024 x 2 by columns,
    # 512 x 4 and 256 x 8 by outer products.
    "crossover": ((2,) * 11, _cut_sets(10, *([i] for i in range(10))), None),
    # The empty cut set under a relabeling of all states: one block.
    "relabeled one-block term": (
        (4,) * 7, _cut_sets(6, []), np.random.default_rng(5).permutation(4**7).tolist()
    ),
    "relabeled two-block term": ((4,) * 7, _cut_sets(6, [0]), [2, 0, 3, 1]),
}


@pytest.mark.parametrize("path", list(STRIDED_PATHS))
def test_strided_field_writes_the_outer_product_bits(path):
    sizes, rates, relabel = STRIDED_PATHS[path]
    space = ProductSpace(sizes)
    field = compile_field(space, rates, relabel)
    assert field.__name__ == "strided_field"
    reference = outer_product_field(space, rates, relabel)
    signed = np.random.default_rng(len(path)).standard_normal(space.total_states)
    positive = random_probability(space, 3).weights
    below_zero_tv = 5e-301 * signed / np.abs(signed).sum()
    for w in (positive, signed, 1e-200 * signed, below_zero_tv):
        assert field(w).tobytes() == reference(w).tobytes()


@pytest.mark.parametrize("path", list(STRIDED_PATHS))
def test_rk4_steps_write_the_reference_bits(path):
    # Two steps and a shortened third, from a positive and a signed state.
    sizes, rates, relabel = STRIDED_PATHS[path]
    space = ProductSpace(sizes)
    field = compile_field(space, rates, relabel)
    reference = outer_product_field(space, rates, relabel)
    signed = np.random.default_rng(7).standard_normal(space.total_states)
    for w in (random_probability(space, 4).weights, signed):
        traj = integrate_field(field, Measure(space, w), t_end=0.025, h=0.01)
        expected = [w]
        for h in (0.01, 0.01, 0.025 - 2 * 0.01):
            expected.append(rk4_step_reference(reference, expected[-1], h))
        assert traj.times[-1] == 0.025
        assert traj.weights.tobytes() == np.stack(expected).tobytes()


def test_compile_field_rejects_mismatched_links():
    with pytest.raises(ValueError):
        compile_field(ProductSpace((2, 2, 2)), RateMap.single(CUT, 1.0))


def test_ratemap_validation():
    # The empty cut set moves nothing without a relabeling: the field rejects it.
    empty_cut = RateMap.single(LinkSet.empty(2), 1.0)
    with pytest.raises(ValueError, match="no motion"):
        compile_field(ProductSpace((2, 2, 2)), empty_cut)
    with pytest.raises(ValueError, match="no motion"):
        rk4_integrate(random_probability(ProductSpace((2, 2, 2)), 0), empty_cut, 0.1, 0.1)
    with pytest.raises(ValueError):
        RateMap.single(CUT, -0.5)
    with pytest.raises(ValueError):
        RateMap(1, ((CUT, 1.0), (CUT, 2.0)))
    with pytest.raises(ValueError, match="total"):
        RateMap.crossover([1.7e308, 1.7e308])


def test_rk4_empty_rates_constant_trajectory():
    omega = random_probability(SPACE, 5)
    traj = rk4_integrate(omega, RateMap(1, ()), t_end=0.5, h=0.1)
    for state in traj.states:
        np.testing.assert_array_equal(state.weights, omega.weights)


def test_rk4_zero_horizon_is_single_state():
    omega = random_probability(SPACE, 5)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.0, h=0.1)
    assert traj.times == (0.0,)
    np.testing.assert_array_equal(traj.states[0].weights, omega.weights)


def test_rk4_partial_final_step_lands_on_t_end():
    omega = random_probability(SPACE, 5)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.25, h=0.1)
    assert traj.times[-1] == 0.25
    assert len(traj) == 4
    # The last row is the state at 0.25, not the one at 0.2 stored again.
    exact = one_set_flow(omega, CUT, 1.0, 0.25)
    assert total_variation(traj.states[-1] - exact) <= 1e-6
    assert total_variation(traj.states[-2] - exact) > 1e-4


def test_rk4_strided_grid_ends_exactly_at_t_end():
    # Three steps of 0.1 sum to 0.30000000000000004; the stored time is t_end.
    omega = random_probability(SPACE, 5)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.3, h=0.1,
                         store_stride=2)
    assert traj.times == (0.0, 0.2, 0.3)
    assert list(traj.times) == output_grid(0.3, 0.1, 2)
    assert output_grid(0.0, 0.1, 3) == [0.0]
    assert output_grid(0.25, 0.1, 2) == [0.0, 0.2, 0.25]
    assert output_grid(0.5, 0.1, 2) == [0.0, 0.2, 0.4, 0.5]


def test_rk4_matches_semigroup():
    omega = random_probability(ProductSpace((2, 3, 2)), 7)
    cut = LinkSet.from_indices([0], 2)
    traj = rk4_integrate(omega, RateMap.single(cut, 1.0), t_end=1.0, h=1e-3)
    gap = total_variation(traj.states[-1] - one_set_flow(omega, cut, 1.0, 1.0))
    assert gap <= 1e-8
    for state in traj.states:
        assert abs(state.mass - omega.mass) <= 1e-9
        assert state.weights.min() >= -1e-9


def test_integrate_field_is_rk4_integrate():
    space = ProductSpace((2, 3, 2))
    omega = random_probability(space, 9)
    rates = RateMap.crossover([1.0, 0.3])
    field = compile_field(space, rates)
    ours = integrate_field(field, omega, t_end=0.25, h=0.1, store_stride=2)
    oracle = rk4_integrate(omega, rates, t_end=0.25, h=0.1, store_stride=2)
    assert ours.times == oracle.times
    for a, b in zip(ours.states, oracle.states):
        assert np.array_equal(a.weights, b.weights)


def test_rk4_argument_validation():
    omega = random_probability(SPACE, 5)
    rates = RateMap.single(CUT, 1.0)
    with pytest.raises(ValueError):
        rk4_integrate(omega, rates, t_end=1.0, h=0.0)
    with pytest.raises(ValueError):
        rk4_integrate(omega, rates, t_end=-1.0, h=0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            rk4_integrate(omega, rates, t_end=1.0, h=bad)
        with pytest.raises(ValueError):
            rk4_integrate(omega, rates, t_end=bad, h=0.1)
    with pytest.raises(ValueError, match="cap"):
        rk4_integrate(omega, rates, t_end=1e308, h=1e-3)
    with pytest.raises(ValueError, match="grid points"):
        rk4_integrate(omega, rates, t_end=2e5, h=1.0)
    signed = Measure(SPACE, [0.5, 0.6, -0.1, 0.0])
    with pytest.raises(ValueError):
        rk4_integrate(signed, rates, t_end=1.0, h=0.1)


def _assert_matches_separate_runs(problems, **grid):
    batch = rk4_integrate_many(problems, **grid)
    assert len(batch) == len(problems)
    for (omega0, rates), traj in zip(problems, batch):
        alone = rk4_integrate(omega0, rates, **grid)
        assert traj.times == alone.times
        for a, b in zip(traj.states, alone.states):
            assert a.space == omega0.space and a.nodes == omega0.nodes
            assert np.abs(a.weights - b.weights).max() <= 1e-15 * np.abs(b.weights).sum()
    return batch


def test_rk4_integrate_many_matches_separate_runs():
    # Shapes, rate kinds and term widths (1 to 4 blocks) differ from problem
    # to problem; masses differ too, so one |w| shared by all would show.
    # 4^6 takes the strided kernel and runs alone; the rest share one vector.
    general = RateMap(
        3, ((LinkSet.from_indices([0, 2], 3), 0.6), (LinkSet.from_indices([1], 3), 1.1))
    )
    stretch = DisjointStretchSystem(
        ((LinkSet.from_indices([0], 4), 0.8), (LinkSet.from_indices([2, 3], 4), 0.5))
    )
    big = ProductSpace((4,) * 6)
    problems = [
        (random_probability(SPACE, 1), RateMap.single(CUT, 1.3)),
        (2.5 * random_probability(ProductSpace((2, 3, 2, 3)), 2), general),
        (random_probability(ProductSpace((3, 2, 2, 2, 3)), 3), stretch.as_rate_map()),
        (random_probability(big, 4), _shared_block_rates(big.n_links)),
        (0.5 * random_probability(ProductSpace((2, 3, 2)), 5), RateMap.crossover([0.4, 1.7])),
        (random_probability(ProductSpace((2, 2, 2, 2)), 6), RateMap.single(LinkSet.full(3), 0.9)),
    ]
    batch = _assert_matches_separate_runs(problems, t_end=0.35, h=0.1, store_stride=2)
    assert batch[0].times == (0.0, 0.2, 0.35)
    # The batch moves every problem: none is left at its initial state.
    for (omega0, _), traj in zip(problems, batch):
        assert total_variation(traj.states[-1] - omega0) > 1e-6


def test_rk4_integrate_many_idle_problems_next_to_live_ones():
    space = ProductSpace((2, 3, 2))
    live = random_probability(space, 7)
    # Below ZERO_TOTAL_VARIATION R(w) = 0, so this one only decays.
    tiny = Measure(space, 1e-303 * random_probability(space, 8).weights)
    problems = [
        (live, RateMap.crossover([1.0, 0.5])),
        (random_probability(space, 9), RateMap(2, ())),
        (tiny, RateMap.crossover([1.0, 0.5])),
        (random_probability(SPACE, 10), RateMap.single(CUT, 0.0)),
        (live, RateMap(2, ((LinkSet.from_indices([0], 2), 0.0),
                           (LinkSet.from_indices([1], 2), 2.0)))),
    ]
    batch = _assert_matches_separate_runs(problems, t_end=0.3, h=0.1)
    for index in (1, 3):
        for state in batch[index].states:
            np.testing.assert_array_equal(state.weights, problems[index][0].weights)
    # Three steps of d/dt w = -1.5 w, each scaling by RK4's degree-4 polynomial.
    z = -1.5 * 0.1
    decay = (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) ** 3
    np.testing.assert_allclose(batch[2].states[-1].weights, decay * tiny.weights, rtol=1e-14)
    assert total_variation(batch[0].states[-1] - live) > 1e-3


def test_rk4_integrate_many_validation():
    omega = random_probability(SPACE, 5)
    rates = RateMap.single(CUT, 1.0)
    with pytest.raises(ValueError, match="at least one"):
        rk4_integrate_many([], t_end=1.0, h=0.1)
    with pytest.raises(ValueError, match="link count"):
        rk4_integrate_many([(omega, rates), (omega, RateMap.crossover([1.0, 1.0]))],
                           t_end=1.0, h=0.1)
    signed = Measure(SPACE, [0.5, 0.6, -0.1, 0.0])
    with pytest.raises(ValueError, match="positive"):
        rk4_integrate_many([(omega, rates), (signed, rates)], t_end=1.0, h=0.1)
    with pytest.raises(ValueError, match="cap"):
        rk4_integrate_many([(omega, rates)], t_end=1e308, h=1e-3)


def test_semigroup_time_zero_is_identity():
    omega = random_probability(SPACE, 2)
    out = one_set_flow(omega, CUT, 1.7, 0.0)
    np.testing.assert_array_equal(out.weights, omega.weights)


def test_semigroup_long_time_reaches_recombination():
    omega = random_probability(ProductSpace((2, 3)), 4)
    cut = LinkSet.from_indices([0], 1)
    final = one_set_flow(omega, cut, 1.0, 50.0)
    assert total_variation(final - recombine(omega, cut)) <= 1e-20


def test_semigroup_exact_decay_identity():
    space = ProductSpace((2, 2, 3))
    for seed in range(10):
        omega = random_probability(space, seed)
        cut = LinkSet.from_indices([0, 1], 2)
        rho = 0.8
        equilibrium = recombine(omega, cut)
        span = total_variation(omega - equilibrium)
        for t in (0.1, 1.0, 3.0):
            lhs = total_variation(one_set_flow(omega, cut, rho, t) - equilibrium)
            rhs = math.exp(-rho * t) * span
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_semigroup_validation():
    # The one-set flow is product_flow_apply of a one-component system: the
    # system rejects an empty cut set and a rate 0, the flow a negative time
    # and a signed state.
    omega = random_probability(SPACE, 2)
    with pytest.raises(ValueError, match="nonempty"):
        one_set_flow(omega, LinkSet.empty(1), 1.0, 1.0)
    with pytest.raises(ValueError, match="> 0"):
        one_set_flow(omega, CUT, 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        one_set_flow(omega, CUT, 1.0, -0.1)
    with pytest.raises(ValueError, match="positive"):
        one_set_flow(Measure(SPACE, [0.5, 0.6, -0.1, 0.0]), CUT, 1.0, 1.0)


def test_stretch_system_validation():
    a = LinkSet.from_indices([0, 2], 3)
    b = LinkSet.from_indices([1], 3)
    with pytest.raises(ValueError):
        DisjointStretchSystem(((a, 1.0), (b, 1.0)))
    with pytest.raises(ValueError):
        DisjointStretchSystem(((b, 0.0),))
    with pytest.raises(ValueError):
        DisjointStretchSystem(((LinkSet.empty(3), 1.0),))
    ok = DisjointStretchSystem(((b, 1.0), (LinkSet.from_indices([2], 3), 0.5)))
    assert ok.union().indices == (1, 2)


def test_product_flow_zero_times_and_single_component():
    space = ProductSpace((2, 2, 2))
    omega = random_probability(space, 6)
    system = DisjointStretchSystem(
        ((LinkSet.from_indices([0], 2), 1.0), (LinkSet.from_indices([1], 2), 0.5))
    )
    unchanged = product_flow_apply(omega, system, [0.0, 0.0])
    np.testing.assert_array_equal(unchanged.weights, omega.weights)

    # One component at one time is the one-set flow, the row of its grid.
    solo = DisjointStretchSystem(((LinkSet.from_indices([0], 2), 1.3),))
    via_flow = product_flow_apply(omega, solo, [0.9])
    np.testing.assert_array_equal(via_flow.weights, product_flow_grid(omega, solo, [0.9])[0])
    survival = math.exp(-1.3 * 0.9)
    direct = survival * omega + (1.0 - survival) * recombine(omega, solo.union())
    assert total_variation(via_flow - direct) <= 1e-15

    with pytest.raises(ValueError):
        product_flow_apply(omega, system, [0.1])


def test_product_flow_one_parameter_law():
    space = ProductSpace((2, 3, 2, 2))
    system = DisjointStretchSystem(
        ((LinkSet.from_indices([0], 3), 1.1), (LinkSet.from_indices([2], 3), 0.6))
    )
    for seed in range(5):
        omega = random_probability(space, seed)
        s, t = 0.45, 1.15
        direct = product_flow_apply(omega, system, [s + t] * 2)
        staged = product_flow_apply(
            product_flow_apply(omega, system, [s] * 2), system, [t] * 2
        )
        assert total_variation(direct - staged) <= 1e-11


def test_product_flow_order_independence():
    space = ProductSpace((2, 2, 2, 2))
    for seed in range(10):
        omega = random_probability(space, seed)
        l1 = LinkSet.from_indices([0], 3)
        l2 = LinkSet.from_indices([2], 3)
        s, t = 0.7, 1.3
        forward = one_set_flow(one_set_flow(omega, l1, 1.0, s), l2, 0.6, t)
        backward = one_set_flow(one_set_flow(omega, l2, 0.6, t), l1, 1.0, s)
        assert total_variation(forward - backward) <= 1e-12


def test_crossover_time_zero_identity():
    omega = random_probability(ProductSpace((2, 2, 2)), 1)
    out = crossover_at(omega, [1.0, 0.5], 0.0)
    np.testing.assert_array_equal(out.weights, omega.weights)


def test_crossover_coefficients_at_log_two():
    # e^{-t} = 1/2 at t = ln 2 makes every weight 1/4 on two links
    a, b = coefficients_at([1.0, 1.0], math.log(2.0))
    for links in all_link_sets(2):
        assert abs(a[links.bits] - 0.25) <= 1e-12
    assert abs(b[LinkSet.from_indices([0], 2).bits] - 0.5) <= 1e-12


def test_coefficient_a_limits():
    rates = [0.7, 1.1, 0.4]
    empty, full = LinkSet.empty(3).bits, LinkSet.full(3).bits
    a, b = expansion_coefficients(rates, [0.0, 1.3, 2.0, 200.0])
    assert abs(a[2, empty] - math.exp(-2.0 * sum(rates))) <= 1e-14
    assert a[0, empty] == 1.0
    assert a[0, full] == 0.0
    assert abs(a[3, full] - 1.0) <= 1e-12
    assert abs(b[1, full] - 1.0) <= 1e-12
    assert b[1, empty] == a[1, empty]


def test_coefficient_sum_is_one():
    a, _ = expansion_coefficients([1.0, 0.3, 0.8], np.linspace(0.0, 5.0, 11).tolist())
    assert a.shape == (11, 8)
    for row in a.tolist():
        assert abs(sum(row) - 1.0) <= 1e-12


def test_coefficient_validation():
    with pytest.raises(ValueError):
        expansion_coefficients([1.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        expansion_coefficients([1.0, math.inf], [1.0])
    with pytest.raises(ValueError):
        expansion_coefficients([1.0, 0.5], [0.5, -0.1])
    omega = random_probability(ProductSpace((2, 2, 2)), 0)
    with pytest.raises(ValueError):
        check_linearization(omega, [1.0], [1.0])
    with pytest.raises(ValueError):
        crossover_grid(omega, [1.0, -0.5], [1.0])


def subset_expansion(omega, rates, t):
    """The paper's sum_G a_G(t) R_G(omega) over all cut sets."""
    a, _ = coefficients_at(rates, t)
    terms = (a[ls.bits] * recombine(omega, ls) for ls in all_link_sets(len(rates)))
    return sum(terms, start=Measure.zero(omega.space))


def reference_coefficients(rates, times):
    """a_G(t) and b_G(t) cell by cell: math.exp factors multiplied from 1.0 in
    link order, the definition ``expansion_coefficients`` must match bit for bit."""
    a, b = [], []
    for t in times:
        row_a, row_b = [], []
        for ls in all_link_sets(len(rates)):
            value_a = value_b = 1.0
            for i, rate in enumerate(rates):
                decayed = math.exp(-rate * t)
                value_a *= (1.0 - decayed) if i in ls else decayed
                if i not in ls:
                    value_b *= decayed
            row_a.append(value_a)
            row_b.append(value_b)
        a.append(row_a)
        b.append(row_b)
    return a, b


def test_expansion_coefficients_are_bit_exact_products_in_link_order():
    times = [0.0, 1e-9, 0.1, 0.25, 0.5, 1.0, 1.3, 2.0, 3.7, 5.0, 10.0, 50.0, 700.0]
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        rates = rng.uniform(0.05, 3.0, size=n).tolist()
        a, b = expansion_coefficients(rates, times)
        assert a.shape == b.shape == (len(times), 1 << n)
        assert (a.tolist(), b.tolist()) == reference_coefficients(rates, times)
    a, b = expansion_coefficients([0.5, 2.0], [])
    assert a.shape == b.shape == (0, 4)


def test_crossover_equals_singleton_product_flow():
    # crossover_grid is the product of the one-link flows; the subset
    # expansion is the independent second opinion.
    space = ProductSpace((2, 3, 2, 2))
    rates = [1.0, 0.4, 0.9]
    for seed in range(5):
        omega = random_probability(space, seed)
        for t in (0.2, 0.9, 2.5):
            expansion = subset_expansion(omega, rates, t)
            product = crossover_at(omega, rates, t)
            assert total_variation(expansion - product) <= 1e-10


def test_coefficient_b_is_the_subset_sum_of_coefficient_a():
    a, b = expansion_coefficients([1.0, 0.3, 0.8, 1.7], [0.0, 0.3, 1.0, 5.0])
    for row_a, row_b in zip(a.tolist(), b.tolist()):
        for links in all_link_sets(4):
            subset_sum = math.fsum(row_a[sub.bits] for sub in subsets_of(links))
            assert abs(row_b[links.bits] - subset_sum) <= 1e-15


def test_moebius_transform_two_point_lattice():
    omega = random_probability(ProductSpace((2, 3)), 11)
    cut = LinkSet.from_indices([0], 1)
    t_empty = moebius_transform(omega, LinkSet.empty(1))
    t_full = moebius_transform(omega, cut)
    recombined = recombine(omega, cut)
    np.testing.assert_array_equal(t_full.weights, recombined.weights)
    np.testing.assert_array_equal(t_empty.weights, (omega - recombined).weights)
    assert total_variation(t_empty + t_full - omega) <= 1e-14


def test_moebius_transform_at_full_set_is_recombination():
    omega = random_probability(ProductSpace((2, 2, 2)), 13)
    full = LinkSet.full(2)
    np.testing.assert_array_equal(
        moebius_transform(omega, full).weights, recombine(omega, full).weights
    )


def test_moebius_inversion_round_trip():
    space = ProductSpace((2, 2, 3))
    omega = random_probability(space, 3)
    for links in all_link_sets(2):
        from recombdyn.lattice import supersets_of

        back = Measure.zero(space)
        for sup in supersets_of(links):
            back = back + moebius_transform(omega, sup)
        assert total_variation(back - recombine(omega, links)) <= 1e-11


def test_linearization_full_set_is_constant():
    omega = random_probability(ProductSpace((2, 2, 2)), 2)
    residual = check_linearization(omega, [1.0, 0.7], [0.0, 0.5, 1.0, 2.0])
    assert residual[LinkSet.full(2).bits] <= 1e-12


def test_linearization_single_link_decay():
    omega = random_probability(ProductSpace((2, 3)), 6)
    residual = check_linearization(omega, [0.9], [0.0, 0.3, 1.0, 2.0, 4.0])
    assert residual[LinkSet.empty(1).bits] <= 1e-12


def test_linearization_three_links():
    omega = random_probability(ProductSpace((2, 2, 2, 2)), 14)
    rates = [1.0, 0.5, 1.4]
    grid = np.arange(0.0, 5.0 + 1e-9, 0.25).tolist()
    residuals = check_linearization(omega, rates, grid)
    assert residuals.shape == (8,) and (residuals <= 1e-9).all()


def test_transform_decay_matches_cumulative_coefficient():
    omega = random_probability(ProductSpace((2, 2, 2, 2)), 15)
    rates = [1.0, 0.5, 1.4]
    state = crossover_at(omega, rates, 0.85)
    _, b = coefficients_at(rates, 0.85)
    for links in all_link_sets(3):
        predicted = b[links.bits] * moebius_transform(omega, links)
        assert total_variation(moebius_transform(state, links) - predicted) <= 1e-10


# -- closed forms on a whole grid ------------------------------------------------

GRID = [0.0, 0.05, 0.3, 0.3001, 1.0, 2.5, 7.0]


def assert_rows_match(stack, measures, omega0):
    """Each row within 1e-15 |omega_0| of the one-row result at its time."""
    assert stack.shape == (len(measures), omega0.space.total_states)
    for row, state in zip(stack, measures):
        assert np.abs(row - state.weights).sum() <= 1e-15 * total_variation(omega0)


def test_product_flow_grid_is_its_one_row_case_at_every_time():
    space = ProductSpace((2, 3, 2, 2, 2))
    system = DisjointStretchSystem(
        ((LinkSet.from_indices([0], 4), 1.1), (LinkSet.from_indices([2, 3], 4), 0.45))
    )
    omega = random_probability(space, 21)
    stack = product_flow_grid(omega, system, GRID)
    np.testing.assert_array_equal(stack[0], omega.weights)
    assert_rows_match(stack, [product_flow_apply(omega, system, [t] * 2) for t in GRID], omega)
    one_set = DisjointStretchSystem(((LinkSet.from_indices([1], 4), 0.8),))
    assert_rows_match(
        product_flow_grid(omega, one_set, GRID),
        [one_set_flow(omega, LinkSet.from_indices([1], 4), 0.8, t) for t in GRID],
        omega,
    )
    assert product_flow_grid(omega, system, []).shape == (0, space.total_states)
    with pytest.raises(ValueError):
        product_flow_grid(omega, system, [0.5, -0.1])


def test_crossover_grid_is_its_one_row_case_at_every_time():
    space = ProductSpace((2, 3, 2, 2))
    rates = [1.0, 0.4, 0.9]
    omega = random_probability(space, 22)
    stack = crossover_grid(omega, rates, GRID)
    np.testing.assert_array_equal(stack[0], omega.weights)
    assert_rows_match(stack, [crossover_at(omega, rates, t) for t in GRID], omega)
    # The subset expansion is the independent second opinion on every row.
    for row, t in zip(stack, GRID):
        assert np.abs(row - subset_expansion(omega, rates, t).weights).sum() <= 1e-10
    with pytest.raises(ValueError):
        crossover_grid(omega, [1.0, 0.4], GRID)


def test_moebius_rows_is_the_transform_of_each_row():
    space = ProductSpace((2, 2, 3, 2))
    omega = random_probability(space, 23)
    rates = [0.7, 1.2, 0.5]
    states = crossover_grid(omega, rates, GRID)
    for links in all_link_sets(3):
        rows = moebius_rows(states, space, links)
        expected = [moebius_transform(Measure(space, w), links) for w in states]
        assert_rows_match(rows, expected, omega)


def linearization_per_time(omega0, rates, links, times):
    """The linearization defect as a loop over times of the one-row forms."""
    base = moebius_transform(omega0, links)
    worst = 0.0
    for t in times:
        state = crossover_at(omega0, rates, t)
        predicted = coefficients_at(rates, t)[1][links.bits] * base
        worst = max(worst, total_variation(moebius_transform(state, links) - predicted))
    return worst


def test_check_linearization_matches_its_per_time_loop():
    omega = random_probability(ProductSpace((2, 3, 2, 2)), 24)
    rates = [1.3, 0.6, 0.9]
    defects = check_linearization(omega, rates, GRID)
    assert defects.shape == (8,)
    for links in all_link_sets(3):
        expected = linearization_per_time(omega, rates, links, GRID)
        assert abs(defects[links.bits] - expected) <= 1e-15
    assert check_linearization(omega, rates, []).tolist() == [0.0] * 8
    with pytest.raises(ValueError):
        check_linearization(omega, rates, [1.0, -1.0])


def test_trajectory_validation():
    omega = random_probability(SPACE, 1)
    with pytest.raises(ValueError):
        Trajectory(SPACE, (0.0, 0.0), np.array([omega.weights, omega.weights]))
    with pytest.raises(ValueError):
        Trajectory(SPACE, (0.5,), np.array([omega.weights]))


def test_trajectory_holds_one_read_only_stack():
    space = ProductSpace((2, 3))
    times = (0.0, 0.5, 1.0)
    stack = np.arange(18, dtype=np.float64).reshape(3, 6)
    traj = Trajectory(space, times, stack)
    assert traj.weights is stack and not stack.flags.writeable
    with pytest.raises(ValueError):
        traj.weights[0, 0] = 1.0
    assert len(traj.states) == 3
    for row, state in zip(stack, traj.states):
        assert state.space == space and state.nodes == (0, 1)
        np.testing.assert_array_equal(state.weights, row)
    for bad in (np.zeros(6), np.zeros((2, 6)), np.zeros((4, 6)), np.zeros((3, 5)),
                np.zeros((3, 7))):
        with pytest.raises(ValueError, match="stack"):
            Trajectory(space, times, bad)


def test_integrate_field_stores_each_state_once():
    # 4^6 states x 101 stored rows.  Each stored state is written once, into
    # its row of one stack, so the peak is that stack plus a few one-state
    # temporaries of the RK4 step.
    space = ProductSpace((4,) * 6)
    omega = random_probability(space, 3)
    field = compile_field(space, RateMap.crossover([0.7, 1.1, 0.4, 0.9, 1.3]))
    tracemalloc.start()
    try:
        traj = integrate_field(field, omega, t_end=1.0, h=1e-2, store_stride=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = 8 * len(traj) * space.total_states
    assert len(traj) == 101
    assert peak <= 1.25 * stored, (peak, stored)


def csv_text(traj):
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    return buf.getvalue()


def test_trajectory_csv_round_trip():
    omega = random_probability(SPACE, 1)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.3, h=0.1)
    text = csv_text(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t," + ",".join(str(i) for i in range(4))
    assert len(lines) == len(traj) + 1
    for line, (t, state) in zip(lines[1:], zip(traj.times, traj.states)):
        cells = [float(x) for x in line.split(",")]
        assert cells[0] == t
        np.testing.assert_array_equal(np.array(cells[1:]), state.weights)


GOLDEN_WEIGHTS = (
    0.0, -0.0, 5e-324, 1e-300,
    1e-5, 9.9999999999999995e-05, 1e-4,  # the fixed/exponent switch of %g
    0.1, 1.0, 1e16, 1e17, -3.2e-17,
)


def test_trajectory_csv_golden_format():
    # Byte for byte what per-element f"{np.float64:.17g}" formatting writes.
    space = ProductSpace((2, 3, 2))
    base = np.array(GOLDEN_WEIGHTS)
    rows = [base, base[::-1], -base, np.roll(base, 5)]
    times = (0.0, 5e-324, 9.9999999999999995e-05, 1e17)
    traj = Trajectory(space, times, np.array(rows))

    expected = "t," + ",".join(str(i) for i in range(12)) + "\n"
    for t, w in zip(times, rows):
        expected += ",".join([f"{t:.17g}"] + [f"{x:.17g}" for x in np.asarray(w)]) + "\n"
    assert csv_text(traj) == expected
    first_row = expected.split("\n")[1].split(",")
    assert first_row[1:8] == ["0", "-0", "4.9406564584124654e-324", "1e-300",
                              "1.0000000000000001e-05", "9.9999999999999991e-05", "0.0001"]
    assert first_row[9:] == ["1", "10000000000000000", "1e+17", "-3.2000000000000002e-17"]


@pytest.mark.parametrize("sizes", [(1023,), (1024,), (1025,), (3,) * 7],
                         ids=["1023", "1024", "1025", "2187"])
def test_trajectory_csv_slices_join_into_whole_lines(sizes):
    # Lines narrower, as wide as and wider than one slice of cells are the
    # per-element formatting of the whole line, golden values included.
    space = ProductSpace(sizes)
    weights = np.resize(np.array(GOLDEN_WEIGHTS), space.total_states)
    rows = [weights, random_probability(space, 2).weights]
    traj = Trajectory(space, (0.0, 1e17), np.array(rows))
    expected = "t," + ",".join(str(i) for i in range(space.total_states)) + "\n"
    for t, w in zip(traj.times, rows):
        expected += ",".join([f"{t:.17g}"] + [f"{x:.17g}" for x in w]) + "\n"
    assert csv_text(traj) == expected


def test_trajectory_json_mirror():
    omega = random_probability(SPACE, 1)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.2, h=0.1)
    doc = trajectory_to_json_dict(traj)
    assert set(doc) == {"times", "states"}
    round_tripped = json.loads(json.dumps(doc))
    assert round_tripped["times"] == list(traj.times)
    np.testing.assert_array_equal(round_tripped["states"][-1], traj.states[-1].weights)
