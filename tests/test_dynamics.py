import json
import math

import numpy as np
import pytest

from recombdyn.dynamics import (
    DisjointStretchSystem,
    RateMap,
    Trajectory,
    check_linearization,
    coefficient_a,
    coefficient_b,
    compile_field,
    crossover_solution,
    moebius_transform,
    output_grid,
    product_flow_apply,
    rk4_integrate,
    semigroup_apply,
    trajectory_to_csv_string,
    trajectory_to_json_dict,
    vector_field,
)
from recombdyn.lattice import LinkSet, _cached_blocks, all_link_sets
from recombdyn.measure import (
    Measure,
    ProductSpace,
    random_probability,
    tensor,
    total_variation,
)
from recombdyn.recombinator import recombine, recombine_weights

SPACE = ProductSpace((2, 2))
CUT = LinkSet.from_indices([0], 1)


def test_vector_field_hand_example():
    omega = Measure(SPACE, [0.5, 0.2, 0.1, 0.2])
    field = vector_field(omega, RateMap.single(CUT, 1.0))
    np.testing.assert_allclose(field.weights, [-0.08, 0.08, 0.08, -0.08], atol=1e-15)


def test_vector_field_vanishes_on_product_measures():
    mu = Measure(ProductSpace((2,)), [0.3, 0.7])
    nu = Measure(ProductSpace((3,)), [0.2, 0.5, 0.3], nodes=(1,))
    product = tensor([mu, nu])
    rates = RateMap.from_pairs(
        [(LinkSet.from_indices([0], 1), 1.0)], n_links=1
    )
    assert total_variation(vector_field(product, rates)) <= 1e-13


def test_vector_field_empty_rates_is_zero():
    omega = random_probability(SPACE, 3)
    assert total_variation(vector_field(omega, RateMap.empty(1))) == 0.0


def test_vector_field_total_weight_is_zero_on_positives():
    space = ProductSpace((2, 3, 2))
    omega = random_probability(space, 9)
    rates = RateMap.from_pairs(
        [(LinkSet.from_indices([0], 2), 0.7), (LinkSet.from_indices([0, 1], 2), 0.4)],
        n_links=2,
    )
    assert abs(vector_field(omega, rates).mass) <= 1e-14


def reference_field(space, rates, w):
    """sum_G rho_G (R_G(w) - w), one recombine_weights call per term."""
    out = np.zeros_like(w)
    for links, rate in rates.items():
        blocks = _cached_blocks(links.bits, space.n_nodes)
        out += rate * (recombine_weights(w, space.sizes, blocks) - w)
    return out


# (2,3,2,3) and 3^5 take the dense kernel; 4^6 stacks more than 2^18
# marginal-operator entries and takes the strided one.  The cut sets share
# blocks ({0} and {0,2} share node block (0,); {2} and {0,2} share the
# block after link 2) and one entry has rate zero.
FIELD_CASES = [
    ((2, 3, 2, 3), "dense_field"),
    ((3, 3, 3, 3, 3), "dense_field"),
    ((4, 4, 4, 4, 4, 4), "strided_field"),
]


def _shared_block_rates(n_links):
    return RateMap.from_pairs(
        [
            (LinkSet.from_indices([0], n_links), 0.7),
            (LinkSet.from_indices([2], n_links), 1.3),
            (LinkSet.from_indices([0, 2], n_links), 0.4),
            (LinkSet.from_indices([1], n_links), 0.0),
            (LinkSet.full(n_links), 0.25),
        ],
        n_links,
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
    empty = compile_field(space, RateMap.empty(space.n_links))
    np.testing.assert_array_equal(empty(w), zero)
    only_zero_rate = compile_field(
        space, RateMap.single(LinkSet.from_indices([1], space.n_links), 0.0)
    )
    np.testing.assert_array_equal(only_zero_rate(w), zero)


def test_compile_field_rejects_mismatched_links():
    with pytest.raises(ValueError):
        compile_field(ProductSpace((2, 2, 2)), RateMap.single(CUT, 1.0))


def test_ratemap_validation():
    with pytest.raises(ValueError):
        RateMap.single(LinkSet.empty(2), 1.0)
    with pytest.raises(ValueError):
        RateMap.single(CUT, -0.5)
    with pytest.raises(ValueError):
        RateMap.from_pairs([(CUT, 1.0), (CUT, 2.0)], n_links=1)


def test_rk4_empty_rates_constant_trajectory():
    omega = random_probability(SPACE, 5)
    traj = rk4_integrate(omega, RateMap.empty(1), t_end=0.5, h=0.1)
    assert traj.method == "rk4"
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
    gap = total_variation(traj.states[-1] - semigroup_apply(omega, cut, 1.0, 1.0))
    assert gap <= 1e-8
    for state in traj.states:
        assert abs(state.mass - omega.mass) <= 1e-9
        assert state.weights.min() >= -1e-9


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
    signed = Measure(SPACE, [0.5, 0.6, -0.1, 0.0])
    with pytest.raises(ValueError):
        rk4_integrate(signed, rates, t_end=1.0, h=0.1)


def test_semigroup_time_zero_is_identity():
    omega = random_probability(SPACE, 2)
    out = semigroup_apply(omega, CUT, 1.7, 0.0)
    np.testing.assert_array_equal(out.weights, omega.weights)


def test_semigroup_long_time_reaches_recombination():
    omega = random_probability(ProductSpace((2, 3)), 4)
    cut = LinkSet.from_indices([0], 1)
    final = semigroup_apply(omega, cut, 1.0, 50.0)
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
            lhs = total_variation(semigroup_apply(omega, cut, rho, t) - equilibrium)
            rhs = math.exp(-rho * t) * span
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_semigroup_validation():
    omega = random_probability(SPACE, 2)
    with pytest.raises(ValueError):
        semigroup_apply(omega, LinkSet.empty(1), 1.0, 1.0)
    with pytest.raises(ValueError):
        semigroup_apply(omega, CUT, 0.0, 1.0)
    with pytest.raises(ValueError):
        semigroup_apply(omega, CUT, 1.0, -0.1)


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

    solo = DisjointStretchSystem(((LinkSet.from_indices([0], 2), 1.3),))
    via_flow = product_flow_apply(omega, solo, [0.9])
    direct = semigroup_apply(omega, LinkSet.from_indices([0], 2), 1.3, 0.9)
    np.testing.assert_array_equal(via_flow.weights, direct.weights)

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
        forward = semigroup_apply(semigroup_apply(omega, l1, 1.0, s), l2, 0.6, t)
        backward = semigroup_apply(semigroup_apply(omega, l2, 0.6, t), l1, 1.0, s)
        assert total_variation(forward - backward) <= 1e-12


def test_crossover_time_zero_identity():
    omega = random_probability(ProductSpace((2, 2, 2)), 1)
    out = crossover_solution(omega, [1.0, 0.5], 0.0)
    np.testing.assert_array_equal(out.weights, omega.weights)


def test_crossover_coefficients_at_log_two():
    # e^{-t} = 1/2 at t = ln 2 makes every weight 1/4 on two links
    t = math.log(2.0)
    rates = [1.0, 1.0]
    for links in all_link_sets(2):
        assert abs(coefficient_a(links, rates, t) - 0.25) <= 1e-12
    assert abs(coefficient_b(LinkSet.from_indices([0], 2), rates, t) - 0.5) <= 1e-12


def test_coefficient_a_limits():
    rates = [0.7, 1.1, 0.4]
    empty = LinkSet.empty(3)
    full = LinkSet.full(3)
    assert abs(coefficient_a(empty, rates, 2.0) - math.exp(-2.0 * sum(rates))) <= 1e-14
    assert coefficient_a(empty, rates, 0.0) == 1.0
    assert coefficient_a(full, rates, 0.0) == 0.0
    assert abs(coefficient_a(full, rates, 200.0) - 1.0) <= 1e-12
    assert abs(coefficient_b(full, rates, 1.3) - 1.0) <= 1e-12
    assert coefficient_b(empty, rates, 1.3) == coefficient_a(empty, rates, 1.3)


def test_coefficient_sum_is_one():
    rates = [1.0, 0.3, 0.8]
    for t in np.linspace(0.0, 5.0, 11):
        total = sum(coefficient_a(ls, rates, float(t)) for ls in all_link_sets(3))
        assert abs(total - 1.0) <= 1e-12


def test_coefficient_validation():
    with pytest.raises(ValueError):
        coefficient_a(LinkSet.empty(2), [1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        coefficient_a(LinkSet.empty(2), [1.0], 1.0)
    omega = random_probability(ProductSpace((2, 2, 2)), 0)
    with pytest.raises(ValueError):
        crossover_solution(omega, [1.0, -0.5], 1.0)


def test_crossover_equals_singleton_product_flow():
    space = ProductSpace((2, 3, 2, 2))
    rates = [1.0, 0.4, 0.9]
    system = DisjointStretchSystem(
        tuple((LinkSet.from_indices([i], 3), rates[i]) for i in range(3))
    )
    for seed in range(5):
        omega = random_probability(space, seed)
        for t in (0.2, 0.9, 2.5):
            expansion = crossover_solution(omega, rates, t)
            product = product_flow_apply(omega, system, [t] * 3)
            assert total_variation(expansion - product) <= 1e-10


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
    residual = check_linearization(
        omega, [1.0, 0.7], LinkSet.full(2), [0.0, 0.5, 1.0, 2.0]
    )
    assert residual <= 1e-12


def test_linearization_single_link_decay():
    omega = random_probability(ProductSpace((2, 3)), 6)
    residual = check_linearization(
        omega, [0.9], LinkSet.empty(1), [0.0, 0.3, 1.0, 2.0, 4.0]
    )
    assert residual <= 1e-12


def test_linearization_three_links():
    omega = random_probability(ProductSpace((2, 2, 2, 2)), 14)
    rates = [1.0, 0.5, 1.4]
    grid = np.arange(0.0, 5.0 + 1e-9, 0.25).tolist()
    for links in all_link_sets(3):
        assert check_linearization(omega, rates, links, grid) <= 1e-9


def test_transform_decay_matches_cumulative_coefficient():
    omega = random_probability(ProductSpace((2, 2, 2, 2)), 15)
    rates = [1.0, 0.5, 1.4]
    t = 0.85
    state = crossover_solution(omega, rates, t)
    for links in all_link_sets(3):
        predicted = coefficient_b(links, rates, t) * moebius_transform(omega, links)
        assert total_variation(moebius_transform(state, links) - predicted) <= 1e-10


def test_trajectory_validation():
    omega = random_probability(SPACE, 1)
    with pytest.raises(ValueError):
        Trajectory((0.0, 0.0), (omega, omega), "rk4")
    with pytest.raises(ValueError):
        Trajectory((0.5,), (omega,), "rk4")


def test_trajectory_csv_round_trip():
    omega = random_probability(SPACE, 1)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.3, h=0.1)
    text = trajectory_to_csv_string(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t," + ",".join(str(i) for i in range(4))
    assert len(lines) == len(traj) + 1
    for line, (t, state) in zip(lines[1:], zip(traj.times, traj.states)):
        cells = [float(x) for x in line.split(",")]
        assert cells[0] == t
        np.testing.assert_array_equal(np.array(cells[1:]), state.weights)


def test_trajectory_json_mirror():
    omega = random_probability(SPACE, 1)
    traj = rk4_integrate(omega, RateMap.single(CUT, 1.0), t_end=0.2, h=0.1)
    doc = trajectory_to_json_dict(traj)
    assert set(doc) == {"times", "states"}
    round_tripped = json.loads(json.dumps(doc))
    assert round_tripped["times"] == list(traj.times)
    np.testing.assert_array_equal(round_tripped["states"][-1], traj.states[-1].weights)
