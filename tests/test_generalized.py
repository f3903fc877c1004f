import math
import tracemalloc
import warnings

import numpy as np
import pytest

from recombdyn import dynamics, generalized
from recombdyn.generalized import (
    check_flow_commutation,
    check_generalized_ode,
    cycle_lengths,
    cyclic_apply,
    flow_coefficients,
    generalized_flow_grid,
    gfun,
    gfun_asymptotic_check,
    require_cyclic_map,
    roots_of_unity_mean,
)
from recombdyn.lattice import LinkSet
from recombdyn.measure import (
    Measure,
    ProductSpace,
    marginal,
    random_probability,
    tensor,
    total_variation,
)
from recombdyn.recombinator import recombine
from recombdyn.dynamics import (
    RateMap,
    compile_field,
    product_flow_apply,
)


def series_gfun(n, k, t):
    """Factorial-series oracle: delta_{k,0} + sum_{m>=1} t^{mn-k}/(mn-k)!"""
    total = 1.0 if k == 0 else 0.0
    m = 1
    while True:
        term = t ** (m * n - k) / math.factorial(m * n - k)
        total += term
        if term < 1e-22 * max(total, 1.0):
            return total
        m += 1


def cyclic_map(cuts, perm, rho=1.0):
    """The one-entry map of rate rho on ``cuts``, relabeled by ``perm``."""
    return RateMap(cuts.n_links, ((cuts, rho),), perm)


def at_rate(rates, rho):
    """A cyclic map with its one rate replaced by rho."""
    [(cuts, _)] = rates.entries
    return cyclic_map(cuts, rates.relabel, rho)


def flow_at(omega, rates, t):
    """The cyclic flow at one time: the one-row ``generalized_flow_grid``."""
    return Measure(omega.space, generalized_flow_grid(omega, rates, [t])[0])


def gfun_at(n, k, t):
    """F_k(t) of order n, read from the one-time ``gfun`` table."""
    return float(gfun(n, [t])[0, k])


def three_cycle(seed=7):
    space = ProductSpace((3, 2, 2))
    return cyclic_map(LinkSet.from_indices([0], 2), (1, 2, 0)), random_probability(space, seed)


def test_gfun_rejects_small_order():
    with pytest.raises(ValueError):
        gfun(0, [1.0])


def test_order_one_is_the_one_set_flow():
    # A fixed point of the relabeling: F_0 = e^t, and C = R is hit at rate one.
    for t in (0.0, 0.3, 1.0, 7.5):
        assert abs(gfun_at(1, 0, t) - math.exp(t)) <= 1e-15 * math.exp(t)
        coeffs = flow_coefficients(1, t)
        assert coeffs.shape == (2,)
        assert abs(coeffs[0] - math.exp(-t)) <= 1e-16
        assert abs(coeffs[1] - (1.0 - math.exp(-t))) <= 1e-16


def test_gfun_rejects_a_broken_root_table(monkeypatch):
    # Roots not closed under conjugation make the inverse DFT truly complex.
    broken = np.exp(2j * np.pi * np.arange(3) / 3)
    broken[2] = 1j
    monkeypatch.setattr(generalized, "_roots", lambda n: broken)
    with pytest.raises(ArithmeticError):
        gfun(3, [1.0])


def test_gfun_order_two_is_hyperbolic():
    times = np.linspace(0.0, 10.0, 51).tolist()
    for t, (even, odd) in zip(times, gfun(2, times).tolist()):
        assert abs(even - math.cosh(t)) <= 1e-12 * math.cosh(t)
        expected = math.sinh(t)
        assert abs(odd - expected) <= 1e-12 * max(expected, 1.0)


def test_gfun_matches_factorial_series():
    # independent series oracle; evaluation is backward stable at scale e^t
    times = (0.3, 1.0, 2.5, 5.0)
    for n in (*range(2, 7), 16, 64):
        for t, row in zip(times, gfun(n, times).tolist()):
            for k, value in enumerate(row):
                assert abs(value - series_gfun(n, k, t)) <= 1e-13 * math.exp(t)


def test_gfun_at_zero_is_kronecker():
    for n in range(2, 8):
        for k in range(n):
            assert abs(gfun_at(n, k, 0.0) - (1.0 if k == 0 else 0.0)) <= 1e-14


def test_gfun_table_rows_are_its_one_time_rows():
    # Every (n, k, t) the verify suite evaluates: a row of a table over many
    # times equals the table of that one time, bit for bit.
    vectors = [(0.3, 1.0, 2.5, 5.0), np.linspace(0.0, 10.0, 41).tolist(), [0.0],
               np.linspace(0.0, 8.0, 17).tolist(), [0.5, 1.5, 3.0],
               [0.5 + 1e-4, 1.5 + 1e-4, 3.0 + 1e-4], [0.5 - 1e-4, 1.5 - 1e-4, 3.0 - 1e-4],
               [2.0 + 1e-2, 2.0 - 1e-2, 2.0 + 5e-3, 2.0 - 5e-3, 2.0]]
    for n in range(1, 9):
        for times in vectors:
            table = gfun(n, times)
            assert table.shape == (len(times), n)
            for row, t in zip(table, times):
                assert np.array_equal(row, gfun(n, [t])[0])
    assert gfun(3, []).shape == (0, 3)


def test_gfun_sums_to_exponential():
    for n in range(2, 7):
        times = np.linspace(0.0, 8.0, 9).tolist()
        for t, row in zip(times, gfun(n, times).tolist()):
            assert abs(sum(row) - math.exp(t)) <= 1e-10 * math.exp(t)


def test_gfun_scaled_consistency():
    # flow_coefficients(n, t) holds e^{-t} times (1, F_{n-1}, ..., F_1, F_0 - 1).
    for n in (2, 3, 5):
        for t in (0.4, 2.0):
            coeffs = flow_coefficients(n, t)
            scaled = [coeffs[n] + coeffs[0]] + [coeffs[n - k] for k in range(1, n)]
            assert abs(coeffs[0] - math.exp(-t)) <= 1e-13
            for k in range(n):
                assert abs(scaled[k] - math.exp(-t) * gfun_at(n, k, t)) <= 1e-13


def test_gfun_derivative_recurrence():
    h = 1e-4
    for n in range(2, 7):
        for k in range(n):
            for t in (0.5, 1.5, 3.0):
                diff = (gfun_at(n, k, t + h) - gfun_at(n, k, t - h)) / (2 * h)
                assert abs(diff - gfun_at(n, (k + 1) % n, t)) <= 1e-6


def test_gfun_derivative_second_order_ratio():
    def defect(step):
        worst = 0.0
        for n in (2, 3, 5):
            for k in range(n):
                diff = (gfun_at(n, k, 2.0 + step) - gfun_at(n, k, 2.0 - step)) / (2 * step)
                worst = max(worst, abs(diff - gfun_at(n, (k + 1) % n, 2.0)))
        return worst

    ratio = defect(1e-2) / defect(5e-3)
    assert 3.5 <= ratio <= 4.5


def test_gfun_asymptotic_residuals():
    # order 2 at t = 20: the residual is exactly e^{-40}/2
    assert gfun_asymptotic_check(2, 20.0)[0] <= 1e-17
    assert gfun_asymptotic_check(3, 30.0)[0] <= 1e-6
    assert abs(gfun_at(4, 0, 0.0) - 0.25) <= 1.0
    for n in range(2, 7):
        bound = 2.0 * math.exp((math.cos(2 * math.pi / n) - 1.0) * 30.0)
        deviations = gfun_asymptotic_check(n, 30.0)
        assert deviations.shape == (n,)
        assert (deviations <= bound).all()


def test_roots_of_unity_filter():
    for n in range(2, 9):
        for exponent in range(-40, 41):
            value = roots_of_unity_mean(n, exponent)
            if exponent % n == 0:
                assert abs(value - 1.0) <= 1e-12
            else:
                assert abs(value) <= 1e-12


def test_cyclic_map_validation():
    space = ProductSpace((3, 2))
    cuts = LinkSet.from_indices([0], 1)
    with pytest.raises(ValueError, match="relabel must permute 0"):
        cyclic_map(cuts, (0, 0, 1))  # not a permutation
    for rates, message in (
        (cyclic_map(cuts, (1, 0)), "permute the 3 states of the first block"),
        (cyclic_map(LinkSet.from_indices([0], 2), (1, 2, 0)), "link count"),
        (RateMap.single(cuts, 1.0), "needs a relabeling"),
        (RateMap(1, (), (1, 2, 0)), "one entry, got 0"),
        (cyclic_map(cuts, (1, 2, 0), 0.0), "rate must be positive, got 0.0"),
    ):
        with pytest.raises(ValueError, match=message):
            require_cyclic_map(rates, space)
    require_cyclic_map(cyclic_map(cuts, (1, 2, 0)), space)
    require_cyclic_map(cyclic_map(LinkSet.empty(1), tuple(range(6))), space)
    assert cycle_lengths((1, 2, 0)) == (3, 3, 3)
    assert cycle_lengths((0, 2, 1)) == (1, 2, 2)
    assert cycle_lengths((0, 1, 2)) == (1, 1, 1)


def test_cyclic_apply_wraps_at_the_period():
    # Cycles (0 1) and (2 3 4): C^k repeats with period 6, the lcm.
    space = ProductSpace((5, 2))
    cuts = LinkSet.from_indices([0], 1)
    rates = cyclic_map(cuts, (1, 0, 3, 4, 2))
    omega = random_probability(space, 8)
    composed = tuple(range(5))
    for power in range(1, 13):
        composed = tuple(rates.relabel[p] for p in composed)
        moved = recombine(omega, cuts).weights.reshape(5, 2)[np.argsort(composed)]
        got = cyclic_apply(omega, rates, power)
        np.testing.assert_array_equal(got.weights, moved.reshape(-1))
        wrapped = cyclic_apply(omega, rates, power + 6)
        assert np.array_equal(wrapped.weights, got.weights)
    # Each state's step count is reduced modulo its cycle length in Python
    # ints, so a power past int64 costs the same as a small one.
    huge = 2**100 + 1
    np.testing.assert_array_equal(
        cyclic_apply(omega, rates, huge).weights, cyclic_apply(omega, rates, huge % 6).weights
    )


def test_cyclic_apply_power_zero_and_order():
    rates, omega = three_cycle()
    assert cyclic_apply(omega, rates, 0) is omega
    at_order = cyclic_apply(omega, rates, 3)
    np.testing.assert_array_equal(at_order.weights, recombine(omega, rates.entries[0][0]).weights)


def test_cyclic_apply_identity_relabeling_degenerates():
    space = ProductSpace((3, 2))
    cuts = LinkSet.from_indices([0], 1)
    rates = cyclic_map(cuts, (0, 1, 2))
    # Every state is a fixed point: C = R, and the flow is the one-set flow.
    assert cycle_lengths(rates.relabel) == (1, 1, 1)
    omega = random_probability(space, 3)
    for power in (1, 2, 5):
        got = cyclic_apply(omega, rates, power)
        np.testing.assert_array_equal(got.weights, recombine(omega, cuts).weights)


def test_cyclic_apply_rotates_first_marginal():
    # first-block marginal (0.5, 0.3, 0.2) moves to (0.2, 0.5, 0.3)
    mu = Measure(ProductSpace((3,)), [0.5, 0.3, 0.2])
    nu = Measure(ProductSpace((2,)), [0.6, 0.4], nodes=(1,))
    omega = tensor([mu, nu])
    rates = cyclic_map(LinkSet.from_indices([0], 1), (1, 2, 0))
    once = cyclic_apply(omega, rates, 1)
    np.testing.assert_allclose(marginal(once, [0]).weights, [0.2, 0.5, 0.3], atol=1e-14)
    np.testing.assert_allclose(marginal(once, [1]).weights, [0.6, 0.4], atol=1e-14)


def test_cyclic_period_is_exact():
    rates, omega = three_cycle()
    for power in range(1, 7):
        wrapped = cyclic_apply(omega, rates, power + 3)
        direct = cyclic_apply(omega, rates, power)
        assert total_variation(wrapped - direct) == 0.0


def test_cyclic_apply_rejects_signed_input():
    rates, omega = three_cycle()
    signed = Measure(omega.space, np.linspace(-1, 1, omega.space.total_states))
    with pytest.raises(ValueError):
        cyclic_apply(signed, rates, 1)


def empty_cut_relabeling(seed=3):
    # No cuts: the one block is the whole chain and C = sigma, cycles 2, 3, 1.
    space = ProductSpace((2, 3))
    return cyclic_map(LinkSet.empty(1), (1, 0, 3, 4, 2, 5)), random_probability(space, seed)


def test_empty_cut_set_is_a_plain_relabeling():
    rates, omega = empty_cut_relabeling()
    assert cycle_lengths(rates.relabel) == (2, 2, 3, 3, 3, 1)
    moved = np.empty_like(omega.weights)
    moved[list(rates.relabel)] = omega.weights
    np.testing.assert_array_equal(cyclic_apply(omega, rates, 1).weights, moved)
    assert check_generalized_ode(omega, rates, [0.25, 0.5, 1.0, 2.0], 1e-3) <= 1e-6
    stack = generalized_flow_grid(omega, rates, [0.0, 1.0, 40.0])
    assert np.abs(stack.sum(axis=1) - 1.0).max() <= 1e-14
    # Far out the flow has forgotten where it started: the mean of sigma^k x.
    cycle_mean = np.mean([cyclic_apply(omega, rates, k).weights for k in range(6)], axis=0)
    assert np.abs(stack[-1] - cycle_mean).sum() <= 1e-6


def test_folded_flow_is_the_explicit_order_n_sum():
    # The flow folds by cycle length; the order-n closed form at any n that
    # every cycle divides sums all n + 1 powers C^k(omega_0) explicitly.
    space = ProductSpace((6, 2, 2))
    mixed = cyclic_map(LinkSet.from_indices([0], 2), (1, 2, 0, 4, 3, 5))
    cases = [(mixed, random_probability(space, 12)), empty_cut_relabeling()]
    times = [0.0, 0.2, 1.0, 3.0, 9.0]
    for rates, omega in cases:
        powers = [omega.weights]
        for n in (6, 12, 60):
            powers += [cyclic_apply(omega, rates, k).weights for k in range(len(powers), n + 1)]
            for rho in (1.0, 0.37):
                coeffs = flow_coefficients(n, rho * np.asarray(times))
                explicit = coeffs @ np.asarray(powers[: n + 1])
                folded = generalized_flow_grid(omega, at_rate(rates, rho), times)
                gaps = np.abs(folded - explicit).sum(axis=1)
                assert gaps.max() <= 1e-15 * total_variation(omega), (omega.space, n, gaps)


def test_grouped_flow_is_the_padded_broadcast_bit_for_bit():
    # Each cycle-length group's rows are outer products with its own order-L
    # coefficients.  Padding every state's coefficients with zeros up to the
    # longest cycle and broadcasting over all states gives the same floats.
    space = ProductSpace((6, 2, 2))
    mixed = cyclic_map(LinkSet.from_indices([0], 2), (1, 2, 0, 4, 3, 5))
    omega = random_probability(space, 12)
    times = [0.0, 0.2, 1.0, 3.0, 9.0]
    lengths = np.asarray(cycle_lengths(mixed.relabel))
    rows = (6, space.total_states // 6)
    for rho in (1.0, 0.37):
        table = np.zeros((len(times), 4, 6))
        for n in (1, 2, 3):
            table[:, : n + 1, lengths == n] = flow_coefficients(n, rho * np.asarray(times))[:, :, None]
        padded = table[:, 0, :, None] * omega.weights.reshape(rows)
        for k in range(1, 4):
            padded += table[:, k, :, None] * cyclic_apply(omega, mixed, k).weights.reshape(rows)
        padded = padded.reshape(len(times), space.total_states)
        padded[0] = omega.weights
        flowed = generalized_flow_grid(omega, at_rate(mixed, rho), times)
        assert flowed.tobytes() == padded.tobytes()


def test_relabeled_field_is_the_generator(monkeypatch):
    # One and three blocks, a two-node first block, and run-wide's shape,
    # each on the stacked and the strided kernel.
    cases = [
        three_cycle(),
        (cyclic_map(LinkSet.from_indices([0, 1], 2), (1, 2, 0)),
         random_probability(ProductSpace((3, 2, 2)), 4)),
        (cyclic_map(LinkSet.from_indices([1], 2), (2, 0, 3, 1)),
         random_probability(ProductSpace((2, 2, 3)), 5)),
        (cyclic_map(LinkSet.from_indices([0], 5), (1, 2, 0, 4, 5, 3)),
         random_probability(ProductSpace((6, 4, 4, 4, 4, 4)), 6)),
        empty_cut_relabeling(),
    ]
    for kernel, cap in (("stacked_field", 1 << 40), ("strided_field", 0)):
        monkeypatch.setattr(dynamics, "STACKED_FIELD_MAX_ENTRIES", cap)
        for rates, omega in cases:
            for rho in (1.0, 0.37):
                field = compile_field(omega.space, at_rate(rates, rho))
                assert field.__name__ == kernel
                expected = rho * (cyclic_apply(omega, rates, 1).weights - omega.weights)
                gap = np.abs(field(omega.weights) - expected).sum()
                assert gap <= 1e-15 * total_variation(omega), (kernel, omega.space, gap)


def test_relabeled_field_rejects_a_relabeling_of_another_size(monkeypatch):
    # A permutation, but not of the first block's three states.
    rates, omega = three_cycle()
    for cap in (1 << 40, 0):
        monkeypatch.setattr(dynamics, "STACKED_FIELD_MAX_ENTRIES", cap)
        for relabel in ((1, 0), (1, 2, 3, 0)):
            with pytest.raises(ValueError, match="first block"):
                compile_field(omega.space, cyclic_map(rates.entries[0][0], relabel))


def test_flow_time_zero_is_identity():
    rates, omega = three_cycle()
    np.testing.assert_array_equal(generalized_flow_grid(omega, rates, [0.0])[0], omega.weights)


def test_flow_coefficients_sum_to_one_and_stay_nonnegative():
    for n in (*range(2, 7), 1000):
        for t in np.linspace(0.0, 6.0, 25):
            coeffs = flow_coefficients(n, float(t))
            assert abs(coeffs.sum() - 1.0) <= 1e-12
            assert coeffs.min() >= -1e-15


def test_flow_coefficients_of_a_time_vector_are_the_per_time_rows():
    taus = np.linspace(0.0, 3.0, 11)
    for n in (2, 3, 7):
        stack = flow_coefficients(n, taus)
        assert stack.shape == (taus.size, n + 1)
        for row, tau in zip(stack, taus):
            assert np.array_equal(row, flow_coefficients(n, float(tau)))


def test_three_term_coefficients_survival_odd_even():
    # wrap-around case C^3 = C: survival, odd hit count, even hit count >= 2
    for t in np.linspace(0.0, 5.0, 26):
        t = float(t)
        got = flow_coefficients(2, t)
        expected = (
            math.exp(-t),
            math.exp(-t) * math.sinh(t),
            math.exp(-t) * (math.cosh(t) - 1.0),
        )
        for have, want in zip(got, expected):
            assert abs(have - want) <= 1e-12


def test_flow_with_identity_relabeling_reduces_to_semigroup():
    space = ProductSpace((2, 3, 2))
    cuts = LinkSet.from_indices([1], 2)
    omega = random_probability(space, 23)
    for rho, t in ((1.0, 0.7), (0.4, 2.0)):
        via_flow = flow_at(omega, cyclic_map(cuts, tuple(range(6)), rho), t)
        direct = product_flow_apply(omega, RateMap.single(cuts, rho), [t])
        assert total_variation(via_flow - direct) <= 1e-12


def test_flow_conserves_mass_and_positivity():
    rates, omega = three_cycle()
    for t in (0.1, 0.9, 3.0, 8.0):
        state = flow_at(omega, at_rate(rates, 1.3), t)
        assert abs(state.mass - omega.mass) <= 1e-12
        assert state.weights.min() >= -1e-15


def test_flow_long_time_limit():
    rates, omega = three_cycle()
    limit = (1.0 / 3) * sum(
        (cyclic_apply(omega, rates, k) for k in range(2, 4)),
        start=cyclic_apply(omega, rates, 1),
    )
    rate = min(1.0, 1.0 - math.cos(2 * math.pi / 3))
    envelope = 4 * total_variation(omega)
    for t in np.linspace(0.0, 12.0, 13):
        t = float(t)
        residual = total_variation(flow_at(omega, rates, t) - limit)
        assert residual <= envelope * math.exp(-rate * t) + 1e-13


def test_flow_commutation_cases():
    rates, omega = three_cycle()
    assert check_flow_commutation(omega, rates, 0.0) == 0.0
    for t in (0.1, 1.0, 5.0):
        assert check_flow_commutation(omega, rates, t) <= 1e-10

    space = ProductSpace((3, 2))
    idempotent = cyclic_map(LinkSet.from_indices([0], 1), (0, 1, 2))
    base = random_probability(space, 31)
    assert check_flow_commutation(base, idempotent, 0.8) <= 1e-12


def test_generalized_ode_second_order_convergence():
    rates, omega = three_cycle()
    grid = [0.25, 0.5, 1.0, 1.5, 2.0]
    coarse = check_generalized_ode(omega, rates, grid, 1e-2)
    fine = check_generalized_ode(omega, rates, grid, 5e-3)
    assert 3.5 <= coarse / fine <= 4.5

    space = ProductSpace((2, 3))
    idempotent = cyclic_map(LinkSet.from_indices([0], 1), (0, 1))
    base = random_probability(space, 2)
    rough = check_generalized_ode(base, idempotent, grid, 1e-2)
    sharp = check_generalized_ode(base, idempotent, grid, 5e-3)
    assert 3.5 <= rough / sharp <= 4.5


def test_generalized_ode_residual_small_at_millistep():
    rates, omega = three_cycle()
    residual = check_generalized_ode(omega, rates, [0.25, 0.5, 1.0, 2.0], 1e-3)
    assert residual <= 1e-6


def test_generalized_ode_near_zero_rate_is_flat():
    rates, omega = three_cycle()
    residual = check_generalized_ode(omega, at_rate(rates, 1e-16), [0.5, 1.0, 2.0], 1e-3)
    assert residual <= 1e-14


def test_flow_grid_is_its_one_row_case_at_every_time():
    rates, omega = three_cycle()
    rates = at_rate(rates, 1.3)
    grid = [0.0, 0.1, 0.7, 0.70001, 2.0, 6.0, 30.0]
    stack = generalized_flow_grid(omega, rates, grid)
    assert stack.shape == (len(grid), omega.space.total_states)
    np.testing.assert_array_equal(stack[0], omega.weights)
    for row, t in zip(stack, grid):
        expected = flow_at(omega, rates, t).weights
        assert np.abs(row - expected).sum() <= 1e-15 * total_variation(omega)
    with pytest.raises(ValueError):
        generalized_flow_grid(omega, rates, [1.0, -0.5])
    with pytest.raises(ValueError):
        generalized_flow_grid(omega, at_rate(rates, 0.0), grid)


def block_cycle(seed):
    # 6 x 4^5 states x 101 times: 10 rows a block, so the grid spans eleven
    # blocks; block-0 cycles of lengths 3, 2 and 1 make three groups.
    space = ProductSpace((6, 4, 4, 4, 4, 4))
    rates = cyclic_map(LinkSet.from_indices([0, 2], 5), (1, 2, 0, 4, 3, 5), 1.3)
    return rates, random_probability(space, seed), [0.02 * k for k in range(101)]


def test_flow_grid_in_row_blocks_has_the_row_at_a_time_bytes():
    rates, omega, grid = block_cycle(31)
    stack = generalized_flow_grid(omega, rates, grid)
    rows = np.array([generalized_flow_grid(omega, rates, [t])[0] for t in grid])
    assert stack.tobytes() == rows.tobytes()


def test_flow_grid_holds_its_stack_and_one_row_block():
    # The stack and one block of each group's outer products, with the
    # powers C^k of one state each.  Whole-grid products held 2.1 stacks.
    rates, omega, grid = block_cycle(32)
    tracemalloc.start()
    try:
        stack = generalized_flow_grid(omega, rates, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.shape == (101, 6144)
    assert peak <= 1.5 * stack.nbytes, (peak, stack.nbytes)


def generalized_ode_per_time(omega0, rates, times, h_fd):
    """The generator defect as a loop over times of the one-row flow, with
    rho (C - 1) applied through ``cyclic_apply``."""
    [(_, rho)] = rates.entries
    worst = 0.0
    for t in times:
        ahead = flow_at(omega0, rates, t + h_fd).weights
        behind = flow_at(omega0, rates, t - h_fd).weights
        middle = flow_at(omega0, rates, t)
        generator = rho * (cyclic_apply(middle, rates, 1).weights - middle.weights)
        derivative = (ahead - behind) / (2.0 * h_fd)
        worst = max(worst, float(np.abs(derivative - generator).sum()))
    return worst


def test_generalized_ode_matches_its_per_time_loop():
    rates, omega = three_cycle()
    # 0.01 - 0.01 lands exactly on t = 0, where the flow is omega_0 itself.
    grid = [0.01, 0.25, 0.5, 1.0, 2.0]
    for rho, h_fd in ((1.0, 1e-2), (0.37, 5e-3)):
        expected = generalized_ode_per_time(omega, at_rate(rates, rho), grid, h_fd)
        got = check_generalized_ode(omega, at_rate(rates, rho), grid, h_fd)
        assert abs(got - expected) <= 1e-15 * total_variation(omega) / h_fd
    assert check_generalized_ode(omega, rates, [], 1e-2) == 0.0


def test_flow_validation():
    rates, omega = three_cycle()
    with pytest.raises(ValueError):
        generalized_flow_grid(omega, at_rate(rates, 0.0), [1.0])
    with pytest.raises(ValueError):
        generalized_flow_grid(omega, rates, [-0.5])
    signed = Measure(omega.space, np.linspace(-1, 1, omega.space.total_states))
    with pytest.raises(ValueError):
        generalized_flow_grid(signed, rates, [1.0])
    with pytest.raises(ValueError, match="rate must be positive"):
        check_generalized_ode(omega, at_rate(rates, 0.0), [0.5], 1e-3)
    # A negative rate is no rate map at all.
    with pytest.raises(ValueError, match=">= 0, got -1.0"):
        at_rate(rates, -1.0)


@pytest.mark.parametrize("h_fd", [0.0, -1e-3, math.nan, math.inf])
def test_generalized_ode_rejects_a_bad_step_before_any_flow(h_fd):
    # The step is checked first: the negative time, which the centre flow
    # would reject, is never reached, and NaN or inf raise, not warn.
    rates, omega = three_cycle()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite-difference step"):
            check_generalized_ode(omega, rates, [0.5, -1.0], h_fd)
