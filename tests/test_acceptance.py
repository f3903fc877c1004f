"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with `pytest -s` to see the lines for passing tests)."""

import math

import numpy as np
import pytest

from recombdyn.dynamics import (
    RateMap,
    check_linearization,
    expansion_coefficients,
    product_flow_apply,
    product_flow_grid,
    rk4_integrate_many,
)
from recombdyn.generalized import (
    check_flow_commutation,
    check_generalized_ode,
    flow_coefficients,
    gfun,
    gfun_asymptotic_check,
)
from recombdyn.lattice import LinkSet, all_link_sets
from recombdyn.measure import Measure, ProductSpace, random_probability, total_variation
from recombdyn.recombinator import gen_cond_rows, lipschitz_rows, recombine, recombine_rows
from recombdyn.verify import random_space, sample_disjoint_system


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {label}: {status} ({detail})")
    return ok


def _disjoint_draws():
    rng = np.random.default_rng(20260801)
    draws = []
    for _ in range(20):
        space = random_space(rng)
        omega0 = random_probability(space, rng)
        draws.append((omega0, sample_disjoint_system(rng, space.n_links), 5.0, 50))
    return draws


def _crossover_draws():
    rng = np.random.default_rng(20260806)
    draws = []
    for i in range(10):
        n_links = (2, 3, 4)[i % 3]
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n_links + 1))
        space = ProductSpace(sizes)
        omega0 = random_probability(space, rng)
        draws.append((omega0, RateMap.crossover(rng.uniform(0.3, 1.5, size=n_links).tolist()),
                      2.0, 100))
    return draws


@pytest.fixture(scope="module")
def oracle_runs():
    # Both draws, then one RK4 run of all 30 problems: the 10 crossovers
    # leave it at t = 2.
    draws = _disjoint_draws() + _crossover_draws()
    trajectories = rk4_integrate_many(draws, h=1e-3)
    return [(omega0, rates, traj) for (omega0, rates, _, _), traj in zip(draws, trajectories)]


@pytest.fixture(scope="module")
def disjoint_runs(oracle_runs):
    # shared by criteria 3 and 8
    return oracle_runs[:20]


@pytest.fixture(scope="module")
def crossover_runs(oracle_runs):
    # shared by criteria 6 and 8
    return oracle_runs[20:]


def test_criterion_01_recombinator_algebra():
    rng = np.random.default_rng(1)
    spaces = [
        ProductSpace((3, 2, 3, 2)),
        ProductSpace((2, 2, 2, 2)),
        ProductSpace((3, 3, 2)),
        ProductSpace((2, 3)),
    ]
    # Measure i lives on spaces[i % 4]; each space's measures form one stack.
    draws = [random_probability(spaces[i % len(spaces)], rng).weights for i in range(200)]
    worst = 0.0
    for k, space in enumerate(spaces):
        stack = np.array(draws[k::len(spaces)])
        once = {h.bits: recombine_rows(stack, space, h) for h in all_link_sets(space.n_links)}
        for g in all_link_sets(space.n_links):
            for h in all_link_sets(space.n_links):
                gap = recombine_rows(once[h.bits], space, g) - once[g.bits | h.bits]
                worst = max(worst, float(np.abs(gap).sum(axis=1).max()))
    assert report(
        1,
        "composition law R_G R_H = R_{G u H}",
        worst <= 1e-12,
        f"max_tv_err={worst:.3e} tol=1e-12, 200 measures, exhaustive pairs",
    )


def test_criterion_02_partial_linearity():
    rng = np.random.default_rng(2)
    space = ProductSpace((2, 3, 2, 2))
    stack = np.array([random_probability(space, rng).weights for _ in range(100)])
    worst = 0.0
    for bits in range(1, 1 << space.n_links):
        cut = LinkSet(bits, space.n_links)
        for a in np.linspace(0.0, 1.0, 11):
            worst = max(worst, float(gen_cond_rows(stack, space, cut, float(a)).max()))
    assert report(
        2,
        "partial-linearity identity",
        worst <= 1e-10,
        f"max_residual={worst:.3e} tol=1e-10, 100 measures x 11 weights x 7 cut sets",
    )


def test_criterion_03_closed_form_vs_rk4(disjoint_runs):
    worst = 0.0
    for omega0, system, traj in disjoint_runs:
        for t, state in zip(traj.times, traj.states):
            closed = product_flow_apply(omega0, system, [t] * len(system.entries))
            worst = max(worst, total_variation(closed - state))
    assert report(
        3,
        "disjoint-stretch closed form vs RK4 oracle",
        worst <= 1e-6,
        f"max_gap={worst:.3e} tol=1e-6, 20 scenarios, h=1e-3, t_end=5",
    )


def test_criterion_04_exact_decay_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        space = random_space(rng)
        omega0 = random_probability(space, rng)
        cut = LinkSet(int(rng.integers(1, 1 << space.n_links)), space.n_links)
        rho = float(rng.uniform(0.2, 2.0))
        equilibrium = recombine(omega0, cut)
        span = total_variation(omega0 - equilibrium)
        times = (0.1, 1.0, 3.0)
        flowed = product_flow_grid(omega0, RateMap.single(cut, rho), times)
        for t, state in zip(times, flowed):
            lhs = total_variation(Measure(space, state) - equilibrium)
            rhs = math.exp(-rho * t) * span
            worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-30))
    assert report(
        4,
        "exact exponential decay identity",
        worst <= 1e-12,
        f"max_rel_err={worst:.3e} tol=1e-12, 50 measures x 3 times",
    )


def test_criterion_05_commuting_semigroups():
    rng = np.random.default_rng(5)
    worst = 0.0
    trials = 0
    while trials < 50:
        space = random_space(rng, min_nodes=4)
        system = sample_disjoint_system(rng, space.n_links, max_components=2)
        if len(system.entries) != 2:
            continue
        trials += 1
        omega0 = random_probability(space, rng)
        s, t = rng.uniform(0.05, 2.5, size=2)
        # The one-set flows in either order, each at its own time.
        one = product_flow_apply(omega0, system, [s, t])
        swapped = RateMap(system.n_links, system.entries[::-1])
        two = product_flow_apply(omega0, swapped, [t, s])
        worst = max(worst, total_variation(one - two))
    assert report(
        5,
        "two-parameter commutativity",
        worst <= 1e-12,
        f"max_tv_err={worst:.3e} tol=1e-12, 50 random (omega0, s, t)",
    )


def test_criterion_06_single_crossover_triple_agreement(crossover_runs):
    # The crossover map's product flow is the singleton product; the expansion
    # is sum_G a_G(t) R_G(omega0), built here from expansion_coefficients and recombine.
    worst_closed = worst_oracle = 0.0
    for omega0, rates, traj in crossover_runs:
        n_links = rates.n_links
        products = product_flow_grid(omega0, rates, traj.times)
        a, _ = expansion_coefficients(rates, traj.times)
        for row_a, row, state in zip(a.tolist(), products, traj.states):
            expansion = sum(
                (row_a[ls.bits] * recombine(omega0, ls) for ls in all_link_sets(n_links)),
                start=Measure.zero(omega0.space),
            )
            product = Measure(omega0.space, row)
            worst_closed = max(worst_closed, total_variation(expansion - product))
            worst_oracle = max(worst_oracle, total_variation(product - state))
    ok = worst_closed <= 1e-10 and worst_oracle <= 1e-6
    assert report(
        6,
        "crossover expansion = singleton product = RK4",
        ok,
        f"closed_pair={worst_closed:.3e} tol=1e-10, vs_rk4={worst_oracle:.3e} tol=1e-6",
    )


def test_criterion_07_moebius_linearization():
    rng = np.random.default_rng(7)
    grid = np.arange(0.0, 5.0 + 1e-9, 0.25).tolist()
    worst_residual = worst_sum = 0.0
    for _ in range(10):
        n_links = 3
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n_links + 1))
        omega0 = random_probability(ProductSpace(sizes), rng)
        rates = RateMap.crossover(rng.uniform(0.3, 1.5, size=n_links).tolist())
        worst_residual = max(
            worst_residual, float(check_linearization(omega0, rates, grid).max())
        )
        for row in expansion_coefficients(rates, grid)[0].tolist():
            worst_sum = max(worst_sum, abs(sum(row) - 1.0))
    ok = worst_residual <= 1e-9 and worst_sum <= 1e-12
    assert report(
        7,
        "transform linearization + coefficient normalization",
        ok,
        f"max_residual={worst_residual:.3e} tol=1e-9, sum_defect={worst_sum:.3e} tol=1e-12",
    )


def test_criterion_08_conservation_along_flows(disjoint_runs, crossover_runs):
    worst_drift = worst_negative = 0.0
    for omega0, _, traj in [(r[0], r[1], r[2]) for r in disjoint_runs + crossover_runs]:
        for state in traj.states:
            worst_drift = max(worst_drift, abs(state.mass - omega0.mass))
            worst_negative = max(worst_negative, -float(state.weights.min()))
    ok = worst_drift <= 1e-9 and worst_negative <= 1e-9
    assert report(
        8,
        "mass and positivity along stored RK4 states",
        ok,
        f"max_drift={worst_drift:.3e}, max_negativity={worst_negative:.3e}, tol=1e-9",
    )


def test_criterion_09_filtered_exponential_slices():
    hyperbolic_ok = True
    times = np.linspace(0.0, 10.0, 101).tolist()
    for t, (even, odd) in zip(times, gfun(2, times).tolist()):
        if abs(even - math.cosh(t)) > 1e-12 * math.cosh(t):
            hyperbolic_ok = False
        sinh_ref = math.sinh(t)
        if abs(odd - sinh_ref) > 1e-12 * max(sinh_ref, 1.0):
            hyperbolic_ok = False

    sum_defect = 0.0
    times = np.linspace(0.0, 8.0, 17).tolist()
    for n in range(2, 7):
        for t, row in zip(times, gfun(n, times).tolist()):
            sum_defect = max(sum_defect, abs(sum(row) - math.exp(t)) / math.exp(t))

    def recurrence_defect(step):
        worst = 0.0
        for n in (2, 3, 5):
            up, down, mid = gfun(n, [2.0 + step, 2.0 - step, 2.0]).tolist()
            for k in range(n):
                diff = (up[k] - down[k]) / (2 * step)
                worst = max(worst, abs(diff - mid[(k + 1) % n]))
        return worst

    ratio = recurrence_defect(1e-2) / recurrence_defect(5e-3)

    asymptotic_ok = True
    for n in range(2, 7):
        bound = 2.0 * math.exp((math.cos(2 * math.pi / n) - 1.0) * 30.0)
        if (gfun_asymptotic_check(n, 30.0) > bound).any():
            asymptotic_ok = False

    ok = hyperbolic_ok and sum_defect <= 1e-10 and 3.5 <= ratio <= 4.5 and asymptotic_ok
    assert report(
        9,
        "filtered exponential slices",
        ok,
        f"hyperbolic={hyperbolic_ok}, sum_rel={sum_defect:.3e} tol=1e-10, "
        f"cd_ratio={ratio:.3f} in [3.5,4.5], asymptotic_env={asymptotic_ok}",
    )


def test_criterion_10_generalized_cyclic_flow():
    rng = np.random.default_rng(10)
    space = ProductSpace((3, 2, 2))
    rates = RateMap(space.n_links, ((LinkSet.from_indices([0], 2), 1.0),), (1, 2, 0))
    omega0 = random_probability(space, rng)

    commutation = max(
        check_flow_commutation(omega0, rates, t) for t in (0.1, 0.5, 1.0, 3.0)
    )
    grid = [0.25, 0.5, 1.0, 1.5, 2.0]
    coarse = check_generalized_ode(omega0, rates, grid, 1e-2)
    fine = check_generalized_ode(omega0, rates, grid, 5e-3)
    ratio = coarse / fine

    # three-term wrap-around coefficients: survival, odd hits, even hits >= 2
    coeff_defect = 0.0
    for t in np.linspace(0.0, 5.0, 26):
        t = float(t)
        got = flow_coefficients(2, t)
        expected = (
            math.exp(-t),
            math.exp(-t) * math.sinh(t),
            math.exp(-t) * (math.cosh(t) - 1.0),
        )
        coeff_defect = max(
            coeff_defect, max(abs(a - b) for a, b in zip(got, expected))
        )

    ok = commutation <= 1e-10 and 3.5 <= ratio <= 4.5 and coeff_defect <= 1e-12
    assert report(
        10,
        "cyclic generalized flow",
        ok,
        f"commutation={commutation:.3e} tol=1e-10, ode_ratio={ratio:.3f} in [3.5,4.5], "
        f"coeff_defect={coeff_defect:.3e} tol=1e-12",
    )


def test_criterion_11_lipschitz_bound():
    rng = np.random.default_rng(11)
    space = ProductSpace((3, 2, 3))
    omegas, nus = [], []
    for trial in range(2000):
        w = rng.standard_normal(space.total_states)
        if trial % 2:
            v = w + 1e-4 * rng.standard_normal(space.total_states)  # nearby pair
        else:
            v = rng.standard_normal(space.total_states)
        omegas.append(w)
        nus.append(v)
    omegas, nus = np.array(omegas), np.array(nus)
    worst = 0.0
    for link in range(space.n_links):
        worst = max(worst, float(lipschitz_rows(omegas, nus, space, link).max()))
    assert report(
        11,
        "elementary Lipschitz bound",
        worst <= 3.0 + 1e-9,
        f"max_ratio={worst:.6f} tol=3+1e-9, 2000 signed pairs per link",
    )
