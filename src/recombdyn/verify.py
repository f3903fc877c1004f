"""Seeded property suites behind the CLI `verify` verb.

Each suite returns a list of check records {name, value, tolerance, passed};
a report bundles them with the seed.  Checks are deterministic for a fixed
seed.  The report's ``tolerance_scale`` is always 1.0: every check runs at its
own tolerance.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dynamics import (
    RateMap,
    check_linearization,
    expansion_coefficients,
    moebius_sum,
    product_flow_apply,
    product_flow_grid,
    recombination_table,
    rk4_integrate_many,
)
from .generalized import (
    check_flow_commutation,
    check_generalized_ode,
    cyclic_apply,
    flow_coefficients,
    generalized_flow_grid,
    gfun,
    gfun_asymptotic_check,
    roots_of_unity_mean,
)
from .lattice import (
    LinkSet,
    all_link_sets,
    moebius_sign,
    refines,
    supersets_of,
)
from .measure import (
    Measure,
    ProductSpace,
    marginal,
    random_probability,
    tensor,
    total_variation,
)
from .recombinator import gen_cond_rows, lipschitz_rows, recombine, recombine_rows

SUITE_NAMES = ("algebra", "semigroup", "moebius", "generalized")


def _check(name: str, value: float, tolerance: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "tolerance": tolerance,
        "passed": bool(value <= tolerance),
    }


def _row_tv(stack: np.ndarray) -> np.ndarray:
    """Total variation of every row of a (T, S) stack; a vector is one row."""
    return np.abs(stack).sum(axis=-1)


def _monitor(name: str, value: float, note: str) -> dict:
    return {
        "name": name,
        "value": float(value),
        "tolerance": None,
        "passed": True,
        "monitor": True,
        "note": note,
    }


# -- seeded generators --------------------------------------------------------


def random_signed(space: ProductSpace, rng: np.random.Generator) -> Measure:
    return Measure(space, rng.standard_normal(space.total_states))


def random_space(
    rng: np.random.Generator, min_nodes: int = 3, max_nodes: int = 5, max_alphabet: int = 3
) -> ProductSpace:
    n_nodes = int(rng.integers(min_nodes, max_nodes + 1))
    sizes = tuple(int(rng.integers(2, max_alphabet + 1)) for _ in range(n_nodes))
    return ProductSpace(sizes)


def sample_disjoint_system(
    rng: np.random.Generator, n_links: int, max_components: int = 3
) -> RateMap:
    """Random rate map of cut sets with pairwise disjoint stretches.

    Splits the link range into consecutive chunks and picks a nonempty subset
    inside each chunk, so the stretches cannot overlap by construction.
    """
    n_components = int(rng.integers(1, min(max_components, n_links) + 1))
    cuts = sorted(rng.choice(n_links - 1, size=n_components - 1, replace=False) + 1) \
        if n_components > 1 else []
    bounds = [0, *map(int, cuts), n_links]
    components = []
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = list(range(lo, hi))
        size = int(rng.integers(1, len(chunk) + 1))
        picked = sorted(rng.choice(chunk, size=size, replace=False).tolist())
        rate = float(rng.uniform(0.3, 1.5))
        components.append((LinkSet.from_indices(picked, n_links), rate))
    return RateMap(n_links, tuple(components))


# -- algebra ------------------------------------------------------------------


def suite_algebra(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # Refinement duality over all subset pairs of a 4-link lattice.
    mismatches = sum(a.issubset(b) != refines(b.blocks, a.blocks)
                     for a in all_link_sets(4) for b in all_link_sets(4))
    checks.append(_check("lattice.refinement_duality", mismatches, 0.0))

    # Inclusion-exclusion round trip with integer data is exact.
    n_links = 6
    values = {ls.bits: int(rng.integers(-50, 50)) for ls in all_link_sets(n_links)}
    transformed = {
        ls.bits: sum(moebius_sign(ls, sup) * values[sup.bits] for sup in supersets_of(ls))
        for ls in all_link_sets(n_links)
    }
    mismatches = sum(
        sum(transformed[sup.bits] for sup in supersets_of(ls)) != values[ls.bits]
        for ls in all_link_sets(n_links)
    )
    checks.append(_check("lattice.moebius_roundtrip", mismatches, 0.0))

    mismatches = sum(len(ls.blocks) != len(ls) + 1 for ls in all_link_sets(5))
    checks.append(_check("lattice.block_count", mismatches, 0.0))

    # Marginalization: consistency, mass, linearity, norm multiplicativity.
    worst_consistency = worst_mass = worst_linearity = worst_norm = 0.0
    for _ in range(12):
        space = random_space(rng)
        omega = random_probability(space, rng)
        nu = random_signed(space, rng)
        nodes = list(range(space.n_nodes))
        outer_keep = sorted(
            rng.choice(nodes, size=int(rng.integers(2, space.n_nodes + 1)), replace=False).tolist()
        )
        inner_keep = sorted(
            rng.choice(outer_keep, size=int(rng.integers(1, len(outer_keep) + 1)), replace=False).tolist()
        )
        via = marginal(marginal(omega, outer_keep), inner_keep)
        direct = marginal(omega, inner_keep)
        worst_consistency = max(worst_consistency, total_variation(via - direct))
        worst_mass = max(worst_mass, abs(marginal(nu, inner_keep).mass - nu.mass))
        a, b = rng.uniform(-2, 2, size=2)
        combo = marginal(a * omega + b * nu, inner_keep)
        split = a * marginal(omega, inner_keep) + b * marginal(nu, inner_keep)
        worst_linearity = max(worst_linearity, total_variation(combo - split))
        left = random_probability(ProductSpace(space.sizes[:2]), rng)
        right = random_probability(ProductSpace(space.sizes[2:]), rng) if space.n_nodes > 2 \
            else Measure(ProductSpace((2,)), [0.4, 0.6], nodes=(2,))
        right = Measure(right.space, right.weights, nodes=tuple(range(2, 2 + right.space.n_nodes)))
        product = tensor([left, right])
        worst_norm = max(
            worst_norm,
            abs(total_variation(product) - total_variation(left) * total_variation(right)),
        )
    checks.append(_check("measure.marginal_consistency", worst_consistency, 1e-12))
    checks.append(_check("measure.marginal_mass", worst_mass, 1e-12))
    checks.append(_check("measure.marginal_linearity", worst_linearity, 1e-12))
    checks.append(_check("measure.norm_multiplicativity", worst_norm, 1e-12))

    # Composition law R_G R_H = R_{G u H}: exhaustive on 3 links, sampled on 6.
    # Each block below draws all its samples first, in the order a loop over
    # samples would draw them, and then evaluates its law on their stack.
    space3 = ProductSpace((2, 3, 2, 2))
    stack = np.array([random_probability(space3, rng).weights for _ in range(6)])
    once = recombination_table(stack, space3)
    worst = 0.0
    for g in all_link_sets(3):
        for h in all_link_sets(3):
            iterated = recombine_rows(once[h.bits], space3, g)
            worst = max(worst, float(_row_tv(iterated - once[g.bits | h.bits]).max()))
    checks.append(_check("recombinator.composition_exhaustive", worst, 1e-12))

    space6 = ProductSpace((2,) * 7)
    draws = []
    for _ in range(60):
        w = random_probability(space6, rng).weights
        g = LinkSet(int(rng.integers(0, 64)), 6)
        draws.append((w, g, LinkSet(int(rng.integers(0, 64)), 6)))
    worst = 0.0
    for w, g, h in draws:
        iterated = recombine_rows(recombine_rows(w, space6, h), space6, g)
        worst = max(worst, float(_row_tv(iterated - recombine_rows(w, space6, g.union(h)))))
    checks.append(_check("recombinator.composition_sampled_6_links", worst, 1e-12))

    # Idempotency and commutativity are the singleton instances of the law.
    stack = np.array([random_probability(space3, rng).weights for _ in range(20)])
    cuts = [LinkSet.from_indices([i], 3) for i in range(3)]
    once = [recombine_rows(stack, space3, cut) for cut in cuts]
    worst_idem = worst_comm = 0.0
    for i, cut in enumerate(cuts):
        twice = recombine_rows(once[i], space3, cut)
        worst_idem = max(worst_idem, float(_row_tv(twice - once[i]).max()))
        for j in range(i + 1, 3):
            ij = recombine_rows(once[j], space3, cut)
            ji = recombine_rows(once[i], space3, cuts[j])
            worst_comm = max(worst_comm, float(_row_tv(ij - ji).max()))
    checks.append(_check("recombinator.idempotency", worst_idem, 1e-12))
    checks.append(_check("recombinator.commutativity", worst_comm, 1e-12))

    # Scaling law and the norm laws, on signed input.  Negative scalars pick
    # up sign(a)^(cuts+1) straight from the defining normalization; the |a|
    # form holds for a >= 0 and for single cuts.
    worst_homog = worst_contract = worst_preserve = 0.0
    for trial in range(40):
        space = random_space(rng)
        nu = random_signed(space, rng).weights
        pos = random_probability(space, rng).weights
        cut = LinkSet(int(rng.integers(1, 1 << space.n_links)), space.n_links)
        a = float(rng.uniform(-3, 3))
        sign = 1.0 if a >= 0 else (-1.0) ** (len(cut) + 1)
        rec_nu = recombine_rows(nu, space, cut)
        rec_pos = recombine_rows(pos, space, cut)
        scaled = recombine_rows(a * nu, space, cut)
        worst_homog = max(worst_homog, float(_row_tv(scaled - sign * abs(a) * rec_nu)))
        worst_contract = max(worst_contract, float(_row_tv(rec_nu) - _row_tv(nu)))
        worst_preserve = max(worst_preserve, abs(float(_row_tv(rec_pos) - _row_tv(pos))))
        if not rec_pos.min() >= 0.0 or abs(float(rec_pos.sum()) - 1.0) > 1e-12:
            worst_preserve = max(worst_preserve, 1.0)
    checks.append(_check("recombinator.positive_homogeneity", worst_homog, 1e-12))
    checks.append(_check("recombinator.norm_contraction_signed", worst_contract, 1e-12))
    checks.append(_check("recombinator.norm_preserved_positive", worst_preserve, 1e-12))

    # Partial-linearity identity across a mixing grid.
    space = ProductSpace((2, 3, 2, 2))
    stack = np.array([random_probability(space, rng).weights for _ in range(20)])
    worst = 0.0
    for cut_bits in range(1, 8):
        cut = LinkSet(cut_bits, 3)
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            worst = max(worst, float(gen_cond_rows(stack, space, cut, a).max()))
    checks.append(_check("recombinator.partial_linearity", worst, 1e-10))

    # Elementary Lipschitz sweep on signed pairs: row k of the two stacks is
    # the k-th pair (omega, nu), drawn as ``random_signed`` draws them.
    space = ProductSpace((3, 2, 3))
    draws = [rng.standard_normal(space.total_states) for _ in range(2 * 1000)]
    omegas, nus = np.array(draws[0::2]), np.array(draws[1::2])
    worst = 0.0
    for link in range(space.n_links):
        worst = max(worst, float(lipschitz_rows(omegas, nus, space, link).max()))
    checks.append(_check("recombinator.lipschitz_bound", worst, 3.0 + 1e-9))

    return checks


# -- semigroup ------------------------------------------------------------------


def suite_semigroup(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # Closed form against the RK4 oracle over random disjoint-stretch systems,
    # with conservation of mass and positivity along the stored states.
    # Every system is drawn first and all of them are integrated as one
    # stacked problem; integration draws nothing from the generator.
    worst_gap = worst_drift = worst_negative = 0.0
    draws = []
    for scenario in range(20):
        space = random_space(rng)
        omega0 = random_probability(space, rng)
        draws.append((omega0, sample_disjoint_system(rng, space.n_links)))
    trajectories = rk4_integrate_many(draws, t_end=5.0, h=1e-3, store_stride=50)
    for (omega0, system), traj in zip(draws, trajectories):
        states = traj.weights
        closed = product_flow_grid(omega0, system, traj.times)
        worst_gap = max(worst_gap, float(_row_tv(closed - states).max()))
        worst_drift = max(worst_drift, float(np.abs(states.sum(axis=1) - omega0.mass).max()))
        worst_negative = max(worst_negative, -float(states.min()))
    checks.append(_check("semigroup.closed_form_vs_rk4", worst_gap, 1e-6))
    checks.append(_check("semigroup.rk4_mass_drift", worst_drift, 1e-9))
    checks.append(_check("semigroup.rk4_min_weight", worst_negative, 1e-9))

    # One-parameter semigroup law along the diagonal.
    worst = 0.0
    for trial in range(15):
        space = random_space(rng)
        omega0 = random_probability(space, rng)
        system = sample_disjoint_system(rng, space.n_links)
        s, t = rng.uniform(0.05, 2.0, size=2)
        n = len(system.entries)
        direct = product_flow_apply(omega0, system, [s + t] * n)
        staged = product_flow_apply(product_flow_apply(omega0, system, [s] * n), system, [t] * n)
        worst = max(worst, total_variation(direct - staged))
    checks.append(_check("semigroup.one_parameter_law", worst, 1e-11))

    # Two-factor commutativity of stretch-disjoint flows: the two components
    # applied in either order, each at its own time.
    worst = 0.0
    for trial in range(50):
        space = random_space(rng, min_nodes=4)
        omega0 = random_probability(space, rng)
        system = sample_disjoint_system(rng, space.n_links, max_components=2)
        if len(system.entries) < 2:
            continue
        s, t = rng.uniform(0.05, 2.5, size=2)
        order_a = product_flow_apply(omega0, system, [s, t])
        swapped = RateMap(system.n_links, system.entries[::-1])
        order_b = product_flow_apply(omega0, swapped, [t, s])
        worst = max(worst, total_variation(order_a - order_b))
    checks.append(_check("semigroup.commutativity", worst, 1e-12))

    # Exact decay identity of the one-set flow.
    worst = 0.0
    for trial in range(30):
        space = random_space(rng)
        omega0 = random_probability(space, rng)
        cut = LinkSet(int(rng.integers(1, 1 << space.n_links)), space.n_links)
        rho = float(rng.uniform(0.2, 2.0))
        equilibrium = recombine(omega0, cut)
        span = total_variation(omega0 - equilibrium)
        times = (0.1, 1.0, 3.0)
        flowed = product_flow_grid(omega0, RateMap.single(cut, rho), times)
        for t, lhs in zip(times, _row_tv(flowed - equilibrium.weights).tolist()):
            rhs = math.exp(-rho * t) * span
            worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-30))
    checks.append(_check("semigroup.exact_decay_identity", worst, 1e-12))

    # Exponential approach to the joint equilibrium.
    worst_excess = 0.0
    for trial in range(10):
        space = random_space(rng)
        omega0 = random_probability(space, rng)
        system = sample_disjoint_system(rng, space.n_links)
        cuts, rates = zip(*system.entries)
        equilibrium = recombine(omega0, functools.reduce(LinkSet.union, cuts))
        rho_min = min(rates)
        envelope = sum(total_variation(omega0 - recombine(omega0, links)) for links in cuts)
        times = np.linspace(0.0, 5.0, 11).tolist()
        residuals = _row_tv(product_flow_grid(omega0, system, times) - equilibrium.weights)
        for t, residual in zip(times, residuals.tolist()):
            worst_excess = max(worst_excess, residual - envelope * math.exp(-rho_min * t))
    checks.append(_check("semigroup.equilibrium_envelope", worst_excess, 1e-12))

    return checks


# -- moebius --------------------------------------------------------------------


def suite_moebius(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # Singleton product flow vs the paper's subset expansion vs RK4.
    worst_closed = worst_oracle = 0.0
    draws = []
    for scenario in range(3):
        n_links = int(rng.integers(2, 5))
        space = ProductSpace(tuple(int(rng.integers(2, 4)) for _ in range(n_links + 1)))
        omega0 = random_probability(space, rng)
        draws.append((omega0, RateMap.crossover(rng.uniform(0.3, 1.5, size=n_links).tolist())))
    trajectories = rk4_integrate_many(draws, t_end=2.0, h=1e-3, store_stride=100)
    for (omega0, rates), traj in zip(draws, trajectories):
        product = product_flow_grid(omega0, rates, traj.times)
        # The expansion on the grid: each R_G(omega_0) once, weighted by a_G(t).
        expanded = np.zeros_like(product)
        a, _ = expansion_coefficients(rates, traj.times)
        for ls in all_link_sets(rates.n_links):
            expanded += np.multiply.outer(a[:, ls.bits], recombine(omega0, ls).weights)
        worst_closed = max(worst_closed, float(_row_tv(expanded - product).max()))
        worst_oracle = max(worst_oracle, float(_row_tv(product - traj.weights).max()))
    checks.append(_check("moebius.expansion_vs_product_flow", worst_closed, 1e-10))
    checks.append(_check("moebius.expansion_vs_rk4", worst_oracle, 1e-6))

    # Expansion weights sum to one; cumulative weights close the lattice.
    worst_sum = 0.0
    a, b = expansion_coefficients(
        RateMap.crossover([1.0, 0.4, 0.8]), np.linspace(0.0, 5.0, 21).tolist()
    )
    for row_a, row_b in zip(a.tolist(), b.tolist()):
        # Columns ascend by bitmask, the order of all_link_sets; the last is
        # the full set.
        worst_sum = max(worst_sum, abs(sum(row_a) - 1.0), abs(row_b[-1] - 1.0))
    checks.append(_check("moebius.coefficient_sum", worst_sum, 1e-12))

    # Transform trajectories decay along decoupled exponentials.
    worst_linear = 0.0
    grid = np.arange(0.0, 5.0 + 1e-9, 0.25).tolist()
    for scenario in range(4):
        n_links = 3
        space = ProductSpace(tuple(int(rng.integers(2, 4)) for _ in range(n_links + 1)))
        omega0 = random_probability(space, rng)
        rates = RateMap.crossover(rng.uniform(0.3, 1.5, size=n_links).tolist())
        worst_linear = max(worst_linear, float(check_linearization(omega0, rates, grid).max()))
    checks.append(_check("moebius.linearization", worst_linear, 1e-9))

    # Transform inversion and the cumulative-coefficient identity.  Row 0 of
    # ``pair`` is omega_0 and row 1 the state at t; each R_H of both rows is
    # taken once per scenario, and every transform T_G is summed from them.
    worst_inverse = worst_b = worst_reconstruction = 0.0
    for scenario in range(4):
        n_links = 3
        space = ProductSpace(tuple(int(rng.integers(2, 4)) for _ in range(n_links + 1)))
        omega0 = random_probability(space, rng)
        rates = RateMap.crossover(rng.uniform(0.3, 1.5, size=n_links).tolist())
        t = float(rng.uniform(0.2, 2.0))
        pair = np.array([omega0.weights, product_flow_grid(omega0, rates, [t])[0]])
        b = expansion_coefficients(rates, [t])[1][0].tolist()
        table = recombination_table(pair, space)
        transforms = [
            moebius_sum(ls, lambda upper: table[upper.bits]) for ls in all_link_sets(n_links)
        ]
        reconstructed = np.zeros(space.total_states)
        for ls in all_link_sets(n_links):
            back = np.zeros(space.total_states)
            for sup in supersets_of(ls):
                back = back + transforms[sup.bits][0]
            direct = table[ls.bits][0]
            worst_inverse = max(worst_inverse, float(_row_tv(back - direct)))
            base, moved = transforms[ls.bits]
            worst_b = max(worst_b, float(_row_tv(moved - b[ls.bits] * base)))
            reconstructed = reconstructed + b[ls.bits] * base
        worst_reconstruction = max(
            worst_reconstruction, float(_row_tv(reconstructed - pair[1]))
        )
    checks.append(_check("moebius.inversion_roundtrip", worst_inverse, 1e-11))
    checks.append(_check("moebius.transform_decay_identity", worst_b, 1e-10))
    checks.append(_check("moebius.transform_reconstruction", worst_reconstruction, 1e-10))

    return checks


# -- generalized ------------------------------------------------------------------


def suite_generalized(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []

    # Series oracle: the filtered slices against their factorial tails.  The
    # root sum is backward-stable at scale e^t, so compare on that scale.
    worst = 0.0
    times = (0.3, 1.0, 2.5, 5.0)
    for n in range(2, 7):
        for t, row in zip(times, gfun(n, times).tolist()):
            for k, value in enumerate(row):
                series = 1.0 if k == 0 else 0.0
                m = 1
                while True:
                    term = t ** (m * n - k) / math.factorial(m * n - k)
                    series += term
                    if term < 1e-22 * max(series, 1.0):
                        break
                    m += 1
                worst = max(worst, abs(value - series) / math.exp(t))
    checks.append(_check("gfun.series_agreement", worst, 1e-13))

    worst = 0.0
    times = np.linspace(0.0, 10.0, 41).tolist()
    for t, (even, odd) in zip(times, gfun(2, times).tolist()):
        worst = max(worst, abs(even - math.cosh(t)) / math.cosh(t))
        reference = math.sinh(t)
        diff = abs(odd - reference)
        worst = max(worst, diff / reference if reference else diff)
    checks.append(_check("gfun.hyperbolic_pair", worst, 1e-12))

    worst = 0.0
    for n in range(2, 7):
        for k, value in enumerate(gfun(n, [0.0])[0].tolist()):
            worst = max(worst, abs(value - (1.0 if k == 0 else 0.0)))
    checks.append(_check("gfun.delta_at_zero", worst, 1e-14))

    worst = 0.0
    times = np.linspace(0.0, 8.0, 17).tolist()
    for n in range(2, 7):
        for t, row in zip(times, gfun(n, times).tolist()):
            worst = max(worst, abs(sum(row) - math.exp(t)) / math.exp(t))
    checks.append(_check("gfun.exponential_sum", worst, 1e-10))

    # d/dt F_k = F_{k+1 mod n}: absolute defect and the halving ratio.
    def recurrence_defects(n: int, times: list[float], step: float) -> list[float]:
        # |central difference of F_k - F_{k+1}| for every time and k.
        ahead = gfun(n, [t + step for t in times]).tolist()
        behind = gfun(n, [t - step for t in times]).tolist()
        defects = []
        for up, down, row in zip(ahead, behind, gfun(n, times).tolist()):
            for k in range(n):
                d = (up[k] - down[k]) / (2 * step)
                defects.append(abs(d - row[(k + 1) % n]))
        return defects

    worst_abs = 0.0
    for n in range(2, 7):
        worst_abs = max(worst_abs, *recurrence_defects(n, [0.5, 1.5, 3.0], 1e-4))
    checks.append(_check("gfun.derivative_recurrence", worst_abs, 1e-6))

    def recurrence_defect(step: float) -> float:
        return max(max(recurrence_defects(n, [2.0], step)) for n in (2, 3, 5))

    ratio = recurrence_defect(1e-2) / recurrence_defect(5e-3)
    checks.append(_check("gfun.recurrence_halving_ratio", abs(ratio - 4.0), 0.5))

    worst = 0.0
    for n in range(2, 7):
        bound = 2.0 * math.exp((math.cos(2 * math.pi / n) - 1.0) * 30.0)
        worst = max(worst, *(d / bound for d in gfun_asymptotic_check(n, 30.0).tolist()))
    checks.append(_check("gfun.asymptotic_envelope_ratio", worst, 1.0))

    worst = 0.0
    for n in range(2, 9):
        for exponent in range(-40, 41):
            value = roots_of_unity_mean(n, exponent)
            expected = 1.0 if exponent % n == 0 else 0.0
            worst = max(worst, abs(value - expected))
    checks.append(_check("gfun.roots_filter", worst, 1e-12))

    # Cyclic operator: period, commutation with the flow, generator defect.
    space = ProductSpace((3, 2, 2))
    cuts, perm = LinkSet.from_indices([0], 2), (1, 2, 0)
    rates = RateMap(space.n_links, ((cuts, 1.0),), perm)
    order = 3  # of the one 3-cycle: C^3 = R
    omega0 = random_probability(space, rng)
    worst = 0.0
    for power in range(1, order + 2):
        wrapped = cyclic_apply(omega0, rates, power + order)
        direct = cyclic_apply(omega0, rates, power)
        worst = max(worst, total_variation(wrapped - direct))
    checks.append(_check("cyclic.period", worst, 1e-12))

    worst = 0.0
    for t in (0.0, 0.1, 1.0, 5.0):
        worst = max(worst, check_flow_commutation(omega0, rates, t))
    checks.append(_check("cyclic.flow_commutation", worst, 1e-10))

    grid = [0.25, 0.5, 1.0, 1.5, 2.0]
    coarse = check_generalized_ode(omega0, rates, grid, 1e-2)
    fine = check_generalized_ode(omega0, rates, grid, 5e-3)
    checks.append(_check("cyclic.ode_halving_ratio", abs(coarse / fine - 4.0), 0.5))

    # Long-time limit with the mixed envelope: the identity coefficient dies
    # at unit rate, the rotating modes at rate 1 - cos(2 pi / n).
    worst_excess = 0.0
    limit = (1.0 / order) * sum(
        (cyclic_apply(omega0, rates, k) for k in range(2, order + 1)),
        start=cyclic_apply(omega0, rates, 1),
    )
    rate = min(1.0, 1.0 - math.cos(2 * math.pi / order))
    envelope0 = (order + 1) * total_variation(omega0)
    times = np.linspace(0.0, 12.0, 13).tolist()
    residuals = _row_tv(generalized_flow_grid(omega0, rates, times) - limit.weights)
    for t, residual in zip(times, residuals.tolist()):
        worst_excess = max(worst_excess, residual - envelope0 * math.exp(-rate * t))
    checks.append(_check("cyclic.long_time_limit", max(worst_excess, 0.0), 1e-12))

    # Flow conservation plus the coefficient nonnegativity monitor.
    worst_mass = worst_neg = 0.0
    min_coeff = math.inf
    for n in range(2, 7):
        for t in np.linspace(0.0, 6.0, 25):
            coeffs = flow_coefficients(n, float(t))
            min_coeff = min(min_coeff, float(coeffs.min()))
            worst_mass = max(worst_mass, abs(float(coeffs.sum()) - 1.0))
    states = generalized_flow_grid(
        omega0, RateMap(space.n_links, ((cuts, 1.3),), perm), (0.1, 0.7, 2.0, 6.0)
    )
    worst_mass = max(worst_mass, float(np.abs(states.sum(axis=1) - omega0.mass).max()))
    worst_neg = max(worst_neg, -float(states.min()))
    checks.append(_check("cyclic.flow_mass_conservation", worst_mass, 1e-12))
    checks.append(_check("cyclic.flow_positivity", worst_neg, 1e-12))
    checks.append(
        _monitor(
            "cyclic.coefficient_nonnegativity",
            min_coeff,
            "smallest flow coefficient over the scanned grid; negative values "
            "would void the probabilistic reading and are only reported",
        )
    )

    # The three-term wrap-around case (C^3 = C): survival, odd-hit, even-hit.
    worst = 0.0
    for t in np.linspace(0.0, 5.0, 26):
        t = float(t)
        coeffs = flow_coefficients(2, t)
        expected = (
            math.exp(-t),
            math.exp(-t) * math.sinh(t),
            math.exp(-t) * (math.cosh(t) - 1.0),
        )
        worst = max(worst, max(abs(c - e) for c, e in zip(coeffs, expected)))
    checks.append(_check("cyclic.three_term_coefficients", worst, 1e-12))

    return checks


_SUITES = {
    "algebra": suite_algebra,
    "semigroup": suite_semigroup,
    "moebius": suite_moebius,
    "generalized": suite_generalized,
}


def run_suite(name: str, seed: int) -> dict:
    """Run one named suite (or `all`) and bundle the outcome as a report."""
    if name == "all":
        checks = []
        for suite_name in SUITE_NAMES:
            checks.extend(_SUITES[suite_name](seed))
    elif name in _SUITES:
        checks = _SUITES[name](seed)
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return {
        "suite": name,
        "seed": int(seed),
        "tolerance_scale": 1.0,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
