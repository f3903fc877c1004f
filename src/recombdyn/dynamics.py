"""Recombination flows: the rate-driven ODE, closed-form semigroups, and the
inclusion-exclusion transform that linearizes the single-crossover flow.

The evolution equation is

    d/dt omega = sum_G rho_G (R_G - 1)(omega),       rho_G >= 0,

summed over cut sets G.  Three solvable regimes get closed forms here:

* one cut set A:            omega_t = e^{-rho t} omega_0 + (1 - e^{-rho t}) R_A(omega_0)
* cut sets with pairwise disjoint stretches: the product of the one-set flows
* one rate per single link: the subset expansion
      omega_t = sum_G a_G(t) R_G(omega_0),
      a_G(t)  = prod_{a not in G} e^{-rho_a t} * prod_{b in G} (1 - e^{-rho_b t})

A fixed-step classical Runge-Kutta integrator doubles as an independent
numerical oracle for every closed form.  General overlapping-stretch rate
maps are integrated numerically only; no closed form is claimed for them.

The integrator evaluates a field compiled once per rate map by
``compile_field``.  Per evaluation it sums |omega| once, forms each distinct
block marginal once however many cut sets share the block, and folds every
``-rho_G omega`` into one term.  Small spaces, where the stacked 0/1
block-marginal operator has at most ``DENSE_FIELD_MAX_ENTRIES`` entries, use
a dense kernel: one matrix product for all marginals, one gather and product
for all terms.  Larger spaces use a strided kernel that reduces the flat
weights as (left, block, right) arrays and builds each term by outer
products.  ``recombine_weights`` remains the reference the field is tested
against.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .lattice import (
    LinkSet,
    _cached_blocks,
    moebius_sign,
    stretches_disjoint,
    subsets_of,
    supersets_of,
)
from .measure import Measure, ProductSpace, total_variation
from .recombinator import (
    ZERO_TOTAL_VARIATION,
    _require_full_space,
    recombine,
    recombine_weights,
    require_positive,
)

METHOD_CLOSED_FORM = "closed-form"
METHOD_RK4 = "rk4"
METHOD_CROSSOVER = "crossover-expansion"


@dataclass(frozen=True)
class RateMap:
    """Finite assignment of nonnegative rates to nonempty cut sets."""

    n_links: int
    entries: tuple[tuple[LinkSet, float], ...]

    def __post_init__(self) -> None:
        seen = set()
        normalized = []
        for links, rate in self.entries:
            rate = float(rate)
            if links.n_links != self.n_links:
                raise ValueError("rate entry defined over a different link count")
            if len(links) == 0:
                raise ValueError("the empty cut set generates no motion; drop it")
            if not math.isfinite(rate) or rate < 0.0:
                raise ValueError(f"rates must be finite and >= 0, got {rate}")
            if links.bits in seen:
                raise ValueError(f"duplicate rate entry for {links}")
            seen.add(links.bits)
            normalized.append((links, rate))
        normalized.sort(key=lambda e: e[0].bits)
        object.__setattr__(self, "entries", tuple(normalized))

    @classmethod
    def empty(cls, n_links: int) -> "RateMap":
        return cls(n_links, ())

    @classmethod
    def single(cls, links: LinkSet, rate: float) -> "RateMap":
        return cls(links.n_links, ((links, rate),))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[LinkSet, float]], n_links: int) -> "RateMap":
        return cls(n_links, tuple(pairs))

    @classmethod
    def crossover(cls, link_rates: Sequence[float]) -> "RateMap":
        """One singleton entry per link, from per-link rates."""
        n = len(link_rates)
        return cls(
            n,
            tuple(
                (LinkSet.from_indices([i], n), float(r))
                for i, r in enumerate(link_rates)
            ),
        )

    def items(self) -> tuple[tuple[LinkSet, float], ...]:
        return self.entries

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DisjointStretchSystem:
    """Cut sets with pairwise disjoint stretches, each with a positive rate.

    Disjoint stretches make the one-set semigroups commute, so the combined
    flow factorizes; the overlap check happens here, once, at construction.
    """

    components: tuple[tuple[LinkSet, float], ...]

    def __post_init__(self) -> None:
        components = tuple((links, float(rate)) for links, rate in self.components)
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("a stretch system needs at least one component")
        n_links = components[0][0].n_links
        for links, rate in components:
            if links.n_links != n_links:
                raise ValueError("components defined over different link counts")
            if len(links) == 0:
                raise ValueError("components must be nonempty cut sets")
            if not math.isfinite(rate) or rate <= 0.0:
                raise ValueError(f"component rates must be finite and > 0, got {rate}")
        for i in range(len(components)):
            for j in range(i + 1, len(components)):
                if not stretches_disjoint(components[i][0], components[j][0]):
                    raise ValueError(
                        f"stretches of {components[i][0]} and {components[j][0]} overlap"
                    )

    @property
    def n_links(self) -> int:
        return self.components[0][0].n_links

    def union(self) -> LinkSet:
        bits = 0
        for links, _ in self.components:
            bits |= links.bits
        return LinkSet(bits, self.n_links)

    def as_rate_map(self) -> RateMap:
        return RateMap(self.n_links, self.components)

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus the state at each grid point, tagged by generator."""

    times: tuple[float, ...]
    states: tuple[Measure, ...]
    method: str

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states) or not self.times:
            raise ValueError("times and states must align and be nonempty")
        if self.times[0] != 0.0:
            raise ValueError("trajectories start at time 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# Vector field and the Runge-Kutta oracle
# ---------------------------------------------------------------------------


def vector_field(omega: Measure, rates: RateMap) -> Measure:
    """Right-hand side sum_G rho_G (R_G(omega) - omega); signed in general."""
    if rates.n_links != omega.space.n_links:
        raise ValueError("rate map does not match the measure's link count")
    if omega.nodes != tuple(range(omega.space.n_nodes)):
        raise ValueError("vector_field acts on measures over the full chain")
    field = compile_field(omega.space, rates)
    return Measure(omega.space, field(omega.weights), omega.nodes)


# The stacked block-marginal operator of the dense kernel has one row per
# block state and one column per state; above this many entries the strided
# kernel, which never forms it, is faster and needs no O(S * N) memory.
DENSE_FIELD_MAX_ENTRIES = 1 << 18


def compile_field(
    space: ProductSpace, rates: RateMap
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile ``w -> sum_G rho_G (R_G(w) - w)`` for flat weight vectors.

    Everything that depends only on the space and the rate map is worked out
    here, once: the distinct blocks of all cut sets as (left, block, right)
    extents of the flat index, and each term's rate and blocks.  Zero rates
    are dropped.  Each call of the returned function sums |w| once, forms
    every distinct block marginal once, and folds the ``-rho_G w`` parts into
    one term.  Like ``recombine_weights``, it divides every marginal by |w|
    so no power of |w| can overflow, and it maps |w| below
    ``ZERO_TOTAL_VARIATION`` to R(w) = 0.  The function keeps no state
    between calls, so one compiled field may be shared across threads.
    """
    if rates.n_links != space.n_links:
        raise ValueError("rate map does not match the space's link count")
    sizes = space.sizes
    n_states = space.total_states
    terms = [
        (rate, _cached_blocks(links.bits, space.n_nodes))
        for links, rate in rates.items()
        if rate != 0.0
    ]
    if not terms:
        return lambda w: np.zeros_like(w)
    total_rate = math.fsum(rate for rate, _ in terms)
    term_rates = np.array([rate for rate, _ in terms])

    block_ids: dict[tuple[int, ...], int] = {}
    for _, blocks in terms:
        for block in blocks:
            block_ids.setdefault(block, len(block_ids))
    extents = [
        (
            math.prod(sizes[: block[0]]),
            math.prod(sizes[block[0] : block[-1] + 1]),
            math.prod(sizes[block[-1] + 1 :]),
        )
        for block in block_ids
    ]
    term_blocks = [[block_ids[block] for block in blocks] for _, blocks in terms]

    n_rows = sum(size for _, size, _ in extents)
    if n_rows * n_states <= DENSE_FIELD_MAX_ENTRIES:
        # Row offset + block coordinate of every state, for every block; one
        # extra row past the marginals holds the neutral factor 1.
        offsets = np.cumsum([0] + [size for _, size, _ in extents])
        flat = np.arange(n_states)
        rows = [
            offsets[b] + (flat // right) % size
            for b, (_, size, right) in enumerate(extents)
        ]
        operator = np.zeros((n_rows, n_states))
        for row in rows:
            operator[row, flat] = 1.0
        width = max(len(ids) for ids in term_blocks)
        gather = np.full((len(terms), width, n_states), n_rows)
        for t, ids in enumerate(term_blocks):
            for j, b in enumerate(ids):
                gather[t, j] = rows[b]

        def dense_field(w: np.ndarray) -> np.ndarray:
            tv = float(np.abs(w).sum())
            if tv < ZERO_TOTAL_VARIATION:
                return -total_rate * w
            scaled = np.empty(n_rows + 1)
            np.matmul(operator, w, out=scaled[:n_rows])
            scaled[n_rows] = tv
            scaled /= tv
            products = scaled[gather].prod(axis=1)
            return (term_rates * tv) @ products - total_rate * w

        return dense_field

    ones = {n: np.ones(n) for extent in extents for n in (extent[0], extent[2])}

    def strided_field(w: np.ndarray) -> np.ndarray:
        tv = float(np.abs(w).sum())
        out = -total_rate * w
        if tv < ZERO_TOTAL_VARIATION:
            return out
        scaled = []
        for left, size, right in extents:
            m = w if left == 1 else ones[left] @ w.reshape(left, size * right)
            if right > 1:
                m = m.reshape(size, right) @ ones[right]
            scaled.append(m / tv)
        for rate, ids in zip(term_rates, term_blocks):
            acc = (rate * tv) * scaled[ids[0]]
            for b in ids[1:]:
                acc = np.multiply.outer(acc, scaled[b]).ravel()
            out += acc
        return out

    return strided_field


def _rk4_step(
    field: Callable[[np.ndarray], np.ndarray], w: np.ndarray, h: float
) -> np.ndarray:
    k1 = field(w)
    k2 = field(w + (0.5 * h) * k1)
    k3 = field(w + (0.5 * h) * k2)
    k4 = field(w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _step_plan(t_end: float, h: float, stride: int) -> tuple[int, list[int], float]:
    # Full steps of h, the ones after which the state is stored, and the
    # length of a final short step that lands on t_end (0.0 when none).
    n_full = int(math.floor(t_end / h + 1e-9))
    remainder = t_end - n_full * h
    if remainder <= h * 1e-12:
        remainder = 0.0
    stored = list(range(stride, n_full + 1, stride))
    if remainder == 0.0 and n_full % stride:
        stored.append(n_full)
    return n_full, stored, remainder


def output_grid(t_end: float, h: float, stride: int) -> list[float]:
    """Times at which a run stores states: 0, every stride-th step, t_end.

    The last time is ``t_end`` itself, also when the steps reach it only up
    to rounding.  RK4 and the closed forms both report on this grid.
    """
    _, stored, remainder = _step_plan(t_end, h, stride)
    times = [0.0] + [i * h for i in stored]
    if remainder > 0.0:
        times.append(t_end)
    elif stored:
        times[-1] = t_end
    return times


def _rk4_run(
    field: Callable[[np.ndarray], np.ndarray],
    w0: np.ndarray,
    t_end: float,
    h: float,
    store_stride: int,
) -> tuple[list[float], list[np.ndarray]]:
    n_full, stored, remainder = _step_plan(t_end, h, store_stride)
    keep = set(stored)
    states = [w0.copy()]
    w = w0
    for i in range(1, n_full + 1):
        w = _rk4_step(field, w, h)
        if i in keep:
            states.append(w)
    if remainder > 0.0:
        w = _rk4_step(field, w, remainder)
        states.append(w)
    return output_grid(t_end, h, store_stride), states


def rk4_integrate(
    omega0: Measure,
    rates: RateMap,
    t_end: float,
    h: float,
    store_stride: int = 1,
) -> Trajectory:
    """Integrate the rate-driven ODE with classical fixed-step RK4.

    The final step is shortened to land exactly on ``t_end``; with
    ``store_stride > 1`` only every stride-th step (plus the endpoint) is
    stored.  Transient slightly negative intermediate weights are left as
    computed so integrator defects remain visible to the checks downstream.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step size must be finite and positive, got {h}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"end time must be finite and nonnegative, got {t_end}")
    if store_stride < 1:
        raise ValueError("store_stride must be a positive integer")
    if rates.n_links != omega0.space.n_links:
        raise ValueError("rate map does not match the measure's link count")
    require_positive(omega0, "rk4_integrate")
    field = compile_field(omega0.space, rates)
    times, raw = _rk4_run(field, np.array(omega0.weights), float(t_end), float(h), store_stride)
    states = tuple(Measure(omega0.space, w, omega0.nodes) for w in raw)
    return Trajectory(tuple(times), states, METHOD_RK4)


# ---------------------------------------------------------------------------
# Closed-form flows
# ---------------------------------------------------------------------------


def semigroup_apply(omega0: Measure, links: LinkSet, rho: float, t: float) -> Measure:
    """Closed-form one-cut-set flow at time t for a positive initial state.

    The state slides from the initial measure to its recombination along a
    single exponential: e^{-rho t} omega_0 + (1 - e^{-rho t}) R(omega_0).
    Positivity and total mass are preserved.
    """
    if len(links) == 0:
        raise ValueError("the empty cut set generates the constant flow; use it directly")
    if not rho > 0.0:
        raise ValueError(f"rate must be positive, got {rho}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    require_positive(omega0, "semigroup_apply")
    survival = math.exp(-rho * t)
    return survival * omega0 + (1.0 - survival) * recombine(omega0, links)


def product_flow_apply(
    omega0: Measure, system: DisjointStretchSystem, ts: Sequence[float]
) -> Measure:
    """Compose the one-set flows of a disjoint-stretch system, one time each.

    The factors commute, so the application order does not matter; with all
    times equal this is the solution of the combined rate equation.
    """
    times = [float(t) for t in ts]
    if len(times) != len(system.components):
        raise ValueError(
            f"need one time per component: got {len(times)} times for "
            f"{len(system.components)} components"
        )
    if any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    if system.n_links != omega0.space.n_links:
        raise ValueError("stretch system does not match the measure's link count")
    require_positive(omega0, "product_flow_apply")
    state = omega0
    for (links, rate), t in zip(system.components, times):
        state = semigroup_apply(state, links, rate, t)
    return state


def _validated_link_rates(link_rates: Sequence[float], n_links: int) -> list[float]:
    rates = [float(r) for r in link_rates]
    if len(rates) != n_links:
        raise ValueError(f"expected {n_links} per-link rates, got {len(rates)}")
    if any(not math.isfinite(r) or r <= 0.0 for r in rates):
        raise ValueError(f"per-link rates must be finite and > 0, got {rates}")
    return rates


def coefficient_a(links: LinkSet, link_rates: Sequence[float], t: float) -> float:
    """Weight of R_G(omega_0) in the single-crossover expansion at time t.

    Probabilistically: the chance that, by time t, recombination has happened
    at exactly the links in the set and at none outside it.
    """
    rates = _validated_link_rates(link_rates, links.n_links)
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    value = 1.0
    for i, rate in enumerate(rates):
        decayed = math.exp(-rate * t)
        value *= (1.0 - decayed) if i in links else decayed
    return value


def coefficient_b(links: LinkSet, link_rates: Sequence[float], t: float) -> float:
    """Cumulative expansion weight: the sum of ``coefficient_a`` over subsets."""
    return sum(coefficient_a(sub, link_rates, t) for sub in subsets_of(links))


def crossover_solution(
    omega0: Measure, link_rates: Sequence[float], t: float
) -> Measure:
    """Closed-form single-crossover flow: subset expansion over all cut sets."""
    n_links = omega0.space.n_links
    rates = _validated_link_rates(link_rates, n_links)
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    require_positive(omega0, "crossover_solution")
    decays = [math.exp(-r * t) for r in rates]
    sizes = omega0.space.sizes
    n_nodes = omega0.space.n_nodes
    acc = np.zeros_like(omega0.weights)
    for bits in range(1 << n_links):
        weight = 1.0
        for i in range(n_links):
            weight *= (1.0 - decays[i]) if bits >> i & 1 else decays[i]
        if weight == 0.0:
            continue
        if bits == 0:
            acc += weight * omega0.weights
        else:
            blocks = _cached_blocks(bits, n_nodes)
            acc += weight * recombine_weights(omega0.weights, sizes, blocks)
    return Measure(omega0.space, acc, omega0.nodes)


# ---------------------------------------------------------------------------
# Inclusion-exclusion transform and the linearized picture
# ---------------------------------------------------------------------------


def moebius_transform(omega: Measure, links: LinkSet) -> Measure:
    """Alternating superset sum  T_G(omega) = sum_{H >= G} (-1)^{|H-G|} R_H(omega).

    The transform is genuinely signed even for positive input.  Summing it
    back over supersets inverts it:  R_G(omega) = sum_{H >= G} T_H(omega).
    Along a single-crossover trajectory each transform decays along its own
    exponential, which is what makes the flow linearizable.
    """
    _require_full_space(omega, links, "moebius_transform")
    require_positive(omega, "moebius_transform")
    sizes = omega.space.sizes
    n_nodes = omega.space.n_nodes
    acc = np.zeros_like(omega.weights)
    for upper in supersets_of(links):
        if len(upper) == 0:
            term = omega.weights
        else:
            blocks = _cached_blocks(upper.bits, n_nodes)
            term = recombine_weights(omega.weights, sizes, blocks)
        if moebius_sign(links, upper) > 0:
            acc += term
        else:
            acc -= term
    return Measure(omega.space, acc, omega.nodes)


def check_linearization(
    omega0: Measure,
    link_rates: Sequence[float],
    links: LinkSet,
    times: Sequence[float],
) -> float:
    """Max defect of  T_G(omega_t) = exp(-t * sum_{a not in G} rho_a) T_G(omega_0).

    The trajectory is produced by the closed-form crossover expansion; the
    comparison line is the decoupled linear decay the transform predicts.
    """
    rates = _validated_link_rates(link_rates, links.n_links)
    require_positive(omega0, "check_linearization")
    outside_rate = sum(r for i, r in enumerate(rates) if i not in links)
    base = moebius_transform(omega0, links)
    worst = 0.0
    for t in times:
        t = float(t)
        if t < 0.0:
            raise ValueError("grid times must be nonnegative")
        state = crossover_solution(omega0, link_rates, t)
        predicted = math.exp(-outside_rate * t) * base
        defect = total_variation(moebius_transform(state, links) - predicted)
        worst = max(worst, defect)
    return worst


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------


def trajectory_to_json_dict(traj: Trajectory) -> dict:
    return {
        "times": [float(t) for t in traj.times],
        "states": [state.weights.tolist() for state in traj.states],
    }


def trajectory_to_csv(traj: Trajectory, stream: io.TextIOBase) -> None:
    """Write `t,<flat-index columns>` rows with 17 significant digits."""
    n_cells = traj.states[0].space.total_states
    header = "t," + ",".join(str(i) for i in range(n_cells))
    stream.write(header + "\n")
    for t, state in zip(traj.times, traj.states):
        row = [f"{t:.17g}"] + [f"{w:.17g}" for w in state.weights]
        stream.write(",".join(row) + "\n")


def trajectory_to_csv_string(traj: Trajectory) -> str:
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    return buf.getvalue()
