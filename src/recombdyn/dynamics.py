"""Recombination flows: the rate-driven ODE, closed-form semigroups, and the
inclusion-exclusion transform that linearizes the single-crossover flow.

The evolution equation is

    d/dt omega = sum_G rho_G (R_G - 1)(omega),       rho_G >= 0,

summed over cut sets G.  Three solvable regimes get closed forms here:

* one cut set A:            omega_t = e^{-rho t} omega_0 + (1 - e^{-rho t}) R_A(omega_0)
* cut sets with pairwise disjoint stretches: the product of the one-set flows
* one rate per single link: singletons have disjoint stretches, so this is the
  product of the n one-link flows.  Multiplied out, it is the paper's subset
  expansion
      omega_t = sum_G a_G(t) R_G(omega_0),
      a_G(t)  = prod_{a not in G} e^{-rho_a t} * prod_{b in G} (1 - e^{-rho_b t}),
  which the verify suite keeps as the reference for the product.

Time enters these forms only through scalar coefficients, so each closed form
takes a whole time grid and returns a stack, one row of weights per time:
``product_flow_grid`` and ``crossover_grid`` apply each one-set flow
W <- e^{-rho t} W + (1 - e^{-rho t}) R_G(W) to the whole stack in place, one
recombination per cut set for the grid, and ``moebius_rows`` transforms
every row of a stack.  The per-time functions (``semigroup_apply``,
``product_flow_apply``, ``crossover_solution``, ``moebius_transform``) are
their one-row case.

A fixed-step classical Runge-Kutta integrator doubles as an independent
numerical oracle for every closed form: ``integrate_field`` on any flat
field, ``rk4_integrate`` on a rate map's.  The time grid is validated, with
at most ``MAX_STEPS`` steps, before anything is allocated.  General
overlapping-stretch rate maps are integrated numerically only; no closed
form is claimed for them.

The integrator evaluates a field compiled once per rate map by
``compile_field``.  Per evaluation it sums |omega| once, forms each distinct
block marginal once however many cut sets share the block, and folds every
``-rho_G omega`` into one term.  Small spaces, whose block marginals have at
most ``STACKED_FIELD_MAX_ENTRIES`` rows x states, use the stacked kernel:
one ``bincount`` for all marginals, one gather and product for all terms and
one ``bincount`` scatter back to the states, driven by index tables.  Larger
spaces use a strided kernel that reduces the flat weights as (left, block,
right) arrays and builds each term by outer products.
``rk4_integrate_many`` integrates independent problems on one grid: the
small ones laid end to end in one vector, under one stacked field with one
|omega| per problem, so many tiny runs cost one run's interpreter overhead.
``recombine_weights`` remains the reference the field is tested against.

A ``Trajectory`` is a time grid and one read-only stack, one row per time.
RK4 writes each stored state into its row of a preallocated stack, and each
problem of ``rk4_integrate_many`` gets its column slice of the stacked run.

``trajectory_to_csv`` streams a trajectory one row at a time, each row one
``%`` format of its 17-significant-digit cells, so the CSV text is never held
whole; ``trajectory_to_csv_string`` collects it for callers that want a str.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .lattice import (
    LinkSet,
    moebius_sign,
    partition_of,
    stretches_disjoint,
    supersets_of,
)
from .measure import Measure, ProductSpace
from .recombinator import ZERO_TOTAL_VARIATION, recombine_rows, require_positive


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
        # Rates are >= 0, so a plain sum overflows exactly when the total does.
        if not math.isfinite(sum(rate for _, rate in normalized)):
            raise ValueError("the rates' total exceeds the float range")
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time grid and one read-only (len(times), states) stack of weights.

    Row k of ``weights`` is the state on the full chain at ``times[k]``.  A
    float64 array is taken over without a copy and made read-only; the
    caller keeps no writable view of it.
    """

    space: ProductSpace
    times: tuple[float, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        times = tuple(self.times)
        object.__setattr__(self, "times", times)
        if not times or times[0] != 0.0:
            raise ValueError("trajectories start at time 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        w = np.asarray(self.weights, dtype=np.float64)
        shape = (len(times), self.space.total_states)
        if w.shape != shape:
            raise ValueError(f"need a stack of shape {shape}, got {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def states(self) -> tuple[Measure, ...]:
        """Each row as a ``Measure``, copied when read."""
        return tuple(Measure(self.space, row) for row in self.weights)

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# Vector field and the Runge-Kutta oracle
# ---------------------------------------------------------------------------


def vector_field(omega: Measure, rates: RateMap) -> Measure:
    """Right-hand side sum_G rho_G (R_G(omega) - omega); signed in general."""
    if omega.nodes != tuple(range(omega.space.n_nodes)):
        raise ValueError("vector_field acts on measures over the full chain")
    field = compile_field(omega.space, rates)
    return Measure(omega.space, field(omega.weights), omega.nodes)


# The marginal rows (one per block state, summed over the distinct blocks)
# times the states of a problem.  Problems above this take the strided
# kernel, whose few large numpy calls beat the stacked kernel's gathers there
# (2^11 states, 10 crossover links: 193 vs 485 us per evaluation on one
# shared CPU core); the others share one stacked vector.
STACKED_FIELD_MAX_ENTRIES = 1 << 18


@dataclass(frozen=True)
class _FieldTerms:
    """What the field of one rate map on one space needs, worked out once.

    ``extents`` are the distinct blocks of all cut sets as (left, block,
    right) extents of the flat index; each nonzero-rate term has its rate and
    the ids of its blocks in that list.
    """

    n_states: int
    extents: tuple[tuple[int, int, int], ...]
    term_blocks: tuple[tuple[int, ...], ...]
    term_rates: tuple[float, ...]
    total_rate: float

    @property
    def stacks(self) -> bool:
        rows = sum(size for _, size, _ in self.extents)
        return rows * self.n_states <= STACKED_FIELD_MAX_ENTRIES


def _field_terms(space: ProductSpace, rates: RateMap) -> _FieldTerms:
    if rates.n_links != space.n_links:
        raise ValueError("rate map does not match the space's link count")
    sizes = space.sizes
    terms = [
        (rate, partition_of(links, space.n_nodes).blocks)
        for links, rate in rates.items()
        if rate != 0.0
    ]
    block_ids: dict[tuple[int, ...], int] = {}
    for _, blocks in terms:
        for block in blocks:
            block_ids.setdefault(block, len(block_ids))
    extents = tuple(
        (
            math.prod(sizes[: block[0]]),
            math.prod(sizes[block[0] : block[-1] + 1]),
            math.prod(sizes[block[-1] + 1 :]),
        )
        for block in block_ids
    )
    return _FieldTerms(
        n_states=space.total_states,
        extents=extents,
        term_blocks=tuple(tuple(block_ids[block] for block in blocks) for _, blocks in terms),
        term_rates=tuple(rate for rate, _ in terms),
        total_rate=math.fsum(rate for rate, _ in terms),
    )


def compile_field(
    space: ProductSpace, rates: RateMap
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile ``w -> sum_G rho_G (R_G(w) - w)`` for flat weight vectors.

    Everything that depends only on the space and the rate map is worked out
    here, once; zero rates are dropped.  Each call of the returned function
    sums |w| once, forms every distinct block marginal once, and folds the
    ``-rho_G w`` parts into one term.  Like ``recombine_weights``, it divides
    every marginal by |w| so no power of |w| can overflow, and it maps |w|
    below ``ZERO_TOTAL_VARIATION`` to R(w) = 0.  The function keeps no state
    between calls, so one compiled field may be shared across threads.
    """
    terms = _field_terms(space, rates)
    return _stacked_field([terms]) if terms.stacks else _strided_field(terms)


def _stacked_field(parts: Sequence[_FieldTerms]) -> Callable[[np.ndarray], np.ndarray]:
    # Independent problems laid end to end: part p owns the next n_states
    # weights.  Index tables give every (block, state) pair its marginal row
    # and every (term, state) pair the rows of its factors, so one call makes
    # the same few numpy calls for any number of problems, blocks and terms.
    if not any(part.term_rates for part in parts):
        return lambda w: np.zeros_like(w)
    marginal_rows, marginal_states, row_part = [], [], []
    factor_rows, targets, target_rates, target_part = [], [], [], []
    start = n_rows = 0
    for p, part in enumerate(parts):
        flat = np.arange(part.n_states)
        states = start + flat
        rows = []
        for _, size, right in part.extents:
            rows.append(n_rows + (flat // right) % size)
            row_part.append(np.full(size, p))
            n_rows += size
        marginal_rows += rows
        marginal_states += [states] * len(rows)
        for rate, ids in zip(part.term_rates, part.term_blocks):
            factor_rows.append([rows[b] for b in ids])
            targets.append(states)
            target_rates.append(np.full(part.n_states, rate))
            target_part.append(np.full(part.n_states, p))
        start += part.n_states
    n_states, n_parts = start, len(parts)
    counts = [part.n_states for part in parts]
    state_part = np.repeat(np.arange(n_parts), counts)
    state_rates = np.repeat([part.total_rate for part in parts], counts)
    marginal_rows = np.concatenate(marginal_rows)
    marginal_states = np.concatenate(marginal_states)
    row_part = np.concatenate(row_part)
    targets = np.concatenate(targets)
    target_rates = np.concatenate(target_rates)
    target_part = np.concatenate(target_part)
    # One column per (term, state); slots past a term's last block point at
    # the extra row after the marginals, which holds the neutral factor 1.
    width = max(len(rows) for rows in factor_rows)
    table = np.full((width, targets.size), n_rows)
    col = 0
    for rows in factor_rows:
        for j, row in enumerate(rows):
            table[j, col : col + row.size] = row
        col += rows[0].size

    def stacked_field(w: np.ndarray) -> np.ndarray:
        tv = np.bincount(state_part, weights=np.abs(w), minlength=n_parts)
        live = tv >= ZERO_TOTAL_VARIATION
        scaled = np.empty(n_rows + 1)
        marginals = np.bincount(marginal_rows, weights=w[marginal_states], minlength=n_rows)
        np.divide(marginals, np.where(live, tv, 1.0)[row_part], out=scaled[:n_rows])
        scaled[n_rows] = 1.0
        terms = scaled[table].prod(axis=0) * (target_rates * np.where(live, tv, 0.0)[target_part])
        return np.bincount(targets, weights=terms, minlength=n_states) - state_rates * w

    return stacked_field


def _strided_field(terms: _FieldTerms) -> Callable[[np.ndarray], np.ndarray]:
    # Reduces the flat weights as (left, block, right) arrays and builds each
    # term by outer products; never forms an index table.
    extents, total_rate = terms.extents, terms.total_rate
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
        for rate, ids in zip(terms.term_rates, terms.term_blocks):
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


# Work and memory bounds of one run: no plan of the tests or the benchmark
# takes over 5,000 steps or stores over 1,001 grid points, and a plan past
# either cap fails before anything is allocated.
MAX_STEPS = 10**7
MAX_GRID_POINTS = 10**5


def _step_plan(t_end: float, h: float, stride: int) -> tuple[int, list[int], float]:
    # Full steps of h, the ones after which the state is stored, and the
    # length of a final short step that lands on t_end (0.0 when none).
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step size must be finite and positive, got {h}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"end time must be finite and nonnegative, got {t_end}")
    if stride < 1:
        raise ValueError(f"store stride must be a positive integer, got {stride}")
    steps = t_end / h
    if not (math.isfinite(steps) and math.floor(steps) <= MAX_STEPS):
        raise ValueError(f"t_end / h = {steps:.3g} exceeds the cap of {MAX_STEPS} steps")
    n_full = int(math.floor(steps + 1e-9))
    if n_full // stride + 1 > MAX_GRID_POINTS:
        raise ValueError(
            f"{n_full // stride + 1} stored grid points exceed the cap of {MAX_GRID_POINTS}"
        )
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
) -> tuple[list[float], np.ndarray]:
    n_full, stored, remainder = _step_plan(t_end, h, store_stride)
    times = output_grid(t_end, h, store_stride)
    stack = np.empty((len(times), w0.size))
    stack[0] = w0
    rows = {step: row for row, step in enumerate(stored, 1)}
    w = w0
    for i in range(1, n_full + 1):
        w = _rk4_step(field, w, h)
        if i in rows:
            stack[rows[i]] = w
    if remainder > 0.0:
        stack[-1] = _rk4_step(field, w, remainder)
    return times, stack


def integrate_field(
    field: Callable[[np.ndarray], np.ndarray],
    omega0: Measure,
    t_end: float,
    h: float,
    store_stride: int = 1,
) -> Trajectory:
    """Integrate  d/dt w = field(w)  on flat weights with classical fixed-step RK4.

    States are stored on ``output_grid(t_end, h, store_stride)``; the final
    step is shortened to land exactly on ``t_end``.  Transient slightly
    negative intermediate weights are left as computed so integrator
    defects remain visible to the checks downstream.
    """
    times, stack = _rk4_run(field, omega0.weights, float(t_end), float(h), store_stride)
    return Trajectory(omega0.space, times, stack)


def rk4_integrate(
    omega0: Measure,
    rates: RateMap,
    t_end: float,
    h: float,
    store_stride: int = 1,
) -> Trajectory:
    """``integrate_field`` on the compiled field of a rate map, from a positive state.

    This is ``rk4_integrate_many`` with one problem.
    """
    return rk4_integrate_many([(omega0, rates)], t_end, h, store_stride)[0]


def rk4_integrate_many(
    problems: Sequence[tuple[Measure, RateMap]],
    t_end: float,
    h: float,
    store_stride: int = 1,
) -> list[Trajectory]:
    """``rk4_integrate`` for independent ``(omega0, rates)`` problems on one grid.

    The problems the stacked kernel takes (see ``STACKED_FIELD_MAX_ENTRIES``)
    are concatenated into one flat vector, which one compiled field and one
    RK4 run step together; each larger problem runs alone on the strided
    kernel.  Every problem keeps its own |w|, so each trajectory is the one
    ``rk4_integrate`` gives for that problem alone.
    """
    problems = list(problems)
    if not problems:
        raise ValueError("rk4_integrate_many needs at least one problem")
    terms = []
    for omega0, rates in problems:
        require_positive(omega0, "rk4_integrate")
        terms.append(_field_terms(omega0.space, rates))
    stacked = [i for i, part in enumerate(terms) if part.stacks]
    runs = [(stacked, _stacked_field([terms[i] for i in stacked]))] if stacked else []
    runs += [([i], _strided_field(part)) for i, part in enumerate(terms) if not part.stacks]
    trajectories: list[Trajectory] = [None] * len(problems)
    for members, field in runs:
        w0 = np.concatenate([problems[i][0].weights for i in members])
        times, stack = _rk4_run(field, w0, float(t_end), float(h), store_stride)
        start = 0
        for i in members:
            space = problems[i][0].space
            stop = start + space.total_states
            # Each problem's trajectory is its column slice of the stacked run.
            trajectories[i] = Trajectory(space, times, stack[:, start:stop])
            start = stop
    return trajectories


# ---------------------------------------------------------------------------
# Closed-form flows
# ---------------------------------------------------------------------------


def _times(ts: Sequence[float]) -> list[float]:
    times = [float(t) for t in ts]
    if any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    return times


def _one_set_flows(
    omega0: Measure,
    factors: Sequence[tuple[LinkSet, float, Sequence[float]]],
) -> np.ndarray:
    # The (links, rate, times) factors applied in turn to a stack of omega0,
    # one row per time:  W <- s W + (1 - s) R_G(W)  with each row's own
    # survival s = e^{-rate t}.  In place, with one stack-sized temporary.
    stack = np.tile(omega0.weights, (len(factors[0][2]), 1))
    for links, rate, times in factors:
        # math.exp as in the coefficient functions; np.exp may round differently.
        survival = np.array([math.exp(-rate * t) for t in times])[:, None]
        recombined = recombine_rows(stack, omega0.space, links)
        stack *= survival
        recombined *= 1.0 - survival
        stack += recombined
    return stack


def semigroup_apply(omega0: Measure, links: LinkSet, rho: float, t: float) -> Measure:
    """Closed-form one-cut-set flow at time t for a positive initial state.

    The state slides from the initial measure to its recombination along a
    single exponential: e^{-rho t} omega_0 + (1 - e^{-rho t}) R(omega_0).
    Positivity and total mass are preserved.  This is the one-row,
    one-component case of ``product_flow_grid``.
    """
    if len(links) == 0:
        raise ValueError("the empty cut set generates the constant flow; use it directly")
    if not rho > 0.0:
        raise ValueError(f"rate must be positive, got {rho}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    require_positive(omega0, "semigroup_apply")
    w = _one_set_flows(omega0, [(links, float(rho), [float(t)])])[0]
    return Measure(omega0.space, w, omega0.nodes)


def _check_system(omega0: Measure, system: DisjointStretchSystem) -> None:
    if system.n_links != omega0.space.n_links:
        raise ValueError("stretch system does not match the measure's link count")
    require_positive(omega0, "the product flow")


def product_flow_grid(
    omega0: Measure, system: DisjointStretchSystem, times: Sequence[float]
) -> np.ndarray:
    """The combined flow of a disjoint-stretch system on a whole time grid.

    Returns the (len(times), states) stack whose row k is the state at
    ``times[k]``.  Each one-set flow acts on the whole stack at once, so the
    grid costs one recombination per cut set, not one per cut set and time.
    A row at t = 0 is omega_0 exactly.
    """
    times = _times(times)
    _check_system(omega0, system)
    return _one_set_flows(omega0, [(links, rate, times) for links, rate in system.components])


def product_flow_apply(
    omega0: Measure, system: DisjointStretchSystem, ts: Sequence[float]
) -> Measure:
    """Compose the one-set flows of a disjoint-stretch system, one time each.

    The factors commute, so the application order does not matter; with all
    times equal this is the solution of the combined rate equation, the
    one-row case of ``product_flow_grid``.
    """
    times = _times(ts)
    if len(times) != len(system.components):
        raise ValueError(
            f"need one time per component: got {len(times)} times for "
            f"{len(system.components)} components"
        )
    _check_system(omega0, system)
    factors = [(links, rate, [t]) for (links, rate), t in zip(system.components, times)]
    return Measure(omega0.space, _one_set_flows(omega0, factors)[0], omega0.nodes)


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
    """Cumulative expansion weight: the sum of ``coefficient_a`` over subsets.

    The sum telescopes to the chance that no link outside the set has
    recombined by time t, prod_{a not in G} e^{-rho_a t}, formed here in
    ``coefficient_a``'s factor order.
    """
    rates = _validated_link_rates(link_rates, links.n_links)
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    value = 1.0
    for i, rate in enumerate(rates):
        if i not in links:
            value *= math.exp(-rate * t)
    return value


def crossover_grid(
    omega0: Measure, link_rates: Sequence[float], times: Sequence[float]
) -> np.ndarray:
    """Closed-form single-crossover flow on a time grid: one row per time.

    Singleton cut sets have disjoint stretches, so their flows commute and
    the n of them compose to the solution: this is ``product_flow_grid`` of
    the one-link system, one recombination per link for the whole grid.  The
    paper's subset expansion over all 2^n cut sets gives the same measures;
    the verify suite keeps it as the reference.
    """
    rates = _validated_link_rates(link_rates, omega0.space.n_links)
    system = DisjointStretchSystem(RateMap.crossover(rates).entries)
    return product_flow_grid(omega0, system, times)


def crossover_solution(
    omega0: Measure, link_rates: Sequence[float], t: float
) -> Measure:
    """Closed-form single-crossover flow at time t: the one-row ``crossover_grid``."""
    return Measure(omega0.space, crossover_grid(omega0, link_rates, [t])[0], omega0.nodes)


# ---------------------------------------------------------------------------
# Inclusion-exclusion transform and the linearized picture
# ---------------------------------------------------------------------------


def moebius_rows(w: np.ndarray, space: ProductSpace, links: LinkSet) -> np.ndarray:
    """``moebius_transform`` of every row of a weight vector or (T, S) stack.

    Each superset's recombination acts on the whole stack at once.
    """
    acc = np.zeros_like(w)
    for upper in supersets_of(links):
        term = recombine_rows(w, space, upper)
        if moebius_sign(links, upper) > 0:
            acc += term
        else:
            acc -= term
    return acc


def moebius_transform(omega: Measure, links: LinkSet) -> Measure:
    """Alternating superset sum  T_G(omega) = sum_{H >= G} (-1)^{|H-G|} R_H(omega).

    The transform is genuinely signed even for positive input.  Summing it
    back over supersets inverts it:  R_G(omega) = sum_{H >= G} T_H(omega).
    Along a single-crossover trajectory each transform decays along its own
    exponential, which is what makes the flow linearizable.  This is the
    one-row case of ``moebius_rows``.
    """
    require_positive(omega, "moebius_transform")
    return Measure(omega.space, moebius_rows(omega.weights, omega.space, links), omega.nodes)


def check_linearization(
    omega0: Measure,
    link_rates: Sequence[float],
    links: LinkSet,
    times: Sequence[float],
) -> float:
    """Max defect of  T_G(omega_t) = exp(-t * sum_{a not in G} rho_a) T_G(omega_0).

    The trajectory is ``crossover_grid`` on the whole grid and its transform
    is taken row by row; the comparison line is the decoupled linear decay
    the transform predicts, with the factor ``coefficient_b(G, t)``.
    """
    _validated_link_rates(link_rates, links.n_links)
    require_positive(omega0, "check_linearization")
    times = _times(times)
    base = moebius_transform(omega0, links).weights
    states = crossover_grid(omega0, link_rates, times)
    defect = moebius_rows(states, omega0.space, links)
    defect -= np.multiply.outer([coefficient_b(links, link_rates, t) for t in times], base)
    return float(np.abs(defect).sum(axis=1).max(initial=0.0))


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------


def trajectory_to_json_dict(traj: Trajectory) -> dict:
    return {
        "times": [float(t) for t in traj.times],
        "states": traj.weights.tolist(),
    }


def trajectory_to_json(traj: Trajectory, stream: io.TextIOBase) -> None:
    """Write ``trajectory_to_json_dict`` as compact JSON with sorted keys.

    The bytes are those of ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` plus a newline, but each state row is encoded
    and written on its own, so the text of at most one row exists at a time.
    """
    stream.write('{"states":[')
    for k, w in enumerate(traj.weights):
        if k:
            stream.write(",")
        stream.write(json.dumps(w.tolist(), separators=(",", ":")))
    times = json.dumps([float(t) for t in traj.times], separators=(",", ":"))
    stream.write(f'],"times":{times}}}\n')


def trajectory_to_csv(traj: Trajectory, stream: io.TextIOBase) -> None:
    """Write `t,<flat-index columns>` rows with 17 significant digits.

    The header and each row are formatted by one ``%`` operation and written
    at once, so the text of at most one line exists at a time.
    """
    n_cells = traj.space.total_states
    stream.write(("t" + ",%d" * n_cells + "\n") % tuple(range(n_cells)))
    row = "%.17g" + ",%.17g" * n_cells + "\n"
    for t, w in zip(traj.times, traj.weights):
        stream.write(row % (t, *w.tolist()))


def trajectory_to_csv_string(traj: Trajectory) -> str:
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    return buf.getvalue()
