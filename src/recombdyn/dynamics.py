"""Recombination flows: the rate-driven ODE, closed-form semigroups, and the
inclusion-exclusion transform that linearizes the single-crossover flow.

The evolution equation is

    d/dt omega = sum_G rho_G (sigma R_G - 1)(omega),       rho_G >= 0,

summed over cut sets G, where sigma is the identity unless a ``RateMap``
carries a relabeling of the first block's states: one such entry is the
cyclic flow, whose closed form ``recombdyn.generalized`` takes from the same
map.  With sigma = 1, three solvable regimes get closed forms here:

* one cut set A:            omega_t = e^{-rho t} omega_0 + (1 - e^{-rho t}) R_A(omega_0)
* cut sets with pairwise disjoint stretches (a map that passes
  ``require_stretch_system``): the product of the one-set flows
* one rate per single link (``RateMap.crossover``): singletons have disjoint
  stretches, so this is the product of the n one-link flows.  Multiplied out,
  it is the paper's subset expansion
      omega_t = sum_G a_G(t) R_G(omega_0),
      a_G(t)  = prod_{a not in G} e^{-rho_a t} * prod_{b in G} (1 - e^{-rho_b t}),
  which the verify suite keeps as the reference for the product.

Time enters these forms only through scalar coefficients, so every
time-dependent function takes a whole time grid and returns one row per time:
``product_flow_blocks`` applies each one-set flow
W <- e^{-rho t} W + (1 - e^{-rho t}) R_G(W) in place to one block of rows and
yields it before the next (``row_blocks``: rows do not depend on one another,
so a block has each row's bits), and ``product_flow_grid`` stacks the blocks.
``expansion_coefficients`` tabulates a_G(t) and b_G(t) of a
crossover map for every cut set, ``recombination_table`` takes each R_H of a
stack once, and ``moebius_sum`` forms any transform of every row from it.
``product_flow_apply`` keeps one time per entry of the map: it is the
multi-parameter semigroup, and a one-entry map at one time is the one-set
flow.  One ``RateMap`` drives RK4, every closed form and the expansion tables;
``nonnegative_times`` checks the times of each.

A fixed-step classical Runge-Kutta integrator doubles as an independent
numerical oracle for every closed form: ``rk4_integrate`` on the field of any
rate map, a cyclic one included.  The time grid is validated, with at most
``MAX_STEPS`` steps, before anything is allocated.  General
overlapping-stretch rate maps are integrated numerically only; no closed
form is claimed for them.

The integrator evaluates a field compiled once per rate map by
``compile_field``.  Small spaces, whose block marginals have at most
``STACKED_FIELD_MAX_ENTRIES`` rows x states, use the stacked kernel: one
``bincount`` for all marginals, with every row's k-th addend before any
row's (k+1)-th, one gather and product for all terms, whose last factor is
the term's rho |omega|, and one ``bincount`` scatter back to the states, to
relabeled targets for a cyclic field.  Larger spaces use a strided kernel:
it reduces the flat weights as (left, block, right) arrays into one row of
block marginals, divides that row by |omega| once, and adds each term's
outer product to the output, each product of two factors one BLAS rank-1
product.  RK4 forms its stages and its weighted sum in place, in the
classical order of operations, so a trajectory has the bits of one new array
per operation.
``rk4_integrate_many`` integrates independent problems on one grid: the
small ones laid end to end in one vector, under one stacked field with one
|omega| per problem, so many tiny runs cost one run's interpreter overhead.
``recombine_weights`` remains the reference the field is tested against.

A ``Trajectory`` is a time grid and one read-only stack, one row per time.
RK4 writes each stored state into its row of a preallocated stack, and each
problem of ``rk4_integrate_many`` gets its column slice of the stacked run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .lattice import (
    LinkSet,
    all_link_sets,
    moebius_sign,
    stretches_disjoint,
    supersets_of,
)
from .measure import Measure, ProductSpace
from .recombinator import ZERO_TOTAL_VARIATION, recombine_rows, require_positive


@dataclass(frozen=True)
class RateMap:
    """Finite assignment of nonnegative rates to cut sets; the empty one needs a relabeling.

    ``entries`` keep their given order: it is the factor order of the
    product flows, which fixes their bits.  The field sums its terms in
    bitmask order whatever this order is.  ``relabel``, when given, is the
    permutation sigma of the generator sum_G rho_G (sigma R_G - 1): it sends
    every term's weight at first-block state i to ``relabel[i]``, as the
    cyclic operator does.  None is the identity.
    """

    n_links: int
    entries: tuple[tuple[LinkSet, float], ...]
    relabel: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        seen = set()
        normalized = []
        for links, rate in self.entries:
            rate = float(rate)
            if links.n_links != self.n_links:
                raise ValueError("rate entry defined over a different link count")
            if not math.isfinite(rate) or rate < 0.0:
                raise ValueError(f"rates must be finite and >= 0, got {rate}")
            if links.bits in seen:
                raise ValueError(f"duplicate rate entry for {links}")
            seen.add(links.bits)
            normalized.append((links, rate))
        # Rates are >= 0, so a plain sum overflows exactly when the total does.
        if not math.isfinite(sum(rate for _, rate in normalized)):
            raise ValueError("the rates' total exceeds the float range")
        object.__setattr__(self, "entries", tuple(normalized))
        if self.relabel is not None:
            relabel = tuple(int(i) for i in self.relabel)
            if sorted(relabel) != list(range(len(relabel))):
                raise ValueError(
                    f"permutation must reorder the first block's states 0, ..., {len(relabel) - 1}"
                )
            object.__setattr__(self, "relabel", relabel)
        elif 0 in seen:  # bits 0: the empty cut set
            raise ValueError("the empty cut set generates no motion without a relabeling; drop it")

    @classmethod
    def single(cls, links: LinkSet, rate: float) -> "RateMap":
        return cls(links.n_links, ((links, rate),))

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


def require_stretch_system(rates: RateMap) -> None:
    """Raise unless a rate map is a stretch system: nonempty cut sets with
    pairwise disjoint stretches, each with a positive rate, and no relabeling.

    Disjoint stretches make the one-set semigroups commute, so the combined
    flow factorizes into ``product_flow_grid`` and ``product_flow_apply``.
    """
    if not rates.entries:
        raise ValueError("a stretch system needs at least one component")
    for links, rate in rates.entries:
        if len(links) == 0:
            raise ValueError("components must be nonempty cut sets")
        if not rate > 0.0:
            raise ValueError(f"component rates must be finite and > 0, got {rate}")
    for i, (a, _) in enumerate(rates.entries):
        for b, _ in rates.entries[i + 1 :]:
            if not stretches_disjoint(a, b):
                raise ValueError(f"stretches of {a} and {b} overlap")
    if rates.relabel is not None:
        raise ValueError("a stretch system carries no relabeling")


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


# The marginal rows (one per block state, summed over the distinct blocks)
# times the states of a problem.  Problems above this take the strided
# kernel, whose few large numpy calls beat the stacked kernel's gathers there
# (2^11 states, 10 crossover links: ~100-155 vs ~270-300 us per evaluation,
# medians of three sittings on 2 shared CPU cores); the others share one
# stacked vector.
STACKED_FIELD_MAX_ENTRIES = 1 << 18


@dataclass(frozen=True)
class _FieldTerms:
    """What the field of one rate map on one space needs, worked out once.

    ``extents`` are the distinct blocks of all cut sets as (left, block,
    right) extents of the flat index; each nonzero-rate term has its rate and
    the ids of its blocks in that list; ``relabel`` is the rate map's.
    """

    n_states: int
    extents: tuple[tuple[int, int, int], ...]
    term_blocks: tuple[tuple[int, ...], ...]
    term_rates: tuple[float, ...]
    total_rate: float
    relabel: tuple[int, ...] | None = None

    @property
    def stacks(self) -> bool:
        rows = sum(size for _, size, _ in self.extents)
        return rows * self.n_states <= STACKED_FIELD_MAX_ENTRIES


def _field_terms(space: ProductSpace, rates: RateMap) -> _FieldTerms:
    if rates.n_links != space.n_links:
        raise ValueError("rate map does not match the space's link count")
    sizes, relabel = space.sizes, rates.relabel
    # In bitmask order, whatever the map's order: the field's sums take
    # their terms in this order, so it fixes the bits.
    terms = [
        (rate, links.blocks)
        for links, rate in sorted(rates.entries, key=lambda entry: entry[0].bits)
        if rate != 0.0
    ]
    block_ids: dict[tuple[int, ...], int] = {}
    for _, blocks in terms:
        for block in blocks:
            block_ids.setdefault(block, len(block_ids))
    if relabel is not None:
        first = {math.prod(sizes[ax] for ax in blocks[0]) for _, blocks in terms}
        if not first <= {len(relabel)}:
            raise ValueError("relabel must permute the states of every term's first block")
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
        relabel=relabel,
    )


def compile_field(space: ProductSpace, rates: RateMap) -> Callable[[np.ndarray], np.ndarray]:
    """Compile ``w -> sum_G rho_G (sigma R_G(w) - w)`` for flat weight vectors.

    sigma is ``rates.relabel``, which must permute the first-block states of
    every term on this space.  Whatever needs only the space and the rate map
    is worked out once; zero rates are dropped.  Each call of the returned
    function sums |w| once, forms every distinct block marginal once, and
    folds the ``-rho_G w`` parts into one term.  Like ``recombine_weights``, it divides every
    marginal by |w| so no power of |w| can overflow, and it maps |w| below
    ``ZERO_TOTAL_VARIATION`` to R(w) = 0.  The function keeps no state between
    calls, so one field may be shared across threads.
    """
    terms = _field_terms(space, rates)
    return _stacked_field([terms]) if terms.stacks else _strided_field(terms)


def _stacked_field(parts: Sequence[_FieldTerms]) -> Callable[[np.ndarray], np.ndarray]:
    # Independent problems laid end to end: part p owns the next n_states
    # weights.  Index tables give every (block, state) pair its marginal row
    # and every (term, state) pair the rows of its factors, the term's rho |w|
    # last, so one call makes the same few numpy calls for any number of
    # problems, blocks and terms.
    if not any(part.term_rates for part in parts):
        return lambda w: np.zeros_like(w)
    marginal_rows, marginal_states, ranks, row_part = [], [], [], []
    factor_rows, targets, scale_rates, scale_part = [], [], [], []
    start = n_rows = 0
    for p, part in enumerate(parts):
        flat = np.arange(part.n_states)
        states = start + flat
        term_states = states
        if part.relabel is not None:
            rest = part.n_states // len(part.relabel)
            term_states = start + np.asarray(part.relabel)[flat // rest] * rest + flat % rest
        rows = []
        for _, size, right in part.extents:
            rows.append(n_rows + (flat // right) % size)
            # The state's place among its row's addends, in flat order.
            ranks.append(flat // (size * right) * right + flat % right)
            row_part.append(np.full(size, p))
            n_rows += size
        marginal_rows += rows
        marginal_states += [states] * len(rows)
        for rate, ids in zip(part.term_rates, part.term_blocks):
            factor_rows.append([rows[b] for b in ids])
            targets.append(term_states)
            scale_rates.append(rate)
            scale_part.append(p)
        start += part.n_states
    n_states, n_parts = start, len(parts)
    counts = [part.n_states for part in parts]
    state_part = np.repeat(np.arange(n_parts), counts)
    state_rates = np.repeat([part.total_rate for part in parts], counts)
    # Every row's k-th addend comes before any row's (k+1)-th: each row sums
    # its addends in flat order, but consecutive adds of the marginal
    # bincount land on different rows and do not wait on one another.
    interleave = np.argsort(np.concatenate(ranks), kind="stable")
    marginal_rows = np.concatenate(marginal_rows)[interleave]
    marginal_states = np.concatenate(marginal_states)[interleave]
    row_part = np.concatenate(row_part)
    targets = np.concatenate(targets)
    scale_rates = np.array(scale_rates)
    scale_part = np.array(scale_part)
    # One column per (term, state).  Slots past a term's last block point at
    # the extra row after the marginals, which holds the neutral factor 1;
    # the last slot points at the term's own row after that, which holds its
    # rho |w|, so a column's product is (prod m/|w|) rho |w|.
    width = max(len(rows) for rows in factor_rows)
    table = np.full((width + 1, targets.size), n_rows)
    col = 0
    for t, rows in enumerate(factor_rows):
        span = slice(col, col + rows[0].size)
        for j, row in enumerate(rows):
            table[j, span] = row
        table[width, span] = n_rows + 1 + t
        col = span.stop

    def stacked_field(w: np.ndarray) -> np.ndarray:
        tv = np.bincount(state_part, weights=np.abs(w), minlength=n_parts)
        divisor = scale = tv
        if not tv.min() >= ZERO_TOTAL_VARIATION:
            # An idle part has R = 0; a NaN part keeps its NaN scale, so that
            # every cell of it with a term is NaN, as in the strided kernel.
            live = tv >= ZERO_TOTAL_VARIATION
            divisor, scale = np.where(live, tv, 1.0), np.where(tv < ZERO_TOTAL_VARIATION, 0.0, tv)
        scaled = np.empty(n_rows + 1 + scale_rates.size)
        marginals = np.bincount(marginal_rows, weights=w.take(marginal_states), minlength=n_rows)
        np.divide(marginals, divisor.take(row_part), out=scaled[:n_rows])
        scaled[n_rows] = 1.0
        np.multiply(scale_rates, scale.take(scale_part), out=scaled[n_rows + 1 :])
        terms = np.multiply.reduce(scaled.take(table), axis=0)
        return np.bincount(targets, weights=terms, minlength=n_states) - state_rates * w

    return stacked_field


def _strided_field(terms: _FieldTerms) -> Callable[[np.ndarray], np.ndarray]:
    # Reduces the flat weights as (left, block, right) arrays into one row of
    # all block marginals and adds each term's outer product to the output;
    # never forms an index table.
    extents, total_rate = terms.extents, terms.total_rate
    ones = {n: np.ones(n) for extent in extents for n in (extent[0], extent[2])}
    bounds = np.cumsum([0] + [size for _, size, _ in extents]).tolist()
    # First-block state j of a term takes its weight at inverse[j].
    inverse = slice(None) if terms.relabel is None else np.argsort(terms.relabel)

    def strided_field(w: np.ndarray) -> np.ndarray:
        tv = float(np.abs(w).sum())
        out = -total_rate * w
        if tv < ZERO_TOTAL_VARIATION:
            return out
        scaled = np.empty(bounds[-1])
        factors = [scaled[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        # np.dot makes the BLAS call that np.matmul makes, for the same bits,
        # with less overhead per call.
        for (left, size, right), m in zip(extents, factors):
            rows = w.reshape(left, size * right)
            if left > 1 and right > 1:
                rows = np.dot(ones[left], rows)
            if right > 1:
                np.dot(rows.reshape(size, right), ones[right], out=m)
            elif left > 1:
                np.dot(ones[left], rows, out=m)
            else:
                m[:] = w
        scaled /= tv
        # Every outer product is one BLAS rank-1 product, full width whatever
        # the last factor's length.  It rounds each cell once, as
        # np.multiply.outer does, but writes +0 where that writes -0, so a
        # value may differ only in the sign of an exact zero; RK4's sums with
        # the state absorb it.
        buf = np.empty_like(out)
        for rate, ids in zip(terms.term_rates, terms.term_blocks):
            acc = (rate * tv) * factors[ids[0]][inverse]
            if len(ids) == 1:
                out += acc
                continue
            for b in ids[1:-1]:
                acc = np.dot(acc[:, None], factors[b][None, :]).ravel()
            last = factors[ids[-1]]
            np.dot(acc[:, None], last[None, :], out=buf.reshape(acc.size, last.size))
            out += buf
        return out

    return strided_field


def _rk4_step(
    field: Callable[[np.ndarray], np.ndarray], w: np.ndarray, h: float
) -> np.ndarray:
    # w + h/6 (k1 + 2 (k2 + k3) + k4), each stage and the sum formed in place
    # in that order of operations; what the field returns is never written.
    # The sum takes k1 to k3 before the last stage, so they are not alive
    # while it runs.
    k1 = field(w)
    t = k1 * (h / 2)
    t += w
    k2 = field(t)
    t = k2 * (h / 2)
    t += w
    k3 = field(t)
    t = k3 * h
    t += w
    s = k2 + k3
    s *= 2.0
    s += k1
    del k1, k2, k3
    s += field(t)
    s *= h / 6.0
    s += w
    return s


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
    # A run that leaves the float range goes on in inf and NaN, which its
    # trajectory shows (the CLI exits 4 on it); numpy's warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_full + 1):
            w = _rk4_step(field, w, h)
            if i in rows:
                stack[rows[i]] = w
        if remainder > 0.0:
            stack[-1] = _rk4_step(field, w, remainder)
    return times, stack


def rk4_integrate(
    omega0: Measure,
    rates: RateMap,
    t_end: float,
    h: float,
    store_stride: int = 1,
) -> Trajectory:
    """Integrate  d/dt w = field(w)  of a rate map with classical fixed-step RK4.

    ``field`` is ``compile_field(omega0.space, rates)`` and omega_0 must be
    positive.  States are stored on ``output_grid(t_end, h, store_stride)``;
    the final step is shortened to land exactly on ``t_end``.  Transient
    slightly negative intermediate weights are left as computed so integrator
    defects remain visible to the checks downstream.  This is
    ``rk4_integrate_many`` with one problem.
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
    ``rk4_integrate`` gives for that problem alone.  A run of one problem
    starts from its ``omega0.weights`` itself, which RK4 never writes.
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
        w0 = [problems[i][0].weights for i in members]
        w0 = w0[0] if len(w0) == 1 else np.concatenate(w0)
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


# The closed forms and `both` mode's gaps work on a (times, states) stack in
# blocks of consecutive rows of at most this many cells (at least one row).
# Rows do not depend on one another, and each row's arithmetic is the same in
# any block, so the bytes are those of the whole stack at once; a block's
# temporaries replace the stack-sized ones.
ROW_BLOCK_CELLS = 1 << 16

# What the block iterators yield: (rows, block), a row slice and its rows.
RowBlocks = Iterator[tuple[slice, np.ndarray]]


def row_blocks(n_rows: int, row_cells: int) -> Iterator[slice]:
    """Slices of consecutive rows of an (n_rows, row_cells) stack, in order,
    each of at most ``ROW_BLOCK_CELLS`` cells or one row."""
    step = max(1, ROW_BLOCK_CELLS // max(row_cells, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def nonnegative_times(ts: Sequence[float]) -> list[float]:
    """The times as floats; raises unless each is >= 0 (NaN is not)."""
    times = [float(t) for t in ts]
    if any(not t >= 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    return times


def _flow_blocks(omega0: Measure, factors: Sequence[tuple[LinkSet, float, list]]) -> RowBlocks:
    # The (links, rate, times) factors applied in turn to rows of omega0, one
    # row per time:  W <- s W + (1 - s) R_G(W)  with each row's own survival
    # s = e^{-rate t}, in one block buffer and one recombination buffer.
    n_rows, space = len(factors[0][2]), omega0.space
    # math.exp as in expansion_coefficients; np.exp may round differently.
    survivals = [
        np.array([math.exp(-rate * t) for t in times])[:, None] for _, rate, times in factors
    ]
    blocks = list(row_blocks(n_rows, space.total_states))
    buffer, recombined = np.empty((2, blocks[0].stop if blocks else 0, space.total_states))
    for rows in blocks:
        block = buffer[: rows.stop - rows.start]
        block[:] = omega0.weights
        for (links, _, _), survival in zip(factors, survivals):
            part = recombine_rows(block, space, links, recombined[: len(block)])
            block *= survival[rows]
            part *= 1.0 - survival[rows]
            block += part
        block = block.view()
        block.flags.writeable = False
        yield rows, block


def _check_system(omega0: Measure, rates: RateMap) -> None:
    require_stretch_system(rates)
    if rates.n_links != omega0.space.n_links:
        raise ValueError("stretch system does not match the measure's link count")
    require_positive(omega0, "the product flow")


def product_flow_blocks(omega0: Measure, rates: RateMap, times: Sequence[float]) -> RowBlocks:
    """The combined flow of a stretch system (``require_stretch_system``) on a
    time grid, one row block at a time.

    Checks its input when called, then yields ``(rows, block)`` for each
    ``row_blocks`` slice of the (len(times), states) stack, in order; the
    block is read-only, and its buffer is reused for the next one.  The
    one-set flows act in the map's order on a block at once: one
    recombination per cut set and row block.  A row at t = 0 is omega_0.
    """
    times = nonnegative_times(times)
    _check_system(omega0, rates)
    return _flow_blocks(omega0, [(links, rate, times) for links, rate in rates.entries])


def product_flow_grid(omega0: Measure, rates: RateMap, times: Sequence[float]) -> np.ndarray:
    """The stack of ``product_flow_blocks``: row k is the state at ``times[k]``."""
    blocks = product_flow_blocks(omega0, rates, times)
    stack = np.empty((len(times), omega0.space.total_states))
    for rows, block in blocks:
        stack[rows] = block
    return stack


def product_flow_apply(omega0: Measure, rates: RateMap, ts: Sequence[float]) -> Measure:
    """Compose the one-set flows of a stretch system, one time per entry.

    This is the multi-parameter semigroup: the factors commute, so the
    application order does not matter.  One entry gives the one-set flow
    e^{-rho t} omega_0 + (1 - e^{-rho t}) R(omega_0); with all times equal it
    is the solution of the combined rate equation, a row of ``product_flow_grid``.
    """
    times = nonnegative_times(ts)
    _check_system(omega0, rates)
    if len(times) != len(rates.entries):
        raise ValueError(
            f"need one time per component: got {len(times)} times for "
            f"{len(rates.entries)} components"
        )
    factors = [(links, rate, [t]) for (links, rate), t in zip(rates.entries, times)]
    [(_, block)] = _flow_blocks(omega0, factors)
    return Measure(omega0.space, block[0], omega0.nodes)


def expansion_coefficients(
    rates: RateMap, times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The single-crossover expansion weights a_G(t) and b_G(t) on a time grid.

    ``rates`` is a crossover map: a stretch system (``require_stretch_system``)
    with one singleton entry per link, in any order, as ``RateMap.crossover``
    builds it.  Returns two (len(times), 2^n) tables whose column G (a bitmask
    of links) holds, row by row:

    * a_G(t) = prod_{a not in G} e^{-rho_a t} * prod_{b in G} (1 - e^{-rho_b t}),
      the weight of R_G(omega_0): the chance that by time t recombination has
      happened at exactly the links in G;
    * b_G(t) = prod_{a not in G} e^{-rho_a t}, the sum of a over the subsets
      of G: the chance that no link outside G has recombined.

    Every cell is the product of its factors in link order, from 1.0.
    """
    require_stretch_system(rates)
    entries = sorted(rates.entries, key=lambda entry: entry[0].bits)
    if [links.bits for links, _ in entries] != [1 << i for i in range(rates.n_links)]:
        raise ValueError("expansion coefficients need one singleton entry per link")
    times = nonnegative_times(times)
    bits = np.arange(1 << rates.n_links)
    a = np.ones((len(times), bits.size))
    b = np.ones((len(times), bits.size))
    for i, (_, rate) in enumerate(entries):
        decayed = np.array([math.exp(-rate * t) for t in times])[:, None]
        hit = bits & (1 << i) != 0
        a *= np.where(hit, 1.0 - decayed, decayed)
        b *= np.where(hit, 1.0, decayed)
    return a, b


# ---------------------------------------------------------------------------
# Inclusion-exclusion transform and the linearized picture
# ---------------------------------------------------------------------------


def moebius_sum(links: LinkSet, recombined: Callable[[LinkSet], np.ndarray]) -> np.ndarray:
    """T_G = sum_{H >= G} (-1)^{|H-G|} R_H(w), given ``recombined(H)`` = R_H(w).

    The transform is genuinely signed even for positive input, and summing it
    back over supersets inverts it: R_G(w) = sum_{H >= G} T_H(w).  Along a
    single-crossover trajectory each transform decays along its own
    exponential, which is what makes the flow linearizable.  The terms go
    into a zero accumulator in ascending superset order, so a table of every
    R_H and a recombination per term give the same bits.
    """
    acc = None
    for upper in supersets_of(links):
        term = recombined(upper)
        if acc is None:
            acc = np.zeros_like(term)
        if moebius_sign(links, upper) > 0:
            acc += term
        else:
            acc -= term
    return acc


def recombination_table(w: np.ndarray, space: ProductSpace) -> list[np.ndarray]:
    """R_H(w) of a weight vector or (T, S) stack for every cut set H, indexed
    by bitmask: 2^n - 1 recombinations, and entry 0 is ``w`` itself.

    Every ``moebius_sum`` over it takes no further recombination, where one
    recombination per term for every G would take 3^n - 1.
    """
    return [recombine_rows(w, space, links) for links in all_link_sets(space.n_links)]


def check_linearization(
    omega0: Measure, rates: RateMap, times: Sequence[float]
) -> np.ndarray:
    """Max defect of  T_G(omega_t) = exp(-t * sum_{a not in G} rho_a) T_G(omega_0)
    over the grid, for every cut set G: entry G (a bitmask) of a 2^n vector.

    ``rates`` is a crossover map, as ``expansion_coefficients`` takes it.
    One ``product_flow_grid`` trajectory serves every G: with omega_0 on top
    it is one stack whose every R_H is taken once, and each transform is a
    ``moebius_sum`` of that table.  The comparison line is the decoupled
    linear decay the transform predicts, with the factor b_G(t) of
    ``expansion_coefficients``.
    """
    b = expansion_coefficients(rates, times)[1]
    states = np.vstack((omega0.weights, product_flow_grid(omega0, rates, times)))
    table = recombination_table(states, omega0.space)
    defects = np.empty(b.shape[1])
    for links in all_link_sets(rates.n_links):
        transformed = moebius_sum(links, lambda upper: table[upper.bits])
        base, defect = transformed[0], transformed[1:]
        defect -= np.multiply.outer(b[:, links.bits], base)
        defects[links.bits] = np.abs(defect).sum(axis=1).max(initial=0.0)
    return defects
