"""Cyclically twisted recombinators and their closed-form flow.

A relabeling g of the first block's alphabet turns a recombinator R into the
nonlinear operator  C = sigma . R  (sigma pushes the block-0 coordinate
forward through g).  On positive measures C^k = sigma^k . R, and on a state
whose cycle under g has length L, sigma^k acts through k mod L.  So for any n
that every cycle length divides, C^{n+1} = C, and the flow of
d/dt x = rho (C - 1)(x)  has the closed form

    phi_t = e^{-tau} ( 1 + (F_0(tau) - 1) C^n + sum_{k=1}^{n-1} F_{n-k}(tau) C^k ),

with tau = rho t, where F_k is the k-th roots-of-unity filtered slice of the
exponential series,

    F_k(t) = (1/n) sum_{m=0}^{n-1} xi^{mk} exp(xi^m t),    xi = exp(2 pi i / n)
           = delta_{k,0} + sum_{m>=1} t^{mn-k} / (mn-k)! .

By the first line, F_0(t), ..., F_{n-1}(t) are the inverse DFT of the terms
exp(xi^m t) over m, so one ``np.fft.ifft`` along the root axis gives them all
for a whole vector of times; its imaginary part is rounding noise.  The scaled
variants e^{-t} F_k(t) transform exp((xi^m - 1) t) and stay accurate for large
t, where the plain product e^{-t} * F_k(t) would lose everything to rounding.

Summed over k = j (mod L), the order-n coefficients are the order-L ones
(at L = 1, F_0(t) = e^t: the one-set flow).  So the flow folds by cycle
length: each block-0 state takes ``flow_coefficients(L, rho t)`` of its own
cycle, and no work grows with the lcm of the cycle lengths.
``generalized_flow_grid`` forms R(omega_0) and its relabelings C^1, ..., C^L
of each cycle-length group once for a whole time grid, one row per time, and
their weighted sums one row block at a time; a single time is its one-row
grid.  ``gfun`` likewise tabulates F_0, ..., F_{n-1}
over a whole vector of times.

The flow's one input is the ``RateMap`` of the one cut set at rate rho with
g as its relabeling: ``require_cyclic_map`` checks it, every function here
reads the cut set, rho and g from it, and its field, which ``compile_field``
compiles and ``rk4_integrate`` integrates, is the generator rho (C - 1);
with no cuts, C = sigma.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .dynamics import RateMap, compile_field, nonnegative_times, row_blocks
from .lattice import partition_of
from .measure import Measure, ProductSpace
from .recombinator import recombine, require_positive

# Evaluations must come out real: an imaginary residue above this share of a
# row's largest exponential term signals a broken root table, not rounding.
_IMAG_RESIDUE_TOL = 1e-10


@lru_cache(maxsize=64)
def _roots(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    roots.flags.writeable = False
    return roots


def _slices(n: int, times: Sequence[float], shift: float, drop_m0: bool = False) -> np.ndarray:
    """(len(times), n) table of e^{-shift t} F_k(t): row j is the inverse DFT
    of exp((xi^m - shift) t_j) over m, without the m = 0 term if ``drop_m0``."""
    roots = _roots(int(n))
    # |xi^m| = 1, so only the real part t (Re xi^m - shift) can overflow, and
    # for t >= 0 and shift 1 only toward -inf, where the term is exactly the 0
    # it tends to.  So a huge rate times t reaches the flow's limit, and the
    # overflow is no cause for a warning.
    with np.errstate(over="ignore"):
        exponents = np.multiply.outer(np.asarray(times, dtype=np.float64), roots - shift)
    terms = np.exp(exponents)
    if drop_m0:
        terms[:, 0] = 0.0
    table = np.fft.ifft(terms, axis=1)
    residue = np.abs(table.imag)
    if (residue > _IMAG_RESIDUE_TOL * np.abs(terms).max(axis=1, keepdims=True)).any():
        raise ArithmeticError(
            f"imaginary residue {residue.max():.3e} exceeds "
            f"{_IMAG_RESIDUE_TOL} of its row's largest term"
        )
    return table.real


def gfun(n: int, times: Sequence[float]) -> np.ndarray:
    """The (len(times), n) table of the order-n filtered exponential slices:
    row j holds F_0(t_j), ..., F_{n-1}(t_j)."""
    return _slices(n, times, 0.0)


def gfun_asymptotic_check(n: int, t_large: float) -> np.ndarray:
    """|e^{-t} F_k(t) - 1/n| for k = 0, ..., n-1 at one (large) time; each
    converges to 0 like the slowest nontrivial mode, i.e. within
    2 * exp((cos(2 pi / n) - 1) t).

    The m = 0 mode contributes exactly 1/n, so dropping it gives the
    deviation directly, with full relative accuracy even when it sits far
    below the rounding floor of e^{-t} * F_k(t) - 1/n.
    """
    return np.abs(_slices(n, [t_large], 1.0, drop_m0=True)[0])


def roots_of_unity_mean(n: int, exponent: int) -> complex:
    """(1/n) sum_m xi^{m * exponent}: one when n divides the exponent, else zero."""
    roots = _roots(int(n))
    return complex(roots[np.arange(roots.size) * int(exponent) % roots.size].mean())


def flow_coefficients(n: int, tau: float | Sequence[float]) -> np.ndarray:
    """Coefficients of (identity, C^1, ..., C^n) in the order-n flow at tau.

    The entries are e^{-tau}, e^{-tau} F_{n-1}(tau), ..., e^{-tau} F_1(tau),
    and e^{-tau} (F_0(tau) - 1); they sum to one for every tau.  A sequence
    of tau gives the (len(tau), n + 1) stack, one row per tau.
    """
    taus = np.asarray(tau, dtype=np.float64)
    scaled = _slices(n, taus.reshape(-1), 1.0)
    decay = np.exp(-taus.reshape(-1, 1))
    coeffs = np.concatenate((decay, scaled[:, :0:-1], scaled[:, :1] - decay), axis=1)
    return coeffs.reshape(taus.shape + coeffs.shape[1:])


# ---------------------------------------------------------------------------
# The cyclic operator C = sigma . R of a relabeled rate map
# ---------------------------------------------------------------------------


def require_cyclic_map(rates: RateMap, space: ProductSpace) -> None:
    """Raise unless a rate map drives the cyclic flow on ``space``: one entry
    (cuts, rho) with rho > 0, and a relabeling sigma of the states of the
    first block that the cuts leave, so its generator is rho (C - 1).

    The relabeling commutes with the recombinator on recombined (product)
    measures, which is exactly what the closed-form flow needs.
    """
    if rates.n_links != space.n_links:
        raise ValueError("rate map does not match the space's link count")
    if len(rates.entries) != 1:
        raise ValueError(f"a cyclic map has one entry, got {len(rates.entries)}")
    if rates.relabel is None:
        raise ValueError("a cyclic map needs a relabeling")
    [(cuts, rho)] = rates.entries
    block0 = partition_of(cuts, space.n_nodes).blocks[0]
    block0_states = math.prod(space.sizes[ax] for ax in block0)
    if len(rates.relabel) != block0_states:
        raise ValueError(f"relabel must permute the {block0_states} states of the first block")
    if not rho > 0.0:
        raise ValueError(f"rate must be positive, got {rho}")


def _cycles(perm: Sequence[int]) -> Iterator[list[int]]:
    """Each cycle of a permutation once, as the list start, perm[start], ..."""
    seen: set[int] = set()
    for start in range(len(perm)):
        if start not in seen:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            yield cycle


def cycle_lengths(perm: Sequence[int]) -> tuple[int, ...]:
    """The length of each state's cycle under a permutation, state by state."""
    lengths = {state: len(cycle) for cycle in _cycles(perm) for state in cycle}
    return tuple(lengths[s] for s in range(len(perm)))


def _relabel_block0(w: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    # Each row of a vector or (T, S) stack, viewed as (block-0 state, rest).
    matrix = w.reshape(-1, len(perm), w.shape[-1] // len(perm))
    out = np.empty_like(matrix)
    out[:, np.asarray(perm)] = matrix
    return out.reshape(w.shape)


def cyclic_apply(omega: Measure, rates: RateMap, power: int) -> Measure:
    """k-th power of the cyclic operator of a map (``require_cyclic_map``):
    C^k = sigma^k . R  for k >= 1.

    sigma^k moves each state k mod L steps along its cycle of length L, with
    k reduced in Python ints, so any k costs one walk along the cycles.
    """
    power = int(power)
    if power < 0:
        raise ValueError("power must be nonnegative")
    require_cyclic_map(rates, omega.space)
    require_positive(omega, "cyclic_apply")
    if power == 0:
        return omega
    image = [0] * len(rates.relabel)  # sigma^power
    for cycle in _cycles(rates.relabel):
        shift = power % len(cycle)
        for i, state in enumerate(cycle):
            image[state] = cycle[(i + shift) % len(cycle)]
    base = recombine(omega, rates.entries[0][0])
    return Measure(omega.space, _relabel_block0(base.weights, image), omega.nodes)


def generalized_flow_grid(
    omega0: Measure, rates: RateMap, times: Sequence[float]
) -> np.ndarray:
    """Closed-form flow of  d/dt x = rho (C - 1)(x)  of a cyclic map
    (``require_cyclic_map``) on a whole time grid.

    Returns the (len(times), states) stack whose row k is the state at
    ``times[k]``: omega_0 and its powers C^1, ..., C^L, weighted state by
    state by ``flow_coefficients(L, rho t)`` of the state's block-0 cycle
    length L.  One time is the one-row grid.  Coefficients sum to one, so mass is conserved;
    they are nonnegative for all t >= 0, so positivity is preserved as well.
    A row at t = 0 is omega_0 exactly.
    """
    require_cyclic_map(rates, omega0.space)
    times = nonnegative_times(times)
    require_positive(omega0, "generalized_flow_grid")
    return _flow_rows(omega0, rates, times)


def _flow_rows(omega0: Measure, rates: RateMap, times: Sequence[float]) -> np.ndarray:
    # Internal, for a checked map: no sign restriction on t (the ODE check
    # differentiates through t = 0); rows at t == 0 are omega_0 exactly.
    # The block-0 states on cycles of length L share the order-L coefficients,
    # so each group's rows are outer products of one coefficient column with
    # omega_0 and C^1, ..., C^L restricted to the group.  The coefficients
    # and powers are taken once for the grid, the products one row block at
    # a time.
    # A rate times t past the float maximum is clamped to it, where every
    # coefficient has long reached its limit; a finite tau keeps its bits.
    [(cuts, rho)], perm = rates.entries, rates.relabel
    with np.errstate(over="ignore"):
        taus = np.minimum(rho * np.asarray(times, dtype=np.float64), np.finfo(np.float64).max)
    cycle_length = cycle_lengths(perm)
    lengths = np.asarray(cycle_length)
    rows = (lengths.size, omega0.space.total_states // lengths.size)
    base = recombine(omega0, cuts).weights
    groups = []
    for n in set(cycle_length):
        group = lengths == n
        powers, power = [omega0.weights.reshape(rows)[group]], base
        for _ in range(n):
            power = _relabel_block0(power, perm)
            powers.append(power.reshape(rows)[group])
        groups.append((group, flow_coefficients(n, taus), powers))
    stack = np.empty((taus.size, *rows))
    for block in row_blocks(taus.size, omega0.space.total_states):
        for group, coeffs, powers in groups:
            part = np.multiply.outer(coeffs[block, 0], powers[0])
            for k, power in enumerate(powers[1:], 1):
                part += np.multiply.outer(coeffs[block, k], power)
            stack[block, group] = part
    stack = stack.reshape(taus.size, omega0.space.total_states)
    stack[[t == 0.0 for t in times]] = omega0.weights
    return stack


def check_flow_commutation(omega0: Measure, rates: RateMap, t: float) -> float:
    """Total variation of  C(phi_t(x)) - phi_t(C(x)); zero for this construction."""
    require_positive(omega0, "check_flow_commutation")
    flowed = Measure(omega0.space, generalized_flow_grid(omega0, rates, [t])[0])
    forward = cyclic_apply(flowed, rates, 1).weights
    swapped = generalized_flow_grid(cyclic_apply(omega0, rates, 1), rates, [t])[0]
    return float(np.abs(forward - swapped).sum())


def check_generalized_ode(
    omega0: Measure, rates: RateMap, t_grid: Sequence[float], h_fd: float
) -> float:
    """Max defect of the flow against its generator, by central differences.

    Returns max_t | (phi_{t+h} - phi_{t-h}) / 2h - rho (C - 1)(phi_t) | in
    total variation; second order in h, so halving h divides it by about 4.
    The three flows act on the whole grid at once, and the compiled field of
    the map on each row.  The centre rows come from
    ``generalized_flow_grid``, which validates the map, the times and omega_0.
    """
    if not (math.isfinite(h_fd) and h_fd > 0.0):
        raise ValueError(f"finite-difference step must be finite and positive, got {h_fd}")
    times = [float(t) for t in t_grid]
    centre = generalized_flow_grid(omega0, rates, times)
    generator = compile_field(omega0.space, rates)
    ahead = _flow_rows(omega0, rates, [t + h_fd for t in times])
    behind = _flow_rows(omega0, rates, [t - h_fd for t in times])
    defect = (ahead - behind) / (2.0 * h_fd)
    for row, state in zip(defect, centre):
        row -= generator(state)
    return float(np.abs(defect).sum(axis=1).max(initial=0.0))
