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
of each cycle-length group once for a whole time grid, one row per time; a
single time is its one-row grid.  ``gfun`` likewise tabulates F_0, ..., F_{n-1}
over a whole vector of times.  The generator rho (C - 1) is ``compile_field``
of the one cut set with g; with no cuts, C = sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .dynamics import RateMap, compile_field
from .lattice import LinkSet, partition_of
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
# The cyclic operator C = sigma . R
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicOperator:
    """Recombinator composed with a relabeling of the first block.

    ``perm`` permutes the flat states of the first partition block, and
    ``cycle_length`` holds the length of each such state's cycle.  The
    relabeling commutes with the recombinator on recombined (product)
    measures, which is exactly what the closed-form flow needs.
    """

    space: ProductSpace
    cuts: LinkSet
    perm: tuple[int, ...]
    cycle_length: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.cuts.n_links != self.space.n_links:
            raise ValueError("cut set does not match the space's link count")
        perm = tuple(int(p) for p in self.perm)
        object.__setattr__(self, "perm", perm)
        block0 = partition_of(self.cuts, self.space.n_nodes).blocks[0]
        block0_states = math.prod(self.space.sizes[ax] for ax in block0)
        if sorted(perm) != list(range(block0_states)):
            raise ValueError(f"perm must permute the {block0_states} states of the first block")
        lengths = {state: len(cycle) for cycle in _cycles(perm) for state in cycle}
        object.__setattr__(self, "cycle_length", tuple(lengths[s] for s in range(len(perm))))


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


def _relabel_block0(w: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    # Each row of a vector or (T, S) stack, viewed as (block-0 state, rest).
    matrix = w.reshape(-1, len(perm), w.shape[-1] // len(perm))
    out = np.empty_like(matrix)
    out[:, np.asarray(perm)] = matrix
    return out.reshape(w.shape)


def cyclic_apply(omega: Measure, op: CyclicOperator, power: int) -> Measure:
    """k-th power of the cyclic operator:  C^k = sigma^k . R  for k >= 1.

    sigma^k moves each state k mod L steps along its cycle of length L, with
    k reduced in Python ints, so any k costs one walk along the cycles.
    """
    power = int(power)
    if power < 0:
        raise ValueError("power must be nonnegative")
    if omega.space.sizes != op.space.sizes:
        raise ValueError("measure does not live on the operator's space")
    require_positive(omega, "cyclic_apply")
    if power == 0:
        return omega
    image = [0] * len(op.perm)  # sigma^power
    for cycle in _cycles(op.perm):
        shift = power % len(cycle)
        for i, state in enumerate(cycle):
            image[state] = cycle[(i + shift) % len(cycle)]
    base = recombine(omega, op.cuts)
    return Measure(omega.space, _relabel_block0(base.weights, image), omega.nodes)


def generalized_flow_grid(
    omega0: Measure, op: CyclicOperator, rho: float, times: Sequence[float]
) -> np.ndarray:
    """Closed-form flow of  d/dt x = rho (C - 1)(x)  on a whole time grid.

    Returns the (len(times), states) stack whose row k is the state at
    ``times[k]``: omega_0 and its powers C^1, ..., C^L, weighted state by
    state by ``flow_coefficients(L, rho t)`` of the state's block-0 cycle
    length L.  One time is the one-row grid.  Coefficients sum to one, so mass is conserved;
    they are nonnegative for all t >= 0, so positivity is preserved as well.
    A row at t = 0 is omega_0 exactly.
    """
    if not rho > 0.0:
        raise ValueError(f"rate must be positive, got {rho}")
    times = [float(t) for t in times]
    if any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    require_positive(omega0, "generalized_flow_grid")
    return _flow_rows(omega0, op, rho, times)


def _flow_rows(
    omega0: Measure, op: CyclicOperator, rho: float, times: Sequence[float]
) -> np.ndarray:
    # Internal: no sign restriction on t (the ODE check differentiates
    # through t = 0); rows at t == 0 are omega_0 exactly.
    if omega0.space.sizes != op.space.sizes:
        raise ValueError("measure does not live on the operator's space")
    # The block-0 states on cycles of length L share the order-L coefficients,
    # so each group's rows are outer products of one coefficient column with
    # omega_0 and C^1, ..., C^L restricted to the group.
    # A rate times t past the float maximum is clamped to it, where every
    # coefficient has long reached its limit; a finite tau keeps its bits.
    with np.errstate(over="ignore"):
        taus = np.minimum(rho * np.asarray(times, dtype=np.float64), np.finfo(np.float64).max)
    lengths = np.asarray(op.cycle_length)
    rows = (lengths.size, omega0.space.total_states // lengths.size)
    stack = np.empty((taus.size, *rows))
    base = recombine(omega0, op.cuts).weights
    for n in set(op.cycle_length):
        group = lengths == n
        coeffs = flow_coefficients(n, taus)
        part = np.multiply.outer(coeffs[:, 0], omega0.weights.reshape(rows)[group])
        power = base
        for k in range(1, n + 1):
            power = _relabel_block0(power, op.perm)
            part += np.multiply.outer(coeffs[:, k], power.reshape(rows)[group])
        stack[:, group] = part
    stack = stack.reshape(taus.size, omega0.space.total_states)
    stack[[t == 0.0 for t in times]] = omega0.weights
    return stack


def check_flow_commutation(
    omega0: Measure, op: CyclicOperator, rho: float, t: float
) -> float:
    """Total variation of  C(phi_t(x)) - phi_t(C(x)); zero for this construction."""
    require_positive(omega0, "check_flow_commutation")
    flowed = Measure(omega0.space, generalized_flow_grid(omega0, op, rho, [t])[0])
    forward = cyclic_apply(flowed, op, 1).weights
    swapped = generalized_flow_grid(cyclic_apply(omega0, op, 1), op, rho, [t])[0]
    return float(np.abs(forward - swapped).sum())


def check_generalized_ode(
    omega0: Measure,
    op: CyclicOperator,
    rho: float,
    t_grid: Sequence[float],
    h_fd: float,
) -> float:
    """Max defect of the flow against its generator, by central differences.

    Returns max_t | (phi_{t+h} - phi_{t-h}) / 2h - rho (C - 1)(phi_t) | in
    total variation; second order in h, so halving h divides it by about 4.
    The three flows act on the whole grid at once, and the compiled
    generator on each row.
    """
    if not rho > 0.0:
        raise ValueError(f"rate must be positive, got {rho}")
    if h_fd <= 0.0:
        raise ValueError("finite-difference step must be positive")
    require_positive(omega0, "check_generalized_ode")
    generator = compile_field(op.space, RateMap.single(op.cuts, rho), relabel=op.perm)
    times = [float(t) for t in t_grid]
    if any(t < 0.0 for t in times):
        raise ValueError("grid times must be nonnegative")
    ahead = _flow_rows(omega0, op, rho, [t + h_fd for t in times])
    behind = _flow_rows(omega0, op, rho, [t - h_fd for t in times])
    defect = (ahead - behind) / (2.0 * h_fd)
    for row, state in zip(defect, _flow_rows(omega0, op, rho, times)):
        row -= generator(state)
    return float(np.abs(defect).sum(axis=1).max(initial=0.0))
