"""Cyclically twisted recombinators and their closed-form flow.

A relabeling g of the first block's alphabet turns a recombinator R into the
nonlinear operator  C = sigma . R  (sigma pushes the block-0 coordinate
forward through g).  If n is the period of g, the lcm of its cycle lengths,
powers wrap around:  C^n = R  and  C^{n+1} = C  on positive measures.  The
flow of  d/dt x = rho (C - 1)(x)  then has the closed form

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

An operator's ``order`` need only be a multiple of the period, and the flow
runs at its ``flow_order``, the period (at least 2: the identity has C = R,
where the order-2 formula holds), so no work grows with the order.  Time
enters only through the coefficients, so ``generalized_flow_grid`` forms
R(omega_0) and its relabelings C^1, ..., C^n once and returns the stack of
states on a whole time grid, one row per time; ``generalized_flow_apply`` is
its one-row case.  The generator rho (C - 1) is ``compile_field`` of the one
cut set with g; with no cuts, C = sigma is a plain relabeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

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
    if n < 2:
        raise ValueError(f"order must be at least 2, got {n}")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    roots.flags.writeable = False
    return roots


def _slices(n: int, times: Sequence[float], shift: float, drop_m0: bool = False) -> np.ndarray:
    """(len(times), n) table of e^{-shift t} F_k(t): row j is the inverse DFT
    of exp((xi^m - shift) t_j) over m, without the m = 0 term if ``drop_m0``."""
    roots = _roots(int(n))
    terms = np.exp(np.multiply.outer(np.asarray(times, dtype=np.float64), roots - shift))
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


def gfun(n: int, k: int, t: float) -> float:
    """Order-n filtered exponential slice F_k evaluated at t; k wraps modulo n."""
    return float(_slices(n, [t], 0.0)[0, k % int(n)])


def gfun_asymptotic_check(n: int, k: int, t_large: float) -> float:
    """|e^{-t} F_k(t) - 1/n| at a (large) time; converges to 0 like the
    slowest nontrivial mode, i.e. within 2 * exp((cos(2 pi / n) - 1) t).

    The m = 0 mode contributes exactly 1/n, so dropping it gives the
    deviation directly, with full relative accuracy even when it sits far
    below the rounding floor of e^{-t} * F_k(t) - 1/n.
    """
    return abs(float(_slices(n, [t_large], 1.0, drop_m0=True)[0, k % int(n)]))


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

    ``perm`` permutes the flat states of the first partition block; its
    ``period``, the lcm of its cycle lengths, must divide ``order``.  The
    relabeling commutes with the recombinator on recombined (product)
    measures, which is exactly what the closed-form flow needs.
    """

    space: ProductSpace
    cuts: LinkSet
    perm: tuple[int, ...]
    order: int
    period: int = field(init=False)
    flow_order: int = field(init=False)  # the closed form's n: the period, at least 2

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"order must be at least 2, got {self.order}")
        if self.cuts.n_links != self.space.n_links:
            raise ValueError("cut set does not match the space's link count")
        perm = tuple(int(p) for p in self.perm)
        object.__setattr__(self, "perm", perm)
        block0 = partition_of(self.cuts, self.space.n_nodes).blocks[0]
        block0_states = math.prod(self.space.sizes[ax] for ax in block0)
        if sorted(perm) != list(range(block0_states)):
            raise ValueError(
                f"perm must permute the {block0_states} states of the first block"
            )
        # The period is the lcm of the cycle lengths, found in one walk.
        period, seen = 1, [False] * len(perm)
        for start in range(len(perm)):
            length, state = 0, start
            while not seen[state]:
                seen[state] = True
                state, length = perm[state], length + 1
            period = math.lcm(period, length or 1)
        if self.order % period:
            raise ValueError(f"order {self.order} is not a multiple of the period {period}")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "flow_order", max(2, period))

    def perm_power(self, k: int) -> tuple[int, ...]:
        result = tuple(range(len(self.perm)))
        for _ in range(k):
            result = tuple(self.perm[p] for p in result)
        return result


def _relabel_block0(w: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    # Each row of a vector or (T, S) stack, viewed as (block-0 state, rest).
    matrix = w.reshape(-1, len(perm), w.shape[-1] // len(perm))
    out = np.empty_like(matrix)
    out[:, np.asarray(perm)] = matrix
    return out.reshape(w.shape)


def cyclic_apply(omega: Measure, op: CyclicOperator, power: int) -> Measure:
    """k-th power of the cyclic operator:  C^k = sigma^k . R  for k >= 1."""
    power = int(power)
    if power < 0:
        raise ValueError("power must be nonnegative")
    if omega.space.sizes != op.space.sizes:
        raise ValueError("measure does not live on the operator's space")
    require_positive(omega, "cyclic_apply")
    if power == 0:
        return omega
    base = recombine(omega, op.cuts)
    w = _relabel_block0(base.weights, op.perm_power(power % op.period))
    return Measure(omega.space, w, omega.nodes)


def generalized_flow_grid(
    omega0: Measure, op: CyclicOperator, rho: float, times: Sequence[float]
) -> np.ndarray:
    """Closed-form flow of  d/dt x = rho (C - 1)(x)  on a whole time grid.

    Returns the (len(times), states) stack whose row k is the state at
    ``times[k]``: omega_0 and its powers C^1, ..., C^n, formed once, weighted
    by each row's ``flow_coefficients(n, rho t)``.  Coefficients sum to one,
    so mass is conserved; they are nonnegative for all t >= 0, so positivity
    is preserved as well.  A row at t = 0 is omega_0 exactly.
    """
    if not rho > 0.0:
        raise ValueError(f"rate must be positive, got {rho}")
    times = [float(t) for t in times]
    if any(t < 0.0 for t in times):
        raise ValueError("times must be nonnegative")
    require_positive(omega0, "generalized_flow_grid")
    return _flow_rows(omega0, op, rho, times)


def generalized_flow_apply(
    omega0: Measure, op: CyclicOperator, rho: float, t: float
) -> Measure:
    """The flow at one time t, the one-row case of ``generalized_flow_grid``.

    At t = 0 it returns ``omega0`` itself.
    """
    stack = generalized_flow_grid(omega0, op, rho, [t])
    return omega0 if t == 0.0 else Measure(omega0.space, stack[0], omega0.nodes)


def _flow_rows(
    omega0: Measure, op: CyclicOperator, rho: float, times: Sequence[float]
) -> np.ndarray:
    # Internal: no sign restriction on t (the ODE check differentiates
    # through t = 0); rows at t == 0 are omega_0 exactly.
    if omega0.space.sizes != op.space.sizes:
        raise ValueError("measure does not live on the operator's space")
    n = op.flow_order
    coeffs = flow_coefficients(n, rho * np.asarray(times, dtype=np.float64))
    stack = np.multiply.outer(coeffs[:, 0], omega0.weights)
    power = recombine(omega0, op.cuts).weights
    for k in range(1, n + 1):
        power = _relabel_block0(power, op.perm)
        stack += np.multiply.outer(coeffs[:, k], power)
    stack[[t == 0.0 for t in times]] = omega0.weights
    return stack


def check_flow_commutation(
    omega0: Measure, op: CyclicOperator, rho: float, t: float
) -> float:
    """Total variation of  C(phi_t(x)) - phi_t(C(x)); zero for this construction."""
    require_positive(omega0, "check_flow_commutation")
    forward = cyclic_apply(generalized_flow_apply(omega0, op, rho, t), op, 1)
    swapped = generalized_flow_apply(cyclic_apply(omega0, op, 1), op, rho, t)
    return float(np.abs(forward.weights - swapped.weights).sum())


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
