"""Cyclically twisted recombinators and their closed-form flow.

An order-n relabeling g of the first block's alphabet turns a recombinator R
into the nonlinear operator  C = sigma . R  (sigma pushes the block-0
coordinate forward through g).  Powers wrap around:  C^n = R  and
C^{n+1} = C  on positive measures.  The flow of  d/dt x = rho (C - 1)(x)
then has the closed form

    phi_t = e^{-tau} ( 1 + (F_0(tau) - 1) C^n + sum_{k=1}^{n-1} F_{n-k}(tau) C^k ),

with tau = rho t, where F_k is the k-th roots-of-unity filtered slice of the
exponential series,

    F_k(t) = (1/n) sum_{m=0}^{n-1} xi^{mk} exp(xi^m t),    xi = exp(2 pi i / n)
           = delta_{k,0} + sum_{m>=1} t^{mn-k} / (mn-k)! .

Evaluation pairs each complex term with its conjugate so the imaginary part
cancels exactly; the scaled variants e^{-t} F_k(t) are built from
exp((xi^m - 1) t) and stay accurate for large t where the plain product
e^{-t} * F_k(t) would lose everything to rounding.

Time enters only through the coefficients, so ``generalized_flow_grid``
forms R(omega_0) and its relabelings C^1, ..., C^n once and returns the stack
of states on a whole time grid, one row per time; ``generalized_flow_apply``
is its one-row case.  ``cyclic_field`` compiles the generator rho (C - 1) for
the RK4 oracle; it maps a stack row by row too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .lattice import LinkSet, partition_of
from .measure import Measure, ProductSpace
from .recombinator import recombine, recombine_weights, require_positive

# Evaluations must come out real; anything above this imaginary residue
# signals a broken root table rather than rounding.
_IMAG_RESIDUE_TOL = 1e-10


class GFunTable:
    """Roots-of-unity filtered exponential slices of a fixed order n >= 2."""

    def __init__(self, n: int):
        n = int(n)
        if n < 2:
            raise ValueError(f"order must be at least 2, got {n}")
        self.n = n
        roots = [complex(1.0, 0.0)] * n
        for m in range(1, n // 2 + 1):
            z = cmath.exp(2j * math.pi * m / n)
            roots[m] = z
            roots[n - m] = z.conjugate()
        if n % 2 == 0:
            roots[n // 2] = complex(-1.0, 0.0)
        self._roots = tuple(roots)

    def _filtered_sum(self, k: int, t: float, shift: float, include_m0: bool) -> float:
        n = self.n
        roots = self._roots
        total = complex(0.0, 0.0)
        if include_m0:
            total += math.exp((1.0 - shift) * t)
        for m in range(1, (n - 1) // 2 + 1):
            term = roots[m * k % n] * cmath.exp((roots[m] - shift) * t)
            total += term + term.conjugate()
        if n % 2 == 0:
            coeff = roots[n // 2 * k % n]
            total += coeff.real * math.exp((-1.0 - shift) * t)
        if abs(total.imag) > _IMAG_RESIDUE_TOL:
            raise ArithmeticError(
                f"imaginary residue {total.imag:.3e} exceeds {_IMAG_RESIDUE_TOL}"
            )
        return total.real / n

    def eval(self, k: int, t: float) -> float:
        """F_k(t); the index wraps modulo n."""
        return self._filtered_sum(k % self.n, float(t), 0.0, include_m0=True)

    def eval_scaled(self, k: int, t: float) -> float:
        """e^{-t} F_k(t), overflow-free for large t."""
        return self._filtered_sum(k % self.n, float(t), 1.0, include_m0=True)

    def asymptotic_residual(self, k: int, t: float) -> float:
        """|e^{-t} F_k(t) - 1/n| formed from the decaying modes alone.

        The m = 0 mode contributes exactly 1/n, so dropping it gives the
        deviation directly, with full relative accuracy even when it sits far
        below the rounding floor of e^{-t} * F_k(t) - 1/n.
        """
        return abs(self._filtered_sum(k % self.n, float(t), 1.0, include_m0=False))


@lru_cache(maxsize=64)
def _table(n: int) -> GFunTable:
    return GFunTable(n)


def gfun(n: int, k: int, t: float) -> float:
    """Order-n filtered exponential slice F_k evaluated at t."""
    return _table(int(n)).eval(k, t)


def gfun_scaled(n: int, k: int, t: float) -> float:
    """e^{-t} F_k(t)."""
    return _table(int(n)).eval_scaled(k, t)


def gfun_asymptotic_check(n: int, k: int, t_large: float) -> float:
    """|e^{-t} F_k(t) - 1/n| at a (large) time; converges to 0 like the
    slowest nontrivial mode, i.e. within 2 * exp((cos(2 pi / n) - 1) t)."""
    return _table(int(n)).asymptotic_residual(k, t_large)


def roots_of_unity_mean(n: int, exponent: int) -> complex:
    """(1/n) sum_m xi^{m * exponent}: one when n divides the exponent, else zero."""
    table = _table(int(n))
    total = complex(0.0, 0.0)
    for m in range(table.n):
        total += table._roots[m * exponent % table.n]
    return total / table.n


def flow_coefficients(n: int, tau: float) -> np.ndarray:
    """Coefficients of (identity, C^1, ..., C^n) in the order-n flow at tau.

    The entries are e^{-tau}, e^{-tau} F_{n-1}(tau), ..., e^{-tau} F_1(tau),
    and e^{-tau} (F_0(tau) - 1); they sum to one for every tau.
    """
    table = _table(int(n))
    decay = math.exp(-tau)
    out = np.empty(table.n + 1)
    out[0] = decay
    for k in range(1, table.n):
        out[k] = table.eval_scaled(table.n - k, tau)
    out[table.n] = table.eval_scaled(0, tau) - decay
    return out


# ---------------------------------------------------------------------------
# The cyclic operator C = sigma . R
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicOperator:
    """Recombinator composed with an order-n relabeling of the first block.

    ``perm`` permutes the flat states of the first partition block; composing
    it ``order`` times must give the identity.  The relabeling commutes with
    the recombinator on recombined (product) measures, which is exactly what
    the closed-form flow needs.
    """

    space: ProductSpace
    cuts: LinkSet
    perm: tuple[int, ...]
    order: int

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
        composed = perm
        for _ in range(self.order - 1):
            composed = tuple(perm[p] for p in composed)
        if composed != tuple(range(block0_states)):
            raise ValueError(f"perm composed {self.order} times is not the identity")

    @property
    def block0_states(self) -> int:
        return len(self.perm)

    def perm_power(self, k: int) -> tuple[int, ...]:
        k %= self.order
        result = tuple(range(self.block0_states))
        for _ in range(k):
            result = tuple(self.perm[p] for p in result)
        return result


def _relabel_block0(w: np.ndarray, perm: Sequence[int], block0_states: int) -> np.ndarray:
    # Each row of a vector or (T, S) stack, viewed as (block-0 state, rest).
    matrix = w.reshape(-1, block0_states, w.shape[-1] // block0_states)
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
    k = power % op.order
    if k == 0:
        return base
    w = _relabel_block0(base.weights, op.perm_power(k), op.block0_states)
    return Measure(omega.space, w, omega.nodes)


def cyclic_field(op: CyclicOperator, rho: float) -> Callable[[np.ndarray], np.ndarray]:
    """Compile the generator  w -> rho (C(w) - w)  for flat weight vectors.

    The blocks of the cut set are worked out here, once.  On positive input
    the result equals ``rho * (cyclic_apply(x, op, 1).weights - x.weights)``
    exactly; unlike ``cyclic_apply`` it takes signed input too, so RK4 may
    pass it slightly negative intermediate states.  A (T, S) stack is mapped
    row by row.
    """
    if not rho > 0.0:
        raise ValueError(f"rate must be positive, got {rho}")
    sizes = op.space.sizes
    blocks = partition_of(op.cuts, op.space.n_nodes).blocks

    def field(w: np.ndarray) -> np.ndarray:
        twisted = _relabel_block0(recombine_weights(w, sizes, blocks), op.perm, op.block0_states)
        return rho * (twisted - w)

    return field


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
    coeffs = np.array([flow_coefficients(op.order, rho * t) for t in times]).reshape(
        len(times), op.order + 1
    )
    stack = np.multiply.outer(coeffs[:, 0], omega0.weights)
    power = recombine(omega0, op.cuts).weights
    for k in range(1, op.order + 1):
        power = _relabel_block0(power, op.perm, op.block0_states)
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
    The three flows and the generator each act on the whole grid at once.
    """
    if h_fd <= 0.0:
        raise ValueError("finite-difference step must be positive")
    require_positive(omega0, "check_generalized_ode")
    generator = cyclic_field(op, rho)
    times = [float(t) for t in t_grid]
    if any(t < 0.0 for t in times):
        raise ValueError("grid times must be nonnegative")
    ahead = _flow_rows(omega0, op, rho, [t + h_fd for t in times])
    behind = _flow_rows(omega0, op, rho, [t - h_fd for t in times])
    defect = (ahead - behind) / (2.0 * h_fd)
    defect -= generator(_flow_rows(omega0, op, rho, times))
    return float(np.abs(defect).sum(axis=1).max(initial=0.0))
