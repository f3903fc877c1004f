"""Recombinators: normalized tensor products of block marginals.

Cutting a measure at a set of links replaces it by the product of its
marginals over the resulting node blocks,

    R(omega) = (1 / |omega|^p) (m_0 x m_1 x ... x m_p),

where m_i is the marginal on the i-th block, p is the number of cuts, and
|omega| is the total variation.  R(0) = 0 by continuous extension.  The empty
cut set gives the identity.  On positive measures these operators are
idempotent, commute, preserve total mass, and compose by set union; on signed
measures they are positively homogeneous contractions.
"""

from __future__ import annotations

import numpy as np

from .lattice import LinkSet, _cached_blocks
from .measure import Measure, is_positive, total_variation

# Below this total variation the argument counts as the zero measure, which
# keeps the 1/|omega|^p prefactor finite.
ZERO_TOTAL_VARIATION = 1e-300

# Slack for "is this measure positive" checks at operator entry points.
POSITIVITY_TOL = 1e-12


def require_positive(omega: Measure, operation: str, tol: float = POSITIVITY_TOL) -> None:
    if not is_positive(omega, tol):
        raise ValueError(
            f"{operation} is defined on positive measures only "
            f"(min weight {float(omega.weights.min()):.3e})"
        )


def recombine_weights(
    w: np.ndarray,
    sizes: tuple[int, ...],
    blocks: tuple[tuple[int, ...], ...],
) -> np.ndarray:
    """Raw-array recombination along precomputed axis blocks (hot path)."""
    tv = float(np.abs(w).sum())
    if tv < ZERO_TOTAL_VARIATION:
        return np.zeros_like(w)
    tensor_view = w.reshape(sizes)
    ndim = tensor_view.ndim
    marginals = []
    for axes in blocks:
        drop = tuple(ax for ax in range(ndim) if ax not in axes)
        reduced = tensor_view.sum(axis=drop) if drop else tensor_view
        marginals.append(np.ravel(reduced))
    if len(marginals) == 1:
        return marginals[0].copy()
    # Dividing each later factor by tv keeps every intermediate on the scale
    # of |omega| instead of forming tv**p, which could overflow.
    acc = marginals[0]
    for m in marginals[1:]:
        acc = np.multiply.outer(acc, m / tv).ravel()
    return acc


def recombine(omega: Measure, links: LinkSet) -> Measure:
    """Apply the recombinator attached to a cut set.  Total on signed input."""
    if omega.nodes != tuple(range(omega.space.n_nodes)):
        raise ValueError("recombine acts on measures over the full chain")
    if links.n_links != omega.space.n_links:
        raise ValueError(
            f"link set over {links.n_links} links does not match a space "
            f"with {omega.space.n_links} links"
        )
    if len(links) == 0:
        return omega
    blocks = _cached_blocks(links.bits, omega.space.n_nodes)
    w = recombine_weights(omega.weights, omega.space.sizes, blocks)
    return Measure(omega.space, w, omega.nodes)


def check_gen_cond(omega: Measure, links: LinkSet, a: float) -> float:
    """Residual of the partial-linearity identity R(a w + (1-a) R(w)) = R(w).

    This identity is what makes the one-recombinator flow exactly solvable;
    it holds on positive measures for every mixing weight ``a`` in [0, 1].
    Returns the total variation of the defect, which should vanish to
    rounding for any valid input.
    """
    a = float(a)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {a}")
    require_positive(omega, "check_gen_cond")
    recombined = recombine(omega, links)
    blend = a * omega + (1.0 - a) * recombined
    return total_variation(recombine(blend, links) - recombined)


def lipschitz_ratio(omega: Measure, nu: Measure, link: int) -> float:
    """|R(omega) - R(nu)| / |omega - nu| for one elementary recombinator.

    Both arguments may be signed.  The ratio stays below 3 for every pair;
    the sweep over random pairs in the test suites probes that bound.
    """
    n_links = omega.space.n_links
    if not 0 <= int(link) < n_links:
        raise ValueError(f"link index {link} out of range for {n_links} links")
    denom = total_variation(omega - nu)
    if denom == 0.0:
        raise ValueError("measures coincide; the ratio is undefined")
    cut = LinkSet.from_indices([int(link)], n_links)
    num = total_variation(recombine(omega, cut) - recombine(nu, cut))
    return num / denom
