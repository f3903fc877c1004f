"""Recombinators: normalized tensor products of block marginals.

Cutting a measure at a set of links replaces it by the product of its
marginals over the resulting node blocks,

    R(omega) = (1 / |omega|^p) (m_0 x m_1 x ... x m_p),

where m_i is the marginal on the i-th block, p is the number of cuts, and
|omega| is the total variation.  R(0) = 0 by continuous extension.  The empty
cut set gives the identity.  On positive measures these operators are
idempotent, commute, preserve total mass, and compose by set union; on signed
measures they are positively homogeneous contractions.

``recombine_weights`` and ``recombine_rows`` act on raw weights: one vector,
or a (T, S) stack whose rows are recombined together in one pass, each with
its own |omega|.  ``recombine`` is their one-measure case.  The law checkers
``gen_cond_rows`` (partial linearity) and ``lipschitz_rows`` (the elementary
Lipschitz ratio) take weights too and return one value per row of a stack; a
single measure is the one-row case, ``omega.weights``.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import LinkSet
from .measure import Measure, ProductSpace

# Below this total variation the argument counts as the zero measure, which
# keeps the 1/|omega|^p prefactor finite.
ZERO_TOTAL_VARIATION = 1e-300

# Slack for "is this measure positive" checks at operator entry points.
POSITIVITY_TOL = 1e-12


def require_positive(
    omega: Measure | np.ndarray, operation: str, tol: float = POSITIVITY_TOL
) -> None:
    """Raise unless every weight of a measure, a weight vector or a (T, S)
    stack is at least ``-tol``."""
    w = omega.weights if isinstance(omega, Measure) else omega
    low = float(w.min())
    if not low >= -tol:
        raise ValueError(
            f"{operation} is defined on positive measures only "
            f"(min weight {low:.3e})"
        )


def _require_full_chain(omega: Measure, operation: str) -> None:
    if omega.nodes != tuple(range(omega.space.n_nodes)):
        raise ValueError(f"{operation} acts on measures over the full chain")


# numpy sums fewer addends than this in a plain loop, first to last; see
# ``recombine_weights`` for the column paths below it.
_SHORT_LOOP = 8
# A column costs one numpy call (~1 us), and each cell's short inner loop it
# saves ~5-15 ns, so a column of fewer cells is left to numpy's one call.
_COLUMN_CELLS = 1024


def _block_marginal(tensor_view: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Each row's marginal on the contiguous axes ``axes`` of a (T, *sizes)
    view, as (T, S): ``tensor_view.sum`` over the other axes, bit for bit.

    Seen as (T, L, S, R), a block with 2 <= R < 8, S > 1 and at least
    1,024 cells in T * L * S adds its R trailing columns first to last and
    leaves L to ``sum``, whose +0.0 start also turns an all -0.0 cell into
    numpy's +0.0.  With S = 1 numpy folds L and R into one pairwise sum, so
    that block stays numpy's.
    """
    shape = tensor_view.shape
    first, stop = axes[0] + 1, axes[-1] + 2
    size, trail = math.prod(shape[first:stop]), math.prod(shape[stop:])
    if 1 < trail < _SHORT_LOOP and size > 1 and tensor_view.size >= trail * _COLUMN_CELLS:
        v = tensor_view.reshape(shape[0], -1, size, trail)
        cells = np.add(v[..., 0], v[..., 1])
        for j in range(2, trail):
            cells += v[..., j]
        return cells.sum(axis=1)
    drop = (*range(1, first), *range(stop, len(shape)))
    reduced = tensor_view.sum(axis=drop) if drop else tensor_view
    return reduced.reshape(shape[0], size)


def _outer_rows(head: np.ndarray, factor: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row's outer product of a (T, H) head and a (T, F) factor, flat
    as (T, H * F), into ``out`` if given.  A factor of fewer than 8 states
    is written one column per state when the head has 1,024 cells or more;
    every cell is the same one rounded product either way."""
    (n_rows, h), f = head.shape, factor.shape[1]
    if f >= _SHORT_LOOP or head.size < _COLUMN_CELLS:
        cells = None if out is None else out.reshape(n_rows, h, f)
        return np.multiply(head[:, :, None], factor[:, None, :], out=cells).reshape(n_rows, h * f)
    out = np.empty((n_rows, h * f)) if out is None else out
    cells = out.reshape(n_rows, h, f)
    for j in range(f):
        np.multiply(head, factor[:, j:j + 1], out=cells[..., j])
    return out


def recombine_weights(
    w: np.ndarray,
    sizes: tuple[int, ...],
    blocks: tuple[tuple[int, ...], ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Raw-array recombination along precomputed axis blocks (hot path).

    ``w`` is one flat weight vector or a (T, S) stack of them.  Every row is
    recombined in the same pass with its own |w|: its own zero rule and its
    own division of the later factors by |w|.  A vector is the one-row case.
    The result goes into ``out``, a contiguous array of ``w``'s shape that
    does not overlap ``w``, when one is given.

    Short axes go column by column, with numpy's arithmetic in numpy's
    order, so every cell keeps the bits of ``sum`` and of the broadcast
    product.  A block followed by 2-7 states per cell (a cut near the end
    of a small alphabet's chain) adds those trailing columns one by one,
    and a middle or last factor of 1-7 states is multiplied in one column
    per state.  8 is where numpy stops summing in a plain loop and starts
    its pairwise sum, so a longer extent, and the last block's own marginal
    (a sum over the leading axes), stay numpy's.  So does a column of fewer
    than 1,024 cells (a small space, few rows), where one numpy call per
    column costs more than the short loops it saves.
    """
    rows = w.reshape(-1, w.shape[-1])
    n_rows = rows.shape[0]
    # |w| is summed from the result's buffer, which the product overwrites.
    result = np.empty(rows.shape) if out is None else out.reshape(rows.shape)
    tv = np.abs(rows, out=result).sum(axis=1)
    tensor_view = rows.reshape((n_rows, *sizes))
    marginals = [_block_marginal(tensor_view, axes) for axes in blocks]
    if len(marginals) == 1:
        result[:] = marginals[0]
    else:
        # Dividing each later factor by its row's |omega| keeps every
        # intermediate on the scale of |omega| instead of forming tv**p,
        # which could overflow.  A row below the zero rule has marginals
        # below it too, so the floor on the divisor cannot overflow either.
        scale = np.maximum(tv, ZERO_TOTAL_VARIATION)[:, None]
        head = marginals[0]
        for m in marginals[1:-1]:
            head = _outer_rows(head, m / scale)
        _outer_rows(head, marginals[-1] / scale, result)
    result[tv < ZERO_TOTAL_VARIATION] = 0.0
    return result.reshape(w.shape)


def recombine_rows(w: np.ndarray, space: ProductSpace, links: LinkSet,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``recombine`` on raw weights of ``space``: a vector or a (T, S) stack.

    Each row is recombined on its own, as ``recombine_weights`` does, into
    ``out`` if given.  The empty cut set is the identity and returns ``w``.
    """
    if links.n_links != space.n_links:
        raise ValueError(
            f"link set over {links.n_links} links does not match a space "
            f"with {space.n_links} links"
        )
    if len(links) == 0:
        return w
    return recombine_weights(w, space.sizes, links.blocks(space.n_nodes), out)


def recombine(omega: Measure, links: LinkSet) -> Measure:
    """Apply the recombinator attached to a cut set.  Total on signed input."""
    _require_full_chain(omega, "recombine")
    w = recombine_rows(omega.weights, omega.space, links)
    if w is omega.weights:  # the empty cut set
        return omega
    return Measure(omega.space, w, omega.nodes)


def gen_cond_rows(w: np.ndarray, space: ProductSpace, links: LinkSet, a: float) -> np.ndarray:
    """Residual of the partial-linearity identity R(a w + (1-a) R(w)) = R(w)
    for every row of a weight vector or (T, S) stack of ``space``.

    This identity is what makes the one-recombinator flow exactly solvable;
    it holds on positive measures for every mixing weight ``a`` in [0, 1].
    Returns the total variation of each row's defect, which should vanish to
    rounding for any valid input.
    """
    a = float(a)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {a}")
    require_positive(w, "the partial-linearity check")
    recombined = recombine_rows(w, space, links)
    blend = w * a + recombined * (1.0 - a)
    return np.abs(recombine_rows(blend, space, links) - recombined).sum(axis=-1)


def lipschitz_rows(
    omega_w: np.ndarray, nu_w: np.ndarray, space: ProductSpace, link: int
) -> np.ndarray:
    """|R(omega) - R(nu)| / |omega - nu| for one elementary recombinator, for
    every pair of rows of two weight vectors or (T, S) stacks of ``space``.

    Both arguments may be signed.  The ratio stays below 3 for every pair;
    the sweep over random pairs in the test suites probes that bound.  A
    pair of coinciding rows has no ratio and raises ``ValueError``.
    """
    n_links = space.n_links
    if not 0 <= int(link) < n_links:
        raise ValueError(f"link index {link} out of range for {n_links} links")
    if omega_w.shape != nu_w.shape:
        raise ValueError(f"stacks of shapes {omega_w.shape} and {nu_w.shape} do not pair up")
    denom = np.abs(omega_w - nu_w).sum(axis=-1)
    if (denom == 0.0).any():
        raise ValueError("measures coincide; the ratio is undefined")
    cut = LinkSet.from_indices([int(link)], n_links)
    num = np.abs(recombine_rows(omega_w, space, cut) - recombine_rows(nu_w, space, cut))
    return num.sum(axis=-1) / denom

