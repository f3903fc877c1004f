"""Text writers: trajectories and coefficient tables as CSV and JSON.

The writers write ASCII bytes to a binary stream.  A CSV cell is exactly
``"%.17g" % x``, and a JSON cell exactly what ``json.dumps`` writes for x:
``repr(x)`` for a finite x.  Every line goes out in slices of
``_CHUNK_CELLS`` cells, so neither an artifact's text nor one wide row's is
ever held whole; rows of a stack much shorter than a slice share one, and a
JSON vector of fewer than ``_FEW_CELLS`` cells goes to ``json.dumps`` whole.
One function writes the rows of CSV and JSON alike.  The writers take a time
grid and a stack as its (t, S) row blocks in order, each written before the
next is read; the bytes do not depend on the split.

Memory, not arithmetic, sets the slice: the kernel below holds at most ~56
bytes a cell at once.  Its digit stage holds seven arrays of a cell's size,
six of them float64 (~49 bytes); its render stage fills a 28-byte record a
cell, and ``bytearray.translate`` allocates its output at the record's
length before it shrinks to the ~23 bytes of text, so that the record and
the output make 56.  A slice of 3,072 cells then holds ~172 KB, under an
eighth of the text of a 4^8 row; 4,096 cells would hold ~230 KB.

Both kinds of cell come from one numpy kernel for 1e-11 <= |x| < 1, a slice
at a time, in two stages, in float64 alone.

The digit stage gives each cell its decade X, k = 16 - X, the 17-digit
integer D = round(|x| 10^k) (ties to even) and the remainder
f = |x| 10^k - D.  10^k = P + L in doubles, with L = 0 for k <= 22.
Dekker's error-free product of |x| and P gives |x| P = p + e exactly.  The
product lies in [10^16, 10^17) but for a few ulps (log10 may miss the
decade next to a power of ten, and then D falls outside and the cell is
left to Python), so the double p is an even integer above 2^53 and below
2^57, and |e| <= ulp(p) / 2 <= 8.  With s = e + |x| L, D = p + rint(s)
(ties to even, as p is even) and f = s - rint(s), both exact whenever s
is: for every k <= 22.

For k = 23..27, |L| < 9.1e-17 P, so |x| L lies below 9.1 and its product
errs by at most 2^-50; |s| < 18 and its sum errs by at most 2^-49.  So s
lies within 2^-48 of |x| 10^k - p, and then f within 2^-48 of the true
remainder while rint(s) is the true rounding.  ``_DOUBT`` = 2^-46 is the
doubt band: a cell with k > 22 is proven only when |f| lies more than
``_DOUBT`` inside 1/2 (then rint(s) is right), and for JSON also more than
``_DOUBT`` away from 0 (then so is the sign of f) and its distances more
than ``_DOUBT`` away from the half-ulp radius below.

The render stage writes each cell as a record of 7 four-byte words with NUL
pad bytes: ",-0." or ",-d.", the zeros of fixed notation and the first
digit, four 4-digit words (the last nonzero one without its trailing zeros)
and "e-XX", each from a table.  Python's formatting fills the records of the
cells the kernel does not prove, space-padded, and the pads are dropped: the
record is a bytearray, and its translation is the slice's text as it is
written.

A JSON cell is the shortest digit string that reads back as x, and of those
the nearest to x, laid out as `%.17g` lays out its digits: in this range
`repr` and `%.17g` switch to exponent notation below the same decade and
drop trailing zeros alike.  So its digits are D rounded to 16, 15, ...
digits (to nearest, ties to even, a tie of D split by the sign of f), for
as long as the rounding C lies within the radius R, half an ulp of |x|
times 10^k: a shorter string that reads back lies within R, and then so
does the nearest one.  The distance |C - D - f| is a multiple of
2^(E-53+k), where |x| = m 2^E with 1/2 <= m < 1, and R = 2^(E-54) 10^k.  A
distance below 2R is below 5^k such multiples, so for k <= 22 it is an
exact double, and so is its difference with R = 2^(E-54) P.  That
difference is never 0: C 10^-k, with denominator 10^k, cannot equal
|x| +- 2^(E-54), whose denominator 2^(54-E) does not divide 10^k
(54 - E > 27 >= k).  For k > 22 f errs by under 2^-48, the distance's
rounding by 2^-50 and R by 2^-49, under 2^-47 in all, inside the doubt
band.  ``json.dumps`` writes the cells in doubt,
zeros, |x| >= 1, non-finite values, powers of two (whose lower neighbour is
nearer than their upper one), roundings that carry into the next decade and
the few cells still being shortened once fewer than ``_FEW_CELLS`` are.

Most slices need only part of the above.  Each of these full-slice passes
runs only when some cell of the slice needs it, as the arrays the kernel
already holds show, and skipping it moves no byte:

- the out-of-range substitution, when the least or greatest |x| lies
  outside [1e-11, 1) (a NaN fails both tests);
- the rest term |x| L and the doubt band, when some k exceeds 22, that is
  |x| < 1e-6.  Elsewhere L = 0 and the band is 0, so s and f are exact and
  |f| <= 1/2, and neither the CSV check nor the JSON one can fail; nor can
  ``_shortest``'s, as no distance then equals R, so its sign alone keeps a
  cell;
- the head word's minus offset, when the least x is negative or NaN (a
  -0.0 or a NaN is never proven, so its head word is overwritten anyway),
  and its point mask, when some cell has no nonzero digit after the first;
- the gather of the cells the kernel does not prove, when there is one.

A slice of positive weights in [1e-6, 1), each proven and with a nonzero
digit after its first, runs none of them.  An empty slice has no text.

The CSV header's indices come from the same table, 4 digits a word, the
leading word without its leading zeros.
"""

from __future__ import annotations

import itertools
import json
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

_CHUNK_CELLS = 3072
# Below this many cells a JSON rounding step costs more than json.dumps does.
_FEW_CELLS = 16

# 10^k = _P10[k] + _P10_REST[k] in doubles for k <= 27, the rest 0 while
# k <= _EXACT_K; the Dekker halves of _P10 (26 and 27 bits); the doubt band.
_EXACT_K = 22
_SPLIT = 134217729.0  # 2^27 + 1
_DOUBT = 2.0**-46


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


_P10 = np.array([float(10**k) for k in range(28)])
_P10_REST = np.array([float(10**k - int(p)) for k, p in enumerate(_P10)])
_P10_HI, _P10_LO = _halves(_P10)
_BAND = np.where(np.arange(28) > _EXACT_K, _DOUBT, 0.0)
assert not _P10_REST[: _EXACT_K + 1].any()


def _words(*chars) -> np.ndarray:
    # One word per cell of the broadcast byte codes, first byte first.
    return np.stack(np.broadcast_arrays(*chars), -1).astype(np.uint8).view("<u4").ravel()


_d = np.indices((10,) * 4, np.uint8)  # the four digits of 0..9999
_neg, _dot, _x, _d0 = np.indices((2, 2, 11, 10))
_x, _d0, _e = _x - 11, _d0 + 48, np.arange(11, 0, -1)
_fixed = _x > -5
# Words at these offsets: 4 digits of v without (v) and with (10000 + v)
# their trailing zeros, the head words (20000 and 20440, + 220 neg + 110 dot
# + 10 (X + 11) + first digit) and "e-XX" (20880 + X + 11).
_WORDS = np.concatenate((
    _words(*np.where(np.logical_and.accumulate(_d[::-1] == 0)[::-1], 0, _d + 48)),
    _words(*_d + 48),
    _words(44, 45 * _neg, np.where(_fixed, 48, _d0), 46 * (_fixed | _dot)),
    _words(*(_fixed * c for c in (48 * (_x < -3), 48 * (_x < -2), 48 * (_x < -1), _d0))),
    _words(*((_e > 4) * c for c in (101, 45, 48 + _e // 10, 48 + _e % 10))),
))
# The bytes of a 4-digit word that show its last n digits, n = 0..4, and the
# least v with 1, 2, 3 and 4 digits.
_SHOWN = np.array([0, 0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF], "<u4")
_DECADES = np.array([1, 10, 100, 1000])
# The "e-XX" word by k = 16 - X (NUL for the fixed notation), and the offset
# 20270 - 10 k of the head words of a positive k.
_E_WORDS = _WORDS.take(20907 - np.arange(28), mode="clip")
_HEADS = 20270 - 10 * np.arange(28)
del _d, _neg, _dot, _x, _d0, _e, _fixed


def _digits(x: np.ndarray, signed: bool = False):
    # The digit stage of a nonempty slice: (fast, D, k, f, doubt).  ``fast``
    # marks the cells with 1e-11 <= |x| < 1 whose D (and, if ``signed``, the
    # sign of f and the distances of ``_shortest``) are proven; ``doubt`` says
    # that some cell has k > 22, and only then do the rest term |x| L and the
    # doubt band run.  At most seven arrays of a cell's size are alive at
    # once: the mask and six of 8 bytes.
    a = np.abs(x)
    if a.min() >= 1e-11 and a.max() < 1.0:  # False on a NaN
        inside = None  # every cell is in the kernel's range
    else:
        inside = (a >= 1e-11) & (a < 1.0)
        np.copyto(a, 0.5, where=~inside)
    k = np.minimum(16 - np.floor(np.log10(a)).astype(np.intp), 27)
    p = _P10.take(k, mode="clip")
    p *= a
    # |x| L, on the cells with k > 22 alone: elsewhere L = 0, and adding
    # 0 changes no bit of D or f.
    doubt = k.max() > _EXACT_K
    if doubt:
        far = np.flatnonzero(k > _EXACT_K)
        rest = a[far] * _P10_REST.take(k[far])
    hi = a * _SPLIT  # the halves of |x|; a becomes the low one
    part = hi - a
    hi -= part
    a -= hi
    lo = a
    # e = ((hi P_hi - p) + lo P_hi + hi P_lo) + lo P_lo, in this order, is
    # exact at every step (Dekker).
    _P10_HI.take(k, out=part, mode="clip")
    e = hi * part
    e -= p
    part *= lo
    e += part
    _P10_LO.take(k, out=part, mode="clip")
    hi *= part
    e += hi
    lo *= part
    e += lo
    del hi, part
    if doubt:
        e[far] += rest  # s
    np.rint(e, out=lo)
    e -= lo  # f
    d = p.astype(np.int64)
    del p
    d += lo.astype(np.int64)
    fast = (d > 10**16) & (d < 10**17)
    if inside is not None:
        fast &= inside
        del inside
    if doubt:
        # Without a cell past k = 22 the band is 0 and |f| <= 1/2 exactly,
        # so no cell fails this check.
        np.abs(e, out=lo)
        band = _BAND.take(k, mode="clip")
        if signed:
            np.minimum(lo, 0.5 - lo, out=lo)
        else:
            np.subtract(0.5, lo, out=lo)
        fast &= lo >= band
    return fast, d, k, e, doubt


def _render(x: np.ndarray, stage: Callable[[np.ndarray], tuple],
            slow_cells: Callable[[np.ndarray], bytes]) -> bytearray:
    # The render stage: the text of each cell of x, from the 17 digits D and
    # the k of the cells that ``stage(x)`` = (fast, D, k, ...) proves, and from
    # ``slow_cells`` (a 28-byte record a cell) for the others.  The stage
    # runs here, so that its arrays are freed before the record exists.
    # While the record is filled a cell holds at most 26 more bytes, fewer
    # than the 28 that translating it takes.
    if not len(x):
        return bytearray()
    fast, d, k = stage(x)[:3]
    top = d // 100_000_000  # the first 9 of the 17 digits
    d -= top * 100_000_000
    low = d.astype(np.int32)  # the last 8
    del d
    first = top // 100_000_000
    top -= first * 100_000_000
    mid = top.astype(np.int32)  # the 8 digits after the first
    del top
    k8 = k.astype(np.int8)  # k in a byte while the record is filled
    i = _HEADS.take(k, mode="clip")  # + 220 neg + 110 point + first digit
    del k
    i += first
    del first
    # The head word has its point when any digit after the first is nonzero,
    # and its minus when x is negative: the mask of either runs only when
    # some cell of the slice needs it.
    point = (low != 0) | (mid != 0)
    i += 110 if point.all() else 110 * point
    del point
    if not x.min() >= 0:  # a negative or NaN cell
        i += 220 * np.signbit(x)
    record = bytearray(28 * len(x))
    rec = np.frombuffer(record, "<u4").reshape(-1, 7)
    rec[:, 0] = _WORDS.take(i, mode="clip")
    i += 440
    rec[:, 1] = _WORDS.take(i, mode="clip")
    del i
    rec[:, 6] = _E_WORDS.take(k8.astype(np.intp), mode="clip")
    del k8
    # A word keeps its trailing zeros (offset 10000) when a later digit is
    # nonzero.
    later = np.int32(10000)
    word = low // 10_000
    low -= word * 10_000
    rec[:, 5] = _WORDS.take(low)
    word += (low != 0) * later
    rec[:, 4] = _WORDS.take(word)
    low_nz = word != 0
    del low
    word = mid // 10_000
    mid -= word * 10_000
    mid += low_nz * later
    rec[:, 3] = _WORDS.take(mid)
    word += (mid != 0) * later
    rec[:, 2] = _WORDS.take(word)
    del word, mid, low_nz
    slow = None if fast.all() else np.flatnonzero(~fast)
    del fast
    if slow is not None:
        rec[slow] = np.frombuffer(slow_cells(x[slow]), "<u4").reshape(-1, 7)
    del rec
    return record.translate(None, b"\0 ")


def _percent_cells(values: np.ndarray) -> bytes:
    return (",%-27.17g" * len(values) % tuple(values.tolist())).encode()


def _json_dumps_cells(values: np.ndarray) -> bytes:
    cells = json.dumps(values.tolist(), separators=(",", ":"))[1:-1].split(",")
    return (",%-27s" * len(cells) % tuple(cells)).encode()


def _csv_cells(x: np.ndarray) -> bytearray:
    # ``",%.17g" % v`` for each float64 v of x, joined.
    return _render(x, _digits, _percent_cells)


def _json_cells(x: np.ndarray) -> bytearray:
    # "," + ``json.dumps(v)`` for each float64 v of x, joined.
    return _render(x, _shortest, _json_dumps_cells)


def _shortest(x: np.ndarray) -> tuple:
    # The JSON stage: (fast, digits, k), where the digits are the shortest
    # that read back as x, padded with zeros to 17.
    fast, shortest, k, f, doubt = _digits(x, signed=True)
    mantissa, exponent = np.frexp(x)
    fast &= np.abs(mantissa) != 0.5
    del mantissa
    cells = np.flatnonzero(fast)
    d_live, k_live, f_live = shortest[cells], k[cells], f[cells]
    del f
    # Per live cell: D, 2 D + sign(f), and f, the radius R and, if some cell
    # has k > 22, the doubt band, as the bits of doubles.
    radius = np.ldexp(_P10.take(k_live), exponent[cells] - 54)
    del exponent
    rows = [cells, d_live, 2 * d_live + np.sign(f_live).astype(np.int64),
            f_live.view(np.int64), radius.view(np.int64)]
    if doubt:
        rows.append(_BAND.take(k_live).view(np.int64))
    live = np.stack(rows)
    del rows, cells, d_live, k_live, f_live, radius
    for j in range(1, 17):  # the rounding to 17 - j digits, nearest, ties to even
        if live.shape[1] <= _FEW_CELLS:
            fast[live[0]] = False
            break
        cells, d_live, twice, f_live, radius = live[:5]
        unit = 10**j
        head = d_live // unit
        c = (head + (twice + (head & 1) > (2 * head + 1) * unit)) * unit
        over = np.abs((c - d_live) - f_live.view(np.float64))
        over -= radius.view(np.float64)
        if doubt:
            band = live[5].view(np.float64)
            shortest[cells[np.abs(over) <= band]] = 0
            keep = np.flatnonzero(over < -band)
        else:  # the band is 0, and no distance equals R
            keep = np.flatnonzero(over < 0)
        live = live.take(keep, axis=1)
        shortest[live[0]] = c.take(keep)
    fast &= (shortest >= 10**16) & (shortest < 10**17)
    return fast, shortest, k


def _index_cells(lo: int, hi: int) -> bytes:
    # b",%d" % i for each i in range(lo, hi), joined: 4 digits a word, the
    # leading word without its leading zeros.
    i = np.arange(lo, hi)
    rec = np.empty((hi - lo, (len(str(max(hi - 1, 0))) + 7) // 4), "<u4")
    rec[:, 0] = 44  # ","
    for col in range(rec.shape[1] - 1, 0, -1):
        rest = i // 10_000
        i -= rest * 10_000
        shown = np.searchsorted(_DECADES, i, side="right")
        np.putmask(shown, rest > 0, 4)
        i += 10_000
        rec[:, col] = _WORDS.take(i) & _SHOWN.take(shown)
        i = rest
    if lo == 0 < hi:
        rec[0, -1] = 48  # "0": the one index whose leading word is 0
    return rec.tobytes().translate(None, b"\0")


def _write_rows(stream: BinaryIO, blocks: Iterable[np.ndarray],
                cells: Callable[[np.ndarray], bytearray], heads: Iterable[bytes], tail: bytes,
                sep: bytes = b"") -> None:
    # Each row of the (t, S) row blocks in order: ``sep`` before every row
    # but the first, its head from ``heads``, the text of its cells from
    # ``cells`` without the first comma, and ``tail``.  Rows of at most half
    # a slice share one call of ``cells``, as many as fill a slice, and each
    # is one write; a wider row writes its head, the text of each slice and
    # its tail, and copies none of them.
    heads, lead = iter(heads), b""
    for block in blocks:
        n_rows, n_cols = block.shape
        if 0 < n_cols <= _CHUNK_CELLS // 2:
            group = _CHUNK_CELLS // n_cols
            for lo in range(0, n_rows, group):
                text = memoryview(cells(block[lo:lo + group].ravel()))
                # The comma before each row's first cell: no cell holds one.
                starts = np.flatnonzero(np.frombuffer(text, np.uint8) == 44)[::n_cols].tolist()
                for start, end, head in zip(starts, starts[1:] + [len(text)], heads):
                    stream.write(b"".join((lead, head, text[start + 1:end], tail)))
                    lead = sep
                del text  # before the next slice is made
            continue
        for row in block:
            stream.write(lead + next(heads))
            for lo in range(0, max(n_cols, 1), _CHUNK_CELLS):
                stream.write(memoryview(cells(row[lo:lo + _CHUNK_CELLS]))[0 if lo else 1:])
            stream.write(tail)
            lead = sep


def write_csv_rows(stream: BinaryIO, times: Iterable[float],
                   blocks: Iterable[np.ndarray]) -> None:
    """Write ``"%.17g" % t``, ``",%.17g" % v`` per cell and a newline for each
    time t and row of a stack given as its (t, S) row blocks in order, to a
    binary stream.
    """
    _write_rows(stream, blocks, _csv_cells, (b"%.17g," % t for t in times), b"\n")


def trajectory_to_csv(stream: BinaryIO, times: Sequence[float],
                      blocks: Iterable[np.ndarray], n_states: int) -> None:
    """Write a ``t,0,1,...`` header of ``n_states`` indices, then the rows of
    ``write_csv_rows``; the header is written before the first block is read.
    """
    for lo in range(0, max(n_states, 1), _CHUNK_CELLS):
        hi = min(lo + _CHUNK_CELLS, n_states)
        end = b"\n" if hi == n_states else b""
        stream.write((b"t" if lo == 0 else b"") + _index_cells(lo, hi) + end)
    write_csv_rows(stream, times, blocks)


def write_json(stream: BinaryIO, fields: dict) -> None:
    """Write ``json.dumps(fields, sort_keys=True, separators=(",", ":"))`` and a
    newline to a binary stream, where a float64 vector or (T, S) stack, or an
    iterator of the (t, S) row blocks of a stack, stands for its ``tolist()``
    and is written a slice of cells at a time.
    """
    for n, key in enumerate(sorted(fields)):
        stream.write((b"," if n else b"{") + json.dumps(key).encode() + b":")
        value = fields[key]
        if isinstance(value, np.ndarray) and value.ndim == 2:
            value = iter([value])
        if isinstance(value, Iterator):
            stream.write(b"[")
            _write_rows(stream, value, _json_cells, itertools.repeat(b"["), b"]", b",")
            stream.write(b"]")
        elif isinstance(value, np.ndarray) and len(value) >= _FEW_CELLS:
            _write_rows(stream, [value[None]], _json_cells, [b"["], b"]")
        else:  # a short vector goes to json.dumps as its list
            text = json.dumps(value, separators=(",", ":"), default=np.ndarray.tolist)
            stream.write(text.encode())
    stream.write(b"}\n")


def trajectory_to_json(stream: BinaryIO, times: Sequence[float],
                       blocks: Iterable[np.ndarray]) -> None:
    """Write a trajectory, its times and the (t, S) row blocks of its stack in
    order, as compact JSON with sorted keys, by ``write_json``.

    The bytes are those of ``json.dumps({"times": [float(t) for t in times],
    "states": np.vstack(blocks).tolist()}, sort_keys=True, separators=(",",
    ":"))`` plus a newline, but the text of at most one slice of cells exists
    at a time.
    """
    write_json(stream, {"states": iter(blocks), "times": np.array(times, np.float64)})
