"""Text writers: trajectories and coefficient tables as CSV and JSON.

A CSV cell is exactly ``"%.17g" % x``, and a JSON cell exactly what
``json.dumps`` writes for x: ``repr(x)`` for a finite x.  Every line goes out
in slices of ``_CHUNK_CELLS`` cells, so neither an artifact's text nor one
wide row's is ever held whole; rows of a JSON stack much shorter than a slice
share one.

Both kinds of cell come from one numpy kernel for 1e-11 <= |x| < 1, a slice
at a time, in two stages.

The digit stage gives each cell its decade X, k = 16 - X, the 17-digit
integer D = round(|x| 10^k) (ties to even) and the sign of |x| 10^k - D.
One long double product y = 128 |x| 10^k (10^k is exact there for k <= 27)
lies within 1/2 of the exact one, so y / 128 rounds to D, and y - 128 D has
the sign of |x| 10^k - D, unless y / 128 lies within 1/128 of a half-integer
or of an integer.  Those ~3 % of cells take Dekker's error-free product of
|x| and the double 10^k instead: |x| 10^k = p + e exactly, with the integer
p and the double e, which decide D and the sign.  10^k is a double only for
k <= 22, so past that such a cell is left to Python's formatting.

The render stage writes each cell as a record of 7 four-byte words with NUL
pad bytes: ",-0." or ",-d.", the zeros of fixed notation and the first
digit, four 4-digit words (the last nonzero one without its trailing zeros)
and "e-XX", each from a table.  Python's formatting fills the records of the
cells the kernel does not prove, space-padded, and the pads are dropped.

A JSON cell is the shortest digit string that reads back as x, and of those
the nearest to x, laid out as `%.17g` lays out its digits: in this range
`repr` and `%.17g` switch to exponent notation below the same decade and
drop trailing zeros alike.  So its digits are D rounded to 16, 15, ...
digits (to nearest, ties to even), for as long as the rounding lies within
half an ulp of |x| (times 10^k): a shorter string that reads back lies
within that radius, and then so does the nearest one.  The distance is known
to within 1/128 from y, and a cell whose distance lies that close to the
radius goes to ``json.dumps``, as do zeros, |x| >= 1, non-finite values,
powers of two (whose lower neighbour is nearer than their upper one),
roundings that carry into the next decade and the few cells still being
shortened once fewer than ``_FEW_CELLS`` are.
"""

from __future__ import annotations

import io
import json
from typing import Callable

import numpy as np

from .dynamics import Trajectory

_CHUNK_CELLS = 2048
# Below this many cells a JSON rounding step costs more than json.dumps does.
_FEW_CELLS = 16

_LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63
_POW10 = np.cumprod(np.array([128] + [10] * 27, np.longdouble))  # 128 * 10^k
assert not _LONG_DOUBLE or all(int(p) == 128 * 10**k for k, p in enumerate(_POW10))

# 10^k as a double and its Dekker halves (26 and 27 bits), exact for k <= 22.
_EXACT_K = 22
_SPLIT = 134217729.0  # 2^27 + 1


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


_P10 = np.array([float(10**k) for k in range(_EXACT_K + 1)])
_P10_HI, _P10_LO = _halves(_P10)
_P10_256 = np.array([256.0 * 10**k for k in range(28)])  # rounded past k = 22


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
del _d, _neg, _dot, _x, _d0, _e, _fixed


def _digits(x: np.ndarray, signed: bool):
    # The digit stage: (fast, D, k, sign, floor(y)).  ``fast`` marks the cells
    # with 1e-11 <= |x| < 1 whose D (and, if ``signed``, whose sign) is
    # proven; ``sign`` is None unless ``signed``.
    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1.0)
    if not _LONG_DOUBLE:
        fast[:] = False
    np.copyto(a, 0.5, where=~fast)
    k = np.minimum(16 - np.floor(np.log10(a)).astype(np.int32), 27)
    y = _POW10.take(k)
    y *= a
    q = y.astype(np.uint64)  # y < 1.3e19 cannot overflow
    del y
    d = (q + 64) >> 7
    # q = floor(y): y / 128 lies within 1/128 of a half-integer when
    # 64 <= band <= 65, and of an integer when band <= 1.
    band = (q + 1) & 127
    near = (band | 1) == 65
    sign = None
    if signed:
        sign = np.where(band < 64, 1, -1)
        near |= band <= 1
    fast &= (k <= _EXACT_K) | ~near
    cells = np.flatnonzero(fast & near)
    if cells.size:
        b, kk = a[cells], k[cells]
        p = b * _P10[kk]
        b_hi, b_lo = _halves(b)
        hi, lo = _P10_HI[kk], _P10_LO[kk]
        e = ((b_hi * hi - p) + b_hi * lo + b_lo * hi) + b_lo * lo
        # |x| 10^k = p + e exactly, and p >= 10^16 > 2^53 is an integer.
        whole = np.floor(e)
        frac = e - whole
        n = p.astype(np.int64) + whole.astype(np.int64)
        up = (frac > 0.5) | ((frac == 0.5) & (n & 1 == 1))
        d[cells] = n + up
        if signed:
            sign[cells] = np.where(up, -1, np.sign(frac))
    fast &= (d > 10**16) & (d < 10**17)
    return fast, d, k, sign, q


def _render(x: np.ndarray, stage: Callable[[], tuple],
            slow_cells: Callable[[np.ndarray], str]) -> str:
    # The render stage: the text of each cell of x, from the 17 digits D and
    # the k of the cells that ``stage()`` = (fast, D, k) proves, and from
    # ``slow_cells`` (28 characters a cell) for the others.  The stage runs
    # here, so that its arrays are freed before the text is made.
    fast, d, k = stage()
    d = d.view(np.int64)
    top = d // 100_000_000  # the first 9 of the 17 digits
    d -= top * 100_000_000
    low = d.astype(np.int32)  # the last 8
    top = top.astype(np.int32)
    del d
    rec = np.empty((len(x), 7), "<u4")
    first = top // 100_000_000
    mid = top
    mid -= first * 100_000_000  # the 8 digits after the first
    low_nz = low != 0
    # The head word has its point when any digit after the first is nonzero.
    i = 20270 - 10 * k  # + 220 neg + 110 point + first digit
    i += first
    np.add(i, 110, out=i, where=low_nz | (mid != 0))
    np.add(i, 220, out=i, where=np.signbit(x))
    del first
    rec[:, 0] = _WORDS.take(i, mode="clip")
    i += 440
    rec[:, 1] = _WORDS.take(i, mode="clip")
    np.subtract(20907, k, out=i)
    rec[:, 6] = _WORDS.take(i, mode="clip")
    del k, i
    # A word keeps its trailing zeros (offset 10000) when a later digit is
    # nonzero.
    later = np.int32(10000)
    hi = low // 10_000
    low -= hi * 10_000
    rec[:, 5] = _WORDS.take(low)
    rec[:, 4] = _WORDS.take(hi + (low != 0) * later)
    hi = mid // 10_000
    mid -= hi * 10_000
    rec[:, 3] = _WORDS.take(mid + low_nz * later)
    rec[:, 2] = _WORDS.take(hi + (low_nz | (mid != 0)) * later)
    del hi, low, mid, low_nz
    slow = np.flatnonzero(~fast)
    del fast
    if slow.size:
        rec[slow] = np.frombuffer(slow_cells(x[slow]).encode(), "<u4").reshape(-1, 7)
    data = rec.tobytes()
    del rec
    data = data.translate(None, b"\0 ")
    return data.decode()


def _percent_cells(values: np.ndarray) -> str:
    return ",%-27.17g" * len(values) % tuple(values.tolist())


def _json_dumps_cells(values: np.ndarray) -> str:
    cells = json.dumps(values.tolist(), separators=(",", ":"))[1:-1].split(",")
    return ",%-27s" * len(cells) % tuple(cells)


def _csv_cells(x: np.ndarray) -> str:
    # ``",%.17g" % v`` for each float64 v of x, joined.
    return _render(x, lambda: _digits(x, signed=False)[:3], _percent_cells)


def _json_cells(x: np.ndarray) -> str:
    # "," + ``json.dumps(v)`` for each float64 v of x, joined.
    return _render(x, lambda: _shortest(x), _json_dumps_cells)


def _shortest(x: np.ndarray) -> tuple:
    # The JSON stage: (fast, digits, k), where the digits are the shortest
    # that read back as x, padded with zeros to 17.
    fast, d, k, sign, q = _digits(x, signed=True)
    mantissa, exponent = np.frexp(x)
    fast &= np.abs(mantissa) != 0.5
    cells = np.flatnonzero(fast)
    d_live = d[cells].view(np.int64)
    # y lies in [q, q + 1) and within 1/2 of 128 |x| 10^k, so 256 (|x| 10^k - D)
    # lies within 2 of ``excess``; 256 half an ulp of |x|, times 10^k, lies
    # within 1/16 of ``radius``.  A rounding C of D reads back as x when
    # 256 |C - |x| 10^k| is below that radius and not when it is above: so C
    # is kept when 256 (C - D) lies within ``inner`` = radius - 2 - 1/16 of
    # ``excess``, dropped beyond ``inner`` + 5 and otherwise sends x to
    # json.dumps.
    radius = np.ldexp(_P10_256.take(k[cells]), exponent[cells] - 54)
    live = np.stack((cells, d_live, 2 * d_live + sign[cells],
                     2 * (q[cells] - (d[cells] << 7)).view(np.int64) + 1,
                     np.ceil(radius - 2.0625).astype(np.int64)))
    shortest = d.view(np.int64).copy()
    for j in range(1, 17):  # the rounding to 17 - j digits, nearest, ties to even
        if live.shape[1] <= _FEW_CELLS:
            fast[live[0]] = False
            break
        cells, d_live, twice, excess, inner = live
        unit = 10**j
        head = d_live // unit
        c = (head + (twice + (head & 1) > (2 * head + 1) * unit)) * unit
        over = np.abs(256 * (c - d_live) - excess) - inner
        shortest[cells[over.view(np.uint64) <= 5]] = 0
        keep = np.flatnonzero(over < 0)
        live = live.take(keep, axis=1)
        shortest[live[0]] = c.take(keep)
    fast &= (shortest >= 10**16) & (shortest < 10**17)
    return fast, shortest, k


def _write_line(stream: io.TextIOBase, head: str, n_cells: int,
                cells: Callable[[int, int], str], tail: str) -> None:
    # ``head``, the text ``cells(lo, hi)`` of each slice of the n_cells cells
    # and ``tail``; a line of at most _CHUNK_CELLS cells is one write.
    for lo in range(0, max(n_cells, 1), _CHUNK_CELLS):
        hi = min(lo + _CHUNK_CELLS, n_cells)
        stream.write((head if lo == 0 else "") + cells(lo, hi) + (tail if hi == n_cells else ""))


def write_csv_row(stream: io.TextIOBase, head: str, values: np.ndarray) -> None:
    """Write ``head``, ``",%.17g" % v`` per float64 v of ``values`` and a newline."""
    _write_line(stream, head, len(values), lambda lo, hi: _csv_cells(values[lo:hi]), "\n")


def trajectory_to_csv(traj: Trajectory, stream: io.TextIOBase) -> None:
    """Write `t,<flat-index columns>` rows of `%.17g` cells by ``write_csv_row``."""
    n_cells = traj.space.total_states
    _write_line(stream, "t", n_cells, lambda lo, hi: ",%d" * (hi - lo) % tuple(range(lo, hi)), "\n")
    for t, w in zip(traj.times, traj.weights):
        write_csv_row(stream, "%.17g" % t, w)


def _write_json_array(stream: io.TextIOBase, values: np.ndarray) -> None:
    # ``json.dumps(values.tolist())``, compact, of a float64 vector.  Every
    # cell's text starts with a comma, and the bracket takes the first one's.
    _write_line(stream, "[", len(values),
                lambda lo, hi: _json_cells(values[lo:hi])[1 if lo == 0 else 0:], "]")


def _write_json_stack(stream: io.TextIOBase, rows: np.ndarray) -> None:
    # The list of the row lists of a (T, S) stack.  Rows of at most half a
    # slice share the kernel, as many as fill a slice, and their text is
    # split at the commas; a longer row is written on its own.
    n_rows, n_cols = rows.shape
    group = _CHUNK_CELLS // n_cols if 0 < n_cols <= _CHUNK_CELLS // 2 else 1
    stream.write("[")
    for lo in range(0, n_rows, group):
        if lo:
            stream.write(",")
        if group == 1:
            _write_json_array(stream, rows[lo])
        else:
            cells = _json_cells(rows[lo:lo + group].ravel()).split(",")
            stream.write(",".join("[" + ",".join(cells[i:i + n_cols]) + "]"
                                  for i in range(1, len(cells), n_cols)))
    stream.write("]")


def write_json(stream: io.TextIOBase, fields: dict) -> None:
    """Write ``json.dumps(fields, sort_keys=True, separators=(",", ":"))`` and a
    newline, where a float64 vector or (T, S) stack stands for its
    ``tolist()`` and is written a slice of cells at a time.
    """
    for n, key in enumerate(sorted(fields)):
        stream.write(("," if n else "{") + json.dumps(key) + ":")
        value = fields[key]
        if not isinstance(value, np.ndarray):
            stream.write(json.dumps(value, separators=(",", ":")))
        elif value.ndim == 1:
            _write_json_array(stream, value)
        else:
            _write_json_stack(stream, value)
    stream.write("}\n")


def trajectory_to_json(traj: Trajectory, stream: io.TextIOBase) -> None:
    """Write a trajectory as compact JSON with sorted keys, by ``write_json``.

    The bytes are those of ``json.dumps({"times": [float(t) for t in
    traj.times], "states": traj.weights.tolist()}, sort_keys=True,
    separators=(",", ":"))`` plus a newline, but the text of at most one
    slice of cells exists at a time.
    """
    write_json(stream, {"states": traj.weights, "times": np.array(traj.times, np.float64)})
