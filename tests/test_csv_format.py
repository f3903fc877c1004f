"""CSV cells: ``write_csv_rows`` writes the bytes of ``",%.17g" % v`` per cell."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recombdyn import writers
from recombdyn.dynamics import Trajectory
from recombdyn.measure import ProductSpace
from recombdyn.writers import trajectory_to_csv, write_csv_rows

# The kernel's range, |x| = 10^u for u uniform in [-12, 0], with either sign.
FAST = st.builds(lambda neg, u: (-1.0) ** neg * 10.0**u, st.booleans(), st.floats(-12.0, 0.0))


def written(values):
    buf = io.BytesIO()
    write_csv_rows(buf, [0.0], [np.array([values], dtype=np.float64)])
    return buf.getvalue()


def expected(values):
    return ("0" + "".join(",%.17g" % v for v in values) + "\n").encode()


def assert_cells_match(values):
    # Cell by cell, so a failure names the value.
    got = written(values)
    assert got.endswith(b"\n")
    for v, cell in zip(values, got[:-1].split(b",")[1:]):
        assert cell == b"%.17g" % v, (v, cell)
    assert got == expected(values)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(), FAST), min_size=1, max_size=32))
def test_cells_are_percent_17g_for_any_float(values):
    assert_cells_match(values)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(FAST, min_size=1, max_size=32))
def test_cells_are_percent_17g_in_the_kernel_range(values):
    assert_cells_match(values)


def decade_neighbours():
    # Both doubles next to each 10^-k: the kernel must take the decade from
    # the rounded digits, so 9.9999999999999991e-05 is not written in the
    # fixed notation of 1e-4.
    return [float(np.nextafter(10.0**-k, to)) for k in range(1, 13) for to in (0.0, 1.0)]


def dyadic_ties():
    # m / 2^(17 - X) with m odd has 18 significant digits ending in 5 in
    # decade X: an exact tie at 17 digits, which `%` rounds to even.  Decades
    # below -8 hold no such m.
    ties = []
    for x in range(-8, 0):
        j = 17 - x
        odd = range(math.ceil(10.0**x * 2**j) | 1, math.ceil(10.0 ** (x + 1) * 2**j), 2)
        for tie in (m / 2**j for m in (*odd[:2], *odd[-2:])):
            assert 10.0**x <= tie < 10.0 ** (x + 1)
            assert Fraction(tie) * 10 ** (16 - x) % 1 == Fraction(1, 2)
            ties.append(tie)
    return ties


def test_decade_edges_ties_and_signs():
    # The exact value of 1e153 is below 10^153, but its 17-digit rounding
    # carries into the next decade.  No double next to 10^-1 .. 10^-12 does.
    assert Fraction(1e153) < 10**153 and "%.17g" % 1e153 == "1e+153"
    ties = dyadic_ties()
    negatives = (-(10.0 ** np.linspace(-9, 0, 40))).tolist()
    values = decade_neighbours() + ties + [1e153, -1e153, 1.0, -1.0] + negatives
    assert_cells_match(values)


# Cells the kernel leaves to Python's formatting: zeros, a subnormal, non-finite
# values and |x| >= 1.
OUTSIDE = [0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 1e300]


def outside_values(width):
    # OUTSIDE first, then random weights across the kernel's range and past
    # both of its ends.
    rng = np.random.default_rng(7)
    values = (rng.random(width) * 10.0 ** rng.integers(-14, 2, width)).tolist()
    values[:len(OUTSIDE)] = OUTSIDE
    return values[:width]


# 2,049 cells spanned two slices of the first slice width, 2,048.
@pytest.mark.parametrize("width", sorted({len(OUTSIDE), 2049, writers._CHUNK_CELLS + 1}))
def test_cells_outside_the_kernel_range_take_percent(monkeypatch, width):
    # Exactly the cells outside [1e-11, 1) reach `%`, in order, in a short
    # row, in one wider than half a slice and in one that spans two slices.
    values = outside_values(width)
    slow = []

    def counting(cells):
        slow.extend(cells.tolist())
        return percent(cells)

    percent = writers._percent_cells
    monkeypatch.setattr(writers, "_percent_cells", counting)
    assert written(values) == expected(values)
    assert [repr(v) for v in slow] == [repr(v) for v in values if not 1e-11 <= abs(v) < 1.0]


def test_kernel_range_cells_take_the_fast_path(monkeypatch):
    # No cell of [1e-11, 1) reaches `%`: the float64 digit stage decides
    # every rounding tie exactly while 10^k is a double (k <= 22), and past
    # that leaves only remainders within 2^-46 of a tie, which random
    # weights do not hit.  A kernel that proves none still writes the same
    # bytes, so this counts the cells handed to `%`.
    slow = []

    def counting(values):
        slow.append(values.size)
        return percent(values)

    percent = writers._percent_cells
    values = 10.0 ** np.random.default_rng(11).uniform(-11.0, 0.0, writers._CHUNK_CELLS)
    monkeypatch.setattr(writers, "_percent_cells", counting)
    assert written(values) == expected(values)
    assert slow == []


def test_near_ties_of_exact_decades_need_no_percent(monkeypatch):
    # Weights across the whole kernel range, near-ties included: none of
    # them reaches `%`.
    monkeypatch.setattr(writers, "_percent_cells", lambda values: pytest.fail(values.tolist()))
    values = 10.0 ** np.random.default_rng(12).uniform(-11.0, 0.0, 4 * writers._CHUNK_CELLS)
    assert written(values) == expected(values)


def ties_past_a_double_power_of_ten():
    # Every exact tie at 17 digits with k = 16 - X > 22, where 10^k is no
    # double: m / 2^(k + 1) with m odd in decades -7 and -8, 3 / 2^24 the
    # first.  The digit stage cannot tell them from their neighbours within
    # the doubt band.
    ties = [m / 2**24 for m in range(3, 17, 2)] + [1 / 2**25, 3 / 2**25]
    for tie in ties:
        k = 16 - math.floor(math.log10(tie))
        assert k > 22 and Fraction(tie) * 10**k % 1 == Fraction(1, 2)
    return ties


def wholes_past_a_double_power_of_ten():
    # Every x with k > 22 whose |x| 10^k is an integer: its remainder 0 lies
    # in the doubt band of the sign that JSON needs, not of the rounding.
    wholes = [m / 2**23 for m in range(1, 9)] + [1 / 2**24]
    for whole in wholes:
        k = 16 - math.floor(math.log10(whole))
        assert k > 22 and Fraction(whole) * 10**k % 1 == 0
    return wholes


def test_exact_ties_past_a_double_power_of_ten(monkeypatch):
    # The ties reach `%` and the wholes do not, nor any exact tie with
    # k <= 22, which the digit stage decides exactly.
    ties, wholes = ties_past_a_double_power_of_ten(), wholes_past_a_double_power_of_ten()
    slow = []

    def counting(cells):
        slow.extend(cells.tolist())
        return percent(cells)

    percent = writers._percent_cells
    monkeypatch.setattr(writers, "_percent_cells", counting)
    assert_cells_match(ties + wholes + [-v for v in ties + wholes])
    assert slow == ties + [-v for v in ties]
    slow.clear()
    assert_cells_match(dyadic_ties())
    assert slow == [tie for tie in dyadic_ties() if tie < 1e-6]


def test_a_wider_doubt_band_moves_no_byte(monkeypatch):
    # A band of 1/4 at every k sends about half of all cells to `%`, and
    # every cell still reads as `%` writes it.
    monkeypatch.setattr(writers, "_BAND", np.full(28, 0.25))
    slow = []

    def counting(cells):
        slow.append(cells.size)
        return percent(cells)

    percent = writers._percent_cells
    monkeypatch.setattr(writers, "_percent_cells", counting)
    values = 10.0 ** np.random.default_rng(13).uniform(-11.0, 0.0, writers._CHUNK_CELLS)
    assert_cells_match(values.tolist())
    assert 0.4 * values.size < sum(slow) < 0.6 * values.size, slow


def test_index_header_cells_are_percent_d():
    # ",%d" % i for ranges across the word boundaries of the header, built
    # from short ranges only.
    for lo, hi in ((0, 0), (0, 1), (0, 12), (9_990, 10_010), (99_999_990, 100_000_010),
                   (123_456_789_000, 123_456_789_003), (10**12 - 2, 10**12 + 2)):
        assert writers._index_cells(lo, hi) == b"".join(b",%d" % i for i in range(lo, hi)), (lo, hi)


def test_short_rows_share_one_kernel_call(monkeypatch):
    # A 12-state trajectory of 51 rows fills one slice of cells, each row
    # with its own time.
    rng = np.random.default_rng(3)
    space = ProductSpace((2, 2, 3))
    times = tuple(k / 50 for k in range(51))
    traj = Trajectory(space, times, rng.dirichlet(np.ones(12), len(times)))
    calls = []

    def counting(values):
        calls.append(values.size)
        return cells(values)

    cells = writers._csv_cells
    monkeypatch.setattr(writers, "_csv_cells", counting)
    buf = io.BytesIO()
    trajectory_to_csv(buf, traj.times, [traj.weights], traj.space.total_states)
    assert calls == [12 * 51]
    assert buf.getvalue() == b"t" + b"".join(b",%d" % i for i in range(12)) + b"\n" + b"".join(
        b"%.17g" % t + b"".join(b",%.17g" % v for v in row) + b"\n" for t, row in zip(times, traj.weights))
    # Rows of 300 cells, as many to a slice as fit in one.
    calls.clear()
    rows = rng.dirichlet(np.ones(300), 13)
    buf = io.BytesIO()
    writers.write_csv_rows(buf, times[:13], [rows])
    group = writers._CHUNK_CELLS // 300
    assert calls == [300 * min(group, 13 - lo) for lo in range(0, 13, group)]
    assert buf.getvalue() == b"".join(
        b"%.17g" % t + b"".join(b",%.17g" % v for v in row) + b"\n" for t, row in zip(times, rows))
