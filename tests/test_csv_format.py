"""CSV cells: ``write_csv_row`` writes the bytes of ``",%.17g" % v`` per cell."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recombdyn import writers
from recombdyn.writers import write_csv_row

# The kernel's range, |x| = 10^u for u uniform in [-12, 0], with either sign.
FAST = st.builds(lambda neg, u: (-1.0) ** neg * 10.0**u, st.booleans(), st.floats(-12.0, 0.0))


def written(values):
    buf = io.StringIO()
    write_csv_row(buf, "t", np.array(values, dtype=np.float64))
    return buf.getvalue()


def expected(values):
    return "t" + "".join(",%.17g" % v for v in values) + "\n"


def assert_cells_match(values):
    # Cell by cell, so a failure names the value.
    got = written(values)
    assert got.endswith("\n")
    for v, cell in zip(values, got[:-1].split(",")[1:]):
        assert cell == "%.17g" % v, (v, cell)
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


@pytest.mark.parametrize("width", [6, writers._CHUNK_CELLS + 1])
def test_cells_without_long_double_are_all_percent(monkeypatch, width):
    # As on platforms whose long double is a double: every cell takes `%`.
    rng = np.random.default_rng(7)
    values = (rng.random(width) * 10.0 ** rng.integers(-14, 2, width)).tolist()
    values[:6] = [0.0, -0.0, 5e-324, float("nan"), float("inf"), 1e300]
    monkeypatch.setattr(writers, "_LONG_DOUBLE", False)
    assert written(values) == expected(values)


def test_kernel_range_cells_take_the_fast_path(monkeypatch):
    # Only cells the kernel cannot prove go through `%`: near a rounding tie
    # it decides exactly while 10^k is a double (k <= 22), so what is left
    # are the near-ties of weights below ~1e-6, ~0.8 % of weights in
    # [1e-11, 1).  A kernel that proves none still writes the same bytes, so
    # this counts the cells handed to `%`.
    slow = []

    def counting(values):
        slow.append(values.size)
        return percent(values)

    percent = writers._percent_cells
    values = 10.0 ** np.random.default_rng(11).uniform(-11.0, 0.0, writers._CHUNK_CELLS)
    monkeypatch.setattr(writers, "_percent_cells", counting)
    assert written(values) == expected(values)
    assert len(slow) == 1 and slow[0] <= 0.01 * values.size, slow


def test_near_ties_of_exact_decades_need_no_percent(monkeypatch):
    # Weights of 1e-6 and above hold every near-tie the kernel decides
    # exactly: none of them reaches `%`.
    monkeypatch.setattr(writers, "_percent_cells", lambda values: pytest.fail(values.tolist()))
    values = 10.0 ** np.random.default_rng(12).uniform(-6.0, 0.0, 4 * writers._CHUNK_CELLS)
    assert written(values) == expected(values)
