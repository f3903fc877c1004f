"""JSON cells: ``writers.write_json`` writes the bytes of ``json.dumps``."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recombdyn import writers
from recombdyn.writers import write_json
from test_csv_format import FAST, decade_neighbours, dyadic_ties


def written(values):
    buf = io.StringIO()
    write_json(buf, {"x": np.array(values, dtype=np.float64)})
    return buf.getvalue()


def expected(values):
    return json.dumps({"x": [float(v) for v in values]}, separators=(",", ":")) + "\n"


def assert_cells_match(values):
    # Cell by cell, so a failure names the value.
    got = written(values)
    assert got.startswith('{"x":[') and got.endswith("]}\n")
    for v, cell in zip(values, got[6:-3].split(",")):
        assert cell == json.dumps(v), (v, cell)
    assert got == expected(values)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(), FAST), min_size=1, max_size=32))
def test_cells_are_json_dumps_for_any_float(values):
    assert_cells_match(values)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(FAST, min_size=1, max_size=32))
def test_cells_are_repr_in_the_kernel_range(values):
    assert_cells_match(values)


def short_decimals():
    # Weights with 1 to 16 significant digits: the kernel shortens D down to
    # them, through every rounding length.
    rng = np.random.default_rng(5)
    return [float("%.*e" % (digits, 10.0**u))
            for digits, u in zip(rng.integers(0, 16, 400).tolist(), rng.uniform(-11.0, 0.0, 400))]


def test_decade_edges_ties_powers_of_two_and_specials():
    # Powers of two read back from a narrower interval below them than above.
    powers = [2.0**-e for e in range(1, 37)]
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 5e-324, 1e300]
    values = decade_neighbours() + [10.0**-k for k in range(1, 13)] + dyadic_ties()
    values += powers + specials + short_decimals()
    assert_cells_match(values + [-v for v in values])


def test_shortest_rounding_ties_go_to_even():
    # m / 2^17 with m odd has exactly 17 digits ending in 5 in decade -1, and
    # both 16-digit neighbours read back: repr takes the even one, above or
    # below.
    assert json.dumps(99999 / 2**17) == "0.7629318237304688"  # ...046875
    assert json.dumps(100001 / 2**17) == "0.7629470825195312"  # ...953125
    values = [m / 2**17 for m in range(13109, 131072, 2)][::97]
    assert_cells_match(values + [99999 / 2**17, 100001 / 2**17])


def test_wide_rows_and_stacks_are_json_dumps():
    # Rows longer than a slice, stacks whose rows share the kernel (and the
    # split of its text), and empty ones.
    rng = np.random.default_rng(9)
    for rows, cols in ((3, 2 * writers._CHUNK_CELLS + 3), (40, 7), (5, 1024), (2, 1025),
                       (1, 1), (0, 4), (3, 0)):
        stack = rng.dirichlet(np.ones(max(cols, 1)), rows)[:, :cols]
        buf = io.StringIO()
        sums = stack.sum(axis=1)
        write_json(buf, {"b": stack, "a": [rows, cols], "t": sums})
        assert buf.getvalue() == json.dumps(
            {"b": stack.tolist(), "a": [rows, cols], "t": sums.tolist()},
            sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("width", [6, writers._CHUNK_CELLS + 1])
def test_cells_without_long_double_are_all_json_dumps(monkeypatch, width):
    # As on platforms whose long double is a double: every cell takes the
    # json encoder.
    rng = np.random.default_rng(7)
    values = (rng.random(width) * 10.0 ** rng.integers(-14, 2, width)).tolist()
    values[:6] = [0.0, -0.0, 5e-324, float("nan"), float("inf"), 1e300]
    encoded = []

    def counting(cells):
        encoded.append(cells.size)
        return dumps(cells)

    dumps = writers._json_dumps_cells
    monkeypatch.setattr(writers, "_LONG_DOUBLE", False)
    monkeypatch.setattr(writers, "_json_dumps_cells", counting)
    assert written(values) == expected(values)
    assert sum(encoded) == width


def test_kernel_range_cells_take_the_fast_path(monkeypatch):
    # Only cells the kernel cannot prove reach json's encoder: powers of two,
    # near-ties and near-integers of weights below ~1e-6, and distances too
    # close to half an ulp, ~2-3 % of weights in [1e-11, 1).  A kernel that
    # proves none still writes the same bytes, so this counts them.
    slow = []

    def counting(cells):
        slow.append(cells.size)
        return dumps(cells)

    dumps = writers._json_dumps_cells
    values = 10.0 ** np.random.default_rng(11).uniform(-11.0, 0.0, writers._CHUNK_CELLS)
    monkeypatch.setattr(writers, "_json_dumps_cells", counting)
    assert written(values) == expected(values)
    assert len(slow) == 1 and slow[0] <= 0.05 * values.size, slow
