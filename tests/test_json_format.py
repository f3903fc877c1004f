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
from test_csv_format import (FAST, OUTSIDE, decade_neighbours, dyadic_ties, outside_values,
                             ties_past_a_double_power_of_ten, wholes_past_a_double_power_of_ten)


def written(values):
    buf = io.StringIO()
    write_json(buf, {"x": np.array(values, dtype=np.float64)})
    return buf.getvalue()


def expected(values):
    return json.dumps({"x": [float(v) for v in values]}, separators=(",", ":")) + "\n"


def assert_cells_match(values):
    # Cell by cell, so a failure names the value; the kernel's text too, as
    # a vector of fewer than _FEW_CELLS cells is written without it.
    got = written(values)
    assert got.startswith('{"x":[') and got.endswith("]}\n")
    for v, cell in zip(values, got[6:-3].split(",")):
        assert cell == json.dumps(v), (v, cell)
    assert got == expected(values)
    kernel = writers._json_cells(np.array(values, dtype=np.float64))
    for v, cell in zip(values, kernel.split(",")[1:]):
        assert cell == json.dumps(v), (v, cell)
    assert kernel == "".join("," + json.dumps(v) for v in values)


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


def test_exact_ties_past_a_double_power_of_ten(monkeypatch):
    # Both the ties and the wholes, whose sign the doubt band hides, reach
    # json's encoder.
    values = ties_past_a_double_power_of_ten() + wholes_past_a_double_power_of_ten()
    encoded = []

    def counting(cells):
        encoded.extend(cells.tolist())
        return dumps(cells)

    dumps = writers._json_dumps_cells
    monkeypatch.setattr(writers, "_json_dumps_cells", counting)
    assert_cells_match(values + [-v for v in values])
    assert set(values) <= set(encoded)


def test_a_wider_doubt_band_moves_no_byte(monkeypatch):
    # A band of 1/20 at every k sends cells near a tie, near an integer and
    # with a distance near half an ulp to json's encoder, and every cell
    # still reads as json.dumps writes it.
    monkeypatch.setattr(writers, "_BAND", np.full(28, 0.05))
    values = 10.0 ** np.random.default_rng(13).uniform(-11.0, 0.0, writers._CHUNK_CELLS)
    assert_cells_match(values.tolist())


@pytest.mark.parametrize("width", [len(OUTSIDE), writers._CHUNK_CELLS + 1])
def test_cells_outside_the_kernel_range_take_json_dumps(monkeypatch, width):
    # The cells outside [1e-11, 1) reach json's encoder, in a vector the
    # kernel writes and in the kernel's own text.  Near the end of the
    # shortening a few more cells may go there too.
    values = outside_values(width)
    encoded = []

    def counting(cells):
        encoded.extend(cells.tolist())
        return dumps(cells)

    dumps = writers._json_dumps_cells
    monkeypatch.setattr(writers, "_json_dumps_cells", counting)
    assert written(values) == expected(values)
    assert writers._json_cells(np.array(values)) == "".join("," + json.dumps(v) for v in values)
    assert {repr(v) for v in values if not 1e-11 <= abs(v) < 1.0} <= {repr(v) for v in encoded}


def test_short_vectors_skip_the_kernel(monkeypatch):
    # A trajectory's few times cost less in json.dumps than in the kernel.
    calls = []

    def counting(cells):
        calls.append(cells.size)
        return kernel(cells)

    kernel = writers._json_cells
    monkeypatch.setattr(writers, "_json_cells", counting)
    short = np.linspace(0.0, 1.0, writers._FEW_CELLS - 1)
    assert written(short) == expected(short) and calls == []
    longer = np.linspace(0.0, 1.0, writers._FEW_CELLS)
    assert written(longer) == expected(longer) and calls == [writers._FEW_CELLS]


def test_kernel_range_cells_take_the_fast_path(monkeypatch):
    # Only cells the kernel cannot prove reach json's encoder: powers of two,
    # distances within the doubt band of half an ulp (k > 22) and the last
    # few cells still being shortened, under 1 % of weights in [1e-11, 1)
    # (0 of these 2,048).  A kernel that proves none still writes the same
    # bytes, so this counts them.
    slow = []

    def counting(cells):
        slow.append(cells.size)
        return dumps(cells)

    dumps = writers._json_dumps_cells
    values = 10.0 ** np.random.default_rng(11).uniform(-11.0, 0.0, writers._CHUNK_CELLS)
    monkeypatch.setattr(writers, "_json_dumps_cells", counting)
    assert written(values) == expected(values)
    assert len(slow) <= 1 and sum(slow) <= 0.05 * values.size, slow
