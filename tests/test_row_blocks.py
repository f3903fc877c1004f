"""The writers' bytes do not depend on how a stack is split into row blocks.

A stack written as one block and as consecutive row blocks, split in many
ways, gives the same bytes through every writer that takes blocks: one-row
blocks, uneven splits, and splits whose edges fall inside a group of short
rows that share one call of the cell kernel.
"""

import io
import json

import numpy as np
import pytest

from recombdyn import writers
from recombdyn.writers import trajectory_to_csv, trajectory_to_json, write_csv_rows

# Rows per width: enough for several groups of short rows, or a few wide rows.
WIDTHS = {7: 700, 1024: 9, 1025: 4, 2048: 3, 2049: 3}


def stack(n_rows, width, seed):
    # Weights of both signs across the kernel's range and past its ends,
    # with zeros.
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], (n_rows, width)) * 10.0 ** rng.uniform(-13, 0.5, (n_rows, width))
    values[rng.random((n_rows, width)) < 0.02] = 0.0
    return values


def splits(n_rows, width, rng):
    # Row counts of consecutive blocks.
    group = writers._CHUNK_CELLS // width if width <= writers._CHUNK_CELLS // 2 else 1
    yield [1] * n_rows
    for _ in range(3):
        n_cuts = rng.integers(1, min(n_rows, 8))
        cuts = np.sort(rng.choice(np.arange(1, n_rows), n_cuts, replace=False))
        yield np.diff([0, *cuts, n_rows]).tolist()
    # Edges one row inside and one past each group of short rows.
    for shift in (-1, 1):
        edges = [g + shift for g in range(group, n_rows, group) if 0 < g + shift < n_rows]
        yield np.diff([0, *edges, n_rows]).tolist()


WRITERS = ["trajectory_to_csv", "trajectory_to_json", "write_csv_rows"]


def written(writer, times, blocks, width):
    buf = io.StringIO()
    if writer == "trajectory_to_csv":
        trajectory_to_csv(buf, times, blocks, width)
    elif writer == "trajectory_to_json":
        trajectory_to_json(buf, times, blocks)
    else:
        write_csv_rows(buf, times, blocks)
    return buf.getvalue()


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_any_split_into_row_blocks_writes_the_one_block_bytes(writer, width):
    n_rows = WIDTHS[width]
    rows = stack(n_rows, width, width)
    times = [k / 7 for k in range(n_rows)]
    whole = written(writer, times, [rows], width)
    if writer == "trajectory_to_json":
        assert whole == json.dumps({"times": times, "states": rows.tolist()},
                                   sort_keys=True, separators=(",", ":")) + "\n"
    rng = np.random.default_rng(width + 1)
    for counts in splits(n_rows, width, rng):
        assert sum(counts) == n_rows and min(counts) > 0
        edges = np.cumsum([0, *counts])
        blocks = (rows[lo:hi] for lo, hi in zip(edges, edges[1:]))
        assert written(writer, times, blocks, width) == whole, counts
