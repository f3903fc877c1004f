"""Byte identity of the writers and reports, pinned by sha256 digests.

The digests were recorded from the writers as they stood before the JSON
cells left ``repr`` and the CSV near-ties left `%`; every later change to the
text kernels must keep them.  The digests of `run` artifacts were recorded
while `run` still held the whole grid stack before writing it, so they pin
that the written bytes do not depend on how the rows are computed or
grouped.
"""

import hashlib
import io
import json
import math

import numpy as np
import pytest

from recombdyn.cli import EXIT_OK, main
from recombdyn.dynamics import Trajectory
from recombdyn.measure import ProductSpace
from recombdyn.writers import trajectory_to_csv, trajectory_to_json


def cells(n, seed):
    # Kernel-range weights of both signs, ties, decade edges, powers of two
    # and cells outside the kernel's range, shuffled into n cells.
    rng = np.random.default_rng(seed)
    ties = [m / 2**17 for m in range(13109, 131072, 2)][::151]
    edges = [float(np.nextafter(10.0**-k, to)) for k in range(1, 13) for to in (0.0, 1.0)]
    edges += [10.0**-k for k in range(1, 13)] + [2.0**-e for e in range(1, 40)]
    odd = [0.0, -0.0, 1.0, -1.0, 1.5, 1e16, 1e17, 5e-324, 1e-300, math.inf, -math.inf, math.nan]
    short = [float("%.*e" % (d, 10.0**u))
             for d, u in zip(rng.integers(0, 16, 60).tolist(), rng.uniform(-11, 0, 60))]
    fixed = np.array(ties + edges + odd + short)
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 0.3, n)
    values[:fixed.size] = fixed[:n]
    return rng.permutation(values)


def trajectory(n_rows, n_cells, seed):
    times = tuple(k / 7 for k in range(n_rows))
    stack = np.array([cells(n_cells, seed + row) for row in range(n_rows)])
    return Trajectory(ProductSpace((n_cells,)), times, stack)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (rows, cells): rows wider than a slice of 2,048 cells, the slice width when
# these digests were recorded; rows wider than two slices of 3,072 cells,
# recorded with the text writers of 2,048-cell slices; and narrow rows that
# the writers format several at a time.
SHAPES = {"wide": (3, 2500, 1), "wider": (2, 7000, 21), "narrow": (7, 300, 11)}

WRITTEN = {
    ("wide", "csv"):
        "0de085a18da7c287eab1eb20075e939715dbc6cc4bb44fecee1c493770d352ec",
    ("wide", "json"):
        "00783ac3588c9cab09d5371f306e019b4b0488f48df4b1a2217a51449f21b99e",
    ("wider", "csv"):
        "e19be9f13003317cb75004780864d77f291640b82ce7c4d2a6b67184b2b5c330",
    ("wider", "json"):
        "b884a78c76ff91a84b7aab6951e51845a5f3093405d58235ee11aa6ebc313f68",
    ("narrow", "csv"):
        "caeab0fe7a9037dea2112a67d0d28cb9b6dc4bcb1551bbf10289233c0822b54b",
    ("narrow", "json"):
        "c70e29838c0e4329b850fc679ffa96d1c6d193552c30f48bd42979d7de748872",
}


@pytest.mark.parametrize("shape,fmt", sorted(WRITTEN))
def test_trajectory_bytes_are_golden(shape, fmt):
    buf = io.BytesIO()
    traj = trajectory(*SHAPES[shape])
    if fmt == "csv":
        trajectory_to_csv(buf, traj.times, [traj.weights], traj.space.total_states)
    else:
        trajectory_to_json(buf, traj.times, [traj.weights])
    assert digest(buf.getvalue()) == WRITTEN[shape, fmt]


COEFFICIENTS = ["coefficients", "--rates", "0.7,1.3,0.25,2.1,0.9", "--t-end", "2",
                "--t-step", "0.125", "--format"]

# Scenario files of the `run` commands, written to the working directory.
# "blocks": 4^6 states x 40 times, three row blocks of 16, 16 and 8 rows;
# "cyclic": 6 x 4^5 states x 11 times, row blocks of 10 and 1 rows, block-0
# cycles of lengths 3, 2 and 1; "both": 4^6 states x 40 times under both
# solvers; "narrow": 300 states x 251 times, row blocks of 218 and 33 rows,
# written six rows to a slice of cells, so one group of six straddles the
# blocks.
SCENARIOS = {
    "blocks": {"sizes": [4] * 6, "initial": {"kind": "random", "seed": 5},
               "rates": {"kind": "crossover", "per_link": [0.9, 0.4, 1.2, 0.7, 1.1]},
               "time": {"t_end": 0.39, "stride": 1}, "solver": "closed-form",
               "rk4_step": 0.01},
    "cyclic": {"sizes": [6, 4, 4, 4, 4, 4], "initial": {"kind": "random", "seed": 6},
               "rates": {"kind": "cyclic", "links": [0, 2], "permutation": [1, 2, 0, 4, 3, 5],
                         "rate": 1.3},
               "time": {"t_end": 1.0, "stride": 1}, "solver": "closed-form", "rk4_step": 0.1},
    "both": {"sizes": [4] * 6, "initial": {"kind": "random", "seed": 7},
             "rates": {"kind": "disjoint-stretch",
                       "entries": [{"links": [0], "rate": 0.8}, {"links": [2, 3], "rate": 1.1}]},
             "time": {"t_end": 0.39, "stride": 1}, "solver": "both", "rk4_step": 0.01},
    "narrow": {"sizes": [3, 4, 5, 5], "initial": {"kind": "random", "seed": 8},
               "rates": {"kind": "crossover", "per_link": [0.5, 1.3, 0.8]},
               "time": {"t_end": 2.5, "stride": 1}, "solver": "closed-form", "rk4_step": 0.01},
}


@pytest.fixture(autouse=True)
def scenario_files(tmp_path, monkeypatch):
    for name, doc in SCENARIOS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)


def run(name, fmt):
    return ["run", "--config", f"{name}.json", "--format", fmt]


COMMANDS = {
    "run-blocks.csv": (run("blocks", "csv"),
                      "74f1fe31a25c4b8f79ef16f1f1236bfeebb8339ac91d74c99b224a2e364556d2"),
    "run-blocks.json": (run("blocks", "json"),
                       "b57d351f76613d0b4587114009e88bf6e81baabbdb6be6fe215a088e86fd9e31"),
    "run-cyclic.csv": (run("cyclic", "csv"),
                      "f854f2246f1bc10656e0c8bf8960bea9639408278e2657a2638c4687be51ddbe"),
    "run-both.csv": (run("both", "csv"),
                    "92c757bb48e2f6fecb7733ff0744e4b5d5682eed4bf8d13d7b4f5330cee0cda8"),
    "run-narrow.csv": (run("narrow", "csv"),
                      "392dce625742fb4c14cd08c7c41e0dc5c4f68dff897a69943fa50fda1a0820e5"),
    "run-narrow.json": (run("narrow", "json"),
                       "cf9f38edd5a7690df9977963cc9d49e8fc8f4fcfd6d67eecf693e38b211be3fd"),
    "coefficients.csv": (COEFFICIENTS + ["csv"],
                         "fa1db41dfc6c7d2e3528b89e0b7089efb46d35edfc73f14eee61bfb4d4285543"),
    "coefficients.json": (COEFFICIENTS + ["json"],
                          "5237d6175c7b21016e1eb91ded4ae0b3ea5ff0db1551ef28c367f69d35768da9"),
    "verify-generalized.json": (["verify", "--suite", "generalized", "--seed", "3"],
                                "b0c5cdc78e9402646e248fca6cdcf3ed134a552ec25a6a544eb969c91dc8a423"),
    "verify-moebius.json": (["verify", "--suite", "moebius", "--seed", "3"],
                            "da14ceb0fddb289e1542c53250d6097de4fa6010fc91a880049bb265ed732be2"),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_bytes_are_golden(tmp_path, name):
    argv, expected = COMMANDS[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert digest(out.read_bytes()) == expected


# The report of COMMANDS' `both` run.
BOTH_REPORT = "258ebbdf3764f4954fe1d1e015dc79e1f6d89795e080ca3e26890820d8898c84"


def test_both_report_bytes_are_golden(tmp_path):
    out = tmp_path / "run-both.csv"
    assert main(run("both", "csv") + ["--out", str(out)]) == EXIT_OK
    assert digest((tmp_path / "run-both.csv.report.json").read_bytes()) == BOTH_REPORT
