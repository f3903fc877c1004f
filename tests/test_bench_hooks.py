"""The package names that the benchmark's tracer wraps still exist.

``perfbench/tracer.py`` wraps functions by module and name, and skips a name
the package no longer has, so a rename would silently read 0 in its
per-layer metrics; ``cli.write.bytes`` reads the size of the path passed as
``cli._write_trajectory``'s second argument, and ``dynamics.field`` wraps the
first argument of ``dynamics._rk4_run``.  These tests read the tracer's
tables and change nothing under ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from recombdyn import cli, dynamics
from recombdyn.cli import EXIT_OK, main
from recombdyn.dynamics import RateMap
from recombdyn.measure import ProductSpace, random_probability

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Targets of the tracer's tables that the package no longer had when this
# guard was written; their metrics read 0.
ABSENT = {
    ("dynamics", "crossover_solution"),
    ("dynamics", "semigroup_apply"),
    ("dynamics", "moebius_transform"),
    ("dynamics", "coefficient_b"),
    ("dynamics", "trajectory_to_csv_string"),
    ("dynamics", "trajectory_to_json_dict"),
    ("generalized", "generalized_flow_apply"),
}

# What ``instrument`` and ``blocks_cache_info`` wrap or read by name besides
# the tables.
HOOKS = [("dynamics", "_rk4_run"), ("cli", "_cmd_run"), ("cli", "main"),
         ("verify", "_SUITES"), ("lattice", "_cached_blocks")]


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_the_package_had_still_exists(tracer):
    targets = [(mod, fn) for mod, fn, *_ in tracer._LAYERS + tracer._COUNTED]
    assert ABSENT <= set(targets)
    missing = [(mod, fn) for mod, fn in targets + HOOKS if (mod, fn) not in ABSENT
               and not hasattr(importlib.import_module(f"recombdyn.{mod}"), fn)]
    assert missing == []
    assert hasattr(importlib.import_module("recombdyn.lattice")._cached_blocks, "cache_info")


def test_write_trajectory_takes_the_artifact_path_second(tracer, tmp_path, monkeypatch):
    assert list(inspect.signature(cli._write_trajectory).parameters)[1] == "out_path"
    written = []
    write = cli._write_trajectory

    def recording(*args):
        write(*args)
        written.append(tracer._written_bytes(args, None)["write.bytes"])

    monkeypatch.setattr(cli, "_write_trajectory", recording)
    config, out = tmp_path / "s.json", tmp_path / "o.csv"
    config.write_text(json.dumps({
        "sizes": [2, 3], "initial": {"kind": "random", "seed": 1},
        "rates": {"kind": "crossover", "per_link": [0.5]},
        "time": {"t_end": 0.2, "stride": 10}, "solver": "closed-form", "rk4_step": 0.01}))
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert written == [out.stat().st_size] and written[0] > 0


def test_rk4_run_takes_the_field_first():
    # The tracer wraps this argument as the ``dynamics.field`` span; a
    # reordered signature would time something else under that name.
    assert list(inspect.signature(dynamics._rk4_run).parameters)[0] == "field"


def test_traced_rk4_steps_take_four_field_evaluations_each(tracer):
    # Problems that leave the stacked run early, with and without a
    # shortened last step, step under fields the tracer still sees.
    space = ProductSpace((2, 3, 2))
    rates = RateMap.crossover([0.7, 1.2])
    problems = [(random_probability(space, seed), rates, t_end, 1)
                for seed, t_end in enumerate((0.5, 0.25, 0.2, 0.05))]
    rec = tracer.Recorder()
    with tracer.instrument(rec):
        dynamics.rk4_integrate_many(problems, 0.1)
    names = np.array(rec.names)[rec.spans()["names"]]
    assert rec.counts()["rk4.steps"] == 5 + 1 + 1
    assert (names == "dynamics.field").sum() == 4 * 7
