import ast
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from recombdyn import cli, verify
from recombdyn.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PROPERTY,
    EXIT_VALIDATION,
    main,
)
from recombdyn.dynamics import (
    RateMap,
    Trajectory,
    expansion_coefficients,
    output_grid,
    product_flow_grid,
    rk4_integrate,
)
from recombdyn.generalized import generalized_flow_grid
from recombdyn.lattice import LinkSet
from recombdyn.measure import ProductSpace, random_probability
from recombdyn.writers import trajectory_to_csv


def write_scenario(path, **overrides):
    doc = {
        "sizes": [2, 3, 2],
        "initial": {"kind": "random", "seed": 11},
        "rates": {
            "kind": "disjoint-stretch",
            "entries": [{"links": [0], "rate": 1.0}, {"links": [1], "rate": 0.5}],
        },
        "time": {"t_end": 0.5, "stride": 50},
        "solver": "both",
        "rk4_step": 0.001,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def trajectory_to_json_dict(traj):
    """The whole document that ``trajectory_to_json`` streams row by row."""
    return {
        "times": [float(t) for t in traj.times],
        "states": traj.weights.tolist(),
    }


def csv_text(traj):
    buf = io.StringIO()
    trajectory_to_csv(buf, traj.times, [traj.weights], traj.space.total_states)
    return buf.getvalue()


def cycle_permutation(*lengths):
    # Consecutive states in cycles of the given lengths, each shifted by one.
    perm, start = [], 0
    for length in lengths:
        perm += [start + (j + 1) % length for j in range(length)]
        start += length
    return perm


def test_run_both_mode_within_tolerance(tmp_path):
    config = tmp_path / "scenario.json"
    write_scenario(config)
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t," + ",".join(str(i) for i in range(12))
    report = json.loads((tmp_path / "traj.csv.report.json").read_text())
    assert report["passed"] and report["max_gap"] <= 1e-6
    # 17 significant digits round-trip exactly
    cell = lines[1].split(",")[1]
    assert float(cell) == float(f"{float(cell):.17g}")


@pytest.mark.parametrize("mass", [1.0, 1e-8])
def test_both_mode_tolerance_scales_with_the_initial_mass(tmp_path, mass):
    # RK4 at step 0.5 misses the closed form by ~2.3e-5 |omega_0|: over the
    # tolerance 1e-6 |omega_0| at any mass, so both masses fail alike.
    config = tmp_path / "coarse.json"
    write_scenario(config, sizes=[2, 2], rk4_step=0.5, time={"t_end": 2.0, "stride": 1},
                   initial={"kind": "weights", "weights": [mass * w for w in (0.1, 0.2, 0.3, 0.4)]},
                   rates={"kind": "crossover", "per_link": [1.0]})
    out = tmp_path / "coarse.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_NUMERIC
    report = json.loads((tmp_path / "coarse.csv.report.json").read_text())
    assert report["tolerance"] == 1e-6 * math.fsum(mass * w for w in (0.1, 0.2, 0.3, 0.4))
    assert not report["passed"] and 20 < report["max_gap"] / report["tolerance"] < 30


def test_both_mode_gaps_in_row_blocks_are_the_row_at_a_time_sums(tmp_path):
    # 4^6 states x 41 stored times: 16 rows a block, so the gaps span three
    # blocks.  Each gap is the sum of one row's differences taken on its own.
    rates = [0.9, 0.4, 1.2, 0.7, 1.1]
    config = tmp_path / "wide.json"
    write_scenario(config, sizes=[4] * 6, rates={"kind": "crossover", "per_link": rates},
                   time={"t_end": 0.4, "stride": 1}, rk4_step=0.01)
    out = tmp_path / "wide.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    report = json.loads((tmp_path / "wide.csv.report.json").read_text())
    space = ProductSpace((4,) * 6)
    omega0 = random_probability(space, 11)
    crossover = RateMap.crossover(rates)
    rk4 = rk4_integrate(omega0, crossover, 0.4, 0.01)
    gaps = [
        np.abs(product_flow_grid(omega0, crossover, [t])[0] - row).sum()
        for t, row in zip(rk4.times, rk4.weights)
    ]
    assert len(gaps) == 41
    assert np.array(report["gaps"]).tobytes() == np.array(gaps).tobytes()


def test_run_zero_horizon_single_row(tmp_path):
    config = tmp_path / "scenario.json"
    write_scenario(config, time={"t_end": 0.0, "stride": 1}, solver="closed-form")
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("0,")


@pytest.mark.parametrize("solver", ["closed-form", "rk4"])
def test_run_rejects_overlap_with_closed_form(tmp_path, solver):
    # A disjoint-stretch map must be one under every solver, RK4 included.
    config = tmp_path / "scenario.json"
    write_scenario(
        config,
        sizes=[2, 2, 2, 2],
        rates={
            "kind": "disjoint-stretch",
            "entries": [{"links": [0, 2], "rate": 1.0}, {"links": [1], "rate": 0.5}],
        },
        solver=solver,
    )
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "x.csv").exists()


def test_run_general_rates_need_rk4(tmp_path, capsys):
    # Overlapping stretches have no closed form here: RK4 only.
    config = tmp_path / "scenario.json"
    rates = {
        "kind": "general",
        "entries": [{"links": [0, 2], "rate": 1.0}, {"links": [1], "rate": 0.5}],
    }
    for solver in ("closed-form", "both"):
        write_scenario(config, sizes=[2, 2, 2, 2], rates=rates, solver=solver)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "overlap" in err and "use solver 'rk4'" in err
    assert not (tmp_path / "x.csv").exists()
    write_scenario(config, sizes=[2, 2, 2, 2], rates=rates, solver="rk4")
    out = tmp_path / "traj.json"
    assert main(
        ["run", "--config", str(config), "--out", str(out), "--format", "json"]
    ) == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc) == {"times", "states"}
    assert abs(sum(doc["states"][-1]) - sum(doc["states"][0])) <= 1e-9
    # Without a relabeling the empty cut set moves nothing: still rejected.
    empty_cut = {"kind": "general", "entries": [{"links": [], "rate": 1.0}]}
    write_scenario(config, sizes=[2, 2, 2, 2], rates=empty_cut, solver="rk4")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "e.csv")]) \
        == EXIT_VALIDATION
    assert not (tmp_path / "e.csv").exists()


HOMOGENEITY_CASES = {
    "crossover": ({"kind": "crossover", "per_link": [0.7, 1.3]},
                  ("closed-form", "rk4", "both"), "csv"),
    "disjoint-stretch": ({"kind": "disjoint-stretch",
                          "entries": [{"links": [0], "rate": 1.0}, {"links": [1], "rate": 0.5}]},
                         ("closed-form", "rk4", "both"), "json"),
    "general": ({"kind": "general",
                 "entries": [{"links": [0, 1], "rate": 0.8}, {"links": [1], "rate": 0.6}]},
                ("rk4",), "json"),
    "cyclic": ({"kind": "cyclic", "links": [0], "permutation": [1, 0], "rate": 0.9},
               ("closed-form", "rk4", "both"), "csv"),
}


def written_values(path):
    # Every number of a trajectory, exactly, without its times.
    if path.suffix == ".json":
        return np.array(json.loads(path.read_text())["states"])
    return np.array([[float(v) for v in line.split(",")[1:]]
                     for line in path.read_text().splitlines()[1:]])


@pytest.mark.parametrize("kind", sorted(HOMOGENEITY_CASES))
def test_runs_are_homogeneous_in_the_initial_weights(tmp_path, kind):
    # The flows, RK4 and every check are homogeneous of degree 1: at 2^k
    # omega_0 (k = +-40) a run gives the same exit code and `both` verdict,
    # and every written weight and gap is 2^k times the one at omega_0.
    rates, solvers, fmt = HOMOGENEITY_CASES[kind]
    weights = random_probability(ProductSpace((2, 3, 2)), 5).weights
    for solver in solvers:
        # rk4_step 0.25 is too coarse for `both` on the crossover map.
        step = 0.25 if kind == "crossover" else 0.05
        runs = {}
        for k in (0, 40, -40):
            config = tmp_path / f"{solver}{k}.json"
            write_scenario(config, sizes=[2, 3, 2], rates=rates, solver=solver, rk4_step=step,
                           time={"t_end": 1.0, "stride": 4},
                           initial={"kind": "weights", "weights": np.ldexp(weights, k).tolist()})
            out = tmp_path / f"{solver}{k}.{fmt}"
            code, _ = run_quietly(["run", "--config", str(config), "--out", str(out),
                                   "--format", fmt])
            report = out.with_name(out.name + ".report.json")
            runs[k] = code, written_values(out), json.loads(report.read_text()) \
                if report.exists() else None
        code, values, report = runs[0]
        assert values.size and (solver != "both" or report is not None)
        for k in (40, -40):
            assert runs[k][0] == code, (solver, k)
            assert runs[k][1].tobytes() == np.ldexp(values, k).tobytes(), (solver, k)
            if report is not None:
                scaled = runs[k][2]
                assert scaled["passed"] == report["passed"] and scaled["times"] == report["times"]
                for key in ("gaps", "max_gap", "tolerance"):
                    assert np.array_equal(scaled[key], np.ldexp(report[key], k)), (key, k)
        if kind == "crossover" and solver == "both":
            assert code == EXIT_NUMERIC and not report["passed"]


def general_rates(*entries):
    return {"kind": "general", "entries": [{"links": l, "rate": r} for l, r in entries]}


@pytest.mark.parametrize("rates", [
    general_rates(([0], -1.0), ([2], 0.5)),
    general_rates(([0], 1.0), ([0], 0.5)),
    general_rates(([], 1.0)),
], ids=["negative rate", "duplicate entry", "empty cut set"])
def test_run_general_map_errors_are_rk4_errors_without_the_hint(tmp_path, capsys, rates):
    # The rate map's own checks run before the stretch check and fail under
    # every solver, rk4 included, so no solver is suggested.
    config = tmp_path / "scenario.json"
    errors = {}
    for solver in ("rk4", "closed-form", "both"):
        write_scenario(config, sizes=[2, 2, 2, 2], rates=rates, solver=solver)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) \
            == EXIT_VALIDATION
        errors[solver] = capsys.readouterr().err
    assert errors["closed-form"] == errors["both"] == errors["rk4"]
    assert "use solver" not in errors["rk4"]
    assert not (tmp_path / "x.csv").exists()


def test_run_general_zero_rate_keeps_the_rk4_hint(tmp_path, capsys):
    # A zero rate passes the map's checks but not the stretch check: like an
    # overlap, it runs under rk4 only.
    config = tmp_path / "scenario.json"
    rates = general_rates(([0], 0.0), ([2], 0.5))
    for solver in ("closed-form", "both"):
        write_scenario(config, sizes=[2, 2, 2, 2], rates=rates, solver=solver)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err.endswith("> 0, got 0.0; use solver 'rk4'\n")
    write_scenario(config, sizes=[2, 2, 2, 2], rates=rates, solver="rk4")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == EXIT_OK


def test_run_general_stretch_disjoint_map_has_a_closed_form(tmp_path):
    # Stretch-disjoint cut sets with positive rates: the product flow is
    # exact for a general map too, and agrees with RK4.
    config = tmp_path / "scenario.json"
    rates = {
        "kind": "general",
        "entries": [{"links": [2], "rate": 1.3}, {"links": [0], "rate": 0.7}],
    }
    write_scenario(config, sizes=[2, 3, 2, 2], rates=rates, solver="both")
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    report = json.loads((tmp_path / "traj.csv.report.json").read_text())
    assert report["passed"] and report["max_gap"] <= 1e-6


@pytest.mark.parametrize(
    "kind, rates",
    [
        ("disjoint-stretch",
         {"entries": [{"links": [2, 3], "rate": 1.3}, {"links": [0], "rate": 0.7}]}),
        ("crossover", {"per_link": [1.0, 0.4, 0.25, 0.6]}),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_run_rate_kind_is_only_input_for_the_rate_map(tmp_path, kind, rates, fmt):
    # A general document with the same entries (for crossover, one singleton
    # per link) is the same rate map and writes the same closed-form bytes.
    entries = rates.get("entries") or [
        {"links": [i], "rate": r} for i, r in enumerate(rates["per_link"])
    ]
    written = []
    for doc in ({"kind": kind, **rates}, {"kind": "general", "entries": entries}):
        config = tmp_path / f"{doc['kind']}.json"
        write_scenario(config, sizes=[2, 3, 2, 2, 2], rates=doc, solver="closed-form",
                       time={"t_end": 1.0, "stride": 100})
        out = tmp_path / f"{doc['kind']}.{fmt}"
        assert main(["run", "--config", str(config), "--out", str(out), "--format", fmt]) \
            == EXIT_OK
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("kind", ["general", "disjoint-stretch"])
def test_run_product_flow_keeps_the_document_order(tmp_path, kind):
    # The factor order fixes the bytes: the rate map keeps the document
    # order, and the product flow takes its factors in that order.
    entries = [([2, 3], 1.3), ([0], 0.7)]
    config = tmp_path / "scenario.json"
    write_scenario(config, sizes=[2, 3, 2, 2, 2], solver="closed-form",
                   time={"t_end": 1.0, "stride": 100},
                   rates={"kind": kind, "entries": [{"links": l, "rate": r} for l, r in entries]})
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    space = ProductSpace((2, 3, 2, 2, 2))
    rates = RateMap(4, tuple((LinkSet.from_indices(l, 4), r) for l, r in entries))
    grid = output_grid(1.0, 0.001, 100)
    flow = product_flow_grid(random_probability(space, 11), rates, grid)
    assert out.read_text() == csv_text(Trajectory(space, grid, flow))


def test_run_parse_failures(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) \
        == EXIT_PARSE
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"sizes": [2, 2]}))
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o.csv")]) \
        == EXIT_PARSE
    assert main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o.csv")]) == EXIT_PARSE


@pytest.mark.parametrize(
    "overrides",
    [
        {"time": {"t_end": math.inf, "stride": 1}},
        {"rk4_step": math.nan},
        {"initial": {"kind": "weights", "weights": [math.inf] + [0.0] * 11},
         "solver": "closed-form"},
        {"time": {"t_end": "1e999", "stride": 1}},
        {"time": {"t_end": "1" + "0" * 400, "stride": 1}},
        {"time": {"t_end": "1" + "0" * 5000, "stride": 1}},
        {"rates": {"kind": "crossover", "per_link": [None, 0.5]}},
        {"initial": {"kind": "weights", "weights": [0.125] * 11 + ["a"]}},
        {"rates": {"kind": "general", "entries": [{"links": [None], "rate": 1.0}]},
         "solver": "rk4"},
        {"sizes": [2, 2, 2],
         "rates": {"kind": "cyclic", "links": [0], "permutation": [1, None],
                   "rate": 1.0}},
        {"sizes": [2, 2], "rates": {"kind": "crossover", "per_link": [1.0]},
         "solver": "closed-form", "rk4_step": True, "time": {"t_end": 2.0, "stride": 1}},
        {"sizes": [2, 2], "rates": {"kind": "crossover", "per_link": [1.0]},
         "solver": "closed-form", "time": {"t_end": 2.0, "stride": True}},
    ],
    ids=["t_end-Infinity", "rk4_step-NaN", "initial-Infinity", "overflowing-literal",
         "int-past-float-range", "int-past-digit-limit", "per_link-null",
         "weights-string", "links-null", "permutation-null", "rk4_step-true",
         "stride-true"],
)
def test_run_non_finite_numbers_are_parse_errors(tmp_path, overrides):
    config = tmp_path / "scenario.json"
    write_scenario(config, **overrides)
    # json.dumps writes Infinity/NaN; the oversized literals go in unquoted.
    text = config.read_text()
    literal = overrides.get("time", {}).get("t_end")
    if isinstance(literal, str):
        text = text.replace(f'"{literal}"', literal)
    config.write_text(text)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"time": {"t_end": -1.0, "stride": 1}},
        {"time": {"t_end": 0.5, "stride": 0}},
        {"rk4_step": 0.0},
        {"time": {"t_end": 1e308, "stride": 1}},
        {"time": {"t_end": 1e5, "stride": 1}},
        {"sizes": [2] * 25},
        {"sizes": [2] * 20, "time": {"t_end": 200.0, "stride": 1}, "rk4_step": 1.0},
        {"time": {"t_end": 2e5, "stride": 1}, "rk4_step": 1.0},
        {"rates": {"kind": "crossover", "per_link": [1.7e308, 1.7e308]}},
        # 11 grid points x 8,192 states x (4,096 + 1): one cycle past the cap.
        {"sizes": [4096, 2], "rates": {"kind": "cyclic", "links": [0], "rate": 1.0,
                                       "permutation": cycle_permutation(4096)}},
    ],
    ids=["negative-t_end", "zero-stride", "zero-rk4_step", "steps-overflow",
         "steps-past-cap", "states-past-cap", "stored-weights-past-cap",
         "grid-points-past-cap", "rate-total-past-float-range",
         "cyclic-cells-past-cap"],
)
def test_run_bad_grid_and_caps_are_validation_errors(tmp_path, overrides):
    # The caps are checked before any state is allocated, so these run fast.
    config = tmp_path / "scenario.json"
    write_scenario(config, solver="closed-form", **overrides)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"initial": {"kind": "random", "seed": -1}},
        {"initial": {"kind": "weights", "weights": [1.7e308] * 2 + [0.0] * 10}},
    ],
    ids=["negative-seed", "overflowing-total"],
)
def test_run_bad_initial_state_is_validation_error(tmp_path, overrides):
    config = tmp_path / "scenario.json"
    write_scenario(config, **overrides)
    out = tmp_path / "o.csv"
    with np.errstate(over="ignore"):
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("solver", ["rk4", "both"])
def test_run_non_finite_trajectory_is_numeric_error_and_writes_nothing(
    tmp_path, capsys, solver
):
    # RK4 with rate * h = 1e299 leaves the floating-point range at once.
    config = tmp_path / "scenario.json"
    write_scenario(config, solver=solver, rk4_step=0.1, time={"t_end": 0.5, "stride": 1},
                   rates={"kind": "crossover", "per_link": [1e300, 1.0]})
    out = tmp_path / "o.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]
    assert "rk4 trajectory is not finite" in capsys.readouterr().err


def run_quietly(argv):
    """``main(argv)`` with every warning recorded; returns the code and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, [str(w.message) for w in caught]


def test_run_diverging_rk4_prints_only_its_message(tmp_path, capsys):
    # The weights overflow in the first step; numpy warns of nothing.
    config = tmp_path / "scenario.json"
    write_scenario(config, sizes=[2, 1, 1, 2], solver="rk4", rk4_step=0.1,
                   time={"t_end": 0.5, "stride": 1},
                   rates={"kind": "crossover", "per_link": [1e300, 1.0, 1.0]})
    code, caught = run_quietly(["run", "--config", str(config), "--out", str(tmp_path / "o.csv")])
    assert (code, caught) == (EXIT_NUMERIC, [])
    assert capsys.readouterr().err == f"{config}: the rk4 trajectory is not finite\n"


def test_run_overflowing_initial_total_prints_only_its_message(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    write_scenario(config, sizes=[1, 2], rates={"kind": "crossover", "per_link": [1.0]},
                   initial={"kind": "weights", "weights": [1.7e308, 1.7e308]})
    code, caught = run_quietly(["run", "--config", str(config), "--out", str(tmp_path / "o.csv")])
    assert (code, caught) == (EXIT_VALIDATION, [])
    err = capsys.readouterr().err
    assert err == "validation error: initial weights must have a finite total\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_run_huge_cyclic_rate_reaches_the_limit_quietly(tmp_path, capsys):
    # rho t = 1.7e308 * 0.75 overflows the exponents of the decaying modes to
    # -inf, whose terms are the 0 they tend to, and rho t = 1.7e308 * 2 is
    # past the float maximum itself: the run prints nothing, and its last row
    # is the one rate 1e3 reaches by then, bit for bit.
    for t_end, lines in ((0.75, 17), (2.0, 42)):
        rows = {}
        for rate in (1.7e308, 1e3):
            config = tmp_path / f"rate{rate:g}.json"
            write_scenario(config, sizes=[3, 2], solver="closed-form",
                           time={"t_end": t_end, "stride": 50},
                           rates={"kind": "cyclic", "links": [0], "permutation": [1, 2, 0],
                                  "rate": rate})
            out = tmp_path / f"rate{rate:g}.csv"
            code, caught = run_quietly(["run", "--config", str(config), "--out", str(out)])
            assert (code, caught) == (EXIT_OK, [])
            rows[rate] = out.read_text().splitlines()
        assert capsys.readouterr().err == ""
        assert len(rows[1.7e308]) == lines and rows[1.7e308][-1] == rows[1e3][-1]


def test_run_size_mismatch_is_validation_error(tmp_path):
    config = tmp_path / "scenario.json"
    write_scenario(config, initial={"kind": "weights", "weights": [0.5, 0.5]})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o.csv")]) \
        == EXIT_VALIDATION


def test_run_signed_initial_is_validation_error(tmp_path):
    config = tmp_path / "scenario.json"
    weights = [1.0 / 11] * 11 + [-0.1]
    write_scenario(config, initial={"kind": "weights", "weights": weights})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o.csv")]) \
        == EXIT_VALIDATION


@pytest.mark.parametrize("total,code", [(1e-305, EXIT_VALIDATION), (1e-290, EXIT_OK)])
def test_run_initial_total_below_the_zero_threshold_is_validation_error(tmp_path, capsys,
                                                                        total, code):
    # Below ZERO_TOTAL_VARIATION (1e-300) the flows take the measure for zero
    # and could only lose its mass: such a total fails before any work.
    config, out = tmp_path / "scenario.json", tmp_path / "o.csv"
    write_scenario(config, initial={"kind": "weights", "weights": [total] + [0.0] * 11})
    assert main(["run", "--config", str(config), "--out", str(out)]) == code
    if code == EXIT_VALIDATION:
        assert "initial weights must total at least 1e-300" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]
    else:
        assert out.exists()


def test_run_cyclic_scenario_both_mode(tmp_path):
    config = tmp_path / "cyclic.json"
    write_scenario(
        config,
        sizes=[3, 2],
        rates={
            "kind": "cyclic",
            "links": [0],
            "permutation": [1, 2, 0],
            "rate": 1.0,
        },
        time={"t_end": 1.0, "stride": 100},
    )
    out = tmp_path / "cyc.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    report = json.loads((tmp_path / "cyc.csv.report.json").read_text())
    assert report["max_gap"] <= 1e-8


def test_run_cyclic_rk4_is_rk4_integrate_of_the_relabeled_map(tmp_path):
    # The run integrates the rate map that carries the permutation.
    config = tmp_path / "cyclic.json"
    perm = [2, 0, 1, 5, 3, 4]
    write_scenario(config, sizes=[6, 2, 2], solver="rk4", time={"t_end": 0.3, "stride": 10},
                   rates={"kind": "cyclic", "links": [0], "permutation": perm, "rate": 0.8},
                   rk4_step=0.01)
    out = tmp_path / "cyc.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    space = ProductSpace((6, 2, 2))
    rates = RateMap(2, ((LinkSet.from_indices([0], 2), 0.8),), perm)
    traj = rk4_integrate(random_probability(space, 11), rates, 0.3, 0.01, 10)
    assert out.read_bytes() == csv_text(traj).encode()


def test_run_cyclic_closed_form_is_generalized_flow_grid_of_the_relabeled_map(tmp_path):
    # The closed form of the map that carries the permutation, on the run's grid.
    config = tmp_path / "cyclic.json"
    perm = [2, 0, 1, 5, 3, 4]
    write_scenario(config, sizes=[6, 2, 2], solver="closed-form",
                   time={"t_end": 0.3, "stride": 10},
                   rates={"kind": "cyclic", "links": [0], "permutation": perm, "rate": 0.8},
                   rk4_step=0.01)
    out = tmp_path / "cyc.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    omega0 = random_probability(ProductSpace((6, 2, 2)), 11)
    rates = RateMap(2, ((LinkSet.from_indices([0], 2), 0.8),), perm)
    grid = output_grid(0.3, 0.01, 10)
    traj = Trajectory(omega0.space, grid, generalized_flow_grid(omega0, rates, grid))
    assert out.read_bytes() == csv_text(traj).encode()


@pytest.mark.parametrize("sizes,links,perm,rate,message", [
    ([3, 2], [0], [0, 0, 1], 1.0, "permutation must reorder the first block's states 0, ..., 2"),
    ([3, 2], [0], [1, 0], 1.0,
     "permutation must reorder the 3 states of the first block, got 2 entries"),
    ([3, 2], [1], [1, 2, 0], 1.0, "link index 1 out of range for 1 links"),
    ([3, 2], [0], [1, 2, 0], 0.0, "rate must be positive, got 0.0"),
    ([3, 2], [0], [1, 2, 0], -1.0, "rates must be finite and >= 0, got -1.0"),
    # 11 grid points x 8,192 states x (4,096 + 1): one cycle past the cap.
    ([4096, 2], [0], cycle_permutation(4096), 1.0,
     "cycle length 4096 needs 369188864 cells, over the cap of 134217728"),
], ids=["non-permutation", "wrong size", "link out of range", "rate 0", "rate -1",
        "past the cell cap"])
def test_run_cyclic_validation_errors(tmp_path, capsys, sizes, links, perm, rate, message):
    # Every solver builds the same rate map, so it gets the same message.
    config, out = tmp_path / "cyclic.json", tmp_path / "cyc.csv"
    for solver in ("closed-form", "rk4", "both"):
        write_scenario(config, sizes=sizes, solver=solver,
                       rates={"kind": "cyclic", "links": links, "permutation": perm,
                              "rate": rate})
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out.exists()


def test_run_cyclic_order_field_is_ignored(tmp_path):
    # The flow runs by the permutation's cycles, one 2-cycle here; a cyclic
    # map has no order, and a document that still declares one, even 3 or
    # 2^40, writes the bytes a document without it writes.
    written = []
    for order in (None, 2, 3, 1 << 40):
        rates = {"kind": "cyclic", "links": [0], "permutation": [1, 0], "rate": 1.0}
        if order is not None:
            rates["order"] = order
        config = tmp_path / f"order{order}.json"
        write_scenario(config, sizes=[2, 2], time={"t_end": 1.0, "stride": 100}, rates=rates)
        out = tmp_path / f"order{order}.csv"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        report = tmp_path / f"order{order}.csv.report.json"
        written.append((out.read_bytes(), report.read_bytes()))
    assert all(w == written[0] for w in written)


def test_run_cyclic_flow_folds_by_cycle_length(tmp_path):
    # Cycles 3, 4, 5, 7, 11, 13, 17: their lcm, 1,021,020, is far past any
    # cap, but the flow folds by cycle length, so only the longest counts.
    lengths = (3, 4, 5, 7, 11, 13, 17)
    config = tmp_path / "folded.json"
    write_scenario(config, sizes=[60, 2], time={"t_end": 1.0, "stride": 100},
                   rates={"kind": "cyclic", "links": [0],
                          "permutation": cycle_permutation(*lengths), "rate": 1.0})
    out = tmp_path / "folded.csv"
    start = time.perf_counter()
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    report = json.loads((tmp_path / "folded.csv.report.json").read_text())
    assert report["passed"] and report["max_gap"] <= 1e-6


@pytest.mark.parametrize("solver", ["closed-form", "rk4", "both"])
def test_run_cyclic_empty_cut_set_is_a_plain_relabeling(tmp_path, solver):
    # No cuts: C = sigma permutes all four states, and both solvers run.
    config = tmp_path / "relabel.json"
    write_scenario(config, sizes=[2, 2], solver=solver, time={"t_end": 1.0, "stride": 100},
                   rates={"kind": "cyclic", "links": [], "permutation": [1, 2, 3, 0],
                          "rate": 1.0})
    out = tmp_path / "relabel.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert out.exists()
    if solver == "both":
        report = json.loads((tmp_path / "relabel.csv.report.json").read_text())
        assert report["max_gap"] <= 1e-8


def test_run_crossover_scenario(tmp_path):
    config = tmp_path / "crossover.json"
    write_scenario(
        config,
        rates={"kind": "crossover", "per_link": [1.0, 0.4]},
        time={"t_end": 0.8, "stride": 80},
    )
    out = tmp_path / "cross.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    report = json.loads((tmp_path / "cross.csv.report.json").read_text())
    assert report["passed"]


def test_run_batch_jobs(tmp_path):
    configs = []
    for i in range(3):
        config = tmp_path / f"s{i}.json"
        write_scenario(config, initial={"kind": "random", "seed": i})
        configs.append(str(config))
    out_dir = tmp_path / "batch"
    argv = ["run", "--out", str(out_dir), "--jobs", "2"]
    for c in configs:
        argv += ["--config", c]
    assert main(argv) == EXIT_OK
    for i in range(3):
        assert (out_dir / f"s{i}.csv").exists()
        assert (out_dir / f"s{i}.csv.report.json").exists()


def test_run_batch_isolates_a_bad_config(tmp_path, capsys):
    good = tmp_path / "ok.json"
    write_scenario(good)
    bad = tmp_path / "nan.json"
    write_scenario(bad, rk4_step=math.nan)
    out_dir = tmp_path / "batch"
    code = main(["run", "--out", str(out_dir), "--config", str(good),
                 "--config", str(bad)])
    assert code == EXIT_PARSE
    assert (out_dir / "ok.csv").exists()
    assert not (out_dir / "nan.csv").exists()
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


def test_run_batch_reports_failures_in_config_order(tmp_path, capsys):
    # A batch runs its configs one after another in the calling thread, so
    # the stderr lines of failing configs come in config order; --jobs is
    # accepted and has no effect.
    first, good, second = tmp_path / "z.json", tmp_path / "ok.json", tmp_path / "a.json"
    write_scenario(first, rk4_step=math.nan)
    write_scenario(good)
    write_scenario(second, time={"t_end": -1.0, "stride": 1})
    out_dir = tmp_path / "batch"
    code = main(["run", "--out", str(out_dir), "--jobs", "4", "--config", str(first),
                 "--config", str(good), "--config", str(second)])
    assert code == EXIT_VALIDATION
    assert sorted(p.name for p in out_dir.iterdir()) == ["ok.csv", "ok.csv.report.json"]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"{first}: parse error")
    assert lines[1].startswith(f"{second}: validation error")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_run_batch_rejects_colliding_outputs(tmp_path, capsys, fmt):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, second, other = tmp_path / "a" / "x.json", tmp_path / "b" / "x.json", tmp_path / "y.json"
    for config in (first, second, other):
        write_scenario(config, solver="closed-form")
    out_dir = tmp_path / "batch"
    code = main(["run", "--out", str(out_dir), "--format", fmt, "--config", str(other),
                 "--config", str(first), "--config", str(second)])
    assert code == EXIT_VALIDATION
    # Checked before any scenario runs: not even the directory is made.
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert str(first) in err and str(second) in err
    # A config named after another's report collides with that report.
    report_named = tmp_path / f"y.{fmt}.report.json"
    write_scenario(report_named, solver="closed-form")
    code = main(["run", "--out", str(out_dir), "--format", fmt, "--config", str(other),
                 "--config", str(report_named)])
    assert (code == EXIT_VALIDATION) == (fmt == "json")


class _InterruptedStream:
    """Passes writes through until the ``fail_on``-th, of which it writes the
    first half, records what the temp file then holds, and raises
    KeyboardInterrupt."""

    def __init__(self, stream, fail_on=1):
        self.stream = stream
        self.fail_on = fail_on
        self.writes = 0
        self.on_disk = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()

    def write(self, text):
        self.writes += 1
        if self.writes < self.fail_on:
            return self.stream.write(text)
        self.stream.write(text[: len(text) // 2])
        self.stream.flush()
        self.on_disk = Path(self.stream.name).read_text()
        raise KeyboardInterrupt


@pytest.mark.parametrize(
    "argv,artifact",
    [
        (["run", "--config", "{cfg}", "--out", "{out}/traj.csv"], "traj.csv"),
        (["run", "--config", "{cfg}", "--config", "{cfg2}", "--out", "{out}"], "s.csv"),
        (["verify", "--suite", "generalized", "--out", "{out}/new/v.json"], "new/v.json"),
        (["coefficients", "--rates", "1,2", "--t-end", "1", "--t-step", "0.5",
          "--out", "{out}/c.csv"], "c.csv"),
    ],
    ids=["run", "run-batch", "verify", "coefficients"],
)
def test_interrupted_write_leaves_no_partial_file(tmp_path, monkeypatch, argv, artifact):
    write_scenario(tmp_path / "s.json", solver="closed-form")
    write_scenario(tmp_path / "t.json", solver="closed-form")
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("old")
    argv = [a.format(cfg=tmp_path / "s.json", cfg2=tmp_path / "t.json", out=out) for a in argv]
    monkeypatch.setattr(cli, "open", lambda *a, **k: _InterruptedStream(open(*a, **k)),
                        raising=False)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert sorted(p.name for p in out.rglob("*") if p.is_file()) == ["keep.txt"]
    # An artifact from an earlier run survives an interrupted rewrite whole.
    monkeypatch.undo()
    assert main(argv) == EXIT_OK
    before = (out / artifact).read_bytes()
    monkeypatch.setattr(cli, "open", lambda *a, **k: _InterruptedStream(open(*a, **k)),
                        raising=False)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert (out / artifact).read_bytes() == before
    assert not [p.name for p in out.rglob("*.tmp")]


@pytest.mark.parametrize(
    "argv,target",
    [
        (["run", "--config", "{cfg}", "--out", "{out}/taken"], "taken"),
        (["run", "--config", "{cfg}", "--out", "{out}/file/traj.csv"], "file/traj.csv"),
        (["verify", "--suite", "generalized", "--out", "{out}/taken"], "taken"),
        (["coefficients", "--rates", "1,2", "--t-end", "1", "--t-step", "0.5",
          "--out", "{out}/taken"], "taken"),
    ],
    ids=["run-onto-directory", "run-under-file", "verify", "coefficients"],
)
def test_unwritable_output_is_validation_error(tmp_path, capsys, argv, target):
    write_scenario(tmp_path / "s.json", solver="closed-form")
    out = tmp_path / "out"
    (out / "taken").mkdir(parents=True)
    (out / "file").write_text("a regular file")
    argv = [a.format(cfg=tmp_path / "s.json", out=out) for a in argv]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"validation error: cannot write {out / target}")
    assert sorted(p.name for p in out.rglob("*")) == ["file", "taken"]


def test_batch_unwritable_output_fails_only_its_scenario(tmp_path, capsys):
    for name in ("s", "t"):
        write_scenario(tmp_path / f"{name}.json", solver="closed-form")
    out = tmp_path / "out"
    (out / "s.csv").mkdir(parents=True)
    code = main(["run", "--config", str(tmp_path / "s.json"),
                 "--config", str(tmp_path / "t.json"), "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"{tmp_path / 's.json'}: validation error: cannot write {out / 's.csv'}")
    assert sorted(p.name for p in out.iterdir()) == ["s.csv", "t.csv"]
    assert (out / "s.csv").is_dir() and (out / "t.csv").read_text().startswith("t,")


def test_interrupt_in_mid_stream_leaves_no_partial_file(tmp_path, monkeypatch):
    write_scenario(tmp_path / "s.json", solver="closed-form")
    out = tmp_path / "out"
    argv = ["run", "--config", str(tmp_path / "s.json"), "--out", str(out / "traj.csv")]
    assert main(argv) == EXIT_OK
    before = (out / "traj.csv").read_bytes()
    streams = []

    def interrupted_open(*a, **k):
        streams.append(_InterruptedStream(open(*a, **k), fail_on=3))
        return streams[-1]

    monkeypatch.setattr(cli, "open", interrupted_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    # The header and the first row had reached the temp file, then half a row.
    header, row, partial = streams[0].on_disk.split("\n")
    assert before.decode().startswith(f"{header}\n{row}\n{partial}")
    assert header.startswith("t,") and row.startswith("0,") and partial
    assert (out / "traj.csv").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["traj.csv"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_form_run_holds_one_row_block_not_its_stack(tmp_path, fmt):
    # 4^8 states x 11 times: a 5.77 MB stack of one-row blocks.  The run
    # checks and writes each block before it computes the next, so its
    # traced peak is omega_0 and a few blocks' buffers (~1.9 MB); holding
    # the stack peaked at 7.6 MB.
    config = tmp_path / "s.json"
    write_scenario(config, sizes=[4] * 8, solver="closed-form", rk4_step=0.1,
                   time={"t_end": 1.0, "stride": 1},
                   rates={"kind": "disjoint-stretch",
                          "entries": [{"links": [0], "rate": 0.9}, {"links": [2, 3], "rate": 0.5},
                                      {"links": [6], "rate": 1.2}]})
    stack_bytes = 11 * 4**8 * 8
    argv = ["run", "--config", str(config), "--out", str(tmp_path / f"o.{fmt}"), "--format", fmt]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 2, (peak, stack_bytes)


@pytest.mark.parametrize("target", ["o.csv", "file/o.csv"], ids=["writable", "under-a-file"])
def test_invariant_failure_in_a_late_block_discards_the_stream(tmp_path, capsys, monkeypatch,
                                                               target):
    # 4^6 states x 40 times: blocks of 16, 16 and 8 rows, the last with a
    # NaN row.  The first two blocks reach the temp file before the third is
    # computed; the defect then discards it, and no report is written.  The
    # stream opens before the closed form runs, so a target whose temp file
    # cannot be made is exit 3 however the closed form would end.
    flow = cli.product_flow_blocks

    def nan_in_last_block(*args):
        for rows, block in flow(*args):
            if rows.stop == 40:
                (temp,) = tmp_path.glob(".o.csv.*.tmp")
                assert temp.stat().st_size > 2_000_000  # 32 rows of ~95 KB
                block = block.copy()
                block[-1, 5] = math.nan
            yield rows, block

    monkeypatch.setattr(cli, "product_flow_blocks", nan_in_last_block)
    config = tmp_path / "s.json"
    write_scenario(config, sizes=[4] * 6, solver="both", rk4_step=0.01,
                   time={"t_end": 0.39, "stride": 1})
    (tmp_path / "file").write_text("a regular file")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / target)])
    err = capsys.readouterr().err
    if target == "o.csv":
        assert code == EXIT_NUMERIC
        assert err == f"{config}: the closed-form trajectory is not finite\n"
    else:
        assert code == EXIT_VALIDATION
        assert err.startswith(f"validation error: cannot write {tmp_path / target}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "s.json"]


def test_run_csv_artifact_is_the_library_csv(tmp_path):
    per_link = [1.0, 0.5]
    write_scenario(tmp_path / "s.json", solver="closed-form",
                   rates={"kind": "crossover", "per_link": per_link})
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", str(tmp_path / "s.json"), "--out", str(out),
                 "--format", "csv"]) == EXIT_OK
    omega0 = random_probability(ProductSpace((2, 3, 2)), 11)
    grid = output_grid(0.5, 0.001, 50)
    traj = Trajectory(omega0.space, tuple(grid),
                      np.array([product_flow_grid(omega0, RateMap.crossover(per_link), [t])[0]
                                for t in grid]))
    assert out.read_text() == csv_text(traj)


def test_csv_artifact_is_streamed_not_built_in_memory(tmp_path):
    # 4^6 states x 11 rows: ~1 MB of CSV.  Streaming holds one row's text,
    # its float arguments and the row template at a time (~0.24 of this
    # artifact); building the whole text first held twice the artifact.
    space = ProductSpace((4,) * 6)
    states = np.array([random_probability(space, seed).weights for seed in range(11)])
    traj = Trajectory(space, tuple(0.1 * k for k in range(11)), states)
    out = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        cli._write_trajectory(traj.times, out, "csv", [traj.weights], traj.space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 900_000
    assert peak < size / 4, (peak, size)


def test_wide_csv_rows_are_written_in_slices(tmp_path):
    # 4^8 states: one row's text is ~1.2 MB.  Formatting a row whole held that
    # text, its 65,537 Python floats and their tuple at once; slices of cells
    # hold a small fraction of one row.
    space = ProductSpace((4,) * 8)
    states = np.array([random_probability(space, seed).weights for seed in range(2)])
    traj = Trajectory(space, (0.0, 1.0), states)
    out = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        cli._write_trajectory(traj.times, out, "csv", [traj.weights], traj.space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = out.read_text()
    assert text == csv_text(traj)
    row = len(text.split("\n")[1])
    assert row > 1_000_000
    assert peak < row / 8, (peak, row)


def test_json_artifact_is_streamed_with_the_whole_text_bytes(tmp_path):
    # Same 4^6 states x 11 rows.  Streaming holds one row's floats and its
    # encoded pieces at a time (~0.6 of this artifact); the whole-text
    # encoder held over six times the artifact, and no whole-text encoder
    # can stay below the artifact's own size.
    space = ProductSpace((4,) * 6)
    states = np.array([random_probability(space, seed).weights for seed in range(11)])
    traj = Trajectory(space, tuple(0.1 * k for k in range(11)), states)
    out = tmp_path / "traj.json"
    tracemalloc.start()
    try:
        cli._write_trajectory(traj.times, out, "json", [traj.weights], traj.space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.read_text() == cli._dump_json(trajectory_to_json_dict(traj))
    size = out.stat().st_size
    assert size > 900_000
    assert peak < size, (peak, size)


def test_json_artifact_bytes_follow_the_whole_text_encoder_on_odd_values(tmp_path):
    # Signed zeros, subnormals, huge and non-finite cells and one-row and
    # one-state trajectories encode exactly as json.dumps of the whole dict.
    space = ProductSpace((2, 2))
    odd = [-0.0, 5e-324, 1e308, 1 / 3]
    wild = [math.inf, -math.inf, math.nan, 0.1]
    for traj in (
        Trajectory(space, (0.0,), np.array([odd])),
        Trajectory(space, (0.0, 1e-300, 2.5), np.array([odd, wild, odd])),
        Trajectory(ProductSpace((1,)), (0.0, 1.0), np.array([[1.0]] * 2)),
    ):
        out = tmp_path / "traj.json"
        cli._write_trajectory(traj.times, out, "json", [traj.weights], traj.space)
        assert out.read_text() == cli._dump_json(trajectory_to_json_dict(traj))


def test_run_rk4_past_its_stability_bound_is_numeric_error(tmp_path, capsys):
    # rate * h = 5 lies outside RK4's stability interval: the weights grow to
    # about +-8e66 of both signs while staying finite.
    config = tmp_path / "scenario.json"
    write_scenario(config, sizes=[2, 2], solver="rk4", rk4_step=0.05,
                   time={"t_end": 3.0, "stride": 1},
                   rates={"kind": "crossover", "per_link": [100.0]})
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_NUMERIC
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]
    err = capsys.readouterr().err
    assert "the rk4 trajectory has weight" in err and "below" in err


def test_run_solvers_share_the_output_grid(tmp_path):
    times = {}
    for solver in ("closed-form", "rk4", "both"):
        config = tmp_path / f"{solver}.json"
        write_scenario(config, solver=solver, rk4_step=0.1,
                       time={"t_end": 0.3, "stride": 2})
        out = tmp_path / f"{solver}.json.out"
        code = main(["run", "--config", str(config), "--out", str(out),
                     "--format", "json"])
        assert code in (EXIT_OK, EXIT_NUMERIC)
        times[solver] = json.loads(out.read_text())["times"]
    assert times["closed-form"] == times["rk4"] == times["both"] == [0.0, 0.2, 0.3]


def test_run_deterministic_json_output(tmp_path):
    config = tmp_path / "scenario.json"
    write_scenario(config, solver="closed-form")
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", str(config), "--out", str(out_a),
                 "--format", "json"]) == EXIT_OK
    assert main(["run", "--config", str(config), "--out", str(out_b),
                 "--format", "json"]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_verify_deterministic_and_green(tmp_path):
    rep_a, rep_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "algebra", "--seed", "9",
                 "--out", str(rep_a)]) == EXIT_OK
    assert main(["verify", "--suite", "algebra", "--seed", "9",
                 "--out", str(rep_b)]) == EXIT_OK
    assert rep_a.read_bytes() == rep_b.read_bytes()
    report = json.loads(rep_a.read_text())
    assert report["passed"] and report["suite"] == "algebra"
    assert all("name" in c and "value" in c for c in report["checks"])


def test_verify_all_runs_every_suite(tmp_path):
    rep = tmp_path / "all.json"
    assert main(["verify", "--suite", "all", "--seed", "3",
                 "--out", str(rep)]) == EXIT_OK
    report = json.loads(rep.read_text())
    names = {c["name"] for c in report["checks"]}
    for prefix in ("lattice.", "measure.", "recombinator.", "semigroup.",
                   "moebius.", "gfun.", "cyclic."):
        assert any(n.startswith(prefix) for n in names)


def test_verify_negative_seed_is_validation_error(capsys):
    assert main(["verify", "--suite", "algebra", "--seed", "-1"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["validation error: seed must be nonnegative, got -1"]


def test_verify_unknown_suite_exits_two():
    assert main(["verify", "--suite", "nonsense"]) == EXIT_PARSE


def test_verify_tampered_tolerance_fails(tmp_path, monkeypatch):
    # Every check at 1e-30 of its tolerance: the suite's nonzero defects fail.
    check = verify._check
    monkeypatch.setattr(verify, "_check",
                        lambda name, value, tolerance: check(name, value, tolerance * 1e-30))
    out = tmp_path / "r.json"
    code = main(["verify", "--suite", "moebius", "--seed", "9", "--out", str(out)])
    assert code == EXIT_PROPERTY
    report = json.loads(out.read_text())
    assert not report["passed"] and report["tolerance_scale"] == 1.0


def test_verify_ignores_a_tolerance_scale_variable(tmp_path, monkeypatch):
    # Tolerances are fixed: the report is the same whatever the environment.
    plain, scaled = tmp_path / "plain.json", tmp_path / "scaled.json"
    assert main(["verify", "--suite", "generalized", "--out", str(plain)]) == EXIT_OK
    monkeypatch.setenv("RECO_TOLERANCE_SCALE", "1e-30")
    assert main(["verify", "--suite", "generalized", "--out", str(scaled)]) == EXIT_OK
    assert scaled.read_bytes() == plain.read_bytes()
    assert json.loads(plain.read_text())["tolerance_scale"] == 1.0


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py"))
)
def test_module_imports_no_private_package_names(module):
    # No private name crosses a module of the package: none is imported, and
    # none is read as an attribute of a name that a package import binds.
    tree = ast.parse((Path(cli.__file__).parent / f"{module}.py").read_text())
    private, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("recombdyn")
        ):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] == "recombdyn"
            )
    for node in ast.walk(tree):
        # Dunder attributes such as __name__ are not private names.
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.endswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                private.append(f"{root.id}...{node.attr}")
    assert private == []


def test_coefficients_single_link(tmp_path):
    out = tmp_path / "coef.csv"
    assert main(["coefficients", "--rates", "1.0", "--t-end", "1.0",
                 "--t-step", "0.5", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,a0,a1,b0,b1"
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 1.0, 1.0]
    row = [float(x) for x in lines[2].split(",")]
    assert abs(row[1] - math.exp(-0.5)) <= 1e-15
    assert abs(row[2] - (1.0 - math.exp(-0.5))) <= 1e-15


def test_coefficients_csv_bytes_are_the_row_template(tmp_path):
    # The bytes of formatting each row whole with "%.17g,...,%.17g" % row.
    rates = [0.3, 1.0, 2.5, 0.05]
    out = tmp_path / "coef.csv"
    assert main(["coefficients", "--rates", ",".join(map(str, rates)), "--t-end", "2",
                 "--t-step", "0.25", "--out", str(out)]) == EXIT_OK
    times = [round(0.25 * k, 12) for k in range(9)]
    table_a, table_b = expansion_coefficients(RateMap.crossover(rates), times)
    subsets = range(1 << len(rates))
    header = ["t"] + [f"a{g}" for g in subsets] + [f"b{g}" for g in subsets]
    row = ",".join(["%.17g"] * len(header)) + "\n"
    lines = [",".join(header) + "\n"]
    lines += [row % (t, *ra, *rb) for t, ra, rb in zip(times, table_a.tolist(), table_b.tolist())]
    assert out.read_bytes() == "".join(lines).encode()


@pytest.mark.parametrize("t_end", [100, 1000])
def test_coefficients_times_are_whole_steps_to_t_end(tmp_path, t_end):
    # Time k is round(k * t_step, 12), up to t_end itself.  A running sum of
    # 0.1 drifts: it ends at 99.999999999999005 for t_end 100, and at
    # 999.900000000159 for t_end 1000, one row short.
    out = tmp_path / "coef.json"
    assert main(["coefficients", "--rates", "1", "--t-end", str(t_end), "--t-step", "0.1",
                 "--format", "json", "--out", str(out)]) == EXIT_OK
    times = json.loads(out.read_text())["times"]
    assert times == [round(0.1 * k, 12) for k in range(10 * t_end + 1)]
    assert times[-1] == t_end


def test_coefficients_two_links_quarters(tmp_path):
    out = tmp_path / "coef.csv"
    step = math.log(2.0)
    assert main(["coefficients", "--rates", "1.0,1.0", "--t-end", str(step),
                 "--t-step", str(step), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    row = [float(x) for x in lines[2].split(",")]
    np.testing.assert_allclose(row[1:5], [0.25] * 4, atol=1e-12)
    a_values = row[1:5]
    assert abs(sum(a_values) - 1.0) <= 1e-12


def test_coefficients_rejects_nonpositive_rate(tmp_path):
    assert main(["coefficients", "--rates", "1.0,0.0", "--t-end", "1",
                 "--t-step", "0.5", "--out", str(tmp_path / "c.csv")]) \
        == EXIT_VALIDATION


@pytest.mark.parametrize("t_end,t_step", [("inf", "0.5"), ("1", "nan")])
def test_coefficients_rejects_non_finite_times(tmp_path, t_end, t_step):
    assert main(["coefficients", "--rates", "1.0", "--t-end", t_end,
                 "--t-step", t_step, "--out", str(tmp_path / "c.csv")]) \
        == EXIT_VALIDATION


@pytest.mark.parametrize(
    "rates,t_step",
    [(",".join(["1.0"] * 25), "0.5"), ("1.0", "1e-9")],
    ids=["25-links", "tiny-t-step"],
)
def test_coefficients_rejects_tables_past_the_cap(tmp_path, rates, t_step):
    # The bound is checked before any time or link set is enumerated.
    out = tmp_path / "c.csv"
    assert main(["coefficients", "--rates", rates, "--t-end", "1",
                 "--t-step", t_step, "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_coefficients_json_bytes_are_the_whole_table_encoder(tmp_path):
    # The table streams through the JSON cells; its bytes are those of
    # encoding the whole table at once.
    rates = [0.3, 1.0, 2.5, 0.05, 0.7, 1.1, 0.9, 1.6]
    out = tmp_path / "coef.json"
    assert main(["coefficients", "--rates", ",".join(map(str, rates)), "--t-end", "1",
                 "--t-step", "0.1", "--format", "json", "--out", str(out)]) == EXIT_OK
    times = [round(0.1 * k, 12) for k in range(11)]
    table_a, table_b = expansion_coefficients(RateMap.crossover(rates), times)
    table = {"times": times, "subsets": list(range(1 << len(rates))),
             "a": table_a.tolist(), "b": table_b.tolist()}
    assert out.read_text() == cli._dump_json(table)


def test_cli_loads_the_writers_only_to_write_an_artifact():
    # verify writes its report through json alone, so importing the CLI and
    # running a suite builds no word table.
    code = (
        "import sys\n"
        "import recombdyn.cli\n"
        "recombdyn.cli.main(['verify', '--suite', 'generalized'])\n"
        "assert 'recombdyn.writers' not in sys.modules, 'writers loaded'\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"] is True


def test_coefficients_json_format(tmp_path):
    out = tmp_path / "coef.json"
    assert main(["coefficients", "--rates", "0.7,1.3", "--t-end", "1",
                 "--t-step", "0.25", "--out", str(out),
                 "--format", "json"]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["subsets"] == [0, 1, 2, 3]
    for row in doc["a"]:
        assert abs(sum(row) - 1.0) <= 1e-12


@pytest.mark.parametrize("t_end,t_step", [("1e-12", "1e-13"), ("1e-9", "7e-13")])
def test_coefficients_rejects_a_step_whose_rounded_times_repeat(tmp_path, capsys, t_end, t_step):
    # Time k is round(k * t_step, 12): below 1e-12 a step writes rows at
    # repeated times (1e-9 in steps of 7e-13: 1,429 rows, 1,001 times).
    out = tmp_path / "c.csv"
    assert main(["coefficients", "--rates", "1", "--t-end", t_end, "--t-step", t_step,
                 "--out", str(out)]) == EXIT_VALIDATION
    assert "repeats times" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t_end,t_step,n_rows", [("1e-9", "1e-12", 1001), ("0", "1e-13", 1),
                                                 ("0", "1e-300", 1)])
def test_coefficients_times_rounded_to_12_decimals_increase(tmp_path, t_end, t_step, n_rows):
    out = tmp_path / "c.json"
    assert main(["coefficients", "--rates", "1", "--t-end", t_end, "--t-step", t_step,
                 "--format", "json", "--out", str(out)]) == EXIT_OK
    times = json.loads(out.read_text())["times"]
    assert len(times) == n_rows and times[0] == 0.0
    assert all(a < b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("rates,field", [("1,,2", 2), (",", 1), ("1,2,", 3), ("1, ,2", 2)])
def test_coefficients_rejects_an_empty_rate_field(tmp_path, capsys, rates, field):
    out = tmp_path / "c.csv"
    assert main(["coefficients", "--rates", rates, "--t-end", "1", "--t-step", "0.5",
                 "--out", str(out)]) == EXIT_PARSE
    assert f"field {field} is empty" in capsys.readouterr().err
    assert not out.exists()
