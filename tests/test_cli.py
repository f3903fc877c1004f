import json
import math

import numpy as np
import pytest

from recombdyn.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PROPERTY,
    EXIT_VALIDATION,
    Scenario,
    load_scenario,
    main,
)


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


def test_run_zero_horizon_single_row(tmp_path):
    config = tmp_path / "scenario.json"
    write_scenario(config, time={"t_end": 0.0, "stride": 1}, solver="closed-form")
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_run_rejects_overlap_with_closed_form(tmp_path):
    config = tmp_path / "scenario.json"
    write_scenario(
        config,
        sizes=[2, 2, 2, 2],
        rates={
            "kind": "disjoint-stretch",
            "entries": [{"links": [0, 2], "rate": 1.0}, {"links": [1], "rate": 0.5}],
        },
        solver="closed-form",
    )
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_VALIDATION


def test_run_general_rates_need_rk4(tmp_path):
    config = tmp_path / "scenario.json"
    rates = {
        "kind": "general",
        "entries": [{"links": [0, 2], "rate": 1.0}, {"links": [1], "rate": 0.5}],
    }
    write_scenario(config, sizes=[2, 2, 2, 2], rates=rates, solver="both")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) \
        == EXIT_VALIDATION
    write_scenario(config, sizes=[2, 2, 2, 2], rates=rates, solver="rk4")
    out = tmp_path / "traj.json"
    assert main(
        ["run", "--config", str(config), "--out", str(out), "--format", "json"]
    ) == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc) == {"times", "states"}
    assert abs(sum(doc["states"][-1]) - sum(doc["states"][0])) <= 1e-9


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
    ],
    ids=["t_end-Infinity", "rk4_step-NaN", "initial-Infinity", "overflowing-literal",
         "int-past-float-range", "int-past-digit-limit"],
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


def test_run_cyclic_scenario_both_mode(tmp_path):
    config = tmp_path / "cyclic.json"
    write_scenario(
        config,
        sizes=[3, 2],
        rates={
            "kind": "cyclic",
            "links": [0],
            "order": 3,
            "permutation": [1, 2, 0],
            "rate": 1.0,
        },
        time={"t_end": 1.0, "stride": 100},
    )
    out = tmp_path / "cyc.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    report = json.loads((tmp_path / "cyc.csv.report.json").read_text())
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


def test_scenario_round_trip(tmp_path):
    config = tmp_path / "scenario.json"
    write_scenario(config)
    scenario = load_scenario(config)
    again = Scenario.from_dict(scenario.to_dict())
    assert again == scenario


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


def test_verify_unknown_suite_exits_two():
    assert main(["verify", "--suite", "nonsense"]) == EXIT_PARSE


def test_verify_tampered_tolerance_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("RECO_TOLERANCE_SCALE", "1e-30")
    code = main(["verify", "--suite", "moebius", "--seed", "9",
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_PROPERTY


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


def test_coefficients_json_format(tmp_path):
    out = tmp_path / "coef.json"
    assert main(["coefficients", "--rates", "0.7,1.3", "--t-end", "1",
                 "--t-step", "0.25", "--out", str(out),
                 "--format", "json"]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["subsets"] == [0, 1, 2, 3]
    for row in doc["a"]:
        assert abs(sum(row) - 1.0) <= 1e-12
