"""Command line: scenario runs, invariant verification, coefficient tables.

Exit codes: 0 ok, 1 property failure, 2 parse error, 3 validation error,
4 numerical contract violation in `both` mode.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .dynamics import (
    METHOD_CLOSED_FORM,
    METHOD_CROSSOVER,
    METHOD_RK4,
    DisjointStretchSystem,
    RateMap,
    Trajectory,
    _rk4_run,
    coefficient_a,
    coefficient_b,
    compile_field,
    crossover_solution,
    output_grid,
    product_flow_apply,
    trajectory_to_csv_string,
    trajectory_to_json_dict,
)
from .generalized import CyclicOperator, _relabel_block0, generalized_flow_apply
from .lattice import LinkSet, _cached_blocks, all_link_sets
from .measure import Measure, ProductSpace, is_positive, random_probability
from .recombinator import recombine_weights
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

BOTH_MODE_TOLERANCE = 1e-6

SOLVERS = ("closed-form", "rk4", "both")
RATE_KINDS = ("general", "disjoint-stretch", "crossover", "cyclic")


class ScenarioParseError(Exception):
    pass


class ScenarioValidationError(Exception):
    pass


def _tolerance_scale() -> float:
    raw = os.environ.get("RECO_TOLERANCE_SCALE", "")
    if not raw:
        return 1.0
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ScenarioValidationError(f"RECO_TOLERANCE_SCALE={raw!r} is not a float") from exc
    if scale <= 0:
        raise ScenarioValidationError("RECO_TOLERANCE_SCALE must be positive")
    return scale


# ---------------------------------------------------------------------------
# Scenario document
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    sizes: tuple[int, ...]
    initial: dict
    rates: dict
    t_end: float
    stride: int
    solver: str
    rk4_step: float

    def to_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "initial": _plain(self.initial),
            "rates": _plain(self.rates),
            "time": {"t_end": self.t_end, "stride": self.stride},
            "solver": self.solver,
            "rk4_step": self.rk4_step,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioParseError("scenario document must be a JSON object")
        sizes = _expect(doc, "sizes", list, "scenario")
        initial = _expect(doc, "initial", dict, "scenario")
        rates = _expect(doc, "rates", dict, "scenario")
        time_spec = _expect(doc, "time", dict, "scenario")
        solver = _expect(doc, "solver", str, "scenario")
        step = doc.get("rk4_step", 1e-3)
        if not isinstance(step, (int, float)):
            raise ScenarioParseError("scenario.rk4_step: expected a number")
        t_end = _expect(time_spec, "t_end", (int, float), "scenario.time")
        stride = time_spec.get("stride", 1)
        if not isinstance(stride, int):
            raise ScenarioParseError("scenario.time.stride: expected an integer")
        kind = _expect(initial, "kind", str, "scenario.initial")
        if kind == "random":
            _expect(initial, "seed", int, "scenario.initial")
        elif kind == "weights":
            _expect(initial, "weights", list, "scenario.initial")
        else:
            raise ScenarioParseError(
                f"scenario.initial.kind: expected 'random' or 'weights', got {kind!r}"
            )
        rates_kind = _expect(rates, "kind", str, "scenario.rates")
        if rates_kind in ("general", "disjoint-stretch"):
            entries = _expect(rates, "entries", list, "scenario.rates")
            for i, entry in enumerate(entries):
                if not isinstance(entry, dict):
                    raise ScenarioParseError(f"scenario.rates.entries[{i}]: expected object")
                _expect(entry, "links", list, f"scenario.rates.entries[{i}]")
                _expect(entry, "rate", (int, float), f"scenario.rates.entries[{i}]")
        elif rates_kind == "crossover":
            _expect(rates, "per_link", list, "scenario.rates")
        elif rates_kind == "cyclic":
            _expect(rates, "links", list, "scenario.rates")
            _expect(rates, "order", int, "scenario.rates")
            _expect(rates, "permutation", list, "scenario.rates")
            _expect(rates, "rate", (int, float), "scenario.rates")
        else:
            raise ScenarioParseError(
                f"scenario.rates.kind: expected one of {RATE_KINDS}, got {rates_kind!r}"
            )
        if solver not in SOLVERS:
            raise ScenarioParseError(
                f"scenario.solver: expected one of {SOLVERS}, got {solver!r}"
            )
        if not all(isinstance(k, int) and not isinstance(k, bool) for k in sizes):
            raise ScenarioParseError("scenario.sizes: expected a list of integers")
        return cls(
            sizes=tuple(int(k) for k in sizes),
            initial=_plain(initial),
            rates=_plain(rates),
            t_end=float(t_end),
            stride=int(stride),
            solver=solver,
            rk4_step=float(step),
        )


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _expect(doc: dict, key: str, types, where: str):
    if key not in doc:
        raise ScenarioParseError(f"{where}.{key}: missing field")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ScenarioParseError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def _reject_constant(name: str):
    raise ScenarioParseError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    # Literals such as 1e999 overflow to infinity without being constants.
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


def _float_range_int(text: str) -> int:
    # Times, rates and weights become floats downstream, where an integer past
    # the float range overflows; int() itself raises ValueError past the
    # interpreter's digit limit.
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ScenarioParseError(f"integer {text[:20]}... exceeds the float range")
    return value


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(
            text,
            parse_constant=_reject_constant,
            parse_float=_finite_float,
            parse_int=_float_range_int,
        )
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    return Scenario.from_dict(doc)


# ---------------------------------------------------------------------------
# Building the runtime objects
# ---------------------------------------------------------------------------


@dataclass
class _Runtime:
    scenario: Scenario
    space: ProductSpace
    omega0: Measure
    closed_form: Callable[[float], Measure] | None
    field: Callable[[np.ndarray], np.ndarray] | None
    method: str


def _build_runtime(scenario: Scenario) -> _Runtime:
    try:
        space = ProductSpace(scenario.sizes)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from exc
    if space.n_links < 1:
        raise ScenarioValidationError("a scenario needs at least two nodes")
    if scenario.t_end < 0:
        raise ScenarioValidationError("time.t_end must be nonnegative")
    if scenario.stride < 1:
        raise ScenarioValidationError("time.stride must be a positive integer")
    if scenario.rk4_step <= 0:
        raise ScenarioValidationError("rk4_step must be positive")

    if scenario.initial["kind"] == "random":
        omega0 = random_probability(space, scenario.initial["seed"])
    else:
        weights = scenario.initial["weights"]
        if len(weights) != space.total_states:
            raise ScenarioValidationError(
                f"initial weights have length {len(weights)}, "
                f"space has {space.total_states} states"
            )
        omega0 = Measure(space, np.asarray(weights, dtype=np.float64))
        if not is_positive(omega0, 1e-12):
            raise ScenarioValidationError("initial weights must form a positive measure")

    rates = scenario.rates
    kind = rates["kind"]
    # Closed-form-only runs never evaluate the field, so none is compiled.
    needs_field = scenario.solver in ("rk4", "both")
    try:
        if kind == "general":
            rate_map = RateMap.from_pairs(
                (
                    (LinkSet.from_indices(entry["links"], space.n_links), entry["rate"])
                    for entry in rates["entries"]
                ),
                space.n_links,
            )
            if scenario.solver in ("closed-form", "both"):
                raise ScenarioValidationError(
                    "general rate maps have no closed form; use solver 'rk4'"
                )
            return _Runtime(scenario, space, omega0, None,
                            compile_field(space, rate_map), METHOD_RK4)
        if kind == "disjoint-stretch":
            system = DisjointStretchSystem(
                tuple(
                    (LinkSet.from_indices(entry["links"], space.n_links), entry["rate"])
                    for entry in rates["entries"]
                )
            )
            closed = lambda t: product_flow_apply(omega0, system, [t] * len(system))
            field = compile_field(space, system.as_rate_map()) if needs_field else None
            return _Runtime(scenario, space, omega0, closed, field, METHOD_CLOSED_FORM)
        if kind == "crossover":
            per_link = [float(r) for r in rates["per_link"]]
            closed = lambda t: crossover_solution(omega0, per_link, t)
            field = compile_field(space, RateMap.crossover(per_link)) if needs_field else None
            # Probe once so malformed rates surface as validation errors.
            closed(0.0)
            return _Runtime(scenario, space, omega0, closed, field, METHOD_CROSSOVER)
        if kind == "cyclic":
            op = CyclicOperator(
                space,
                LinkSet.from_indices(rates["links"], space.n_links),
                tuple(int(p) for p in rates["permutation"]),
                int(rates["order"]),
            )
            rho = float(rates["rate"])
            if rho <= 0:
                raise ScenarioValidationError("cyclic rate must be positive")
            closed = lambda t: generalized_flow_apply(omega0, op, rho, t)
            sizes = space.sizes
            blocks = _cached_blocks(op.cuts.bits, space.n_nodes)

            def field(w: np.ndarray) -> np.ndarray:
                twisted = _relabel_block0(
                    recombine_weights(w, sizes, blocks), op.perm, op.block0_states
                )
                return rho * (twisted - w)

            return _Runtime(scenario, space, omega0, closed,
                            field if needs_field else None, METHOD_CLOSED_FORM)
    except ScenarioValidationError:
        raise
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from exc
    raise ScenarioValidationError(f"unsupported rates kind {kind!r}")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _run_one(config: str, out_path: Path, fmt: str, scale: float) -> int:
    scenario = load_scenario(config)
    runtime = _build_runtime(scenario)
    h = scenario.rk4_step
    solver = scenario.solver

    rk4_traj = None
    if solver in ("rk4", "both"):
        times, raw = _rk4_run(
            runtime.field,
            np.array(runtime.omega0.weights),
            scenario.t_end,
            h,
            scenario.stride,
        )
        rk4_traj = Trajectory(
            tuple(times),
            tuple(Measure(runtime.space, w, runtime.omega0.nodes) for w in raw),
            "rk4",
        )

    closed_traj = None
    if solver in ("closed-form", "both"):
        grid = output_grid(scenario.t_end, h, scenario.stride)
        states = tuple(runtime.closed_form(t) for t in grid)
        closed_traj = Trajectory(tuple(grid), states, runtime.method)

    primary = closed_traj if closed_traj is not None else rk4_traj
    _write_trajectory(primary, out_path, fmt)

    if solver == "both":
        gaps = [
            float(np.abs(a.weights - b.weights).sum())
            for a, b in zip(closed_traj.states, rk4_traj.states)
        ]
        tolerance = BOTH_MODE_TOLERANCE * scale
        report = {
            "times": list(closed_traj.times),
            "gaps": gaps,
            "max_gap": max(gaps),
            "tolerance": tolerance,
            "passed": max(gaps) <= tolerance,
        }
        report_path = out_path.with_suffix(out_path.suffix + ".report.json")
        report_path.write_text(_dump_json(report))
        if not report["passed"]:
            print(
                f"{config}: closed form and rk4 disagree by {max(gaps):.3e} "
                f"(tolerance {tolerance:.3e})",
                file=sys.stderr,
            )
            return EXIT_NUMERIC
    return EXIT_OK


def _write_trajectory(traj: Trajectory, out_path: Path, fmt: str) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        out_path.write_text(trajectory_to_csv_string(traj))
    else:
        out_path.write_text(_dump_json(trajectory_to_json_dict(traj)))


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    scale = _tolerance_scale()
    configs = args.config
    out = Path(args.out)
    if len(configs) == 1:
        return _run_one(configs[0], out, args.format, scale)
    # Batch mode: the output path is a directory, one artifact per scenario.
    out.mkdir(parents=True, exist_ok=True)
    suffix = ".csv" if args.format == "csv" else ".json"
    codes = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        futures = [
            pool.submit(
                _run_isolated, cfg, out / (Path(cfg).stem + suffix), args.format, scale
            )
            for cfg in configs
        ]
        for future in concurrent.futures.as_completed(futures):
            codes.append(future.result())
    return max(codes)


def _run_isolated(config: str, out_path: Path, fmt: str, scale: float) -> int:
    # One scenario of a batch: its parse or validation error is reported with
    # its path and becomes its exit code; the other scenarios still run.
    try:
        return _run_one(config, out_path, fmt, scale)
    except ScenarioParseError as exc:
        print(f"{config}: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        print(f"{config}: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    scale = _tolerance_scale()
    report = run_suite(args.suite, args.seed, scale)
    text = _dump_json(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report["passed"] else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def _cmd_coefficients(args: argparse.Namespace) -> int:
    try:
        rates = [float(part) for part in args.rates.split(",") if part.strip()]
    except ValueError:
        print(f"cannot parse --rates {args.rates!r}", file=sys.stderr)
        return EXIT_PARSE
    if not rates or any(r <= 0 or not math.isfinite(r) for r in rates):
        print("per-link rates must all be positive", file=sys.stderr)
        return EXIT_VALIDATION
    if not (math.isfinite(args.t_end) and math.isfinite(args.t_step)) \
            or args.t_end < 0 or args.t_step <= 0:
        print("need finite t-end >= 0 and t-step > 0", file=sys.stderr)
        return EXIT_VALIDATION
    n_links = len(rates)
    subsets = list(all_link_sets(n_links))
    times = []
    t = 0.0
    while t <= args.t_end + args.t_step * 1e-9:
        times.append(round(t, 12))
        t += args.t_step
    rows_a = [[coefficient_a(ls, rates, t) for ls in subsets] for t in times]
    rows_b = [[coefficient_b(ls, rates, t) for ls in subsets] for t in times]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        header = ["t"]
        header += [f"a{ls.bits}" for ls in subsets]
        header += [f"b{ls.bits}" for ls in subsets]
        lines = [",".join(header)]
        for t, ra, rb in zip(times, rows_a, rows_b):
            cells = [f"{t:.17g}"] + [f"{v:.17g}" for v in ra + rb]
            lines.append(",".join(cells))
        out.write_text("\n".join(lines) + "\n")
    else:
        out.write_text(
            _dump_json(
                {
                    "times": times,
                    "subsets": [ls.bits for ls in subsets],
                    "a": rows_a,
                    "b": rows_b,
                }
            )
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recombdyn",
        description="Recombination dynamics: scenario runs, verification, coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one or more scenario files")
    run_p.add_argument("--config", action="append", required=True, metavar="PATH")
    run_p.add_argument("--out", required=True, metavar="PATH")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--jobs", type=int, default=1, metavar="N")

    verify_p = sub.add_parser("verify", help="run a seeded invariant suite")
    verify_p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    verify_p.add_argument("--seed", type=int, default=0, metavar="U64")
    verify_p.add_argument("--out", metavar="PATH")

    coeff_p = sub.add_parser("coefficients", help="tabulate expansion coefficients")
    coeff_p.add_argument("--rates", required=True, metavar="R0,R1,...")
    coeff_p.add_argument("--t-end", dest="t_end", type=float, required=True)
    coeff_p.add_argument("--t-step", dest="t_step", type=float, required=True)
    coeff_p.add_argument("--out", required=True, metavar="PATH")
    coeff_p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "coefficients":
            return _cmd_coefficients(args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
