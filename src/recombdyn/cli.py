"""Command line: scenario runs, invariant verification, coefficient tables.

Exit codes: 0 ok, 1 property failure, 2 parse error, 3 validation error,
4 numerical contract violation: a stored state that is not finite, has a
weight below -1e-9 |omega_0|, or has drifted in mass by more than
1e-9 |omega_0| (then nothing is written), or `both` mode's solvers disagree
by more than 1e-6 |omega_0|.

Every artifact is streamed as bytes into a temporary file next to its target
and renamed over it only once complete; a target that exists and is not a
regular file is a validation error.  The writers take the time grid and the
stack's row blocks: a closed form is computed, checked and compared one row
block at a time as it is streamed, never held whole.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .dynamics import (
    RateMap,
    expansion_coefficients,
    output_grid,
    product_flow_blocks,
    require_stretch_system,
    rk4_integrate,
)
from .generalized import cycle_lengths, generalized_flow_blocks, require_cyclic_map
from .lattice import LinkSet, all_link_sets
from .measure import Measure, ProductSpace, is_positive, random_probability, total_variation
from .recombinator import POSITIVITY_TOL, ZERO_TOTAL_VARIATION
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

# The largest `both` mode gap between the solvers, relative to |omega_0|, so
# that the check means the same at any mass.
BOTH_MODE_TOLERANCE = 1e-6

# Invariants of every stored state, relative to |omega_0|: the flows preserve
# mass and positivity, so larger defects mean the solver failed (RK4 past its
# stability bound drifts to huge weights of both signs without overflowing).
INVARIANT_TOLERANCE = 1e-9

# Memory bounds of one run, checked before any state is allocated: states of
# the space, and weights of one stored trajectory (grid points x states).  A
# closed form holds one row block of it (``row_blocks``) at a time, and RK4
# the whole stack.
MAX_STATES = 1 << 24
MAX_STORED_WEIGHTS = 1 << 27

# Work bound of one cyclic run, checked once the rate map has passed its
# checks and before any flow runs: the closed form's passes over the stored
# stack grow with (longest cycle + 1) x grid points x states.  Its memory is
# one row block, its products and omega_0 with its powers, one state each.
MAX_CYCLIC_CELLS = 1 << 27

# Work bound of one `coefficients` table: times x link sets.  The largest
# table the tests and the benchmark make has 11 x 256 cells.
MAX_TABLE_CELLS = 1 << 20

SOLVERS = ("closed-form", "rk4", "both")
RATE_KINDS = ("general", "disjoint-stretch", "crossover", "cyclic")


class ScenarioParseError(Exception):
    pass


class ScenarioValidationError(Exception):
    pass


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

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioParseError("scenario document must be a JSON object")
        sizes = _expect(doc, "sizes", list, "scenario", items=int)
        initial = _expect(doc, "initial", dict, "scenario")
        rates = _expect(doc, "rates", dict, "scenario")
        time_spec = _expect(doc, "time", dict, "scenario")
        solver = _expect(doc, "solver", str, "scenario")
        step = _expect(doc, "rk4_step", (int, float), "scenario", default=1e-3)
        t_end = _expect(time_spec, "t_end", (int, float), "scenario.time")
        stride = _expect(time_spec, "stride", int, "scenario.time", default=1)
        kind = _expect(initial, "kind", str, "scenario.initial")
        if kind == "random":
            _expect(initial, "seed", int, "scenario.initial")
        elif kind == "weights":
            _expect(initial, "weights", list, "scenario.initial", items=(int, float))
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
                _expect(entry, "links", list, f"scenario.rates.entries[{i}]", items=int)
                _expect(entry, "rate", (int, float), f"scenario.rates.entries[{i}]")
        elif rates_kind == "crossover":
            _expect(rates, "per_link", list, "scenario.rates", items=(int, float))
        elif rates_kind == "cyclic":
            _expect(rates, "links", list, "scenario.rates", items=int)
            _expect(rates, "permutation", list, "scenario.rates", items=int)
            _expect(rates, "rate", (int, float), "scenario.rates")
        else:
            raise ScenarioParseError(
                f"scenario.rates.kind: expected one of {RATE_KINDS}, got {rates_kind!r}"
            )
        if solver not in SOLVERS:
            raise ScenarioParseError(
                f"scenario.solver: expected one of {SOLVERS}, got {solver!r}"
            )
        return cls(
            sizes=tuple(int(k) for k in sizes),
            initial=initial,
            rates=rates,
            t_end=float(t_end),
            stride=int(stride),
            solver=solver,
            rk4_step=float(step),
        )


def _expect(doc: dict, key: str, types, where: str, items=None, default=None):
    # ``items``, for a list field, is the type every element must have; a
    # field with a ``default`` may be left out.
    if key not in doc:
        if default is not None:
            return default
        raise ScenarioParseError(f"{where}.{key}: missing field")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ScenarioParseError(f"{where}.{key}: wrong type {type(value).__name__}")
    if items is not None:
        for i, item in enumerate(value):
            if not isinstance(item, items) or isinstance(item, bool):
                raise ScenarioParseError(f"{where}.{key}[{i}]: wrong type {type(item).__name__}")
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
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: not UTF-8 at byte {exc.start}") from exc
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
    except RecursionError as exc:
        # The parser recurses once per level of nesting.
        raise ScenarioParseError(f"{path}: JSON nested too deeply") from exc
    return Scenario.from_dict(doc)


# ---------------------------------------------------------------------------
# Building the runtime objects
# ---------------------------------------------------------------------------


@dataclass
class _Runtime:
    omega0: Measure
    grid: list[float]
    # What both solvers take, the relabeling of a cyclic map included.
    rates: RateMap


def _build_runtime(scenario: Scenario) -> _Runtime:
    try:
        space = ProductSpace(scenario.sizes)
        grid = output_grid(scenario.t_end, scenario.rk4_step, scenario.stride)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from exc
    if space.n_links < 1:
        raise ScenarioValidationError("a scenario needs at least two nodes")
    if space.total_states > MAX_STATES:
        raise ScenarioValidationError(f"{space.total_states} states exceed the cap of {MAX_STATES}")
    stored = len(grid) * space.total_states
    if stored > MAX_STORED_WEIGHTS:
        raise ScenarioValidationError(
            f"{stored} stored weights exceed the cap of {MAX_STORED_WEIGHTS}"
        )

    if scenario.initial["kind"] == "random":
        seed = scenario.initial["seed"]
        if seed < 0:
            raise ScenarioValidationError(f"initial seed must be nonnegative, got {seed}")
        omega0 = random_probability(space, seed)
    else:
        weights = scenario.initial["weights"]
        if len(weights) != space.total_states:
            raise ScenarioValidationError(
                f"initial weights have length {len(weights)}, "
                f"space has {space.total_states} states"
            )
        omega0 = Measure(space, np.asarray(weights, dtype=np.float64))
        if not is_positive(omega0, POSITIVITY_TOL):
            raise ScenarioValidationError("initial weights must form a positive measure")
        with np.errstate(over="ignore"):  # an overflowing total is the error below
            total = omega0.mass
        if not math.isfinite(total):
            raise ScenarioValidationError("initial weights must have a finite total")
        # Below this total the flows treat the measure as zero (R = 0), so a
        # run would only lose its mass and end in exit 4.
        if total_variation(omega0) < ZERO_TOTAL_VARIATION:
            raise ScenarioValidationError(
                f"initial weights must total at least {ZERO_TOTAL_VARIATION:g}"
            )

    # Every kind is input for one rate map: (cut set, rate) pairs in document
    # order, plus the block-0 permutation of a cyclic map.  The map, not its
    # kind, picks the closed form (see ``_run_one``): a permutation takes the
    # cyclic flow, and a stretch system the product flow, in the map's order
    # (the factor order fixes the bytes).  Only a general map under rk4 need
    # not be a stretch system, so only the stretch check of a general map
    # hints at rk4; the map's own checks come first and fail under every
    # solver.
    rates, n_links = scenario.rates, space.n_links
    perm = None
    try:
        if rates["kind"] == "crossover":
            pairs = RateMap.crossover([float(r) for r in rates["per_link"]]).entries
        elif rates["kind"] == "cyclic":
            pairs = ((LinkSet.from_indices(rates["links"], n_links), float(rates["rate"])),)
            perm = tuple(rates["permutation"])
        else:
            pairs = tuple(
                (LinkSet.from_indices(entry["links"], n_links), entry["rate"])
                for entry in rates["entries"]
            )
        rate_map = RateMap(n_links, pairs, perm)
        if perm is not None:
            require_cyclic_map(rate_map, space)
            longest = max(cycle_lengths(rate_map.relabel))
            cells = (longest + 1) * len(grid) * space.total_states
            if cells > MAX_CYCLIC_CELLS:
                raise ScenarioValidationError(
                    f"cycle length {longest} needs {cells} cells, over the cap of {MAX_CYCLIC_CELLS}"
                )
        elif rates["kind"] != "general" or scenario.solver != "rk4":
            try:
                require_stretch_system(rate_map)
            except ValueError as exc:
                hint = "; use solver 'rk4'" if rates["kind"] == "general" else ""
                raise ScenarioValidationError(f"{exc}{hint}") from exc
        return _Runtime(omega0, grid, rate_map)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


class _NumericDefect(Exception):
    """A numerical contract violation: exit 4, its message on stderr."""


def _run_one(config: str, out_path: Path, fmt: str) -> int:
    scenario = load_scenario(config)
    runtime = _build_runtime(scenario)
    try:
        _run_checked(scenario, runtime, out_path, fmt)
    except _NumericDefect as exc:
        print(f"{config}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _run_checked(scenario: Scenario, runtime: _Runtime, out_path: Path, fmt: str) -> None:
    # A state that breaks an invariant is no result: nothing is written.  RK4
    # is checked whole.  The closed form runs one row block at a time as its
    # artifact is written, so the stream opens first, and a block that
    # breaks an invariant discards it.
    omega0, grid, rates = runtime.omega0, runtime.grid, runtime.rates
    bound = INVARIANT_TOLERANCE * total_variation(omega0)
    rk4 = None
    if scenario.solver != "closed-form":
        rk4 = rk4_integrate(omega0, rates, scenario.t_end, scenario.rk4_step, scenario.stride)
        if defect := _invariant_defect(grid, rk4.weights, omega0.mass, bound):
            raise _NumericDefect(f"the rk4 trajectory {defect}")
        if scenario.solver == "rk4":
            return _write_trajectory(rk4.times, out_path, fmt, [rk4.weights], rk4.space)
    flow = product_flow_blocks if rates.relabel is None else generalized_flow_blocks
    blocks, gaps = flow(omega0, rates, grid), []

    def checked() -> Iterator[np.ndarray]:
        for rows, block in blocks:
            if rk4 is not None:
                diff = np.subtract(block, rk4.weights[rows])
                gaps.extend(np.abs(diff, out=diff).sum(axis=1).tolist())
            if defect := _invariant_defect(grid[rows], block, omega0.mass, bound):
                raise _NumericDefect(f"the closed-form trajectory {defect}")
            yield block

    _write_trajectory(grid, out_path, fmt, checked(), omega0.space)
    if rk4 is not None:
        tolerance, max_gap = BOTH_MODE_TOLERANCE * total_variation(omega0), max(gaps)
        report = {"times": grid, "gaps": gaps, "max_gap": max_gap, "tolerance": tolerance,
                  "passed": max_gap <= tolerance}
        with _atomic_stream(_report_path(out_path)) as stream:
            stream.write(_dump_json(report).encode())
        if not report["passed"]:
            raise _NumericDefect(
                f"closed form and rk4 disagree by {max_gap:.3e} (tolerance {tolerance:.3e})"
            )


def _invariant_defect(times: list, rows: np.ndarray, mass: float, bound: float) -> str | None:
    # What is wrong with the first row, in time order, that is not finite,
    # has a weight below -bound or has drifted in mass by more than bound.
    for t, w in zip(times, rows):
        if not np.isfinite(w).all():
            return "is not finite"
        low, drift = float(w.min()), abs(float(w.sum()) - mass)
        if low < -bound:
            return f"has weight {low:.3e} at t={t:g}, below {-bound:.3e}"
        if drift > bound:
            return f"drifts in mass by {drift:.3e} at t={t:g}, over {bound:.3e}"
    return None


def _report_path(out_path: Path) -> Path:
    return out_path.with_suffix(out_path.suffix + ".report.json")


def _write_trajectory(times: Sequence[float], out_path: Path, fmt: str,
                      blocks: Iterable[np.ndarray], space: ProductSpace) -> None:
    # The writers and their word table load with the first artifact.
    from .writers import trajectory_to_csv, trajectory_to_json

    with _atomic_stream(out_path) as stream:
        if fmt == "csv":
            trajectory_to_csv(stream, times, blocks, space.total_states)
        else:
            trajectory_to_json(stream, times, blocks)


@contextmanager
def _atomic_stream(path: Path) -> Iterator[BinaryIO]:
    # The whole artifact or nothing: the block writes to a binary temp file
    # that replaces ``path`` only when the block completes, so readers never
    # see a partial file, and an interrupted write leaves neither a truncated
    # artifact nor its temp file.  A path that cannot be written (a
    # directory, or under a regular file) or that names anything but a
    # regular file (a FIFO, a device or a symlink, which the rename would
    # replace) is a validation error naming it.
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    else:
        if not stat.S_ISREG(mode):
            raise ScenarioValidationError(f"cannot write {path}: not a regular file")
    try:
        stream = open(tmp, "xb")
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    try:
        with stream:
            yield stream
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _unwritable(path, exc) from exc
        raise


def _unwritable(path: Path, exc: OSError) -> ScenarioValidationError:
    return ScenarioValidationError(f"cannot write {path}: {exc.strerror or exc}")


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    configs = args.config
    out = Path(args.out)
    if len(configs) == 1:
        return _run_one(configs[0], out, args.format)
    # Batch mode: the output path is a directory, one artifact (and report)
    # per scenario, named after the config; no two scenarios may share one.
    suffix = ".csv" if args.format == "csv" else ".json"
    targets = [out / (Path(cfg).stem + suffix) for cfg in configs]
    owners: dict[Path, str] = {}
    for cfg, target in zip(configs, targets):
        for path in (target, _report_path(target)):
            if path in owners:
                raise ScenarioValidationError(
                    f"{owners[path]} and {cfg} would both write {path}"
                )
            owners[path] = cfg
    # In config order, in this thread, so stderr follows the config order.
    codes = [
        _run_isolated(cfg, target, args.format)
        for cfg, target in zip(configs, targets)
    ]
    return max(codes)


def _run_isolated(config: str, out_path: Path, fmt: str) -> int:
    # One scenario of a batch: its parse or validation error is reported with
    # its path and becomes its exit code; the other scenarios still run.
    try:
        return _run_one(config, out_path, fmt)
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
    if args.seed < 0:
        raise ScenarioValidationError(f"seed must be nonnegative, got {args.seed}")
    report = run_suite(args.suite, args.seed)
    text = _dump_json(report)
    if args.out:
        with _atomic_stream(Path(args.out)) as stream:
            stream.write(text.encode())
    else:
        sys.stdout.write(text)
    return EXIT_OK if report["passed"] else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def _cmd_coefficients(args: argparse.Namespace) -> int:
    rates = []
    for n, part in enumerate(args.rates.split(","), 1):
        try:
            rates.append(float(part))
        except ValueError:
            what = f"{part!r} is not a number" if part.strip() else "is empty"
            raise ScenarioParseError(f"--rates {args.rates!r}: field {n} {what}") from None
    if any(r <= 0 or not math.isfinite(r) for r in rates):
        raise ScenarioValidationError("per-link rates must all be positive")
    if not (math.isfinite(args.t_end) and math.isfinite(args.t_step)) \
            or args.t_end < 0 or args.t_step <= 0:
        raise ScenarioValidationError("need finite t-end >= 0 and t-step > 0")
    n_links = len(rates)
    # An upper bound of the time count below, checked before any loop runs.
    steps = args.t_end / args.t_step
    cells = (math.floor(steps) + 2) << n_links if math.isfinite(steps) else math.inf
    if cells > MAX_TABLE_CELLS:
        raise ScenarioValidationError(f"the table needs over {MAX_TABLE_CELLS} cells")
    times = [round(k * args.t_step, 12) for k in range(math.floor(steps + 1e-9) + 1)]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ScenarioValidationError(f"t-step {args.t_step:g} repeats times rounded to 12 decimals")
    subsets = list(all_link_sets(n_links))
    # Columns ascend by bitmask, as all_link_sets does.
    table_a, table_b = expansion_coefficients(RateMap.crossover(rates), times)

    from .writers import write_csv_rows, write_json

    with _atomic_stream(Path(args.out)) as stream:
        if args.format == "csv":
            header = ["t"]
            header += [f"a{ls.bits}" for ls in subsets]
            header += [f"b{ls.bits}" for ls in subsets]
            stream.write((",".join(header) + "\n").encode())
            write_csv_rows(stream, times, [np.hstack((table_a, table_b))])
        else:
            write_json(stream, {"times": np.array(times), "subsets": [ls.bits for ls in subsets],
                                "a": table_a, "b": table_b})
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
    # Accepted for existing command lines; a batch always runs in order.
    run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="accepted and ignored: batches run serially")

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
