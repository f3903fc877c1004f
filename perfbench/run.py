"""recombdyn benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Each run writes its inputs in fresh interpreters (``setup_s``), then calls
``recombdyn.cli.main`` in this process, one invocation after another (closed
loop, one caller), pass after pass for about ``--seconds``.  A pass is the
workload's list of CLI invocations; it always completes, so at least one runs.
With ``--trace 1`` untraced and traced passes alternate, and the traced ones
give the per-layer metrics.  The correctness gate and the determinism check run
outside the timed passes.  A calibration kernel samples the machine's speed
during every pass (see ``Calibration``).  The last line of stdout is the JSON
result; the lines before it list every metric with its unit, and the
environment.
"""

from __future__ import annotations

import os

# Thread pools are fixed before numpy loads (at most nproc threads anywhere).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# Checks always run at their own tolerances.
INHERITED_TOLERANCE_SCALE = os.environ.pop("RECO_TOLERANCE_SCALE", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": _nproc(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
        "inherited_RECO_TOLERANCE_SCALE": INHERITED_TOLERANCE_SCALE,
        "machine": platform.machine(),
    }


def setup(workload: str, seed: int, work: Path, smoke: bool) -> tuple[float, Path, bool]:
    """Write the inputs from fresh interpreters; median wall time, inputs, same every time."""
    times, seen = [], set()
    for k in range(1 if smoke else SETUP_REPEATS):
        target = work / f"inputs-{k}"
        cmd = [sys.executable, str(Path(__file__).with_name("workloads.py")),
               "--workload", workload, "--seed", str(seed), "--out", str(target)]
        cmd += ["--smoke"] if smoke else []
        # Timed to the child's own last clock reading: waiting with a timeout
        # polls in steps of up to 50 ms, which would quantize the result.
        t0 = time.perf_counter()
        done = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]) - t0)
        seen.add(json.dumps(gate.digests(target), sort_keys=True))
    return statistics.median(times), target, len(seen) == 1


class Workload:
    """The plan of one run, and its passes through the CLI."""

    def __init__(self, inputs: Path, work: Path):
        self.plan = json.loads((inputs / "plan.json").read_text())
        self.inputs = inputs
        self.work = work
        self.invocations = 0

    def run_pass(self, index: int, calibration, rec=None) -> tuple[float, Path, list[int]]:
        """Wall time of the pass, less the calibration samples taken during it."""
        from recombdyn import cli
        out = self.work / f"pass-{index}"
        out.mkdir(parents=True)
        argvs = [[a.format(inp=self.inputs, out=out) for a in argv]
                 for argv in self.plan["invocations"]]
        gc.collect()
        codes = []
        with calibration.sampling():
            t0 = time.perf_counter()
            for argv in argvs:
                if rec is not None:
                    rec.run_id = self.invocations
                self.invocations += 1
                try:
                    codes.append(cli.main(argv))
                except Exception:  # a crash is one failed invocation, not a lost run
                    traceback.print_exc()
                    codes.append(-1)
            wall = time.perf_counter() - t0
        return wall - calibration.spent, out, codes


# -- machine-speed calibration -------------------------------------------------
# On a shared 2-CPU machine the speed of a core changed by up to ~40 % from one
# second to the next (in CPU time, so not by losing the CPU), and raw pass
# times over ten seeds spread (Q3 - Q1) / median = 0.1 to 0.27.  A timer signal
# therefore interrupts every pass each SAMPLE_INTERVAL_S and times a small
# fixed kernel of the benchmark's own code (an interpreter loop and small
# numpy calls, the mix the RK4 oracle spends its time in).  The kernel is
# timed in CPU time of the main thread: a `run` batch works in a pool thread
# even with one job, and the handler has to share the GIL with it, so a wall
# clock would time the program's threading, not the machine.  `wall_rel`
# divides a pass's own time (its wall time minus the samples) by the mean
# kernel time sampled during it: the mean, not the median, because the pass
# integrates the speed over its whole length.

SAMPLE_INTERVAL_S = 0.25
_SMALL = np.arange(64, dtype=float).reshape(4, 4, 4)


def _kernel_time() -> float:
    t0 = time.thread_time()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    for _ in range(400):
        _SMALL.sum(axis=(0, 2))
        np.multiply.outer(_SMALL[0, 0], _SMALL[1, 1]).ravel()
    return time.thread_time() - t0


class Calibration:
    """Kernel CPU times sampled from a SIGALRM handler while a pass runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        self.samples.append(_kernel_time())
        self.spent += self.samples[-1]

    @contextmanager
    def sampling(self):
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # A pass shorter than the interval still gets one sample, taken after it.
        if not self.samples:
            self.samples.append(_kernel_time())


def _peak_rss_mb() -> float:
    """High-water resident memory of this process since its interpreter started.

    Not ``ru_maxrss``: Linux carries it across exec, so it also holds the peak
    of whatever process forked this one, and a launcher of 100 MB or more
    would set the figure.  ``VmHWM`` belongs to the address space exec made.
    """
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    tag = f"{workload}-s{seed}-t{int(trace)}{'-smoke' if smoke else ''}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, smoke, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, smoke, tag, work) -> dict:
    setup_s, inputs, inputs_same = setup(workload, seed, work, smoke)
    workloads.add_src_to_path()
    import recombdyn

    if not Path(recombdyn.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"recombdyn imported from {recombdyn.__file__}, not {ROOT / 'src'}")
    wl = Workload(inputs, work)
    rec = tracer.Recorder() if trace else None
    untraced, traced, passes = [], [], []
    untraced_rel, traced_rel, kernel_s = [], [], []
    cache = [0, 0]
    calibration = Calibration()

    def timed_pass(rel, traced_pass=False):
        if traced_pass:
            before = tracer.blocks_cache_info()
            with tracer.instrument(rec):
                own, out, codes = wl.run_pass(len(passes), calibration, rec)
            after = tracer.blocks_cache_info()
            cache[0] += after[0] - before[0]
            cache[1] += after[1] - before[1]
        else:
            own, out, codes = wl.run_pass(len(passes), calibration)
        kernel_s.append(statistics.mean(calibration.samples))
        rel.append(own / kernel_s[-1])
        passes.append((out, codes))
        return own

    # Start a pass (or an untraced/traced pair) only while it should end
    # within the budget; the first always runs.
    while not passes or sum(untraced + traced) + (untraced[-1] + (traced[-1] if trace else 0)) <= seconds:
        untraced.append(timed_pass(untraced_rel))
        if len(passes) == 1:
            # Peak of set-up plus one pass, as a fresh CLI process has it.
            # Later passes start from the heap the earlier ones left: at some
            # seeds (13 and 15 of 1-20) the allocator then keeps ~16 MB more resident
            # from the second export-closed pass on, the same on every run.
            peak_rss_mb = _peak_rss_mb()
        if trace:
            traced.append(timed_pass(traced_rel, traced_pass=True))

    # Correctness gate on the first pass; every other pass must match it byte for byte.
    first_out, _ = passes[0]
    checks = [("inputs_deterministic", inputs_same, f"{SETUP_REPEATS} set-ups")]
    checks += gate.check_pass(first_out, wl.plan, passes[0][1])
    reference = gate.digests(first_out)
    for k, (out, codes) in enumerate(passes[1:], start=1):
        checks += [(f"pass{k}.exit[{i}]", c == 0, f"exit code {c}") for i, c in enumerate(codes)]
        checks.append((f"pass{k}.digests", gate.digests(out) == reference, "same as pass 0"))
        shutil.rmtree(out)
    checks.append(_check_stored_digests(f"{workload}-s{seed}", inputs, reference))

    failed = [c for c in checks if not c[1]]
    wall_s = statistics.median(untraced)
    end_to_end = {
        "wall_rel": (statistics.median(untraced_rel), "calib"),
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "rk4_steps_per_s": (wl.plan["rk4_steps"] / wall_s, "1/s") if wl.plan["rk4_steps"] else None,
        "closed_evals_per_s":
            (wl.plan["closed_evals"] / wall_s, "1/s") if wl.plan["closed_evals"] else None,
        "failed_frac": (len(failed) / len(checks), "1"),
    }
    layers = {}
    if trace:
        layers = tracer.layer_metrics(rec, len(traced), tuple(cache))
        layers["trace.overhead_frac"] = statistics.median(traced_rel) / statistics.median(untraced_rel) - 1
        rec.save(OUT / "trace" / f"{workload}.npz")
    return {
        "workload": workload,
        "tag": tag,
        "env": environment(seed),
        "plan": {k: wl.plan[k] for k in ("rk4_steps", "closed_evals", "scenarios")},
        "passes": {"untraced_s": untraced, "traced_s": traced,
                   "untraced_quartiles_s": _quartiles(untraced),
                   "untraced_rel": untraced_rel, "traced_rel": traced_rel, "kernel_s": kernel_s},
        "checks": [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks],
        "attempted": len(checks),
        "failed": len(failed),
        "end_to_end": {k: v for k, v in end_to_end.items() if v is not None},
        "per_layer": layers,
    }


def _check_stored_digests(name: str, inputs: Path, reference: dict) -> tuple[str, bool, str]:
    """Runs of the same sources on the same inputs must write identical artifacts."""
    key = hashlib.sha256((_source_digest() + json.dumps(gate.digests(inputs), sort_keys=True))
                         .encode()).hexdigest()
    path = OUT / "digests" / f"{name}-{key[:16]}.json"
    if path.exists():
        same = json.loads(path.read_text()) == reference
        return "digests_vs_earlier_run", same, str(path.relative_to(ROOT))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
    return "digests_vs_earlier_run", True, "first run at this seed and source"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(result: dict, trace: bool) -> dict:
    """The last stdout line: the metrics BENCHMARK.json lists for this mode."""
    spec = _spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else {k: v for k, (v, _) in result["end_to_end"].items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def report(result: dict) -> None:
    print(f"# {result['tag']}: {len(result['passes']['untraced_s'])} untraced passes, "
          f"{len(result['passes']['traced_s'])} traced")
    for name, (value, unit) in result["end_to_end"].items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    for name, value in result["per_layer"].items():
        print(f"{name:<60} {value:>16.6g} {units.get(name, '')}")
    for name, ok, detail in ((c["name"], c["passed"], c["detail"]) for c in result["checks"]):
        if not ok:
            print(f"FAILED {name}: {detail}")
    print("# env " + json.dumps(result["env"], sort_keys=True))


def smoke() -> int:
    """Tiny inputs, every workload, both modes: every listed metric must appear."""
    problems = 0
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run(workload, 0, 0.0, trace, smoke=True)
            listed = _spec()["per_layer" if trace else "end_to_end"]
            values = result["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in listed if m["name"] not in values]
            ok = result["failed"] == 0 and not missing
            problems += not ok
            print(f"smoke {workload} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                  f"({result['attempted']} checks, {result['failed']} failed, missing {missing})")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs and check the metric names")
    args = parser.parse_args()
    if not (ROOT / "src" / "recombdyn" / "__init__.py").is_file():
        print(f"no recombdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(result, bool(args.trace))
    result["result"] = line
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{result['tag']}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps(line))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
