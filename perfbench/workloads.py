"""Seeded inputs for the three benchmark workloads.

``write_inputs`` writes the scenario files of one workload into a directory,
together with ``plan.json``: the argument lists of the CLI invocations that
make up one pass (with ``{inp}`` and ``{out}`` placeholders for the input and
output directories) and the work a pass does, counted from the inputs.

Run as a script it imports ``recombdyn.cli`` first, so that the time from
its start to the clock reading it prints last is the set-up a user pays
before the first CLI call:

    python3 perfbench/workloads.py --workload run-wide --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-all", "run-wide", "export-closed")

# `verify --suite all` always runs at this seed.  The suites draw their spaces
# and cut sets from the seed, and seeds 1-10 cost 17.7-25.4 s, so a seed
# taken from the benchmark seed would spread wider than any useful bound.
VERIFY_SEED = 0
# RK4 steps of `verify --suite all`, from the suite definitions: semigroup
# runs 20 systems to t=5 and moebius 3 crossovers to t=2, all with h=1e-3.
VERIFY_RK4_STEPS = 20 * 5000 + 3 * 2000


def add_src_to_path() -> None:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _steps(t_end: float, h: float) -> tuple[int, bool]:
    # Same rule as the CLI's grid: full steps of h plus a shortened last one.
    n_full = int(math.floor(t_end / h + 1e-9))
    return n_full, t_end - n_full * h > h * 1e-12


def rk4_steps(doc: dict) -> int:
    if doc["solver"] == "closed-form":
        return 0
    n_full, partial = _steps(doc["time"]["t_end"], doc["rk4_step"])
    return n_full + partial


def grid_points(doc: dict) -> int:
    if doc["solver"] == "rk4":
        return 0
    n_full, partial = _steps(doc["time"]["t_end"], doc["rk4_step"])
    stride = doc["time"]["stride"]
    points = n_full // stride + 1
    return points + (n_full % stride != 0 or partial)


def _scenario(sizes, rates, t_end, h, stride, solver, rng) -> dict:
    return {
        "sizes": list(sizes),
        "initial": {"kind": "random", "seed": rng.randrange(2**31)},
        "rates": rates,
        "time": {"t_end": t_end, "stride": stride},
        "solver": solver,
        "rk4_step": h,
    }


def _rate(rng: random.Random) -> float:
    return round(rng.uniform(0.3, 1.5), 6)


def _crossover(n_links: int, rng) -> dict:
    return {"kind": "crossover", "per_link": [_rate(rng) for _ in range(n_links)]}


def _entries(kind: str, cut_sets, rng) -> dict:
    return {
        "kind": kind,
        "entries": [{"links": list(links), "rate": _rate(rng)} for links in cut_sets],
    }


def _cyclic(block0_states: int, rng) -> dict:
    # Two 3-cycles (or one, for 3 states): order 3 whatever the shuffle.
    states = list(range(block0_states))
    rng.shuffle(states)
    perm = list(range(block0_states))
    for i in range(0, block0_states, 3):
        a, b, c = states[i:i + 3]
        perm[a], perm[b], perm[c] = b, c, a
    return {"kind": "cyclic", "links": [0], "order": 3, "permutation": perm,
            "rate": _rate(rng)}


def _plan_run_wide(rng, smoke: bool) -> tuple[dict, list]:
    # Shapes and cut positions are fixed so every seed does the same work;
    # the seed draws rates, initial measures and the cyclic relabeling.
    if smoke:
        docs = {
            "wide-crossover": _scenario([2] * 4, _crossover(3, rng), 0.2, 1e-2, 10, "both", rng),
            "wide-stretch": _scenario([3] * 4, _entries("disjoint-stretch", [[0], [2]], rng),
                                      0.2, 1e-2, 10, "both", rng),
            "wide-general": _scenario([2] * 4, _entries("general", [[0, 1], [1, 2]], rng),
                                      0.2, 1e-2, 10, "rk4", rng),
            "wide-cyclic": _scenario([3, 2, 2], _cyclic(3, rng), 0.2, 1e-2, 10, "both", rng),
        }
    else:
        docs = {
            # 2^11 states, 10 links: 1023 recombinations per closed-form point.
            "wide-crossover": _scenario([2] * 11, _crossover(10, rng), 2.0, 1e-2, 50, "both", rng),
            # 4^8 states: memory-bound marginals with early and late cuts.
            "wide-stretch": _scenario([4] * 8, _entries("disjoint-stretch", [[0], [2, 3], [6]], rng),
                                      0.6, 1e-2, 20, "both", rng),
            # 4^7 states, overlapping stretches: RK4 only.
            "wide-general": _scenario([4] * 7, _entries("general", [[0, 2], [1, 4], [3, 5], [2]], rng),
                                      1.0, 1e-2, 25, "rk4", rng),
            # 6 * 4^5 states, cyclic relabeling of the first node.
            "wide-cyclic": _scenario([6, 4, 4, 4, 4, 4], _cyclic(6, rng), 2.0, 1e-2, 20, "both", rng),
        }
    argv = ["run"]
    for name in docs:
        argv += ["--config", f"{{inp}}/{name}.json"]
    # One job: with two threads on a 2-CPU machine, passes at one seed took
    # 1.8-3.5 s (GIL hand-offs), against 2.7-2.8 s with one thread.
    argv += ["--out", "{out}/wide", "--format", "csv", "--jobs", "1"]
    return docs, [argv]


def _plan_export_closed(rng, smoke: bool) -> tuple[dict, list]:
    if smoke:
        crossover_links, stretch, cyclic, coeff_links = 3, ([2] * 4, [[0], [2]]), ([3, 2, 2], 3), 3
    else:
        crossover_links, stretch, cyclic, coeff_links = 10, ([4] * 8, [[0], [2, 3], [6]]), \
            ([6, 4, 4, 4, 4, 4], 6), 8
    docs = {
        "closed-crossover": _scenario([2] * (crossover_links + 1), _crossover(crossover_links, rng),
                                      1.0, 0.1, 1, "closed-form", rng),
        "closed-stretch": _scenario(stretch[0], _entries("disjoint-stretch", stretch[1], rng),
                                    1.0, 0.1, 1, "closed-form", rng),
        "closed-cyclic": _scenario(cyclic[0], _cyclic(cyclic[1], rng), 1.0, 0.1, 1, "closed-form", rng),
    }
    rates = ",".join(str(_rate(rng)) for _ in range(coeff_links))
    invocations = [
        ["run", "--config", "{inp}/closed-crossover.json", "--out", "{out}/closed-crossover.json",
         "--format", "json"],
        ["run", "--config", "{inp}/closed-stretch.json", "--config", "{inp}/closed-cyclic.json",
         "--out", "{out}/closed", "--format", "csv", "--jobs", "1"],
        ["coefficients", "--rates", rates, "--t-end", "1", "--t-step", "0.1",
         "--out", "{out}/coefficients.json", "--format", "json"],
    ]
    return docs, invocations


def make_plan(workload: str, seed: int, smoke: bool = False) -> tuple[dict, dict]:
    """Scenario documents and the pass plan of one workload at one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        suite = "generalized" if smoke else "all"
        docs = {}
        invocations = [["verify", "--suite", suite, "--seed", str(VERIFY_SEED),
                        "--out", "{out}/verify.json"]]
        steps = 0 if smoke else VERIFY_RK4_STEPS
    elif workload == "run-wide":
        docs, invocations = _plan_run_wide(rng, smoke)
        steps = sum(rk4_steps(doc) for doc in docs.values())
    elif workload == "export-closed":
        docs, invocations = _plan_export_closed(rng, smoke)
        steps = 0
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    plan = {
        "workload": workload,
        "seed": seed,
        "invocations": invocations,
        "rk4_steps": steps,
        "closed_evals": sum(grid_points(doc) for doc in docs.values()),
        "scenarios": {name: {"solver": doc["solver"], "states": math.prod(doc["sizes"])}
                      for name, doc in docs.items()},
    }
    return docs, plan


def write_inputs(workload: str, seed: int, out: Path, smoke: bool = False) -> None:
    docs, plan = make_plan(workload, seed, smoke)
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        (out / f"{name}.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    (out / "plan.json").write_text(json.dumps(plan, sort_keys=True, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    add_src_to_path()
    import recombdyn.cli  # noqa: F401  (the import is part of the set-up cost)

    write_inputs(args.workload, args.seed, Path(args.out), args.smoke)
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the machine:
    # the caller subtracts its own reading from before the interpreter started.
    print(time.perf_counter())
    return 0


if __name__ == "__main__":
    sys.exit(main())
