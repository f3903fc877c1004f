"""Time the three CLI calls whose wall times ROADMAP.md quotes by hand.

    python3 perfbench/reference.py

Each call runs ``REPEATS`` times through ``recombdyn.cli.main`` in this
process; the median goes to ``.perfbench_out/reference.json`` and stdout.
ROADMAP.md gives no configuration for the 10-link crossover; the one here
(1000 RK4 steps, 5 output points) matches its ~40k recombinations.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import workloads

OUT = workloads.ROOT / ".perfbench_out" / "reference"
REPEATS = 3

README_SCENARIO = {
    "sizes": [2, 3, 2],
    "initial": {"kind": "random", "seed": 11},
    "rates": {"kind": "disjoint-stretch",
              "entries": [{"links": [0], "rate": 1.0}, {"links": [1], "rate": 0.5}]},
    "time": {"t_end": 5.0, "stride": 100},
    "solver": "both",
    "rk4_step": 0.001,
}
CROSSOVER_10 = {
    "sizes": [2] * 11,
    "initial": {"kind": "random", "seed": 11},
    "rates": {"kind": "crossover", "per_link": [0.3 + 0.1 * i for i in range(10)]},
    "time": {"t_end": 1.0, "stride": 250},
    "solver": "both",
    "rk4_step": 0.001,
}


def main() -> int:
    workloads.add_src_to_path()
    from recombdyn import cli

    OUT.mkdir(parents=True, exist_ok=True)
    calls = {}
    for name, doc in (("readme_scenario_both", README_SCENARIO),
                      ("crossover_10_links_both", CROSSOVER_10)):
        config = OUT / f"{name}.json"
        config.write_text(json.dumps(doc))
        calls[name] = ["run", "--config", str(config), "--out", str(OUT / f"{name}.csv")]
    calls["verify_all_seed_0"] = ["verify", "--suite", "all", "--seed", "0",
                                  "--out", str(OUT / "verify.json")]
    medians = {}
    for name, argv in calls.items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            code = cli.main(argv)
            times.append(time.perf_counter() - t0)
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                return 1
        medians[name] = {"median_s": statistics.median(times), "runs_s": times}
    text = json.dumps(medians, indent=1)
    (OUT.parent / "reference.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
