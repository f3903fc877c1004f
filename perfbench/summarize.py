"""Summarize the result files of many runs: median, quartiles and spread.

    python3 perfbench/summarize.py > perfbench/baseline.json

Reads ``.perfbench_out/results/*.json`` (one file per workload, seed and trace
mode; smoke runs are skipped).  For every workload and end-to-end metric it
gives the median, the quartiles of ``statistics.quantiles(values, n=4)`` and
the spread (Q3 - Q1) / median over the seeds found; for traced runs, the
median of every per-layer metric.  ``.perfbench_out/reference.json`` (from
reference.py) is included when present.
"""

from __future__ import annotations

import json
import statistics
import sys

import workloads

OUT = workloads.ROOT / ".perfbench_out"


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def summarize() -> dict:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted((OUT / "results").glob("*.json")):
        result = json.loads(path.read_text())
        if result["tag"].endswith("-smoke"):
            continue
        traced = bool(result["passes"]["traced_s"])
        runs.setdefault((result["workload"], traced), []).append(result)
    summary: dict = {"workloads": {}}
    for (workload, traced), results in sorted(runs.items()):
        entry = summary["workloads"].setdefault(workload, {})
        entry["failed_runs" if not traced else "failed_traced_runs"] = sum(
            not r["result"]["correct"] for r in results)
        if traced:
            names = results[0]["per_layer"]
            entry["per_layer_median"] = {
                n: statistics.median(r["per_layer"][n] for r in results) for n in names}
            entry["traced_seeds"] = sorted(r["env"]["seed"] for r in results)
        else:
            entry["seeds"] = sorted(r["env"]["seed"] for r in results)
            entry["end_to_end"] = {
                name: dict(_stats([r["end_to_end"][name][0] for r in results]),
                           unit=results[0]["end_to_end"][name][1])
                for name in results[0]["end_to_end"]
            }
        summary["env"] = {k: v for k, v in results[0]["env"].items() if k != "seed"}
    reference = OUT / "reference.json"
    if reference.exists():
        summary["reference"] = json.loads(reference.read_text())
    return summary


def main() -> int:
    sys.stdout.write(json.dumps(summarize(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
