"""Correctness gate and artifact digests, run outside the timed section."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Invariants every stored state must keep (the verify suite's own RK4 bounds).
# Every workload starts from a probability measure, so the mass stays at 1.
MAX_MASS_DRIFT = 1e-9
MIN_WEIGHT = -1e-9


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _states_ok(name: str, states: np.ndarray) -> tuple[str, bool, str]:
    if not np.isfinite(states).all():
        return name, False, "non-finite weight"
    drift = float(np.abs(states.sum(axis=1) - 1.0).max())
    low = float(states.min())
    ok = drift <= MAX_MASS_DRIFT and low >= MIN_WEIGHT
    return name, ok, f"mass drift {drift:.2e}, min weight {low:.2e}"


def _check_file(path: Path, name: str) -> tuple[str, bool, str]:
    if path.suffix == ".csv":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return _states_ok(name, data[:, 1:])
    doc = json.loads(path.read_text())
    if "checks" in doc:  # verify report
        ok = doc["passed"] is True and doc["tolerance_scale"] == 1.0
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        return name, ok, f"{len(doc['checks'])} checks, failed {failed}"
    if "gaps" in doc:  # `both` report
        return name, doc["passed"] is True, f"max gap {doc['max_gap']:.2e}"
    if "subsets" in doc:  # coefficients table
        a = np.array(doc["a"], dtype=float)
        b = np.array(doc["b"], dtype=float)
        sum_gap = float(np.abs(a.sum(axis=1) - 1.0).max())
        ok = bool(np.isfinite(a).all() and np.isfinite(b).all()) and sum_gap <= MAX_MASS_DRIFT
        return name, ok, f"a rows sum to 1 within {sum_gap:.2e}"
    return _states_ok(name, np.array(doc["states"], dtype=float))


def check_pass(out_dir: Path, plan: dict, codes: list[int]) -> list[tuple[str, bool, str]]:
    """One (name, passed, detail) record per invocation and per artifact."""
    checks = [(f"exit[{i}]", code == 0, f"exit code {code}") for i, code in enumerate(codes)]
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    for path in files:
        name = str(path.relative_to(out_dir))
        try:
            checks.append(_check_file(path, name))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks.append((name, False, f"unreadable: {exc!r}"))
    expected = len(plan["scenarios"]) + sum(
        s["solver"] == "both" for s in plan["scenarios"].values()
    ) + sum(argv[0] in ("verify", "coefficients") for argv in plan["invocations"])
    checks.append(("artifact_count", len(files) == expected,
                   f"{len(files)} artifacts, expected {expected}"))
    return checks
