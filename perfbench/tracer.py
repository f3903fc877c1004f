"""Span recorder that wraps recombdyn's public functions from the outside.

``instrument`` replaces each function listed in ``_LAYERS`` at every
module-level name that refers to it (so `dynamics.recombine_weights`,
`cli.recombine_weights` and `recombinator.recombine_weights` all see the same
wrapper), plus ``Measure.__post_init__`` and the verify suite table.  A
wrapper records one span per call: id, parent id, name, start, end and the id
of the CLI invocation ("run") it belongs to.  Spans are kept in per-thread
arrays in memory, and ``Recorder.save`` writes them once, at the end.  Counts
(steps, bytes, cache lookups) are recorded at the same boundaries.

``layer_metrics`` turns the spans and counts of the traced passes into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

CLOCK = time.perf_counter


class _Buffer:
    """Spans and counts of one thread; only that thread appends to it."""

    def __init__(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.runs = array("i")
        self.counts: dict[str, float] = {}
        self.stack: list[int] = []


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self.run_id = 0
        # Span that parents work started on pool threads (their stacks are empty).
        self.root = -1
        self.batches: list[tuple[int, int]] = []

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, value: float = 1) -> None:
        counts = self._buffer().counts
        counts[key] = counts.get(key, 0) + value

    def span(self, name: str, fn, extra=None, root: bool = False):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``extra(args, result)`` returns counts to add after the span closes.
        A ``root`` span parents the spans that pool threads open under it.
        """
        nid = self._name_id(name)
        ids = self._ids

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            buf = self._buffer()
            sid = next(ids)
            stack = buf.stack
            parent = stack[-1] if stack else self.root
            stack.append(sid)
            if root:
                saved_root, self.root = self.root, sid
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                stack.pop()
                if root:
                    self.root = saved_root
                buf.ids.append(sid)
                buf.parents.append(parent)
                buf.names.append(nid)
                buf.starts.append(t0)
                buf.ends.append(t1)
                buf.runs.append(self.run_id)
            if extra is not None:
                for key, value in extra(args, result).items():
                    self.count(key, value)
            return result

        return wrapped

    def counter(self, key: str, fn):
        """Wrap ``fn`` so each call only adds one to ``key`` (no span)."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapped

    def spans(self) -> dict[str, np.ndarray]:
        cols = ("ids", "parents", "names", "starts", "ends", "runs")
        return {col: np.concatenate([np.array(getattr(b, col)) for b in self._buffers])
                for col in cols}

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for buf in self._buffers:
            for key, value in buf.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def save(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, name_table=np.array(self.names), **self.spans())


# -- what gets wrapped --------------------------------------------------------

def _rw_bytes(args, result):
    w, _sizes, blocks = args[:3]
    return {"recombine_weights.bytes": 8 * w.size * len(blocks)}


def _serialized_bytes(args, result):
    traj = args[0]
    return {"serialize.bytes": 8 * len(traj.times) * (1 + traj.states[0].weights.size)}


def _written_bytes(args, result):
    return {"write.bytes": os.path.getsize(args[1])}


def _measure_bytes(args, result):
    return {"Measure.bytes": args[0].weights.nbytes}


# (module, function, span name, extra counts); each function is wrapped
# wherever a module of the package holds it under a module-level name.
_LAYERS = (
    ("recombinator", "recombine_weights", "recombinator.recombine_weights", _rw_bytes),
    ("recombinator", "recombine", "recombinator.recombine", None),
    ("dynamics", "crossover_solution", "dynamics.crossover_solution", None),
    ("dynamics", "product_flow_apply", "dynamics.product_flow_apply", None),
    ("dynamics", "semigroup_apply", "dynamics.semigroup_apply", None),
    ("dynamics", "moebius_transform", "dynamics.moebius_transform", None),
    ("dynamics", "coefficient_b", "dynamics.coefficient_b", None),
    ("dynamics", "trajectory_to_csv_string", "dynamics.serialize", _serialized_bytes),
    ("dynamics", "trajectory_to_json_dict", "dynamics.serialize", _serialized_bytes),
    ("measure", "total_variation", "measure.total_variation", None),
    ("measure", "marginal", "measure.marginal", None),
    ("measure", "tensor", "measure.tensor", None),
    ("generalized", "generalized_flow_apply", "generalized.generalized_flow_apply", None),
    ("generalized", "flow_coefficients", "generalized.flow_coefficients", None),
    ("cli", "load_scenario", "cli.parse", None),
    ("cli", "_build_runtime", "cli.build", None),
    ("cli", "_write_trajectory", "cli.write", _written_bytes),
    ("cli", "_run_one", "cli.run_one", None),
)
_COUNTED = (
    ("lattice", "subsets_of", "subsets_of.calls"),
    ("lattice", "supersets_of", "supersets_of.calls"),
    ("dynamics", "_rk4_step", "rk4.steps"),
)
_MODULES = ("recombdyn", "lattice", "measure", "recombinator", "dynamics",
            "generalized", "verify", "cli")


def _modules():
    return [importlib.import_module(name if name == "recombdyn" else f"recombdyn.{name}")
            for name in _MODULES]


@contextmanager
def instrument(rec: Recorder):
    """Install the wrappers for the duration of the block, then restore.

    A function the sources no longer have is skipped; its metrics read 0.
    """
    from recombdyn.measure import Measure

    modules = _modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    replacements = {}

    def replace(mod, fn, make):
        original = getattr(by_name[mod], fn, None)
        if original is not None:
            replacements[id(original)] = make(original)

    for mod, fn, name, extra in _LAYERS:
        replace(mod, fn, lambda f, name=name, extra=extra: rec.span(name, f, extra))
    for mod, fn, key in _COUNTED:
        replace(mod, fn, lambda f, key=key: rec.counter(key, f))
    rec._name_id("dynamics.field")  # registered here, not first on a pool thread

    def traced_rk4_run(rk4_run):
        def run(field, *args, **kwargs):
            return rk4_run(rec.span("dynamics.field", field), *args, **kwargs)
        return rec.span("dynamics.rk4", functools.wraps(rk4_run)(run))

    def traced_cmd_run(cmd_run):
        def run(args):
            if len(args.config) > 1:
                rec.batches.append((rec.run_id, max(1, args.jobs)))
            return cmd_run(args)
        return rec.span("cli.run", functools.wraps(cmd_run)(run), root=True)

    replace("dynamics", "_rk4_run", traced_rk4_run)
    replace("cli", "_cmd_run", traced_cmd_run)
    replace("cli", "main", lambda f: rec.span("cli.main", f, root=True))

    saved = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in replacements:
                saved.append((module, attr, value))
                setattr(module, attr, replacements[id(value)])
    suite_table = getattr(by_name["verify"], "_SUITES", {})
    suites = dict(suite_table)
    for suite, fn in suites.items():
        suite_table[suite] = rec.span(f"verify.{suite}", fn)
    post_init = Measure.__post_init__
    Measure.__post_init__ = rec.span("measure.Measure", post_init, _measure_bytes)
    try:
        yield
    finally:
        Measure.__post_init__ = post_init
        suite_table.update(suites)
        for module, attr, value in saved:
            setattr(module, attr, value)


def blocks_cache_info():
    from recombdyn import lattice
    info = getattr(getattr(lattice, "_cached_blocks", None), "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


# -- per-layer metrics ----------------------------------------------------------

def layer_metrics(rec: Recorder, passes: int, cache_delta: tuple[int, int]) -> dict:
    """Per-pass layer metrics from the spans and counts of ``passes`` traced passes."""
    sp = rec.spans()
    counts = rec.counts()
    names = np.array(rec.names)
    dur = sp["ends"] - sp["starts"]
    n = len(dur)
    span_name = names[sp["names"]]
    # Index of each span's parent, then the time and the recombinations of
    # each span's direct children.
    order = np.argsort(sp["ids"])
    pos = np.minimum(np.searchsorted(sp["ids"][order], sp["parents"]), n - 1)
    has_parent = sp["ids"][order][pos] == sp["parents"]
    parent_idx = np.where(has_parent, order[pos], -1)
    parent_name = np.where(has_parent, span_name[parent_idx], "")
    child_time = np.bincount(parent_idx[has_parent], weights=dur[has_parent], minlength=n)

    def sel(name):
        return span_name == name

    def calls(name):
        return int(sel(name).sum())

    def time_s(name):
        return float(dur[sel(name)].sum())

    def under(child, parent):
        return int((sel(child) & (parent_name == parent)).sum())

    def ratio(a, b):
        return a / b if b else 0.0

    rw = "recombinator.recombine_weights"
    rw_time = time_s(rw)
    field = sel("dynamics.field")
    crossover = sel("dynamics.crossover_solution")
    crossover_recombines = under(rw, "dynamics.crossover_solution")
    rw_children = np.bincount(parent_idx[has_parent & sel(rw)], minlength=n)
    # A crossover call at t = 0 weights every nonempty cut set by zero and
    # recombines nothing; the per-call count is taken over the others.
    crossover_working = int((crossover & (rw_children > 0)).sum())
    hits, misses = cache_delta

    batch_wall = batch_work = 0.0
    for run_id, jobs in rec.batches:
        in_run = sp["runs"] == run_id
        batch_wall += jobs * float(dur[in_run & sel("cli.run")].sum())
        batch_work += float(dur[in_run & sel("cli.run_one")].sum())

    raw = {
        "recombinator.recombine_weights.calls": calls(rw),
        "recombinator.recombine_weights.time_s": rw_time,
        "recombinator.recombine_weights.us_p50":
            float(np.median(dur[sel(rw)]) * 1e6) if calls(rw) else 0.0,
        "recombinator.recombine_weights.bytes": counts.get("recombine_weights.bytes", 0),
        "recombinator.recombine_weights.gbytes_per_s":
            ratio(counts.get("recombine_weights.bytes", 0) / 1e9, rw_time),
        "recombinator.recombine.calls": calls("recombinator.recombine"),
        "recombinator.recombine.time_s": time_s("recombinator.recombine"),
        "dynamics.rk4.steps": counts.get("rk4.steps", 0),
        "dynamics.rk4.time_s": time_s("dynamics.rk4"),
        "dynamics.rk4.us_per_step":
            ratio(time_s("dynamics.rk4") * 1e6, counts.get("rk4.steps", 0)),
        "dynamics.field.evals": int(field.sum()),
        "dynamics.field.self_s": float((dur[field] - child_time[field]).sum()),
        "dynamics.field.recombines": under(rw, "dynamics.field"),
        "dynamics.field.recombines_per_eval": ratio(under(rw, "dynamics.field"), int(field.sum())),
        "dynamics.crossover_solution.calls": calls("dynamics.crossover_solution"),
        "dynamics.crossover_solution.working_calls": crossover_working,
        "dynamics.crossover_solution.time_s": time_s("dynamics.crossover_solution"),
        "dynamics.crossover_solution.recombines": crossover_recombines,
        "dynamics.crossover_solution.recombines_per_call":
            ratio(crossover_recombines, crossover_working),
        "dynamics.product_flow_apply.time_s": time_s("dynamics.product_flow_apply"),
        "dynamics.semigroup_apply.calls": calls("dynamics.semigroup_apply"),
        "dynamics.moebius_transform.calls": calls("dynamics.moebius_transform"),
        "dynamics.moebius_transform.time_s": time_s("dynamics.moebius_transform"),
        "dynamics.moebius_transform.recombines_per_call":
            ratio(under(rw, "dynamics.moebius_transform"), calls("dynamics.moebius_transform")),
        "dynamics.coefficient_b.calls": calls("dynamics.coefficient_b"),
        "dynamics.coefficient_b.time_s": time_s("dynamics.coefficient_b"),
        "dynamics.serialize.time_s": time_s("dynamics.serialize"),
        "dynamics.serialize.bytes": counts.get("serialize.bytes", 0),
        "measure.Measure.constructions": calls("measure.Measure"),
        "measure.Measure.construct_s": time_s("measure.Measure"),
        "measure.Measure.bytes_copied": counts.get("Measure.bytes", 0),
        "measure.total_variation.calls": calls("measure.total_variation"),
        "measure.total_variation.time_s": time_s("measure.total_variation"),
        "measure.marginal.time_s": time_s("measure.marginal"),
        "measure.tensor.time_s": time_s("measure.tensor"),
        "lattice.blocks_cache.lookups": hits + misses,
        "lattice.blocks_cache.hit_ratio": ratio(hits, hits + misses),
        "lattice.subsets_of.calls": counts.get("subsets_of.calls", 0),
        "lattice.supersets_of.calls": counts.get("supersets_of.calls", 0),
        "generalized.generalized_flow_apply.calls": calls("generalized.generalized_flow_apply"),
        "generalized.generalized_flow_apply.time_s": time_s("generalized.generalized_flow_apply"),
        "generalized.flow_coefficients.time_s": time_s("generalized.flow_coefficients"),
        "verify.algebra.time_s": time_s("verify.algebra"),
        "verify.semigroup.time_s": time_s("verify.semigroup"),
        "verify.moebius.time_s": time_s("verify.moebius"),
        "verify.generalized.time_s": time_s("verify.generalized"),
        "cli.parse.time_s": time_s("cli.parse"),
        "cli.build.time_s": time_s("cli.build"),
        "cli.write.time_s": time_s("cli.write"),
        "cli.write.bytes": counts.get("write.bytes", 0),
        "cli.batch.parallel_efficiency": ratio(batch_work, batch_wall),
        "trace.spans": n,
    }
    # Ratios stay as they are; sums and counts are per traced pass.
    return {k: v if _is_ratio(k) else v / passes for k, v in raw.items()}


def _is_ratio(name: str) -> bool:
    return name.endswith(("_per_call", "_per_eval", "_per_step", "_per_s", "_p50",
                          "hit_ratio", "parallel_efficiency"))
