"""Outside-in span tracing of the simulator's layers, and the per-layer metrics.

The simulator is not instrumented here: :meth:`Tracer.install` replaces
each layer's public entry point with a timing wrapper *where its caller
looks the name up* (``repro.sim.driver`` binds ``TOPT`` and
``ReplayEngine`` at import time, ``repro.sim.spec`` binds ``run_task``,
``repro.sim.parallel`` binds ``simulate_prepared``/``prepare_run``), so
patching only the defining module would miss calls.

A span records name, start, end, parent span, op id and pid. Spans stay
in memory; a forked pool worker drops the spans it inherited, appends its
own to ``<spill_dir>/<pid>.jsonl`` when each ``run_task`` ends, and the
parent merges those files once the run is over. ``time.perf_counter`` is
the system-wide monotonic clock on Linux, so worker and parent spans share
one time axis.

Self time is a span's duration minus the union of the intervals its child
spans cover (children in other processes included, so a ``run_spec``
span's self time is the pool's idle time). A layer's time is the sum of
the self times of its entry points, so the layers of one op add up to the
op's traced wall time minus the benchmark's own glue.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Every policy any workload replays, in report order.
ALL_POLICIES = (
    "LRU", "DRRIP", "SHiP-PC", "Hawkeye", "OPT", "P-OPT", "P-OPT-SE",
    "T-OPT",
)

_PER_POLICY = (
    ("driver.simulate_s", "s", "lower"),
    ("driver.setup_self_s", "s", "lower"),
    ("replay.s", "s", "lower"),
    ("replay.accesses_per_s", "1/s", "higher"),
    ("cache.llc_misses", "count", "lower"),
    ("cache.llc_mpki", "1/kinstr", "lower"),
    ("timing.cycles", "cycles", "lower"),
)

#: (name, unit, better) of every per-layer metric, in report order. A
#: metric a workload never exercises reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("graph.load_s", "s", "lower"),
    ("graph.transpose_s", "s", "lower"),
    ("graph.edges", "count", "lower"),
    ("apps.prepare_s", "s", "lower"),
    ("apps.trace_accesses", "count", "lower"),
    ("engine.filter_s", "s", "lower"),
    ("engine.llc_visible", "count", "lower"),
    ("engine.llc_visible_ratio", "ratio", "lower"),
    ("engine.filters_built", "count", "lower"),
    ("engine.filters_reused", "count", "higher"),
    ("popt.rm_build_s", "s", "lower"),
    ("popt.rm_builds", "count", "lower"),
    ("popt.rm_bytes", "B", "lower"),
    ("popt.topt_setup_s", "s", "lower"),
    ("opt.next_use_s", "s", "lower"),
    *(
        (f"{prefix}.{policy}", unit, better)
        for prefix, unit, better in _PER_POLICY
        for policy in ALL_POLICIES
    ),
    ("replay.generic_fallbacks", "count", "lower"),
    ("artifacts.put_s", "s", "lower"),
    ("artifacts.get_s", "s", "lower"),
    ("artifacts.writes", "count", "lower"),
    ("artifacts.hits", "count", "higher"),
    ("artifacts.misses", "count", "lower"),
    ("artifacts.hit_ratio", "ratio", "higher"),
    ("artifacts.bytes_written", "B", "lower"),
    ("artifacts.bytes_read", "B", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.task_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("warm_op_s", "s", "lower"),
    ("store_mb", "MB", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
)


def _entry_bytes(path) -> int:
    """Bytes on disk under one artifact-store entry directory."""
    return sum(
        item.stat().st_size for item in Path(path).iterdir() if item.is_file()
    )


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.main_pid = os.getpid()
        self.owner_pid = self.main_pid
        self.spans: List[Dict[str, object]] = []
        # A plain list, not thread-local: a pool may fork from its
        # manager thread, and the child must still see the open spans.
        self.stack: List[Dict[str, object]] = []
        self.op: Optional[int] = None
        self._count = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> Dict[str, object]:
        pid = os.getpid()
        if pid != self.owner_pid:
            # A forked worker: the parent's closed spans are not ours.
            self.owner_pid = pid
            self.spans = []
        self._count += 1
        span: Dict[str, object] = {
            "name": name,
            "id": f"{pid}.{self._count}",
            "parent": self.stack[-1]["id"] if self.stack else None,
            "op": self.op,
            "pid": pid,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.stack.append(span)
        return span

    def end(self, span: Dict[str, object]) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def spill(self) -> None:
        """Worker side: append this process's spans to its spill file."""
        if os.getpid() == self.main_pid or not self.spans:
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"{os.getpid()}.jsonl", "a") as sink:
            for span in self.spans:
                sink.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[Dict[str, object]]:
        """Parent spans plus every worker's spilled spans."""
        merged = list(self.spans)
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("*.jsonl")):
                with open(path) as source:
                    merged.extend(json.loads(line) for line in source)
        return merged

    # -- patching ------------------------------------------------------

    def wrap(
        self,
        name: str,
        sites: Sequence[Tuple[object, str]],
        describe: Optional[Callable] = None,
        before: Optional[Callable] = None,
        after_end: Optional[Callable[[], None]] = None,
    ) -> None:
        """Replace ``getattr(owner, attr)`` at every site with one wrapper.

        All sites must hold the same object. ``before(args, kwargs)`` runs
        inside the span before the call; ``describe(args, kwargs, result,
        prior)`` returns attributes for the span from the call's result.
        """
        owner, attr = sites[0]
        original = getattr(owner, attr)
        for other_owner, other_attr in sites[1:]:
            if getattr(other_owner, other_attr) is not original:
                raise RuntimeError(
                    f"{name}: {other_owner!r}.{other_attr} is not the "
                    f"same object as {owner!r}.{attr}"
                )
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                prior = before(args, kwargs) if before else None
                result = original(*args, **kwargs)
                if describe is not None:
                    span["attrs"].update(
                        describe(args, kwargs, result, prior)
                    )
                return result
            finally:
                tracer.end(span)
                if after_end is not None:
                    after_end()

        for site_owner, site_attr in sites:
            self._patches.append((site_owner, site_attr, original))
            setattr(site_owner, site_attr, traced)

    def install(self) -> None:
        """Wrap the entry point of every layer the workloads reach."""
        from repro.graph import csr, datasets
        from repro.popt import rereference
        from repro.sim import artifacts, driver, engine, parallel, spec

        def graph_size(args, kwargs, graph, prior):
            return {"edges": int(graph.num_edges),
                    "vertices": int(graph.num_vertices)}

        def trace_size(args, kwargs, prepared, prior):
            return {"accesses": len(prepared.trace)}

        def filter_built(args, kwargs):
            return args[0].filter_counters["built"]

        def filter_info(args, kwargs, filt, prior):
            return {
                "built": args[0].filter_counters["built"] > prior,
                "filter": f"{os.getpid()}.{id(filt)}",
                "llc_visible": int(filt.llc_visible),
                "accesses": int(filt.num_accesses),
            }

        def policy_name(args, kwargs):
            return kwargs.get("policy_name", args[1] if len(args) > 1 else "")

        def sim_info(args, kwargs, result, prior):
            return {"policy": prior,
                    "kernel": result.details["engine"]["kernel"]}

        def replay_info(args, kwargs, run, prior):
            return {"kernel": run.kernel,
                    "llc_visible": int(run.filter.llc_visible)}

        def transpose_cached(args, kwargs):
            return bool(args[0]._transpose_cache)

        def transpose_info(args, kwargs, result, prior):
            return {"cached": prior}

        def matrix_bytes(args, kwargs, matrix, prior):
            return {"bytes": int(matrix.entries.nbytes)}

        def store_get(args, kwargs, entry, prior):
            kind, key = args[1], args[2]
            if entry is None:
                return {"kind": kind, "hit": False, "bytes": 0}
            path = args[0].entry_dir(kind, key)
            return {"kind": kind, "hit": True, "bytes": _entry_bytes(path)}

        def store_put(args, kwargs, path, prior):
            return {"kind": args[1], "bytes": _entry_bytes(path)}

        def task_info(args, kwargs, rows, prior):
            return {"policies": list(args[0].policies)}

        def spec_info(args, kwargs, rows, prior):
            return {"jobs": int(kwargs.get("jobs", args[1] if len(args) > 1
                                           else 1))}

        self.wrap("datasets.load", [(datasets, "load")], graph_size)
        self.wrap("CSRGraph.transpose", [(csr.CSRGraph, "transpose")],
                  transpose_info, before=transpose_cached)
        self.wrap("prepare_run",
                  [(driver, "prepare_run"), (parallel, "prepare_run")],
                  trace_size)
        self.wrap("get_private_filter", [(engine, "get_private_filter")],
                  filter_info, before=filter_built)
        self.wrap("llc_filtered_next_use",
                  [(driver, "llc_filtered_next_use")])
        self.wrap("simulate_prepared",
                  [(driver, "simulate_prepared"),
                   (parallel, "simulate_prepared")],
                  sim_info, before=policy_name)
        self.wrap("ReplayEngine.run", [(engine.ReplayEngine, "run")],
                  replay_info)
        self.wrap("rereference_matrix_for",
                  [(artifacts, "rereference_matrix_for")], matrix_bytes)
        self.wrap("build_rereference_matrix",
                  [(rereference, "build_rereference_matrix")])
        self.wrap("TOPT", [(driver, "TOPT")])
        self.wrap("ArtifactStore.get", [(artifacts.ArtifactStore, "get")],
                  store_get)
        self.wrap("ArtifactStore.put", [(artifacts.ArtifactStore, "put")],
                  store_put)
        # One wrapper at both sites also keeps it picklable for the pool:
        # pickle resolves it by its wrapped name, repro.sim.parallel.run_task.
        self.wrap("run_task", [(spec, "run_task"), (parallel, "run_task")],
                  task_info, after_end=self.spill)
        self.wrap("run_spec", [(spec, "run_spec")], spec_info)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def self_times(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Span id -> duration minus the union its children cover."""
    children: Dict[str, List[Dict[str, object]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        intervals = sorted(
            (max(c["start"], start), min(c["end"], end))
            for c in children.get(span["id"], ())
        )
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (end - start) - covered
    return out


def _op_layer_metrics(
    spans: List[Dict[str, object]], selfs: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer figures of one op from its spans (rows add the rest)."""
    m: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    by_id = {span["id"]: span for span in spans}
    filters: Dict[str, Tuple[int, int]] = {}
    spec_wall = 0.0
    jobs = 1
    for span in spans:
        name, attrs = span["name"], span["attrs"]
        own = selfs[span["id"]]
        dur = span["end"] - span["start"]
        if name == "datasets.load":
            m["graph.load_s"] += own
            m["graph.edges"] += attrs.get("edges", 0)
        elif name == "CSRGraph.transpose":
            m["graph.transpose_s"] += own
        elif name == "prepare_run":
            m["apps.prepare_s"] += own
            m["apps.trace_accesses"] += attrs.get("accesses", 0)
        elif name == "get_private_filter":
            m["engine.filter_s"] += own
            key = "engine.filters_built" if attrs.get("built") else \
                "engine.filters_reused"
            m[key] += 1
            if "filter" in attrs:
                filters[attrs["filter"]] = (
                    attrs["llc_visible"], attrs["accesses"]
                )
        elif name in ("rereference_matrix_for", "build_rereference_matrix"):
            m["popt.rm_build_s"] += own
            if name == "build_rereference_matrix":
                m["popt.rm_builds"] += 1
            else:
                m["popt.rm_bytes"] += attrs.get("bytes", 0)
        elif name == "TOPT":
            m["popt.topt_setup_s"] += own
        elif name == "llc_filtered_next_use":
            m["opt.next_use_s"] += own
        elif name == "simulate_prepared":
            policy = attrs.get("policy", "")
            if f"driver.simulate_s.{policy}" in m:
                m[f"driver.simulate_s.{policy}"] += dur
                m[f"driver.setup_self_s.{policy}"] += own
        elif name == "ReplayEngine.run":
            parent = by_id.get(span["parent"])
            policy = parent["attrs"].get("policy", "") if parent else ""
            if f"replay.s.{policy}" in m:
                m[f"replay.s.{policy}"] += own
                # Held as a count until the division below.
                m[f"replay.accesses_per_s.{policy}"] += attrs.get(
                    "llc_visible", 0
                )
            if attrs.get("kernel") is None:
                m["replay.generic_fallbacks"] += 1
        elif name == "ArtifactStore.get":
            m["artifacts.get_s"] += own
            m["artifacts.hits" if attrs.get("hit") else
              "artifacts.misses"] += 1
            m["artifacts.bytes_read"] += attrs.get("bytes", 0)
        elif name == "ArtifactStore.put":
            m["artifacts.put_s"] += own
            m["artifacts.writes"] += 1
            m["artifacts.bytes_written"] += attrs.get("bytes", 0)
        elif name == "run_task":
            m["parallel.tasks"] += 1
            m["parallel.task_s"] += dur
        elif name == "run_spec":
            spec_wall += dur
            jobs = max(jobs, attrs.get("jobs", 1))
        elif name == "op":
            m["trace.op_s"] = dur
            m["trace.span_coverage"] = 1.0 - own / dur if dur > 0 else 0.0
    for policy in ALL_POLICIES:
        seconds = m[f"replay.s.{policy}"]
        visible = m[f"replay.accesses_per_s.{policy}"]
        m[f"replay.accesses_per_s.{policy}"] = (
            visible / seconds if seconds > 0 else 0.0
        )
    if filters:
        visible = sum(v for v, _ in filters.values())
        accesses = sum(a for _, a in filters.values())
        m["engine.llc_visible"] = visible
        m["engine.llc_visible_ratio"] = visible / accesses if accesses else 0.0
    lookups = m["artifacts.hits"] + m["artifacts.misses"]
    m["artifacts.hit_ratio"] = m["artifacts.hits"] / lookups if lookups else 0.0
    if spec_wall > 0:
        m["parallel.efficiency"] = m["parallel.task_s"] / (jobs * spec_wall)
    return m


def layer_metrics(
    spans: List[Dict[str, object]], ops: Sequence[int]
) -> Dict[str, float]:
    """Median over the traced ops of each op's per-layer figures."""
    selfs = self_times(spans)
    per_op = []
    for op in ops:
        mine = [span for span in spans if span["op"] == op]
        per_op.append(_op_layer_metrics(mine, selfs))
    return {
        name: statistics.median(m[name] for m in per_op)
        for name, _, _ in PER_LAYER
    }


def layer_table(
    spans: List[Dict[str, object]], ops: Sequence[int]
) -> List[Tuple[str, int, float, float]]:
    """(span name, calls/op, total s/op, self s/op), by self time."""
    selfs = self_times(spans)
    totals: Dict[str, List[float]] = {}
    for span in spans:
        if span["op"] not in ops:
            continue
        entry = totals.setdefault(span["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["end"] - span["start"]
        entry[2] += selfs[span["id"]]
    n = max(1, len(ops))
    return sorted(
        ((name, round(c / n), t / n, s / n)
         for name, (c, t, s) in totals.items()),
        key=lambda row: -row[3],
    )


def write_chrome_trace(
    spans: List[Dict[str, object]], path: Path, main_pid: int
) -> None:
    """Write the spans as Chrome trace-event JSON (one X event each)."""
    origin = min((span["start"] for span in spans), default=0.0)
    events: List[Dict[str, object]] = []
    for pid in sorted({span["pid"] for span in spans}):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": pid,
            "args": {"name": "benchmark" if pid == main_pid
                     else f"pool worker {pid}"},
        })
    for span in sorted(spans, key=lambda s: s["start"]):
        events.append({
            "name": span["name"],
            "ph": "X",
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": span["pid"],
            "tid": span["pid"],
            "args": {"id": span["id"], "parent": span["parent"],
                     "op": span["op"], **span["attrs"]},
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
