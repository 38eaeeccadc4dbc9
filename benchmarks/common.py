"""Shared plumbing for the benchmark harnesses.

Each ``bench_figNN_*.py`` regenerates one figure or table of the paper:
it runs the corresponding harness from :mod:`repro.sim.experiments` once
under pytest-benchmark (wall-clock of the whole experiment), prints the
rows the paper reports, and writes them to ``benchmarks/results/`` so
EXPERIMENTS.md can cite a concrete run.

Environment knobs:

- ``REPRO_SCALE``  — graph/cache scale profile (default ``small``).
- ``REPRO_GRAPHS`` — comma-separated subset of Table III graph names.
- ``REPRO_ARTIFACTS_DIR`` — artifact-store directory; when set, the
  harnesses that run through the declarative spec layer reuse cached
  traces/filters/rows across benchmark invocations.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Sequence

from repro.graph.datasets import graph_names, is_file_spec
from repro.sim.artifacts import get_store
from repro.sim.tables import format_table

RESULTS_DIR = Path(__file__).parent / "results"
ENGINE_REPORT = RESULTS_DIR / "BENCH_engine.json"
KERNEL_REPORT = RESULTS_DIR / "BENCH_kernels.json"
POPT_KERNEL_REPORT = RESULTS_DIR / "BENCH_popt_kernels.json"
DYNAMIC_REPORT = RESULTS_DIR / "BENCH_dynamic.json"


def require_compiled_kernels() -> None:
    """Fail a kernel benchmark at its start when the compiled library is
    unavailable: its floors measure the C kernels, and without them
    every policy replays through the generic loop."""
    from repro.sim import ckernels

    if not ckernels.available():
        raise RuntimeError(
            f"compiled replay kernels unavailable: {ckernels.build_error()}"
        )


def get_scale() -> str:
    return os.environ.get("REPRO_SCALE", "small")


def get_graphs() -> Sequence[str]:
    """Graph subset from ``REPRO_GRAPHS``, validated against Table III.

    A typo'd graph name used to surface minutes later as a KeyError deep
    inside ``datasets.load``; fail fast here instead, listing the valid
    names. ``file:<path>`` specs pass through unvalidated — their loader
    already fails fast with the offending path.
    """
    raw = os.environ.get("REPRO_GRAPHS", "")
    if not raw:
        return tuple(graph_names())
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    valid = tuple(graph_names())
    unknown = [
        name for name in names
        if name not in valid and not is_file_spec(name)
    ]
    if unknown:
        raise SystemExit(
            f"REPRO_GRAPHS names unknown graph(s) {unknown!r}; "
            f"valid names: {', '.join(valid)} or file:<path> specs"
        )
    return names


def report(experiment_id: str, title: str,
           rows: List[Dict[str, object]],
           notes: str = "") -> None:
    """Print the experiment's rows and persist them under results/.

    When an artifact store is active (``REPRO_ARTIFACTS_DIR``), the
    saved report records its hit/miss counters so a reader can tell a
    warm-cache timing from a cold one.
    """
    store = get_store()
    if store is not None:
        stats = store.stats()
        notes = (notes + "\n" if notes else "") + (
            f"artifact cache: {stats['hits']} hits / "
            f"{stats['misses']} misses / {stats['writes']} writes "
            f"({stats['root']})"
        )
    table = format_table(rows, f"{experiment_id}: {title} "
                               f"[scale={get_scale()}]")
    text = table + ("\n\n" + notes if notes else "") + "\n"
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text)


def write_engine_report(rows: List[Dict[str, object]]) -> Path:
    """Persist replay-engine throughput rows as ``BENCH_engine.json``.

    The report carries the three-phase engine's instrumentation (wall
    time, accesses/sec, filter build/reuse counters, speedup over the
    reference path) so CI can smoke-check that the engine is live and
    actually faster than replaying the private levels per policy.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    ENGINE_REPORT.write_text(
        json.dumps({"scale": get_scale(), "rows": rows}, indent=2) + "\n"
    )
    return ENGINE_REPORT


def write_kernel_report(rows: List[Dict[str, object]]) -> Path:
    """Persist replay-kernel throughput rows as ``BENCH_kernels.json``.

    Per kernel-covered policy: phase-3 replay seconds under the generic
    per-access loop vs the policy's replay kernel, the speedup, whether
    the compiled (C) kernel form was in use, and the miss counts from
    both paths (CI asserts they are identical and that the speedup
    clears a conservative floor).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    KERNEL_REPORT.write_text(
        json.dumps({"scale": get_scale(), "rows": rows}, indent=2) + "\n"
    )
    return KERNEL_REPORT


def write_popt_kernel_report(rows: List[Dict[str, object]]) -> Path:
    """Persist next-ref kernel rows as ``BENCH_popt_kernels.json``.

    Per T-OPT/P-OPT policy: phase-3 replay seconds under the generic
    per-access loop vs the next-ref replay kernel, the speedup, the
    dispatched kernel name, whether the compiled (C) form was in use,
    miss counts from both paths, and whether the engine-cost counters
    matched (CI asserts identity and a speedup floor).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    POPT_KERNEL_REPORT.write_text(
        json.dumps({"scale": get_scale(), "rows": rows}, indent=2) + "\n"
    )
    return POPT_KERNEL_REPORT


def write_dynamic_report(payload: Dict[str, object]) -> Path:
    """Persist dynamic-graph RM update timings as ``BENCH_dynamic.json``.

    Per delta batch size: full-rebuild vs incremental-update seconds,
    the speedup, and bit-identity of the resulting matrices; plus the
    crossover batch size where the incremental path stops winning. CI
    asserts identity everywhere and a >=2x incremental speedup for
    small batches.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    DYNAMIC_REPORT.write_text(json.dumps(payload, indent=2) + "\n")
    return DYNAMIC_REPORT


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )
