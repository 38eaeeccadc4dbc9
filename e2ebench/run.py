"""End-to-end simulator benchmark: one workload per process, or all three.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload compare_cold --seed 42 --seconds 25
    python3 e2ebench/run.py --workload policy_sweep --trace 1
    python3 e2ebench/run.py --workload all

``--trace 0`` times ops untraced and prints the end-to-end metrics.
``--trace 1`` alternates untraced ops with traced ones, in which every
layer's entry point is wrapped (see ``layers.py``), prints the per-layer
metrics and writes the spans as Chrome trace-event JSON. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``README.md`` beside this file
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import layers

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "e2ebench"

#: (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (
    ("op_s", "s"),
    ("sim_accesses_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Environment variables that pick the kernel form and the compiler;
#: every other REPRO_* variable is cleared so ambient state (an artifact
#: store, a row-cache switch, a start method) cannot leak in.
KEPT_ENV = ("REPRO_CC", "REPRO_PURE_KERNELS")


@dataclass
class Op:
    index: int
    seconds: float
    traced: bool
    outcome: object = None   # workloads.OpOutcome when the op succeeded
    error: Optional[str] = None


def _isolate_environment() -> None:
    for name in list(os.environ):
        if name.startswith("REPRO_") and name not in KEPT_ENV:
            del os.environ[name]


def _peak_rss_mb(include_children: bool) -> float:
    """Peak RSS in MB (Linux reports ru_maxrss in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _tail_text(values: List[float]) -> str:
    """The highest whole percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 20:
        return f"no percentile has 10 samples beyond it at n={n}"
    p = int(100 * (1 - 10 / n))
    return f"p{p} {sorted(values)[int(p / 100 * n)]:.4f} s"


def _cold_setups(bench_cls, seed: int, run_dir: Path) -> List[float]:
    """Wall time of fresh processes that each import the simulator,
    compile the C kernels into an empty directory and build the
    workload's set-up state."""
    samples = []
    for index in range(bench_cls.setup_samples):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", "--workload", bench_cls.name,
             "--seed", str(seed),
             "--kernels-dir", str(run_dir / f"ckernels-{index}")],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        samples.append(time.perf_counter() - start)
    return samples


def _time_ops(bench, seconds: float, tracer=None) -> List[Op]:
    """Run ops until ``seconds`` have passed (at least one).

    With a tracer, op 0 warms up untraced and untimed, then traced (odd)
    and untraced (even) ops alternate, so both kinds see the same
    conditions; at least one of each runs.
    """
    ops: List[Op] = []
    start = time.perf_counter()
    while (len(ops) < (3 if tracer else 1)
           or time.perf_counter() - start < seconds):
        op = Op(len(ops), 0.0, tracer is not None and len(ops) % 2 == 1)
        if op.traced:
            tracer.install()
            tracer.op = op.index
            span = tracer.begin("op")
        op_start = time.perf_counter()
        try:
            result = bench.op(op.index)
        except Exception:  # a failed op is counted, not fatal
            op.error = traceback.format_exc()
        op.seconds = time.perf_counter() - op_start
        if op.traced:
            tracer.end(span)
            tracer.op = None
            tracer.uninstall()
        if op.error is None:
            try:
                op.outcome = bench.outcome(result)
            except Exception:
                op.error = traceback.format_exc()
        ops.append(op)
    return ops


def _judge(ops: List[Op], workloads) -> Dict[str, object]:
    """Per-op checks; every op's rows must equal the first good op's."""
    reference: Optional[str] = None
    failed = 0
    notes: List[str] = []
    for op in ops:
        problems = []
        if op.error is not None:
            print(op.error, file=sys.stderr)
            problems.append(op.error.strip().splitlines()[-1])
        else:
            problems.extend(op.outcome.problems)
            digest = workloads.rows_digest(op.outcome.rows)
            if reference is None:
                reference = digest
            elif digest != reference:
                problems.append("simulated rows differ from the first op's")
        if problems:
            failed += 1
            notes.extend(f"op {op.index}: {p}" for p in problems)
    return {"failed": failed, "digest": reference, "notes": notes}


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _print_kernels(kernels: Dict[str, Optional[str]]) -> None:
    print("  replay kernel per policy: " + ", ".join(
        f"{policy} -> {kernel or 'generic loop'}"
        for policy, kernel in kernels.items()))


def _print_simulated(outcome, workloads) -> None:
    print("simulated results (stand-in graphs for Table III; timing model "
          "not validated against hardware, so no error figure; caches "
          "start empty; engine decode_seconds is always 0.0 on the fused "
          "path and is not reported):")
    print(f"  {'policy':<10}{'llc_misses':>12}{'mpki':>10}{'cycles':>16}")
    for policy, entry in workloads.aggregate_rows(outcome.rows).items():
        print(f"  {policy:<10}{entry['llc_misses']:>12}"
              f"{entry['llc_mpki']:>10.3f}{entry['cycles']:>16.0f}")
    groups: Dict[tuple, Dict[str, Dict]] = {}
    for row in outcome.rows:
        groups.setdefault((row["graph"], row["app"]), {})[row["policy"]] = row
    paper = workloads.PAPER_POPT_VS_DRRIP
    for (graph, app), by_policy in groups.items():
        if "P-OPT" in by_policy and "DRRIP" in by_policy:
            popt, drrip = by_policy["P-OPT"], by_policy["DRRIP"]
            reduction = 1 - popt["llc_misses"] / drrip["llc_misses"]
            speedup = drrip["cycles"] / popt["cycles"] - 1
            print(f"  P-OPT vs DRRIP on {app}/{graph}: miss reduction "
                  f"{reduction:.1%} (paper average "
                  f"{paper['miss_reduction']:.0%}), speedup "
                  f"{speedup:.1%} (paper average {paper['speedup']:.0%})")


def _end_to_end(args, ops, good, setup_samples, workloads):
    op_times = [op.seconds for op in ops]
    op_s = statistics.median(op_times)
    replayed = statistics.median(o.replayed for o in good) if good else 0
    values = {
        "op_s": op_s,
        "sim_accesses_per_s": replayed / op_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": _peak_rss_mb(
            include_children=args.workload == "matrix_store"),
    }
    print(f"  op_s                {op_s:.4f} s  (median of {len(ops)} ops; "
          f"{_tail_text(op_times)})")
    print("  op times            "
          + " ".join(f"{t:.3f}" for t in op_times))
    print(f"  sim_accesses_per_s  {_fmt(values['sim_accesses_per_s'])} 1/s"
          f"  ({_fmt(replayed)} trace accesses x policies replayed per op)")
    print(f"  setup_s             {values['setup_s']:.4f} s  (median of "
          f"{len(setup_samples)} cold set-ups: "
          + ", ".join(f"{s:.3f}" for s in setup_samples) + ")")
    print(f"  peak_rss_mb         {values['peak_rss_mb']:.1f} MB")
    if args.workload == "matrix_store" and good:
        warm = statistics.median(o.warm_s for o in good)
        store = statistics.median(o.store_bytes for o in good)
        print(f"  warm_op_s           {warm:.4f} s  (warm pass only)")
        print(f"  store_mb            {store / workloads.MB:.2f} MB  (on disk "
              f"after the cold pass)")
    return values


def _per_layer(args, tracer, traced, plain, good, workloads):
    spans = tracer.collect()
    traced_ops = [op.index for op in traced]
    values = layers.layer_metrics(spans, traced_ops)
    plain_s = statistics.median(op.seconds for op in plain)
    values["trace.overhead_s"] = values["trace.op_s"] - plain_s
    totals = workloads.aggregate_rows(good[0].rows) if good else {}
    for policy in layers.ALL_POLICIES:
        entry = totals.get(policy, {})
        values[f"cache.llc_misses.{policy}"] = entry.get("llc_misses", 0)
        values[f"cache.llc_mpki.{policy}"] = entry.get("llc_mpki", 0.0)
        values[f"timing.cycles.{policy}"] = entry.get("cycles", 0.0)
    if args.workload == "matrix_store" and good:
        values["warm_op_s"] = statistics.median(o.warm_s for o in good)
        values["store_mb"] = statistics.median(
            o.store_bytes for o in good) / workloads.MB

    out_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    layers.write_chrome_trace(spans, out_path, tracer.main_pid)
    print(f"traced: {len(spans)} spans over {len(traced_ops)} ops -> "
          f"{out_path}")
    print(f"  untraced op_s {plain_s:.4f} s, traced op_s "
          f"{values['trace.op_s']:.4f} s, tracing overhead "
          f"{values['trace.overhead_s']:+.4f} s; spans cover "
          f"{values['trace.span_coverage']:.1%} of op wall time")
    print(f"  {'span':<26}{'calls/op':>9}{'total s/op':>12}{'self s/op':>11}")
    for name, calls, total, own in layers.layer_table(spans, traced_ops):
        print(f"  {name:<26}{calls:>9}{total:>12.4f}{own:>11.4f}")
    _print_kernels({
        span["attrs"]["policy"]: span["attrs"]["kernel"]
        for span in spans
        if span["name"] == "simulate_prepared" and "policy" in span["attrs"]
    })
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    for name, value in values.items():
        if value:
            print(f"  {name:<34}{_fmt(value):>16} {units[name]}")
    return values


def run_workload(args) -> int:
    import workloads
    from repro.sim import ckernels

    bench_cls = workloads.WORKLOADS[args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples: List[float] = []
        if args.trace:
            os.environ["REPRO_CKERNELS_DIR"] = str(run_dir / "ckernels")
        else:
            setup_samples = _cold_setups(bench_cls, args.seed, run_dir)
            # Load the last probe's compiled kernels instead of rebuilding.
            os.environ["REPRO_CKERNELS_DIR"] = str(
                run_dir / f"ckernels-{len(setup_samples) - 1}")
        bench = bench_cls(args.seed, run_dir)
        bench.setup()
        kernels_live = ckernels.available()
        tracer = layers.Tracer(run_dir / "spans") if args.trace else None
        ops = _time_ops(bench, args.seconds, tracer)
        verdict = _judge(ops, workloads)
        measured = [op for op in ops if op.traced == bool(args.trace)]
        if args.trace:
            plain = [op for op in ops[1:] if not op.traced]
        good = [op.outcome for op in measured if op.outcome is not None]

        print(f"workload {args.workload}  seed {args.seed}  "
              f"{'traced' if args.trace else 'untraced'} ops "
              f"{len(measured)} of {len(ops)}")
        if args.trace:
            values = _per_layer(args, tracer, measured, plain, good,
                                workloads)
            registered = [(name, unit) for name, unit, _ in
                          layers.PER_LAYER]
        else:
            values = _end_to_end(args, measured, good, setup_samples,
                                 workloads)
            registered = list(END_TO_END)
        print(f"  error_rate          {verdict['failed']}/{len(ops)} = "
              f"{verdict['failed'] / len(ops):.3f} (failed/attempted ops)")
        for note in verdict["notes"]:
            print(f"  FAILED {note}")
        print(f"  rows sha256         {verdict['digest']}")
        print("kernel dispatch: compiled C kernels live: "
              f"{'yes' if kernels_live else 'no (pure-Python kernels)'}")
        if good and good[0].kernels:
            _print_kernels(good[0].kernels)
        elif not args.trace:
            print("  per-policy kernels run in pool workers: see the "
                  "traced run")
        if good:
            _print_simulated(good[0], workloads)
        result = {
            "correct": verdict["failed"] == 0,
            "attempted": len(ops),
            "failed": verdict["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in registered},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every report, then one
    JSON line with the metrics prefixed by workload name."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="compare_cold, policy_sweep, matrix_store or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--kernels-dir", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    _isolate_environment()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        os.environ["REPRO_CKERNELS_DIR"] = args.kernels_dir
        workloads.WORKLOADS[args.workload](args.seed, WORK).setup()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
