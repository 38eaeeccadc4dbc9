"""The benchmark's three workloads: set-up, one op, and per-op checks.

Every call into the simulator goes through a module attribute
(``datasets.load``, ``driver.simulate_prepared``, ``spec.run_spec``...)
so the traced run's wrappers in :mod:`layers` see it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.cache import scaled_hierarchy
from repro.cache.stats import MPKI_INSTRUCTIONS_PER_ACCESS
from repro.graph import datasets
from repro.sim import artifacts, ckernels, driver, engine, parallel, spec

#: The paper's average P-OPT improvement over DRRIP (Section VI-A).
PAPER_POPT_VS_DRRIP = {"miss_reduction": 0.24, "speedup": 0.22}

#: Store-size unit (bytes per MB).
MB = 1e6


def rows_digest(rows: Sequence[Dict[str, object]]) -> str:
    """sha256 over the canonical JSON of simulated rows."""
    text = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class OpOutcome:
    """What one op produced, beyond its wall time."""

    rows: List[Dict[str, object]]
    #: Trace accesses x policies replayed (the throughput numerator).
    replayed: int
    problems: List[str] = field(default_factory=list)
    #: policy -> replay kernel name (None = generic per-access loop).
    kernels: Dict[str, Optional[str]] = field(default_factory=dict)
    warm_s: float = 0.0
    store_bytes: int = 0


def _stats_tuple(stats) -> tuple:
    return (stats.accesses, stats.hits, stats.misses, stats.evictions,
            stats.writebacks)


def _sim_outcome(graph: str, app: str, results) -> OpOutcome:
    """Rows and invariants of several policies on one prepared run."""
    rows: List[Dict[str, object]] = []
    problems: List[str] = []
    kernels: Dict[str, Optional[str]] = {}
    private = None
    for result in results:
        llc = result.llc
        info = result.details["engine"]
        kernels[result.policy_name] = info["kernel"]
        rows.append({
            "graph": graph,
            "app": app,
            "policy": result.policy_name,
            "accesses": result.num_accesses,
            "l1_hits": result.level_counts[1],
            "l2_hits": result.level_counts[2],
            "llc_accesses": llc.accesses,
            "llc_hits": llc.hits,
            "llc_misses": llc.misses,
            "llc_evictions": llc.evictions,
            "llc_writebacks": llc.writebacks,
            "llc_mpki": result.llc_mpki,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "reserved_ways": result.reserved_llc_ways,
        })
        if llc.hits + llc.misses != info["llc_visible_accesses"]:
            problems.append(
                f"{result.policy_name}: LLC hits + misses "
                f"{llc.hits + llc.misses} != LLC-visible accesses "
                f"{info['llc_visible_accesses']}"
            )
        levels = (tuple(result.level_counts[1:3]),
                  *(_stats_tuple(s) for s in result.levels[:-1]))
        if private is None:
            private = levels
        elif levels != private:
            problems.append(
                f"{result.policy_name}: L1/L2 counts differ from "
                f"{results[0].policy_name}'s on the same prepared run"
            )
    by_policy = {row["policy"]: row["llc_misses"] for row in rows}
    if "OPT" in by_policy:
        for policy, misses in by_policy.items():
            if misses < by_policy["OPT"]:
                problems.append(
                    f"OPT misses {by_policy['OPT']} > {policy} misses "
                    f"{misses}: Belady bound broken"
                )
    replayed = sum(int(row["accesses"]) for row in rows)
    return OpOutcome(rows=rows, replayed=replayed, problems=problems,
                     kernels=kernels)


class CompareCold:
    """``python -m repro compare`` for PR on DBP at large scale, in-process:
    a fresh graph, one trace, four policies."""

    name = "compare_cold"
    #: Cold set-ups per run (setup_s is their median).
    setup_samples = 5
    graph, app, scale = "DBP", "PR", "large"
    policies = ("LRU", "DRRIP", "P-OPT", "T-OPT")

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        ckernels.lib()
        self.hierarchy = scaled_hierarchy(self.scale)

    def op(self, index: int):
        graph = datasets.load(self.graph, scale=self.scale, seed=self.seed)
        prepared = driver.prepare_run(parallel.APP_FACTORIES[self.app](),
                                      graph)
        return [
            driver.simulate_prepared(prepared, policy, self.hierarchy)
            for policy in self.policies
        ]

    def outcome(self, results) -> OpOutcome:
        return _sim_outcome(self.graph, self.app, results)


class PolicySweep(CompareCold):
    """Eight policies replayed on one prepared CC/KRON run built in set-up."""

    name = "policy_sweep"
    setup_samples = 3  # each builds a large graph and trace (~4 s)
    graph, app, scale = "KRON", "CC", "large"
    policies = ("LRU", "DRRIP", "SHiP-PC", "Hawkeye", "OPT", "P-OPT",
                "P-OPT-SE", "T-OPT")

    def setup(self) -> None:
        super().setup()
        graph = datasets.load(self.graph, scale=self.scale, seed=self.seed)
        self.prepared = driver.prepare_run(
            parallel.APP_FACTORIES[self.app](), graph
        )
        engine.get_private_filter(self.prepared, self.hierarchy)

    def op(self, index: int):
        return [
            driver.simulate_prepared(self.prepared, policy, self.hierarchy)
            for policy in self.policies
        ]


class MatrixStore:
    """``run_spec(jobs=2)`` over DBP,KRON x PR,CC x six policies at medium
    scale: a cold pass into a fresh store, then a warm pass reading it
    with row caching off."""

    name = "matrix_store"
    setup_samples = 5
    jobs = 2
    policies = ("LRU", "DRRIP", "SHiP-PC", "Hawkeye", "P-OPT", "T-OPT")

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        ckernels.lib()
        self.spec = spec.ExperimentSpec(
            name="e2e_matrix_store",
            graphs=("DBP", "KRON"),
            apps=("PR", "CC"),
            policies=self.policies,
            scale="medium",
            seed=self.seed,
            chunk_size=3,
        )

    def op(self, index: int):
        store_dir = self.work_dir / f"store-{index}"
        artifacts.configure(store_dir)
        try:
            os.environ.pop(parallel.ROWS_ENV, None)
            cold = spec.run_spec(self.spec, jobs=self.jobs)
            store_bytes = sum(
                path.stat().st_size
                for path in store_dir.rglob("*") if path.is_file()
            )
            os.environ[parallel.ROWS_ENV] = "0"
            warm_start = time.perf_counter()
            warm = spec.run_spec(self.spec, jobs=self.jobs)
            warm_s = time.perf_counter() - warm_start
        finally:
            os.environ.pop(parallel.ROWS_ENV, None)
            artifacts.configure(None)
        return cold, warm, warm_s, store_bytes, store_dir

    def outcome(self, result) -> OpOutcome:
        cold, warm, warm_s, store_bytes, store_dir = result
        # Removed here, after the op's clock has stopped.
        shutil.rmtree(store_dir, ignore_errors=True)
        problems: List[str] = []
        if warm != cold:
            problems.append("warm-pass rows differ from cold-pass rows")
        visible: Dict[tuple, int] = {}
        for row in cold:
            if row["llc_hits"] + row["llc_misses"] != row["llc_accesses"]:
                problems.append(f"{row['graph']}/{row['app']}/"
                                f"{row['policy']}: LLC hits + misses != "
                                f"LLC accesses")
            key = (row["graph"], row["app"])
            if visible.setdefault(key, row["llc_accesses"]) != \
                    row["llc_accesses"]:
                problems.append(f"{row['graph']}/{row['app']}/"
                                f"{row['policy']}: LLC-visible accesses "
                                f"differ across policies")
        accesses = sum(
            round(row["instructions"] / MPKI_INSTRUCTIONS_PER_ACCESS)
            for row in cold
        )
        return OpOutcome(rows=cold, replayed=2 * accesses, problems=problems,
                         warm_s=warm_s, store_bytes=store_bytes)


WORKLOADS = {w.name: w for w in (CompareCold, PolicySweep, MatrixStore)}


def aggregate_rows(rows: Sequence[Dict[str, object]]) -> Dict[str, Dict]:
    """policy -> summed LLC misses, instructions, cycles over all runs."""
    out: Dict[str, Dict] = {}
    for row in rows:
        entry = out.setdefault(row["policy"], {"llc_misses": 0,
                                               "instructions": 0,
                                               "cycles": 0.0})
        entry["llc_misses"] += row["llc_misses"]
        entry["instructions"] += row["instructions"]
        entry["cycles"] += row["cycles"]
    for entry in out.values():
        entry["llc_mpki"] = (1000.0 * entry["llc_misses"] /
                             entry["instructions"]
                             if entry["instructions"] else 0.0)
    return out
