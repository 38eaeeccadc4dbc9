"""Parallel sweep tests: worker results are bit-identical to serial,
ordering is deterministic, and the CLI plumbs ``--jobs`` through.

Row identity across ``jobs=1``, ``jobs=2`` and the spawn start method is
the run-time check on worker purity; :class:`TestSeededWorkerBugs` shows
it catches state captured at import and module state mutated per task.
"""

import importlib
import sys

import pytest

from repro.sim import parallel, spec
from repro.sim.parallel import (
    APP_FACTORIES,
    SweepTask,
    policy_chunks,
    run_task,
)
from repro.sim.spec import ExperimentSpec, run_spec

POLICIES = ("LRU", "SRRIP", "DRRIP", "OPT")


def sweep(graphs, policies, scale="small", jobs=1, chunk_size=2):
    return run_spec(
        ExperimentSpec(
            name="sweep", graphs=tuple(graphs), policies=tuple(policies),
            scale=scale, chunk_size=chunk_size,
        ),
        jobs=jobs,
    )


class TestPolicyChunks:
    def test_chunks_cover_in_order(self):
        chunks = policy_chunks(list(POLICIES), chunk_size=3)
        assert chunks == [("LRU", "SRRIP", "DRRIP"), ("OPT",)]

    def test_chunk_size_one(self):
        assert policy_chunks(["A", "B"], 1) == [("A",), ("B",)]

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            policy_chunks(["A"], 0)


class TestRunTask:
    def test_rows_are_plain_primitives(self):
        task = SweepTask(graph="URAND", policies=("LRU", "DRRIP"))
        rows = run_task(task)
        assert [row["policy"] for row in rows] == ["LRU", "DRRIP"]
        for row in rows:
            for value in row.values():
                assert isinstance(value, (str, int, float, bool))
            assert row["llc_hits"] + row["llc_misses"] == row["llc_accesses"]

    def test_prepared_run_cached_across_tasks(self):
        from repro.sim import parallel

        before = dict(parallel._PREPARED_CACHE)
        try:
            parallel._PREPARED_CACHE.clear()
            run_task(SweepTask(graph="URAND", policies=("LRU",)))
            run_task(SweepTask(graph="URAND", policies=("SRRIP",)))
            assert len(parallel._PREPARED_CACHE) == 1
        finally:
            parallel._PREPARED_CACHE.clear()
            parallel._PREPARED_CACHE.update(before)


class TestSweepDeterminism:
    """jobs=N output must be byte-identical to jobs=1 output."""

    def test_jobs_parallel_matches_serial(self):
        serial = sweep(["URAND", "KRON"], POLICIES, jobs=1)
        fanned = sweep(["URAND", "KRON"], POLICIES, jobs=2)
        assert serial == fanned
        # Ordering: graph-major, then policy order as declared.
        assert [r["policy"] for r in serial[: len(POLICIES)]] == list(
            POLICIES
        )
        assert serial[0]["graph"] == "URAND"
        assert serial[len(POLICIES)]["graph"] == "KRON"

    def test_single_task_stays_serial(self, monkeypatch):
        serial = sweep(["URAND"], ["LRU"], jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a single task must not start a pool")

        monkeypatch.setattr(spec, "ProcessPoolExecutor", no_pool)
        assert sweep(["URAND"], ["LRU"], jobs=8) == serial

    def test_spawn_matches_serial(self, monkeypatch):
        # spawn workers rebuild state from imports rather than a forked
        # snapshot; identical rows prove nothing leans on fork-captured
        # module state.
        serial = sweep(["URAND"], ("LRU", "DRRIP"), scale="tiny", jobs=1)
        monkeypatch.setenv(parallel.START_METHOD_ENV, "spawn")
        spawned = sweep(["URAND"], ("LRU", "DRRIP"), scale="tiny",
                        jobs=2, chunk_size=1)
        assert spawned == serial

    def test_pool_context_invalid_method_raises(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV, "bogus")
        with pytest.raises(ValueError):
            parallel.pool_context()

    def test_pool_context_default_is_none(self, monkeypatch):
        monkeypatch.delenv(parallel.START_METHOD_ENV, raising=False)
        assert parallel.pool_context() is None


class TestExperimentsJobs:
    def test_mpki_rows_jobs_identical(self):
        from repro.sim.experiments import fig02_sota_mpki

        serial = fig02_sota_mpki(graphs=("URAND",), jobs=1)
        fanned = fig02_sota_mpki(graphs=("URAND",), jobs=2)
        assert serial == fanned


class TestCLIJobs:
    def test_compare_jobs_matches_serial(self, capsys):
        from repro.cli import main

        args = [
            "compare", "--app", "PR", "--graph", "URAND",
            "--policies", "LRU,DRRIP",
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_sanitize_forces_serial(self, capsys):
        from repro.cli import main

        args = [
            "compare", "--app", "PR", "--graph", "URAND",
            "--policies", "LRU", "--sanitize", "--jobs", "4",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "--jobs 1" in out

    def test_app_factories_shared_with_cli(self):
        from repro import cli

        assert cli.APP_FACTORIES is APP_FACTORIES


class TestChunkEdgeCases:
    def test_empty_policy_list_yields_no_chunks(self):
        assert policy_chunks([], chunk_size=3) == []

    def test_chunk_size_larger_than_policy_count(self):
        assert policy_chunks(["LRU", "DRRIP"], chunk_size=8) == [
            ("LRU", "DRRIP")
        ]

    def test_spec_without_policies_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="empty", graphs=("URAND",), policies=())

    def test_spec_single_task(self):
        rows = sweep(["URAND"], ["LRU"], scale="tiny", jobs=1, chunk_size=8)
        assert [row["policy"] for row in rows] == ["LRU"]
        assert rows == sweep(
            ["URAND"], ["LRU"], scale="tiny", jobs=2, chunk_size=8
        )


class TestPreparedCacheBound:
    """The per-process prepared-run cache is a bounded LRU (satellite:
    long multi-geometry sweeps must not grow worker RSS without limit)."""

    def test_cache_evicts_oldest_beyond_cap(self, monkeypatch):
        from repro.sim import parallel

        before = dict(parallel._PREPARED_CACHE)
        monkeypatch.setenv(parallel.PREPARED_CACHE_ENV, "2")
        try:
            parallel._PREPARED_CACHE.clear()
            for graph in ("URAND", "KRON", "DBP"):
                run_task(
                    SweepTask(graph=graph, policies=("LRU",), scale="tiny")
                )
            assert len(parallel._PREPARED_CACHE) == 2
            cached_graphs = {
                key[1] for key in parallel._PREPARED_CACHE
            }
            # Oldest entry (URAND) evicted, most recent two retained.
            assert cached_graphs == {"KRON", "DBP"}
        finally:
            parallel._PREPARED_CACHE.clear()
            parallel._PREPARED_CACHE.update(before)

    def test_lru_order_refreshed_on_hit(self, monkeypatch):
        from repro.sim import parallel

        before = dict(parallel._PREPARED_CACHE)
        monkeypatch.setenv(parallel.PREPARED_CACHE_ENV, "2")
        try:
            parallel._PREPARED_CACHE.clear()
            run_task(SweepTask(graph="URAND", policies=("LRU",),
                               scale="tiny"))
            run_task(SweepTask(graph="KRON", policies=("LRU",),
                               scale="tiny"))
            # Touch URAND again: it becomes most-recent, so adding DBP
            # must evict KRON, not URAND.
            run_task(SweepTask(graph="URAND", policies=("DRRIP",),
                               scale="tiny"))
            run_task(SweepTask(graph="DBP", policies=("LRU",),
                               scale="tiny"))
            cached_graphs = {
                key[1] for key in parallel._PREPARED_CACHE
            }
            assert cached_graphs == {"URAND", "DBP"}
        finally:
            parallel._PREPARED_CACHE.clear()
            parallel._PREPARED_CACHE.update(before)

    def test_default_cap_when_env_unset(self, monkeypatch):
        from repro.sim import parallel

        monkeypatch.delenv(parallel.PREPARED_CACHE_ENV, raising=False)
        assert parallel._prepared_cache_cap() == (
            parallel.DEFAULT_PREPARED_CACHE_SIZE
        )
        monkeypatch.setenv(parallel.PREPARED_CACHE_ENV, "junk")
        assert parallel._prepared_cache_cap() == (
            parallel.DEFAULT_PREPARED_CACHE_SIZE
        )
        monkeypatch.setenv(parallel.PREPARED_CACHE_ENV, "0")
        assert parallel._prepared_cache_cap() == 1


class TestTechniqueValidation:
    def test_known_techniques_pass(self):
        from repro.sim.parallel import validate_technique

        for technique in ("none", "tiling:4", "pb", "phi", "dbg:8",
                          "hats"):
            validate_technique(technique)

    def test_unknown_technique_rejected(self):
        from repro.sim.parallel import validate_technique

        with pytest.raises(ValueError):
            validate_technique("blocking")
        with pytest.raises(ValueError):
            validate_technique("pb:4")
        with pytest.raises(ValueError):
            validate_technique("tiling:0")
        with pytest.raises(ValueError):
            validate_technique("tiling:x")


SEEDED = "tests.sim.seeded_workers"

#: A 4-set, 2-way LLC: tiny-scale working sets overflow it, so LRU and
#: BIP rows differ.
SEEDED_LLC = (("4x2", 4, 2),)


@pytest.fixture
def seeded(monkeypatch):
    """Import the seeded-bug module with its variable unset; restore the
    policy registry afterwards."""
    from repro.policies import registry

    monkeypatch.delenv("SEEDED_WORKER_POLICY", raising=False)
    before = dict(registry._FACTORIES)
    sys.modules.pop(SEEDED, None)
    module = importlib.import_module(SEEDED)
    yield module
    registry._FACTORIES.clear()
    registry._FACTORIES.update(before)
    sys.modules.pop(SEEDED, None)


def seeded_sweep(graphs, policies, jobs):
    return run_spec(
        ExperimentSpec(
            name="seeded", graphs=graphs, policies=policies, scale="tiny",
            llc=SEEDED_LLC, chunk_size=1,
        ),
        jobs=jobs,
    )


class TestSeededWorkerBugs:
    """The worker-purity bugs the row-identity checks must catch."""

    def test_import_time_environ_read_splits_fork_and_spawn(
        self, seeded, monkeypatch
    ):
        monkeypatch.setattr(spec, "run_task", seeded.run_task)
        # The parent imported the module before the variable was set.
        monkeypatch.setenv(seeded.ENV, "BIP")
        policies = ("Seeded-ImportEnv", "Seeded-CallEnv")
        serial = seeded_sweep(("URAND",), policies, jobs=1)
        monkeypatch.setenv(parallel.START_METHOD_ENV, "fork")
        forked = seeded_sweep(("URAND",), policies, jobs=2)
        monkeypatch.setenv(parallel.START_METHOD_ENV, "spawn")
        spawned = seeded_sweep(("URAND",), policies, jobs=2)
        assert forked == serial
        assert spawned != serial
        # Only the import-time read differs; reading at call time is
        # identical under every start method.
        assert spawned[0] != serial[0]
        assert spawned[1] == serial[1]

    def test_module_counter_splits_jobs(self, seeded, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV, "fork")
        graphs = ("URAND", "KRON")
        serial = seeded_sweep(graphs, ("Seeded-Counter",), jobs=1)
        # Workers fork from a parent whose counter has moved on.
        fanned = seeded_sweep(graphs, ("Seeded-Counter",), jobs=2)
        assert fanned != serial
        assert fanned[0]["llc_misses"] != serial[0]["llc_misses"]
