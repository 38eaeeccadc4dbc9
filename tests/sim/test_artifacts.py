"""Artifact-store tests: content-hash keys, round-trips, bit-identical
replay from rehydrated artifacts, cache counters, corruption handling."""

import numpy as np
import pytest

from repro.cache import scaled_hierarchy
from repro.graph import datasets
from repro.sim import artifacts
from repro.sim.artifacts import (
    ArtifactStore,
    canonical_json,
    content_digest,
    graph_sha,
    trace_sha,
)
from repro.sim import prepare_run, simulate_prepared
from repro.sim.parallel import APP_FACTORIES, SweepTask, run_task


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "arts")


class TestKeys:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_canonical_json_handles_numpy_scalars(self):
        assert canonical_json({"n": np.int64(3)}) == canonical_json(
            {"n": 3}
        )

    def test_digest_depends_on_kind_and_key(self):
        key = {"graph": "URAND", "scale": "tiny"}
        assert content_digest("graph", key) == content_digest("graph", key)
        assert content_digest("graph", key) != content_digest(
            "prepared", key
        )
        assert content_digest("graph", key) != content_digest(
            "graph", {**key, "scale": "small"}
        )

    def test_trace_sha_memoized_and_content_keyed(self):
        graph = datasets.load("URAND", scale="tiny")
        prepared = prepare_run(APP_FACTORIES["PR"](), graph)
        first = trace_sha(prepared.trace)
        assert trace_sha(prepared.trace) == first  # memo hit
        rebuilt = prepare_run(
            APP_FACTORIES["PR"](), datasets.load("URAND", scale="tiny")
        )
        assert trace_sha(rebuilt.trace) == first  # seed-deterministic

    def test_graph_sha_distinguishes_graphs(self):
        a = datasets.load("URAND", scale="tiny")
        b = datasets.load("KRON", scale="tiny")
        assert graph_sha(a) != graph_sha(b)


class TestStoreRoundTrip:
    def test_get_miss_then_put_then_hit(self, store):
        key = {"k": 1}
        assert store.get("graph", key) is None
        store.put("graph", key,
                  arrays={"data": np.arange(4, dtype=np.int64)},
                  meta={"n": 2})
        entry = store.get("graph", key)
        assert entry["meta"]["n"] == 2
        np.testing.assert_array_equal(entry["arrays"]["data"],
                                      np.arange(4))
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["writes"] == 1

    def test_arrays_load_as_mmap(self, store):
        store.put("graph", {"k": 2},
                  arrays={"data": np.arange(8, dtype=np.float64)})
        entry = store.get("graph", {"k": 2})
        assert isinstance(entry["arrays"]["data"], np.memmap)

    def test_corrupt_meta_is_a_miss(self, store):
        key = {"k": 3}
        store.put("graph", key)
        meta_path = store.entry_dir("graph", key) / "meta.json"
        meta_path.write_text("{not json")
        assert store.get("graph", key) is None

    def test_graph_round_trip(self, store):
        graph = datasets.load("URAND", scale="tiny", seed=42)
        artifacts.store_graph(store, "URAND", "tiny", 42, graph)
        cached = artifacts.cached_graph(store, "URAND", "tiny", 42)
        assert cached is not None
        assert graph_sha(cached) == graph_sha(graph)
        assert artifacts.cached_graph(store, "URAND", "tiny", 7) is None


class TestPreparedRoundTrip:
    def test_rehydrated_run_simulates_bit_identically(self, store):
        graph = datasets.load("URAND", scale="tiny")
        prepared = prepare_run(APP_FACTORIES["PR"](), graph)
        task = SweepTask(graph="URAND", policies=("LRU",), scale="tiny")
        artifacts.store_prepared(store, task.artifact_key(), prepared)
        rehydrated = artifacts.cached_prepared(store, task.artifact_key())
        assert rehydrated is not None
        hierarchy = scaled_hierarchy("tiny")
        for policy in ("LRU", "DRRIP", "P-OPT", "T-OPT"):
            a = simulate_prepared(prepared, policy, hierarchy)
            b = simulate_prepared(rehydrated, policy, hierarchy)
            assert (a.llc.misses, a.llc.hits, a.cycles) == (
                b.llc.misses, b.llc.hits, b.cycles
            )


class TestRowsCache:
    def test_run_task_serves_cached_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.DIR_ENV,
                           str(tmp_path / "arts"))
        artifacts._STORES.clear()
        task = SweepTask(graph="URAND", policies=("LRU", "DRRIP"),
                         scale="tiny")
        cold = run_task(task)
        store = artifacts.get_store()
        assert store.counters["rows"]["writes"] == 1
        warm = run_task(task)
        assert warm == cold
        # Warm rows came from disk, key order intact (format_table
        # derives columns from the first row's insertion order).
        assert store.counters["rows"]["hits"] == 1
        assert list(warm[0].keys()) == list(cold[0].keys())

    def test_rows_cache_disable_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.DIR_ENV,
                           str(tmp_path / "arts"))
        monkeypatch.setenv("REPRO_ARTIFACTS_ROWS", "0")
        artifacts._STORES.clear()
        task = SweepTask(graph="URAND", policies=("LRU",), scale="tiny")
        run_task(task)
        run_task(task)
        store = artifacts.get_store()
        assert store.counters.get("rows", {}).get("writes", 0) == 0


class TestAtomicity:
    def test_lost_race_discards_tmp(self, store):
        key = {"k": 9}
        store.put("graph", key, meta={"v": 1})
        # A second writer for the same key loses the rename race (the
        # entry already exists) and must leave no .tmp litter behind.
        store.put("graph", key, meta={"v": 2})
        entry_parent = store.entry_dir("graph", key).parent
        leftovers = [p for p in entry_parent.iterdir()
                     if p.name.startswith(".tmp")]
        assert leftovers == []
        assert store.get("graph", key)["meta"]["v"] == 1

    def test_truncated_array_file_is_a_miss(self, store):
        key = {"k": 10}
        entry = store.put(
            "graph", key, arrays={"data": np.arange(4096, dtype=np.int64)}
        )
        array_file = entry / "data.npy"
        array_file.write_bytes(array_file.read_bytes()[:1024])
        assert store.get("graph", key) is None
        assert store.counters["graph"]["misses"] == 1

    def test_writer_dying_mid_put_leaves_no_entry(self, store, monkeypatch):
        # Everything under the root is staged in a .tmp sibling and
        # renamed into place, so a writer killed after the meta file and
        # before the arrays leaves nothing a reader can see.
        key = {"k": 11}

        def die(*args, **kwargs):
            raise KeyboardInterrupt("writer killed")

        monkeypatch.setattr(artifacts.np, "save", die)
        with pytest.raises(KeyboardInterrupt):
            store.put("graph", key, arrays={"data": np.arange(8)},
                      meta={"n": 8})
        monkeypatch.undo()
        assert store.get("graph", key) is None
        assert not store.entry_dir("graph", key).exists()

    def test_two_processes_put_one_complete_entry(self, store):
        import multiprocessing

        key = {"k": 12}
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        writers = [
            context.Process(
                target=_racing_put, args=(store.root, key, n, barrier)
            )
            for n in (50_000, 70_000)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(60)
            assert writer.exitcode == 0
        entry = store.get("graph", key)
        n = entry["meta"]["n"]
        assert n in (50_000, 70_000)
        # Meta and arrays come from the same writer.
        for name in ("a", "b"):
            assert np.array_equal(entry["arrays"][name], np.arange(n))
        leftovers = [
            p for p in store.entry_dir("graph", key).parent.iterdir()
            if p.name.startswith(".tmp")
        ]
        assert leftovers == []


def _racing_put(root, key, n, barrier):
    barrier.wait()
    ArtifactStore(root).put(
        "graph", key,
        arrays={"a": np.arange(n), "b": np.arange(n)}, meta={"n": n},
    )
