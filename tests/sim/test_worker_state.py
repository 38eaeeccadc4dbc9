"""Tests for the worker-state registry and drift guard."""

import pytest

from repro.sim import worker_state
from repro.sim.worker_state import (
    GUARD_ENV,
    StateEntry,
    WorkerStateError,
    WorkerStateGuard,
    guard_boundary,
    registered_state,
    reset_guard,
)


def _import_fabric():
    """Load every module that registers worker state at import time."""
    from repro import cli  # noqa: F401  (pulls parallel/spec/kernels)
    from repro.policies import registry  # noqa: F401
    from repro.sim import artifacts, ckernels  # noqa: F401


class TestRegistry:
    def test_fabric_registrations_present(self):
        _import_fabric()
        names = {entry.name for entry in registered_state()}
        assert {
            "repro.policies.registry._FACTORIES",
            "repro.sim.kernels.KERNEL_TABLE",
            "repro.sim.parallel.APP_FACTORIES",
            "repro.sim.spec.SPEC_HARNESSES",
            "repro.sim.spec.REPORTERS",
        } <= names

    def test_every_entry_resolves(self):
        # A registration that no longer resolves makes the guard raise
        # (TestGuard.test_unresolvable_entry_raises); the live tree must
        # have none.
        _import_fabric()
        for entry in registered_state():
            entry.resolve()

    def test_every_entry_has_a_note(self):
        _import_fabric()
        for entry in registered_state():
            assert entry.note, f"{entry.name} registered without a note"


class TestStructuralHash:
    def test_dict_of_classes_is_stable_across_copies(self):
        # repr() would embed memory addresses; _describe must not.
        table = {"lru": TestRegistry, "opt": TestStructuralHash}
        assert worker_state._digest(table) == worker_state._digest(
            dict(table)
        )

    def test_value_change_changes_digest(self):
        assert worker_state._digest({"a": 1}) != worker_state._digest(
            {"a": 2}
        )

    def test_key_order_is_irrelevant(self):
        assert worker_state._digest({"a": 1, "b": 2}) == \
            worker_state._digest({"b": 2, "a": 1})


class TestGuard:
    @pytest.fixture(autouse=True)
    def _clean_guard(self):
        reset_guard()
        yield
        reset_guard()

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        assert not WorkerStateGuard.enabled()
        guard_boundary("task-start")  # no-op, no baseline recorded
        assert worker_state._GUARD is None

    def test_detects_frozen_drift(self, monkeypatch):
        state = {"k": 1}
        monkeypatch.setitem(
            worker_state._REGISTRY,
            "test.drifting",
            StateEntry(
                name="test.drifting", note="test", getter=lambda: state,
            ),
        )
        monkeypatch.setenv(GUARD_ENV, "1")
        guard_boundary("task-start")   # baseline
        guard_boundary("task-end")     # unchanged: fine
        state["k"] = 2
        with pytest.raises(WorkerStateError, match="test.drifting"):
            guard_boundary("task-start")

    def test_unresolvable_entry_raises(self, monkeypatch):
        # A registration whose binding was renamed or deleted is a
        # stale entry: the guard names it instead of skipping it.
        monkeypatch.setitem(
            worker_state._REGISTRY,
            "repro.sim.parallel.GONE",
            StateEntry(name="repro.sim.parallel.GONE", note="test"),
        )
        monkeypatch.setenv(GUARD_ENV, "1")
        with pytest.raises(WorkerStateError, match="parallel.GONE"):
            guard_boundary("task-start")


class TestGuardedSweep:
    def test_sweep_runs_clean_under_guard(self, monkeypatch):
        # The real fabric passes its own purity bar: a tiny sweep with
        # the guard on completes without WorkerStateError.
        from repro.sim.parallel import SweepTask, run_task

        monkeypatch.setenv(GUARD_ENV, "1")
        reset_guard()
        try:
            rows = [
                run_task(SweepTask(
                    app="PR", graph="URAND", policies=("LRU",),
                    scale="tiny", seed=42,
                ))
            ]
        finally:
            reset_guard()
        assert rows and rows[0]
