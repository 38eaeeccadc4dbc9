"""Registry of import-time constant state + the worker-drift guard.

The parallel sweep fabric assumes worker-executed code never changes
the dispatch tables every worker reads (the policy registry, the kernel
table, the app factories, the spec and reporter registries). Each of
those tables is registered here, at import time of its owning module,
next to the state it describes.

:class:`WorkerStateGuard` (enabled via ``REPRO_WORKER_GUARD=1``) hashes
every registered entry structurally at worker task boundaries and
raises :class:`WorkerStateError` on drift, or when an entry no longer
resolves (a registration whose binding was renamed or deleted).

Per-process caches (the prepared-run LRU, store handles, the kernel
library handle) are not registered: they legally differ between
processes. That they never change a row is checked at run time, by
requiring identical rows from ``jobs=1``, ``jobs=N`` and the spawn
start method (``tests/sim/test_parallel.py`` and CI's spawn ``cmp``
leg).
"""

from __future__ import annotations

import hashlib
import importlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = [
    "GUARD_ENV",
    "StateEntry",
    "WorkerStateError",
    "WorkerStateGuard",
    "register_worker_state",
    "registered_state",
    "guard_boundary",
    "reset_guard",
]

#: Set to ``1`` to hash registered worker state at every task boundary.
GUARD_ENV = "REPRO_WORKER_GUARD"


@dataclass(frozen=True)
class StateEntry:
    """One registered import-time constant."""

    name: str                 # dotted, e.g. "repro.sim.parallel.APP_FACTORIES"
    note: str                 # why it must stay constant
    getter: Optional[Callable[[], object]] = None  # test hook

    def resolve(self) -> object:
        if self.getter is not None:
            return self.getter()
        module_name, _, attr = self.name.rpartition(".")
        module = importlib.import_module(module_name)
        return getattr(module, attr)


_REGISTRY: Dict[str, StateEntry] = {}


def register_worker_state(
    name: str,
    note: str = "",
    getter: Optional[Callable[[], object]] = None,
) -> None:
    """Declare one import-time constant (import-time, idempotent)."""
    _REGISTRY[name] = StateEntry(name=name, note=note, getter=getter)


def registered_state() -> List[StateEntry]:
    """Every entry, sorted by name (deterministic reports)."""
    return sorted(_REGISTRY.values(), key=lambda entry: entry.name)


# ----------------------------------------------------------------------
# Structural hashing. repr() of a dict of classes embeds memory
# addresses, so entries are described structurally: containers by
# sorted (key, description) pairs, callables/classes by qualified name.
# ----------------------------------------------------------------------


def _describe(obj: object, depth: int = 0) -> str:
    if depth > 4:
        return type(obj).__name__
    if isinstance(obj, dict):
        items = sorted(
            (str(key), _describe(value, depth + 1))
            for key, value in obj.items()
        )
        return f"dict({items})"
    if isinstance(obj, (list, tuple)):
        inner = [_describe(item, depth + 1) for item in obj]
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, (set, frozenset)):
        inner = sorted(_describe(item, depth + 1) for item in obj)
        return f"{type(obj).__name__}({inner})"
    qualname = getattr(obj, "__qualname__", None)
    if qualname is not None:
        return f"{getattr(obj, '__module__', '?')}.{qualname}"
    if isinstance(obj, (str, bytes, int, float, bool)) or obj is None:
        return repr(obj)
    return type(obj).__name__


def _digest(obj: object) -> str:
    return hashlib.sha256(_describe(obj).encode("utf-8")).hexdigest()


class WorkerStateError(RuntimeError):
    """Registered state drifted between worker task boundaries, or a
    registration no longer resolves."""


class WorkerStateGuard:
    """Hashes registered entries at task boundaries; raises on drift.

    The first boundary records the baseline; every later boundary
    re-hashes and compares. One guard per worker process is enough —
    tasks are serialized within a worker.
    """

    def __init__(self) -> None:
        self._baseline: Optional[Dict[str, str]] = None

    @staticmethod
    def enabled() -> bool:
        return os.environ.get(GUARD_ENV, "") not in ("", "0")

    def snapshot(self) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for entry in registered_state():
            try:
                value = entry.resolve()
            except Exception as exc:
                raise WorkerStateError(
                    f"registered worker state {entry.name} does not "
                    f"resolve ({type(exc).__name__}: {exc}); remove or "
                    f"update the registration"
                ) from exc
            out[entry.name] = _digest(value)
        return out

    def check(self, boundary: str) -> None:
        snapshot = self.snapshot()
        if self._baseline is None:
            self._baseline = snapshot
            return
        drifted = sorted(
            name for name in set(snapshot) | set(self._baseline)
            if snapshot.get(name) != self._baseline.get(name)
        )
        if drifted:
            raise WorkerStateError(
                f"worker state drifted at {boundary}: "
                f"{', '.join(drifted)} — worker-executed code mutated a "
                f"registry that must stay an import-time constant"
            )


# Per-process guard handle (lazily built, legally different in every
# worker).
_GUARD: Optional[WorkerStateGuard] = None


def guard_boundary(boundary: str) -> None:
    """Task-boundary hook: no-op unless :data:`GUARD_ENV` is set."""
    global _GUARD
    if not WorkerStateGuard.enabled():
        return
    if _GUARD is None:
        _GUARD = WorkerStateGuard()
    _GUARD.check(boundary)


def reset_guard() -> None:
    """Forget the baseline (test hook)."""
    global _GUARD
    _GUARD = None
