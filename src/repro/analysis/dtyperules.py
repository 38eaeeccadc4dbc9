"""``dtype`` rule family: platform-default integers in replay/prepare code.

- ``dtype-unspecified`` — array creation in replay/prepare code relying
  on the *platform-default* integer (``np.arange`` without ``dtype``,
  ``np.full`` with an integer fill, bare ``np.bincount``): 64-bit on
  the measurement hosts, 32-bit on numpy 1.x Windows and on 32-bit
  builds, so goldens silently fork.

This is the one width rule that stays static. Every run-time check sees
the host's own default, which is already int64 wherever the suite runs,
so no test here can fail on the seeded bug; the fork only shows on a
platform CI does not run. The other width guarantees hold at run time:
:func:`repro.sim.widthcontracts.check_width_contracts` on sanitized
runs, :func:`repro.graph.csr.check_vertex_count` at graph build, and
the ``_i64``/``_u8``/``_f64`` wrappers at the C boundary (DESIGN.md §9).

Scope: functions in the simulator's replay/prepare subpackages
(:data:`_PREPARE_DIRS`) and functions on the configured replay path.

Suppression is the standard ``# simlint: allow[dtype-unspecified]``
pragma.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence

from .astutil import SourceModule, dotted_name, pragma_allows
from .findings import Finding
from .hotpath import DEFAULT_REPLAY_PATH

__all__ = ["DTYPE_RULES", "check_dtypes"]

DTYPE_RULES = ("dtype-unspecified",)

#: Subpackages whose functions build the arrays a replay reads: graph
#: build, trace generation, policy set-up and the replay engine.
_PREPARE_DIRS = frozenset({"sim", "popt", "graph", "apps", "memory"})


def _module_prepare_scope(module: SourceModule) -> bool:
    parts = module.path.parts
    if "repro" not in parts:
        return False
    return bool(_PREPARE_DIRS.intersection(
        parts[parts.index("repro"):-1]
    ))


def _iter_functions(module: SourceModule):
    """(qualname, node) for every module-level function and method."""
    for node in module.tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _creation_trap(
    call: ast.Call, parents: Dict[int, ast.AST]
) -> Optional[str]:
    """Why this creation call yields a platform-default integer, or
    None when it is explicitly typed / not integer-valued."""
    name = dotted_name(call.func)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    if tail == "arange":
        if any(kw.arg == "dtype" for kw in call.keywords) \
                or len(call.args) >= 4:
            return None
        if any(
            isinstance(a, ast.Constant) and isinstance(a.value, float)
            for a in call.args
        ):
            return None
        return "np.arange without dtype yields the platform integer"
    if tail == "full":
        if any(kw.arg == "dtype" for kw in call.keywords) \
                or len(call.args) >= 3:
            return None
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant) \
                and isinstance(call.args[1].value, int) \
                and not isinstance(call.args[1].value, bool):
            return "np.full with an integer fill and no dtype yields " \
                   "the platform integer"
        return None
    if tail == "bincount":
        if any(kw.arg == "weights" for kw in call.keywords) \
                or len(call.args) >= 2:
            return None  # weighted bincount is float64 on every platform
        parent = parents.get(id(call))
        if isinstance(parent, ast.Attribute) and parent.attr == "astype":
            return None  # immediately re-typed: the idiomatic guard
        return "np.bincount yields the platform integer; cast the " \
               "result (e.g. .astype(np.int64))"
    return None


def check_dtypes(
    modules: Sequence[SourceModule],
    replay_path: FrozenSet[str] = DEFAULT_REPLAY_PATH,
) -> List[Finding]:
    """Run the ``dtype`` family over the scanned modules."""
    findings: List[Finding] = []
    for module in modules:
        in_scope = _module_prepare_scope(module)
        parents = {
            id(child): parent
            for parent in ast.walk(module.tree)
            for child in ast.iter_child_nodes(parent)
        }
        for qualname, func in _iter_functions(module):
            if not (in_scope or qualname in replay_path):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                reason = _creation_trap(node, parents)
                if reason is None or pragma_allows(
                    module, "dtype-unspecified", node.lineno
                ):
                    continue
                findings.append(Finding(
                    rule="dtype-unspecified",
                    path=module.display_path,
                    line=node.lineno,
                    message=f"{qualname} (replay/prepare path): {reason}; "
                            f"pin an explicit dtype so results cannot "
                            f"fork across platforms",
                ))
    return findings
