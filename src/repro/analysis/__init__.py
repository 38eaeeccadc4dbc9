"""simlint: simulator-specific static analysis (``python -m
repro.analysis``).

The replay engine made policy sweeps fast by caching work across
policies; that sharing is only sound while every policy honors the
:class:`~repro.policies.base.ReplacementPolicy` contract and the replay
paths stay deterministic and vectorized. simlint checks those properties
*statically* — every CI run, not just when an equivalence test happens to
cover the broken combination. Rule families:

- ``policy``       — ReplacementPolicy contract conformance
- ``registry``     — policy registry drift (unreachable/broken names)
- ``determinism``  — unseeded RNGs, wall-clock reads, set-order
- ``hotpath``      — per-access work creeping back into replay loops
- ``kernels``      — replay-kernel dispatch coverage
- ``spec-coverage`` — experiment specs vs the registries they name
- ``dtype``        — platform-default integers in replay/prepare code

Some guarantees need no family because they hold at run time or by
construction:

- The C kernel boundary: ``sim/ckernels.py`` generates the C
  prototypes and shared constants from one Python table, so ABI drift
  fails the kernel build (reported on the ``ckernels:`` status line
  every run prints).
- Worker purity: shared arrays are read-only from birth,
  ``REPRO_WORKER_GUARD=1`` hashes the frozen registries at every task
  boundary, and sweep rows must be identical across ``jobs=1``,
  ``jobs=N`` and the spawn start method.
- Storage widths: ``check_width_contracts`` on sanitized runs, the
  vertex-count check at graph build, and the dtype checks at the C
  boundary.

DESIGN.md §9 maps each retired rule to the run-time test that replaces
it.

See :mod:`repro.analysis.runner` for the CLI and
``# simlint: allow[rule]`` pragmas for intentional exceptions (pragmas
naming unknown rules are themselves flagged).
"""

from .findings import Finding, format_findings
from .hotpath import DEFAULT_REPLAY_PATH
from .runner import KNOWN_RULES, RULE_FAMILIES, SimlintConfig, main, run_simlint

__all__ = [
    "Finding",
    "format_findings",
    "run_simlint",
    "SimlintConfig",
    "DEFAULT_REPLAY_PATH",
    "RULE_FAMILIES",
    "KNOWN_RULES",
    "main",
]
