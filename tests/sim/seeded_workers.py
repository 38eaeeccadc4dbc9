"""Seeded worker-purity bugs for ``tests/sim/test_parallel.py``.

Each bug registers one test policy whose behaviour depends on process
state that a sweep worker must not read: a value captured from
``os.environ`` at import time, or a module counter bumped per task.
The tests show the row-identity checks (``jobs=1`` vs ``jobs=2`` vs
spawn) catch both. Not collected by pytest (no ``test_`` prefix).
"""

import os

from repro.policies.registry import make_policy, register_policy
from repro.sim import parallel

#: Environment variable the seeded policies read.
ENV = "SEEDED_WORKER_POLICY"

# The fork-unsafe bug: captured once, at import. A forked worker keeps
# the parent's value; a spawned worker imports this module afresh and
# sees the environment as it is when the pool starts.
IMPORT_TIME_CHOICE = os.environ.get(ENV, "LRU")


@register_policy("Seeded-ImportEnv", replace=True)
def _import_env(ctx):
    return make_policy(IMPORT_TIME_CHOICE, ctx)


@register_policy("Seeded-CallEnv", replace=True)
def _call_env(ctx):
    # The fix: read the environment when the policy is built.
    return make_policy(os.environ.get(ENV, "LRU"), ctx)


# The global-mutation bug: a module counter bumped on every task.
TASKS_SEEN = 0


@register_policy("Seeded-Counter", replace=True)
def _counter(ctx):
    global TASKS_SEEN
    TASKS_SEEN += 1
    return make_policy("LRU" if TASKS_SEEN == 1 else "BIP", ctx)


def run_task(task):
    """``parallel.run_task`` behind an import of this module.

    Installed as ``spec.run_task`` so a spawned worker unpickles it and
    imports this module, registering the seeded policies there too.
    """
    return parallel.run_task(task)
