"""Belady's MIN (OPT): the offline-optimal replacement oracle.

OPT evicts the line whose next reference lies furthest in the future. It
needs the full future access stream, so it only runs on *materialized*
traces: the driver precomputes, for every access, the index of the next
access to the same line (:meth:`repro.memory.trace.MemoryTrace.next_use_indices`)
and hands the array to this policy.

Every access (hit or fill) refreshes the line's stored next-use index, so
the per-line values are always exact and victim selection is a simple max.
This is the textbook simulation of Belady's MIN and the upper bound that
T-OPT approaches (Section III) and P-OPT approximates.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

import numpy as np

from ..errors import PolicyError
from .base import ReplacementPolicy

__all__ = ["BeladyOPT"]


class BeladyOPT(ReplacementPolicy):
    """Offline-optimal replacement driven by a precomputed next-use array."""

    name = "OPT"

    def __init__(self, next_use: np.ndarray) -> None:
        super().__init__()
        if next_use.ndim != 1:
            raise PolicyError("next_use must be a 1-D array")
        self._next_use_arr = next_use

    @cached_property
    def _next_use(self) -> List[int]:
        # Plain Python list: element reads in the generic loop's hot path
        # beat numpy scalar extraction. Built on first use, so a replay
        # through the compiled kernel never pays for it.
        return self._next_use_arr.tolist()

    def reset(self) -> None:
        self._line_next = [
            [0] * self.num_ways for _ in range(self.num_sets)
        ]

    def _record(self, set_idx: int, way: int, ctx) -> None:
        index = ctx.index
        if index >= len(self._next_use_arr):
            raise PolicyError(
                "access index beyond the trace OPT was prepared for"
            )
        self._line_next[set_idx][way] = self._next_use[index]

    def on_hit(self, set_idx: int, way: int, ctx) -> None:
        self._record(set_idx, way, ctx)

    def on_fill(self, set_idx: int, way: int, ctx) -> None:
        self._record(set_idx, way, ctx)

    def choose_victim(self, set_idx: int, ctx) -> int:
        next_uses = self._line_next[set_idx]
        return next_uses.index(max(next_uses))
