"""Epoch-serial parallel execution (Section V-F).

P-OPT supports multi-threaded kernels by running *epochs serially* and
parallelizing only within an epoch, so all threads share the same two
Rereference Matrix columns. ``currVertex`` is then taken from a
software-designated **main thread**; the paper reports that this policy
gives multi-threaded runs the same LLC miss rates as serial ones.

This module emulates that regime on a single access stream:

- :func:`epoch_serial_parallel_order` produces the outer-loop visit order
  of ``num_threads`` threads round-robin-chunking the vertices of each
  epoch (epochs never overlap).
- :func:`main_thread_vertex_channel` rewrites a trace's ``vertices``
  channel to the main thread's current vertex — what the ``currVertex``
  register actually holds during a parallel run — leaving the accessed
  addresses (the true interleaving) untouched.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..memory.trace import MemoryTrace

__all__ = ["epoch_serial_parallel_order", "main_thread_vertex_channel"]


def epoch_serial_parallel_order(
    num_vertices: int,
    epoch_size: int,
    num_threads: int,
    chunk: int = 16,
) -> np.ndarray:
    """Outer-loop order of an epoch-serial parallel execution.

    Within each epoch, vertices are dealt to threads in ``chunk``-sized
    blocks (guided scheduling) and the threads' work is interleaved
    chunk-by-chunk — the memory-system-visible effect of running the
    epoch's vertices on ``num_threads`` cores. Epochs are strictly
    ordered, as P-OPT requires.
    """
    if num_threads <= 0 or chunk <= 0 or epoch_size <= 0:
        raise SimulationError(
            "num_threads, chunk, and epoch_size must be positive"
        )
    order = []
    for epoch_start in range(0, num_vertices, epoch_size):
        epoch_end = min(epoch_start + epoch_size, num_vertices)
        vertices = np.arange(epoch_start, epoch_end, dtype=np.int64)
        chunks = [
            vertices[i:i + chunk] for i in range(0, len(vertices), chunk)
        ]
        # Deal chunks round-robin to threads, then interleave rounds:
        # round r emits thread 0's r-th chunk, thread 1's, ...
        per_thread = [chunks[t::num_threads] for t in range(num_threads)]
        rounds = max((len(c) for c in per_thread), default=0)
        for round_index in range(rounds):
            for thread in range(num_threads):
                if round_index < len(per_thread[thread]):
                    order.append(per_thread[thread][round_index])
    if not order:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(order).astype(np.int64)


def main_thread_vertex_channel(
    trace: MemoryTrace,
    epoch_size: int,
    num_threads: int,
    chunk: int = 16,
) -> MemoryTrace:
    """Replace the trace's ``vertices`` with the main thread's position.

    The main thread (thread 0) owns the first chunk of every round; its
    most recently started vertex is what ``update_index`` publishes to the
    LLC. Accesses made by other threads carry the main thread's value —
    exactly the approximation the paper evaluates.
    """
    vertices = trace.vertices.astype(np.int64)
    # A vertex belongs to the main thread iff its chunk index within the
    # epoch is congruent to 0 modulo num_threads.
    offset_in_epoch = vertices % epoch_size
    chunk_index = offset_in_epoch // chunk
    is_main = (chunk_index % num_threads) == 0
    main_values = np.where(is_main, vertices, -1)
    # Forward-fill the last main-thread vertex; seed with the epoch start.
    filled = np.maximum.accumulate(
        np.where(main_values >= 0, main_values, -1)
    )
    epoch_start = (vertices // epoch_size) * epoch_size
    filled = np.where(filled < epoch_start, epoch_start, filled)
    return MemoryTrace(
        addresses=trace.addresses,
        pcs=trace.pcs,
        writes=trace.writes,
        vertices=filled.astype(np.int32),
    )
