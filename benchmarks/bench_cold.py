"""Cold-path sorts, draws and RM encode: new paths vs the former ones.

A cold ``compare`` run used to spend most of its time building the
graph: ``from_edges`` row-sorted the edge list with
``np.unique(axis=0)`` and then ``np.lexsort``-ed it again. The graph
build, the transpose and T-OPT's line-reference table now each sort
packed int64 ``row * n + col`` keys once and drop duplicates with an
adjacent-difference keep-mask. The BRRIP-family fill draws now come from
numpy's MT19937 loaded with ``random.Random(seed)``'s state instead of
one Python ``random()`` call per access. The Rereference Matrix encode
computes each epoch's distance to the next referencing epoch as a
running minimum over the reversed epoch axis, in place at int32, instead
of one strided pass per epoch column. The power-law generator behind
DBP draws its endpoints through a guide table over the CDF instead of
``Generator.choice(p=...)``'s binary search per draw, with the same
uniforms and so the same indices.

This bench times each new path against the former implementation,
kept below as the oracle, on DBP at large scale (the stand-in graph of
the ``compare_cold`` workload). Every row asserts identical outputs.
``results/BENCH_cold.json`` records the timings; CI asserts identity
and floors of 5x for the graph build, 4x for the fill draws, 1.5x
for the RM encode and 1.3x for the power-law draw (all conservative:
measured ~30-40x, ~9-13x, ~2x and ~2x on a 2-vCPU Intel Xeon VM).

Timing protocol: the raw edge array is captured once from the
``from_edges`` call ``datasets.load("DBP", "large")`` makes, and the
first endpoint draw's probabilities, size and generator state from the
same call; each path takes the best of three runs.
"""

import random
import time
from unittest import mock

import numpy as np
from common import run_once, write_cold_report

from repro.graph import datasets, from_edges, generators
from repro.graph.generators import _weighted_draw
from repro.popt.rereference import (
    _encode_entries,
    _reference_events,
    epoch_geometry,
)
from repro.popt.topt import build_line_reference_csr
from repro.sim.constants import rm_msb, rm_next_bit, rm_sentinel
from repro.sim.kernels import _fill_draws

GRAPH = "DBP"
SCALE = "large"
SEED = 42
ELEMS_PER_LINE = 16
N_DRAWS = 1 << 21
ENTRY_BITS = 8
VARIANT = "inter_intra"
REPEATS = 3

BUILD_FLOOR = 5.0
DRAWS_FLOOR = 4.0
ENCODE_FLOOR = 1.5
POWER_LAW_DRAW_FLOOR = 1.3


# ----------------------------------------------------------------------
# Oracles: the former implementations
# ----------------------------------------------------------------------


def from_edges_oracle(array, num_vertices, dedup, drop_self_loops):
    if drop_self_loops and len(array):
        array = array[array[:, 0] != array[:, 1]]
    if dedup and len(array):
        array = np.unique(array, axis=0)
    sources = array[:, 0]
    destinations = array[:, 1]
    counts = np.bincount(sources, minlength=num_vertices).astype(np.int64)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.lexsort((destinations, sources))
    return offsets, destinations[order].astype(np.int32)


def transpose_oracle(graph):
    n = graph.num_vertices
    counts = np.bincount(graph.neighbors, minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    sources = np.repeat(np.arange(n, dtype=np.int32), graph.degrees())
    order = np.argsort(graph.neighbors, kind="stable")
    return offsets, sources[order]


def line_reference_oracle(reference_graph, elems_per_line, num_lines):
    n = reference_graph.num_vertices
    elems = np.repeat(np.arange(n, dtype=np.int64), reference_graph.degrees())
    lines = elems // elems_per_line
    outer = reference_graph.neighbors.astype(np.int64)
    order = np.lexsort((outer, lines))
    lines_sorted = lines[order]
    outer_sorted = outer[order]
    keep = np.empty(lines_sorted.size, dtype=bool)
    keep[0] = True
    np.logical_or(
        lines_sorted[1:] != lines_sorted[:-1],
        outer_sorted[1:] != outer_sorted[:-1],
        out=keep[1:],
    )
    lines_sorted = lines_sorted[keep]
    outer_sorted = outer_sorted[keep]
    offsets = np.searchsorted(
        lines_sorted, np.arange(num_lines + 1, dtype=np.int64), side="left"
    ).astype(np.int64)
    return offsets, outer_sorted


def _rng_at(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def weighted_draw_oracle(state, p, size):
    rng = _rng_at(state)
    return rng.choice(len(p), size=size, p=p), rng.bit_generator.state


def fill_draws_oracle(seed, n):
    draw = random.Random(seed).random
    return np.fromiter((draw() for _ in range(n)), dtype=np.float64, count=n)


def encode_oracle(referenced, last_sub, entry_bits, variant):
    rows, num_epochs = referenced.shape
    sentinel = rm_sentinel(entry_bits, variant)
    next_epoch = np.full(rows, np.iinfo(np.int64).max // 2, np.int64)
    distance = np.empty((rows, num_epochs), dtype=np.int64)
    for epoch in range(num_epochs - 1, -1, -1):
        column_referenced = referenced[:, epoch]
        gap = np.minimum(next_epoch - epoch, sentinel)
        distance[:, epoch] = np.where(column_referenced, 0, gap)
        next_epoch = np.where(column_referenced, epoch, next_epoch)
    entries = np.empty((rows, num_epochs), dtype=np.int64)
    if variant == "inter_only":
        entries[:] = np.minimum(distance, sentinel)
    else:
        clamped_sub = np.minimum(last_sub, sentinel)
        inter = rm_msb(entry_bits) | np.minimum(distance, sentinel)
        entries[:] = np.where(referenced, clamped_sub, inter)
        if variant == "single_epoch":
            accessed_next = np.zeros((rows, num_epochs), dtype=bool)
            accessed_next[:, :-1] = referenced[:, 1:]
            entries[:] = np.where(
                referenced & accessed_next,
                entries | rm_next_bit(entry_bits, variant),
                entries,
            )
    return entries


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------


def _best_of(fn):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _identical(got, want):
    return all(
        g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want)
    )


def _equal_values(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want))


def _row(stage, new_fn, old_fn, size, identical=_identical):
    new_s, new_out = _best_of(new_fn)
    old_s, old_out = _best_of(old_fn)
    return {
        "stage": stage,
        "size": size,
        "old_ms": round(old_s * 1e3, 3),
        "new_ms": round(new_s * 1e3, 3),
        "speedup": round(old_s / new_s, 2),
        "identical": identical(new_out, old_out),
    }


def _captured_calls():
    """The exact ``from_edges`` arguments ``datasets.load`` uses, and the
    first endpoint draw's (generator state, probabilities, size)."""
    calls = []
    draws = []

    def capture(edges, num_vertices=None, **kwargs):
        calls.append((np.asarray(edges, dtype=np.int64), num_vertices,
                      kwargs))
        return from_edges(edges, num_vertices, **kwargs)

    def capture_draw(rng, p, size):
        draws.append((rng.bit_generator.state, p, size))
        return _weighted_draw(rng, p, size)

    with mock.patch.object(generators, "from_edges", capture), \
            mock.patch.object(generators, "_weighted_draw", capture_draw):
        datasets.load(GRAPH, scale=SCALE, seed=SEED)
    (call,) = calls
    return call, draws[0]


def _draw_from(state, p, size):
    rng = _rng_at(state)
    return _weighted_draw(rng, p, size), rng.bit_generator.state


def _same_draw(got, want):
    return np.array_equal(got[0], want[0]) and got[1] == want[1]


def cold_path_rows():
    (edges, num_vertices, kwargs), (state, p, size) = _captured_calls()
    dedup = kwargs["dedup"]
    drop_self_loops = kwargs["drop_self_loops"]

    def build():
        graph = from_edges(edges, num_vertices, dedup=dedup,
                           drop_self_loops=drop_self_loops)
        return graph.offsets, graph.neighbors

    rows = [_row(
        "graph_build", build,
        lambda: from_edges_oracle(edges, num_vertices, dedup,
                                  drop_self_loops),
        len(edges),
    )]

    graph = from_edges(edges, num_vertices, dedup=dedup,
                       drop_self_loops=drop_self_loops)

    def transpose():
        transposed = graph._build_transpose()
        return transposed.offsets, transposed.neighbors

    rows.append(_row("transpose", transpose,
                     lambda: transpose_oracle(graph), graph.num_edges))

    reference = graph.transpose()
    num_lines = -(-reference.num_vertices // ELEMS_PER_LINE)
    rows.append(_row(
        "topt_line_refs",
        lambda: build_line_reference_csr(reference, ELEMS_PER_LINE,
                                         num_lines),
        lambda: line_reference_oracle(reference, ELEMS_PER_LINE, num_lines),
        reference.num_edges,
    ))
    rows.append(_row(
        "power_law_draw",
        lambda: _draw_from(state, p, size),
        lambda: weighted_draw_oracle(state, p, size),
        size,
        identical=_same_draw,
    ))
    rows.append(_row(
        "fill_draws",
        lambda: (_fill_draws(SEED, N_DRAWS),),
        lambda: (fill_draws_oracle(SEED, N_DRAWS),),
        N_DRAWS,
    ))
    num_epochs, epoch_size, sub_epoch_size = epoch_geometry(
        reference.num_vertices, ENTRY_BITS, VARIANT
    )
    elems = np.repeat(
        np.arange(reference.num_vertices, dtype=np.int64),
        reference.degrees(),
    )
    referenced, last_sub = _reference_events(
        elems // ELEMS_PER_LINE, reference.neighbors.astype(np.int64),
        num_lines, num_epochs, epoch_size, sub_epoch_size,
    )
    # The encode returns int32 and the oracle int64; both are narrowed
    # to the matrix's storage dtype afterwards, so values must agree.
    rows.append(_row(
        "rm_encode",
        lambda: (_encode_entries(referenced, last_sub, ENTRY_BITS, VARIANT),),
        lambda: (encode_oracle(referenced, last_sub, ENTRY_BITS, VARIANT),),
        referenced.size,
        identical=_equal_values,
    ))
    return rows


def bench_cold_path(benchmark):
    rows = run_once(benchmark, cold_path_rows)
    for row in rows:
        print(row)
    path = write_cold_report(
        {"graph": GRAPH, "scale": SCALE, "seed": SEED, "rows": rows}
    )
    assert path.exists()

    by_stage = {row["stage"]: row for row in rows}
    for row in rows:
        assert row["identical"], f"{row['stage']}: outputs differ"
    assert by_stage["graph_build"]["speedup"] >= BUILD_FLOOR, by_stage
    assert by_stage["fill_draws"]["speedup"] >= DRAWS_FLOOR, by_stage
    assert by_stage["rm_encode"]["speedup"] >= ENCODE_FLOOR, by_stage
    assert by_stage["power_law_draw"]["speedup"] >= POWER_LAW_DRAW_FLOOR, \
        by_stage
