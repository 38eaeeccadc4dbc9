"""Packed-key sorts against the multi-pass sorts they replaced.

Each oracle below is the former implementation, kept here verbatim in
spirit: ``np.unique(axis=0)`` plus ``np.lexsort`` for ``from_edges``, a
stable ``argsort`` for the transpose, a two-key ``lexsort`` plus a
two-array keep-mask for T-OPT's line-reference table, and per-vertex
Python loops for the sorted-neighbor check and repair. The rewritten
functions must return bit-identical arrays (values and dtypes).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, from_edges, from_edges_chunked, random_delta
from repro.graph.csr import MAX_VERTICES
from repro.popt.topt import build_line_reference_csr

# ----------------------------------------------------------------------
# Oracles: the former implementations
# ----------------------------------------------------------------------


def from_edges_oracle(edges, num_vertices=None, dedup=False,
                      drop_self_loops=False):
    array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if drop_self_loops and len(array):
        array = array[array[:, 0] != array[:, 1]]
    if num_vertices is None:
        num_vertices = int(array.max()) + 1 if len(array) else 0
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
    if lines_sorted.size:
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
    return offsets, np.ascontiguousarray(outer_sorted, dtype=np.int64)


def has_sorted_neighbors_oracle(graph):
    for v in range(graph.num_vertices):
        segment = graph.out_neighbors(v)
        if len(segment) > 1 and np.any(np.diff(segment) < 0):
            return False
    return True


def with_sorted_neighbors_oracle(graph):
    neighbors = graph.neighbors.copy()
    for v in range(graph.num_vertices):
        lo, hi = graph.offsets[v], graph.offsets[v + 1]
        neighbors[lo:hi] = np.sort(neighbors[lo:hi])
    return graph.offsets, neighbors


def assert_arrays_identical(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def edge_inputs(draw, max_vertices=24, max_edges=80):
    """``(edges, num_vertices)``: ids up to n-1, duplicates likely, and
    ``num_vertices`` sometimes above max id + 1 (trailing isolated
    vertices) or left to be inferred (``None``)."""
    n = draw(st.integers(1, max_vertices))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=max_edges))
    # Duplicate a prefix so parallel edges are common, not luck.
    edges = edges + edges[: draw(st.integers(0, len(edges)))]
    num_vertices = draw(st.sampled_from([None, n, n + draw(st.integers(1, 5))]))
    return edges, num_vertices


def graphs(max_vertices=24, max_edges=80):
    """Graphs with parallel edges and trailing isolated vertices."""
    return edge_inputs(max_vertices, max_edges).map(
        lambda pair: from_edges(pair[0], num_vertices=pair[1])
    )


# ----------------------------------------------------------------------
# from_edges
# ----------------------------------------------------------------------


class TestFromEdges:
    @settings(max_examples=200, deadline=None)
    @given(edge_inputs(), st.booleans(), st.booleans())
    def test_matches_oracle(self, data, dedup, drop_self_loops):
        edges, num_vertices = data
        graph = from_edges(edges, num_vertices=num_vertices, dedup=dedup,
                           drop_self_loops=drop_self_loops)
        want = from_edges_oracle(edges, num_vertices, dedup, drop_self_loops)
        assert_arrays_identical((graph.offsets, graph.neighbors), want)

    @pytest.mark.parametrize("dedup", [False, True])
    @pytest.mark.parametrize("num_vertices", [None, 0, 3])
    def test_empty_input(self, dedup, num_vertices):
        graph = from_edges([], num_vertices=num_vertices, dedup=dedup)
        want = from_edges_oracle([], num_vertices, dedup)
        assert_arrays_identical((graph.offsets, graph.neighbors), want)

    @pytest.mark.parametrize("dedup", [False, True])
    def test_single_vertex_self_loops(self, dedup):
        edges = [(0, 0), (0, 0)]
        for drop in (False, True):
            graph = from_edges(edges, num_vertices=1, dedup=dedup,
                               drop_self_loops=drop)
            want = from_edges_oracle(edges, 1, dedup, drop)
            assert_arrays_identical((graph.offsets, graph.neighbors), want)

    def test_duplicates_and_top_ids(self):
        n = 7
        edges = [(n - 1, n - 1), (n - 1, 0), (0, n - 1), (n - 1, 0),
                 (3, 2), (3, 2), (3, 1)]
        for dedup in (False, True):
            graph = from_edges(edges, num_vertices=n + 4, dedup=dedup)
            want = from_edges_oracle(edges, n + 4, dedup)
            assert_arrays_identical((graph.offsets, graph.neighbors), want)
        assert from_edges(edges, dedup=True).out_neighbors(n - 1).tolist() \
            == [0, n - 1]

    @pytest.mark.parametrize("edges", [[], [(0, 1)]])
    def test_over_range_num_vertices_raises(self, edges):
        # Raised before any array of num_vertices entries is allocated.
        with pytest.raises(GraphFormatError, match="int32"):
            from_edges(edges, num_vertices=MAX_VERTICES + 1)
        with pytest.raises(GraphFormatError, match="int32"):
            from_edges_chunked(
                lambda: iter([np.asarray(edges, dtype=np.int64)]),
                num_vertices=MAX_VERTICES + 1,
            )

    def test_max_vertices_is_the_int32_range(self):
        assert MAX_VERTICES == int(np.iinfo(np.int32).max) + 1
        assert (MAX_VERTICES - 1) * MAX_VERTICES + MAX_VERTICES - 1 \
            <= np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# Chunked build with payload
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(edge_inputs(), st.integers(1, 5))
def test_chunked_payload_order_matches_stable_lexsort(data, num_chunks):
    edges, num_vertices = data
    array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    payload = np.arange(len(array), dtype=np.int64) * 7 + 3
    pieces = list(zip(np.array_split(array, num_chunks),
                      np.array_split(payload, num_chunks)))
    graph, got = from_edges_chunked(
        lambda: iter(pieces), num_vertices=num_vertices, with_payload=True
    )
    # lexsort is stable: parallel edges keep stream order.
    order = np.lexsort((array[:, 1], array[:, 0]))
    assert np.array_equal(graph.neighbors, array[order, 1])
    assert np.array_equal(got, payload[order])


# ----------------------------------------------------------------------
# Transpose and the sorted-neighbor helpers
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_transpose_matches_oracle(graph):
    transposed = graph.transpose()
    assert_arrays_identical(
        (transposed.offsets, transposed.neighbors), transpose_oracle(graph)
    )
    assert transposed.transpose() is graph


@st.composite
def shuffled_graphs(draw):
    """A graph whose neighbor lists may be left unsorted."""
    graph = draw(graphs())
    neighbors = graph.neighbors.copy()
    rnd = draw(st.randoms(use_true_random=False))
    for v in range(graph.num_vertices):
        lo, hi = int(graph.offsets[v]), int(graph.offsets[v + 1])
        if draw(st.booleans()):
            segment = neighbors[lo:hi].tolist()
            rnd.shuffle(segment)
            neighbors[lo:hi] = segment
    return CSRGraph(offsets=graph.offsets, neighbors=neighbors)


@settings(max_examples=200, deadline=None)
@given(shuffled_graphs())
def test_sorted_neighbor_helpers_match_oracles(graph):
    assert graph.has_sorted_neighbors() == has_sorted_neighbors_oracle(graph)
    repaired = graph.with_sorted_neighbors()
    assert_arrays_identical(
        (repaired.offsets, repaired.neighbors),
        with_sorted_neighbors_oracle(graph),
    )
    assert repaired.has_sorted_neighbors()


def test_descent_across_segment_boundary_is_sorted():
    graph = CSRGraph(offsets=np.array([0, 2, 2, 4]),
                     neighbors=np.array([1, 2, 0, 1]))
    assert graph.has_sorted_neighbors()
    unsorted = CSRGraph(offsets=np.array([0, 4, 4, 4]),
                        neighbors=np.array([1, 2, 0, 1]))
    assert not unsorted.has_sorted_neighbors()


# ----------------------------------------------------------------------
# T-OPT's line-reference table
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(1, 6), st.integers(0, 3))
def test_line_reference_csr_matches_oracle(graph, elems_per_line, extra):
    num_lines = -(-graph.num_vertices // elems_per_line) + extra
    got = build_line_reference_csr(graph, elems_per_line, num_lines)
    want = line_reference_oracle(graph, elems_per_line, num_lines)
    assert_arrays_identical(got, want)


# ----------------------------------------------------------------------
# random_delta's distinct-edge keep-mask
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(graphs(), st.integers(0, 6), st.integers(0, 40), st.integers(0, 99))
def test_random_delta_matches_unique_oracle(graph, inserts, deletes, seed):
    if graph.num_vertices < 2:
        inserts = 0
    delta = random_delta(graph, inserts, deletes, seed=seed)
    rng = np.random.default_rng(seed)
    distinct = np.unique(graph.edge_array().astype(np.int64), axis=0)
    chosen = rng.choice(len(distinct),
                        size=min(deletes, len(distinct)), replace=False)
    assert np.array_equal(delta.deletions, distinct[chosen])
    assert delta.deletions.dtype == np.int64
