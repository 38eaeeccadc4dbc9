"""Cross-validation of the vectorized trace builder against a naive
loop-nest reference implementation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edges
from repro.memory import AddressSpace
from repro.memory.trace import AccessKind
from repro.apps.base import PerEdgeAccess, traversal_trace


def reference_trace(topology, oa, na, per_edge, dense, order):
    """The loop nest traversal_trace vectorizes, written plainly."""
    records = []
    for outer in order:
        records.append((oa.addr_of(int(outer)), AccessKind.OFFSETS,
                        False, int(outer)))
        lo = int(topology.offsets[outer])
        hi = int(topology.offsets[outer + 1])
        for edge_index in range(lo, hi):
            neighbor = int(topology.neighbors[edge_index])
            records.append(
                (na.addr_of(edge_index), AccessKind.NEIGHBORS, False,
                 int(outer))
            )
            for access in per_edge:
                if access.mask is not None and not access.mask[neighbor]:
                    continue
                records.append(
                    (access.span.addr_of(neighbor), access.pc,
                     access.write, int(outer))
                )
        if dense is not None:
            records.append(
                (dense.addr_of(int(outer)), AccessKind.DENSE_DATA, True,
                 int(outer))
            )
    return records


def graphs_and_params():
    return st.integers(2, 20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=60,
            ),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.booleans(),  # include dense span
            st.booleans(),  # include masked access
            # Outer-loop order: None (storage order), an explicit arange,
            # every other vertex, or a shuffled, non-monotone subset.
            st.sampled_from(["none", "arange", "subset", "shuffled"]),
            st.integers(0, 2**32 - 1),  # shuffle seed
        )
    )


@given(graphs_and_params())
@settings(max_examples=60, deadline=None)
def test_matches_reference_loop_nest(params):
    n, edges, mask_bits, with_dense, with_masked, order_kind, seed = params
    graph = from_edges(edges, num_vertices=n, dedup=True)
    space = AddressSpace()
    oa = space.alloc("oa", n + 1, 64)
    na = space.alloc("na", max(graph.num_edges, 1), 32)
    irr = space.alloc("irr", n, 32, irregular=True)
    frontier = space.alloc("fr", n, 1, irregular=True)
    dense = space.alloc("dense", n, 32) if with_dense else None
    mask = np.array(mask_bits, dtype=bool)

    per_edge = [PerEdgeAccess(span=frontier, pc=AccessKind.FRONTIER)]
    if with_masked:
        per_edge.append(
            PerEdgeAccess(span=irr, pc=AccessKind.IRREG_DATA, mask=mask)
        )
    order = np.arange(n, dtype=np.int64)
    if order_kind == "subset":
        order = order[::2].copy()
    elif order_kind == "shuffled":
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)[: rng.integers(1, n + 1)]

    trace = traversal_trace(
        topology=graph,
        oa_span=oa,
        na_span=na,
        per_edge=per_edge,
        dense_span=dense,
        order=None if order_kind == "none" else order,
    )
    expected = reference_trace(graph, oa, na, per_edge, dense, order)
    assert len(trace) == len(expected)
    for i, (addr, pc, write, vertex) in enumerate(expected):
        assert trace.addresses[i] == addr, i
        assert trace.pcs[i] == pc, i
        assert bool(trace.writes[i]) == write, i
        assert trace.vertices[i] == vertex, i
