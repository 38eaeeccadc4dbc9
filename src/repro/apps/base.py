"""Application framework: graph kernels that emit their access streams.

Each app is a real kernel (it computes correct algorithm results, which
tests verify, on demand when the trace does not depend on them) that
*also* constructs the memory access trace its
edge-processing loops would issue: streaming accesses to the CSR/CSC
offsets and neighbor arrays, per-outer-vertex dense accesses, and the
irregular per-neighbor accesses (``srcData``/``dstData``/frontier) whose
locality the paper is about (Algorithm 1, Section II-A).

Trace construction is vectorized: the per-vertex block layout
``[OA] [NA (frontier?) (irreg?)]* [dense]`` is computed with prefix sums,
giving O(edges) numpy work instead of a Python loop per access.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..graph.csr import CSRGraph
from ..memory.layout import AddressSpace, ArraySpan
from ..memory.trace import AccessKind, MemoryTrace
from ..popt.topt import IrregularStream

__all__ = [
    "AppInfo",
    "Deferred",
    "PerEdgeAccess",
    "PreparedRun",
    "GraphApp",
    "traversal_trace",
]


@dataclass(frozen=True)
class AppInfo:
    """Table II metadata for one application."""

    name: str
    execution_style: str        # "pull", "push", or "pull-mostly"
    irreg_elem_bits: int        # srcData/dstData element size
    uses_frontier: bool
    transpose_kind: str         # which direction feeds next-refs (CSR/CSC)

    def as_row(self) -> Dict[str, object]:
        return {
            "app": self.name,
            "style": self.execution_style,
            "irregData": f"{self.irreg_elem_bits}b"
            + (" & 1bit" if self.uses_frontier else ""),
            "transpose": self.transpose_kind,
            "frontier": "Y" if self.uses_frontier else "N",
        }


@dataclass(frozen=True)
class PerEdgeAccess:
    """One irregular access made for every (active) edge.

    ``mask``, when given, is a boolean per-*neighbor-vertex* array; the
    access is only emitted for edges whose neighbor is active (how
    frontier-gated loads behave).
    """

    span: ArraySpan
    pc: int
    write: bool = False
    mask: Optional[np.ndarray] = None


class Deferred(functools.partial):
    """A reference answer computed on first read (a picklable thunk).

    PR, tiled PR, CC and PB build their traces without the algorithm's
    answer, so they hand ``PreparedRun`` one of these instead of the
    value; nothing on the replay path reads it.
    """


class _ReferenceResult:
    """``PreparedRun.reference_result``: a stored value, or a
    :class:`Deferred` that is called on the first read and replaced by
    its result."""

    def __get__(self, run, owner=None):
        if run is None:  # class access: the dataclass reads its default
            return self
        value = run.__dict__["_reference_result"]
        if isinstance(value, Deferred):
            value = run.__dict__["_reference_result"] = value()
        return value

    def __set__(self, run, value) -> None:
        # The dataclass passes the descriptor itself as the default.
        run.__dict__["_reference_result"] = None if value is self else value


@dataclass
class PreparedRun:
    """Everything the simulation driver needs for one kernel run.

    A prepared run is replayed under many LLC policies, so it also hosts
    the replay engine's policy-independent caches: the decoded trace
    (line addresses + metadata, phase 1) and the private-level filters
    (the LLC-visible subsequence per L1/L2 geometry, phase 2), keyed by
    hierarchy configuration. ``filter_counters`` records how often a
    filter was built vs reused (throughput instrumentation).
    """

    app_name: str
    layout: AddressSpace
    trace: MemoryTrace
    irregular_streams: List[IrregularStream]
    reference_result: object = field(
        default=_ReferenceResult(), repr=False, compare=False
    )
    details: Dict[str, object] = field(default_factory=dict)
    private_filters: Dict[object, object] = field(
        default_factory=dict, repr=False
    )
    filter_counters: Dict[str, int] = field(
        default_factory=lambda: {"built": 0, "reused": 0}, repr=False
    )
    #: Per-(private geometry, LLC geometry) LLC miss counts observed by
    #: sanitized replays; the sanitizer enforces the Belady lower bound
    #: across the policies recorded here.
    sanitizer_records: Dict[object, Dict[str, int]] = field(
        default_factory=dict, repr=False
    )

    @property
    def num_accesses(self) -> int:
        return len(self.trace)

    def decoded(self, line_shift: int):
        """Line-granular decode of the trace, memoized (engine phase 1)."""
        from ..memory.trace import decode_trace

        return decode_trace(self.trace, line_shift)


class GraphApp:
    """Base class for the five Table II applications (plus PB/PHI)."""

    info: AppInfo

    def prepare(self, graph: CSRGraph, **params) -> PreparedRun:
        """Run the kernel and materialize its trace for simulation."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        return self.info.name


def traversal_trace(
    topology: CSRGraph,
    oa_span: ArraySpan,
    na_span: ArraySpan,
    per_edge: Sequence[PerEdgeAccess],
    dense_span: Optional[ArraySpan] = None,
    dense_pc: int = AccessKind.DENSE_DATA,
    dense_write: bool = True,
    order: Optional[np.ndarray] = None,
) -> MemoryTrace:
    """Build the access trace of one edge-centric traversal.

    ``topology`` is the structure being scanned: the CSC for a pull
    traversal (neighbors are *sources*) or the CSR for a push traversal
    (neighbors are *destinations*). Per outer vertex the trace contains an
    offsets-array read, then per edge a neighbor-array read followed by the
    ``per_edge`` accesses in order (indexed by the neighbor's vertex ID),
    then one dense access indexed by the outer vertex.

    ``order`` overrides the outer-loop iteration order (HATS-BDFS), and
    may visit a *subset* of vertices (sparse-frontier rounds enumerate
    only active vertices); each entry must appear at most once.
    """
    n = topology.num_vertices
    storage_order = order is None
    if storage_order:
        order = np.arange(n, dtype=np.int64)
        degrees = topology.degrees()
    else:
        order = np.asarray(order, dtype=np.int64)
        if len(order) and (order.min() < 0 or order.max() >= n):
            raise SimulationError("order contains out-of-range vertices")
        if len(np.unique(order)) != len(order):
            raise SimulationError("order visits a vertex twice")
        degrees = topology.degrees()[order]

    # Edges in traversal order: the k-th edge belongs to the
    # vertex_of_edge[k]-th visited vertex, whose edges start at traversal
    # position first_edge[v]. Every per-edge array derives from these two.
    first_edge = np.zeros(len(order), dtype=np.int64)
    np.cumsum(degrees[:-1], out=first_edge[1:])
    num_edges = int(first_edge[-1] + degrees[-1]) if len(order) else 0
    vertex_of_edge = np.repeat(
        np.arange(len(order), dtype=np.int64), degrees
    )
    if storage_order:
        # Edge k of the traversal is edge k of the topology.
        edge_ids = np.arange(num_edges, dtype=np.int64)
        neighbors = topology.neighbors.astype(np.int64)
    else:
        edge_ids = (topology.offsets[order] - first_edge)[vertex_of_edge]
        edge_ids += np.arange(num_edges, dtype=np.int64)
        neighbors = topology.neighbors[edge_ids].astype(np.int64)

    # Which per-edge accesses fire for each edge (None: every edge).
    include: List[Optional[np.ndarray]] = [
        None if access.mask is None
        else np.asarray(access.mask, dtype=bool)[neighbors]
        for access in per_edge
    ]
    # slot_end[k]: trace slots taken by the edges before edge k (an NA
    # read plus the per-edge accesses that fire), so a vertex's edge
    # slots total slot_end[first + degree] - slot_end[first].
    edge_sizes = np.ones(num_edges, dtype=np.int64)
    for flags in include:
        edge_sizes += 1 if flags is None else flags
    slot_end = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(edge_sizes, out=slot_end[1:])
    del edge_sizes
    first_slot = slot_end[first_edge]
    per_vertex_edge_len = slot_end[first_edge + degrees] - first_slot

    has_dense = dense_span is not None
    # Per-vertex block length: OA + its edges' slots + optional dense.
    block_len = 1 + per_vertex_edge_len + (1 if has_dense else 0)
    block_starts = np.zeros(len(order), dtype=np.int64)
    np.cumsum(block_len[:-1], out=block_starts[1:])
    total = int(block_starts[-1] + block_len[-1]) if len(order) else 0

    addresses = np.empty(total, dtype=np.int64)
    pcs = np.empty(total, dtype=np.uint8)
    writes = np.zeros(total, dtype=bool)
    # Vertex IDs are bounded by num_vertices, which the csr.neighbors
    # width contract keeps below 2^31 (checked at graph build time).
    vertices = np.repeat(order.astype(np.int32), block_len)

    # Offsets-array read at each block start.
    addresses[block_starts] = oa_span.addr_of(order)
    pcs[block_starts] = AccessKind.OFFSETS

    if num_edges:
        # Each edge's NA read: its slot rebased from the global running
        # sum into its vertex's block, just past the OA read.
        slot = (block_starts + 1 - first_slot)[vertex_of_edge]
        slot += slot_end[:-1]
        addresses[slot] = na_span.addr_of(edge_ids)
        pcs[slot] = AccessKind.NEIGHBORS

        for access, flags in zip(per_edge, include):
            slot += 1 if flags is None else flags
            positions = slot if flags is None else slot[flags]
            targets = neighbors if flags is None else neighbors[flags]
            addresses[positions] = access.span.addr_of(targets)
            pcs[positions] = access.pc
            if access.write:
                writes[positions] = True

    if has_dense:
        dense_positions = block_starts + block_len - 1
        addresses[dense_positions] = dense_span.addr_of(order)
        pcs[dense_positions] = dense_pc
        writes[dense_positions] = dense_write

    return MemoryTrace(
        addresses=addresses, pcs=pcs, writes=writes, vertices=vertices
    )
