"""Compressed sparse graph representation (CSR/CSC).

The paper's framing (Section II-A): a directed graph is an adjacency matrix;
the *Compressed Sparse Row* (CSR) stores each source vertex's outgoing
neighbors and the *Compressed Sparse Column* (CSC) stores each destination
vertex's incoming neighbors. Both use an Offsets Array (``offsets``, the
paper's OA) and a Neighbor Array (``neighbors``, the paper's NA).

A single :class:`CSRGraph` instance stores one direction. ``transpose()``
produces the other direction; graph frameworks (and P-OPT) keep both.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import GraphFormatError
from ..sim.constants import WIDTH_CONTRACTS

__all__ = [
    "CSRGraph",
    "MAX_VERTICES",
    "check_vertex_count",
    "from_sorted_keys",
    "run_starts",
    "split_sorted_keys",
]

#: Vertex IDs are stored as int32 neighbors
#: (``WIDTH_CONTRACTS["csr.neighbors"]``), so a graph has at most 2**31
#: vertices. The same bound keeps every packed ``row * n + col`` sort
#: key below ``n * n <= 2**62``, inside int64.
MAX_VERTICES = 1 << int(WIDTH_CONTRACTS["csr.neighbors"]["max_bits"])


def check_vertex_count(num_vertices: int) -> None:
    """Reject a vertex count whose IDs would not fit the int32 neighbors."""
    if num_vertices > MAX_VERTICES:
        raise GraphFormatError(
            f"num_vertices={num_vertices} exceeds the int32 neighbor-ID "
            f"range ({MAX_VERTICES} vertices)"
        )


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Keep-mask of the first element of each run of equal sorted keys."""
    keep = np.empty(len(sorted_keys), dtype=bool)
    if len(keep):
        keep[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=keep[1:])
    return keep


def split_sorted_keys(
    keys: np.ndarray, num_rows: int, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Split sorted int64 ``row * width + col`` keys into CSR form.

    Returns ``(offsets, cols)`` with ``offsets`` of length
    ``num_rows + 1``. ``cols`` is ``keys`` itself, overwritten in place
    with ``key % width``.
    """
    offsets = np.searchsorted(
        keys, np.arange(num_rows + 1, dtype=np.int64) * width
    ).astype(np.int64, copy=False)
    if len(keys):
        np.remainder(keys, width, out=keys)
    return offsets, keys


def from_sorted_keys(keys: np.ndarray, num_vertices: int) -> "CSRGraph":
    """The graph whose edges are the sorted packed ``src * n + dst`` keys
    (consumed in place)."""
    offsets, cols = split_sorted_keys(keys, num_vertices, num_vertices)
    # cols are IDs < num_vertices <= MAX_VERTICES = 2**31 (checked before
    # any keys were packed), so they fit WIDTH_CONTRACTS["csr.neighbors"].
    neighbors = cols.astype(np.int32)
    return CSRGraph(offsets=offsets, neighbors=neighbors)


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in compressed sparse (CSR-style) form.

    ``offsets`` has ``num_vertices + 1`` entries; vertex ``v``'s neighbors
    occupy ``neighbors[offsets[v]:offsets[v + 1]]``. Neighbor lists are kept
    sorted in ascending order, which the transpose-walk oracle (T-OPT)
    relies on for binary-searching the next reference.

    Whether the instance represents out-neighbors (a CSR proper) or
    in-neighbors (a CSC) is up to the caller; ``transpose()`` flips between
    the two views.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    _transpose_cache: list = field(
        default=None, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        neighbors = np.ascontiguousarray(self.neighbors, dtype=np.int32)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "neighbors", neighbors)
        if self._transpose_cache is None:
            object.__setattr__(self, "_transpose_cache", [])
        self._validate()

    def _validate(self) -> None:
        if self.offsets.ndim != 1 or self.neighbors.ndim != 1:
            raise GraphFormatError("offsets and neighbors must be 1-D arrays")
        if len(self.offsets) == 0:
            raise GraphFormatError("offsets must have at least one entry")
        check_vertex_count(self.num_vertices)
        if self.offsets[0] != 0:
            raise GraphFormatError("offsets must start at 0")
        if self.offsets[-1] != len(self.neighbors):
            raise GraphFormatError(
                "offsets must end at len(neighbors) "
                f"({self.offsets[-1]} != {len(self.neighbors)})"
            )
        if np.any(np.diff(self.offsets) < 0):
            raise GraphFormatError("offsets must be non-decreasing")
        if len(self.neighbors) > 0:
            if self.neighbors.min() < 0 or self.neighbors.max() >= self.num_vertices:
                raise GraphFormatError("neighbor IDs out of range")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices (both endpoint spaces share one ID range)."""
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self.neighbors)

    def degree(self, v: int) -> int:
        """Number of neighbors of vertex ``v`` in this direction."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """Vector of per-vertex degrees in this direction."""
        return np.diff(self.offsets)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Neighbor list of vertex ``v`` (a read-only view, sorted)."""
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    # Alias matching CSC terminology used by pull kernels.
    in_neighbors = out_neighbors

    def iter_vertices(self) -> Iterator[int]:
        """Iterate vertex IDs in ascending order."""
        return iter(range(self.num_vertices))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(vertex, neighbor)`` pairs in traversal order."""
        for v in range(self.num_vertices):
            for u in self.out_neighbors(v):
                yield v, int(u)

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(num_edges, 2)`` array of (vertex, neighbor)."""
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int32),
                            self.degrees())
        return np.column_stack([sources, self.neighbors])

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def transpose(self) -> "CSRGraph":
        """Return the reversed-edge graph (CSR <-> CSC).

        The result is cached: graph frameworks store both directions once
        (Section II-A), and P-OPT's Rereference Matrix construction and
        T-OPT's oracle both walk the transpose repeatedly. A graph holds
        its transpose strongly; the transpose points back through a weak
        reference, so the pair forms no cycle and is freed as soon as the
        graph is dropped. A transpose that outlives its source rebuilds it.
        """
        if self._transpose_cache:
            cached = self._transpose_cache[0]
            if isinstance(cached, weakref.ref):
                cached = cached()
            if cached is not None:
                return cached
        transposed = self._build_transpose()
        self._transpose_cache[:] = [transposed]
        return transposed

    def __getstate__(self) -> dict:
        # A weak back-reference cannot be pickled; the transpose is
        # rebuilt on demand, so pickles carry only the two arrays.
        state = dict(self.__dict__)
        state["_transpose_cache"] = []
        return state

    def _packed_edges(self, reverse: bool = False) -> np.ndarray:
        """Edges as unsorted int64 ``src * n + dst`` keys (``dst * n +
        src`` with ``reverse``), in CSR order."""
        n = self.num_vertices
        sources = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
        if reverse:
            keys = self.neighbors.astype(np.int64)
            keys *= n
            keys += sources
        else:
            keys = sources
            keys *= n
            keys += self.neighbors
        return keys

    def _build_transpose(self) -> "CSRGraph":
        # One sort of the packed (dst, src) keys groups reversed edges by
        # destination with ascending sources: sorted neighbor lists.
        keys = self._packed_edges(reverse=True)
        keys.sort()
        transposed = from_sorted_keys(keys, self.num_vertices)
        transposed._transpose_cache.append(weakref.ref(self))
        return transposed

    def with_sorted_neighbors(self) -> "CSRGraph":
        """Return an equivalent graph whose neighbor lists are sorted."""
        if self.has_sorted_neighbors():
            return self
        keys = self._packed_edges()
        keys.sort()
        return from_sorted_keys(keys, self.num_vertices)

    def has_sorted_neighbors(self) -> bool:
        """True if every neighbor list is in ascending order."""
        descents = np.diff(self.neighbors) < 0
        # A drop from one neighbor list into the next is not a descent.
        starts = self.offsets[1:-1]
        starts = starts[(starts > 0) & (starts < len(self.neighbors))]
        descents[starts - 1] = False
        return not bool(descents.any())

    def relabel(self, new_ids: np.ndarray) -> "CSRGraph":
        """Renumber vertices: old vertex ``v`` becomes ``new_ids[v]``.

        ``new_ids`` must be a permutation of ``0..num_vertices-1``. Used by
        vertex-reordering optimizations such as DBG (Section VII-C1).
        """
        new_ids = np.asarray(new_ids, dtype=np.int32)
        if len(new_ids) != self.num_vertices:
            raise GraphFormatError("relabel permutation has wrong length")
        check = np.zeros(self.num_vertices, dtype=bool)
        check[new_ids] = True
        if not check.all():
            raise GraphFormatError("relabel mapping is not a permutation")
        edges = self.edge_array()
        new_src = new_ids[edges[:, 0]]
        new_dst = new_ids[edges[:, 1]]
        from .builders import from_edges  # local import to avoid a cycle

        return from_edges(
            np.column_stack([new_src, new_dst]), num_vertices=self.num_vertices
        )

    # ------------------------------------------------------------------
    # T-OPT support
    # ------------------------------------------------------------------

    def next_reference_after(self, vertex: int, current: int) -> Optional[int]:
        """Smallest neighbor of ``vertex`` strictly greater than ``current``.

        This is the transpose-walk primitive at the heart of T-OPT
        (Section III-A): in a pull execution over destinations, the
        out-neighbor list of source ``vertex`` (read from the transpose)
        lists exactly the destination iterations that will touch
        ``srcData[vertex]``. Returns ``None`` when the vertex is never
        referenced again.
        """
        neighbors = self.out_neighbors(vertex)
        idx = int(np.searchsorted(neighbors, current, side="right"))
        if idx >= len(neighbors):
            return None
        return int(neighbors[idx])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
