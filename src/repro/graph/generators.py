"""Synthetic graph generators.

The paper evaluates on five graph classes (Table III): a power-law web-like
graph (DBP), a community-structured web crawl (UK-02), a highly skewed
synthetic Kronecker graph (KRON), a uniform random graph (URAND), and a
bounded-degree mesh-like graph (HBUBL). Each generator here produces a
scaled-down member of one of those classes; :mod:`repro.graph.datasets`
binds them to the paper's graph names.

All generators are deterministic given ``seed`` and return graphs with
sorted neighbor lists and no self loops.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from .builders import from_edges
from .csr import CSRGraph

__all__ = [
    "uniform_random",
    "rmat",
    "kronecker",
    "power_law",
    "community",
    "bounded_degree_mesh",
]


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _weighted_draw(
    rng: np.random.Generator, p: np.ndarray, size: int
) -> np.ndarray:
    """``rng.choice(len(p), size, p=p)``, bit for bit, in a few passes.

    numpy draws ``size`` uniforms ``u`` and binary-searches each in the
    normalized CDF: the answer is the first index whose CDF exceeds
    ``u``. Here the same uniforms first land in one of ``K`` equal
    buckets of ``[0, 1)``. A guide table holds, per bucket boundary
    ``k / K``, the first index whose CDF exceeds it, so a draw in bucket
    ``b`` has its answer in ``[guide[b], guide[b + 1]]``. A branch-free
    search with power-of-two steps then finishes inside that range. The
    steps only advance past CDF entries ``<= u``, so the result is
    exactly numpy's. ``K`` is a power of two, so ``u * K`` and ``k / K``
    are exact and ``floor(u * K)`` names the right bucket. The widest
    bucket range sets the number of steps (two on the DBP stand-in).
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    uniforms = rng.random(size)
    buckets = 1 << (4 * len(p) - 1).bit_length()
    guide = cdf.searchsorted(
        np.arange(buckets + 1, dtype=np.float64) / buckets, side="right"
    )
    width = int(np.diff(guide).max())
    draws = guide[(uniforms * buckets).astype(np.intp)]
    for bit in reversed(range(width.bit_length())):
        step = 1 << bit
        # Probes past the last index are clipped: their CDF is 1 > u.
        probe = cdf.take(draws + (step - 1), mode="clip")
        draws += (probe <= uniforms) * step
    return draws


def uniform_random(
    num_vertices: int, avg_degree: float = 16.0, seed: int = 0
) -> CSRGraph:
    """Erdos-Renyi-style uniform random graph (the paper's URAND class).

    Every (src, dst) pair is equally likely; degree distribution is
    binomial (approximately normal), with no hubs and no community
    structure.
    """
    if num_vertices <= 0:
        raise GraphFormatError("num_vertices must be positive")
    rng = _rng(seed)
    num_edges = int(round(num_vertices * avg_degree))
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return from_edges(
        np.column_stack([src, dst]),
        num_vertices=num_vertices,
        dedup=True,
        drop_self_loops=True,
    )


def rmat(
    scale: int,
    avg_degree: float = 16.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> CSRGraph:
    """R-MAT / Kronecker-style generator (the paper's KRON class).

    Recursively subdivides the adjacency matrix with probabilities
    ``(a, b, c, d)``; the Graph500 defaults (0.57, 0.19, 0.19, 0.05) give
    the highly skewed degree distribution the paper calls out for KRON
    ("the more skewed the distribution, the more likely it is for hub
    vertices to hit by chance in cache").
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise GraphFormatError("R-MAT probabilities must sum to at most 1")
    num_vertices = 1 << scale
    num_edges = int(round(num_vertices * avg_degree))
    rng = _rng(seed)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        draw = rng.random(num_edges)
        right = ((draw >= a) & (draw < a + b)) | (draw >= a + b + c)
        down = draw >= a + b
        src = (src << 1) | down.astype(np.int64)
        dst = (dst << 1) | right.astype(np.int64)
    return from_edges(
        np.column_stack([src, dst]),
        num_vertices=num_vertices,
        dedup=True,
        drop_self_loops=True,
    )


def kronecker(scale: int, avg_degree: float = 16.0, seed: int = 0) -> CSRGraph:
    """Graph500-parameter Kronecker graph: ``rmat`` with default skew."""
    return rmat(scale, avg_degree=avg_degree, seed=seed)


def power_law(
    num_vertices: int,
    avg_degree: float = 8.0,
    exponent: float = 2.1,
    seed: int = 0,
) -> CSRGraph:
    """Power-law graph via a Chung-Lu style model (the paper's DBP class).

    Per-vertex weights ``w_v ~ v^(-1/(exponent-1))`` give a degree
    distribution with heavy-tailed hubs but (unlike R-MAT) without R-MAT's
    extreme self-similarity, matching web/knowledge-graph inputs like
    DBpedia.
    """
    if num_vertices <= 0:
        raise GraphFormatError("num_vertices must be positive")
    rng = _rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    probabilities = weights / weights.sum()
    num_edges = int(round(num_vertices * avg_degree))
    src = _weighted_draw(rng, probabilities, num_edges)
    dst = _weighted_draw(rng, probabilities, num_edges)
    # Shuffle hub IDs so hubs are not all clustered at low vertex IDs,
    # matching real inputs where vertex order is arbitrary.
    permutation = rng.permutation(num_vertices)
    src = permutation[src]
    dst = permutation[dst]
    return from_edges(
        np.column_stack([src, dst]),
        num_vertices=num_vertices,
        dedup=True,
        drop_self_loops=True,
    )


def community(
    num_vertices: int,
    num_communities: int = 32,
    avg_degree: float = 16.0,
    internal_fraction: float = 0.9,
    seed: int = 0,
) -> CSRGraph:
    """Planted-partition graph (the paper's UK-02 / web-crawl class).

    Vertices are split into contiguous communities; ``internal_fraction``
    of each vertex's edges stay inside its own community. Contiguous
    community ranges mirror web crawls, where URL ordering clusters pages
    from one host — the structure HATS-BDFS exploits (Fig. 12b).
    """
    if not 0.0 <= internal_fraction <= 1.0:
        raise GraphFormatError("internal_fraction must be within [0, 1]")
    if num_communities <= 0 or num_communities > num_vertices:
        raise GraphFormatError("num_communities must be in [1, num_vertices]")
    rng = _rng(seed)
    num_edges = int(round(num_vertices * avg_degree))
    community_size = num_vertices // num_communities
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    internal = rng.random(num_edges) < internal_fraction
    src_community = np.minimum(src // community_size, num_communities - 1)
    community_start = src_community * community_size
    local = rng.integers(0, community_size, size=num_edges, dtype=np.int64)
    dst_internal = community_start + local
    dst_external = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = np.where(internal, dst_internal, dst_external)
    return from_edges(
        np.column_stack([src, dst]),
        num_vertices=num_vertices,
        dedup=True,
        drop_self_loops=True,
    )


def bounded_degree_mesh(
    num_vertices: int, degree: int = 6, seed: int = 0
) -> CSRGraph:
    """Bounded-degree, high-diameter mesh (the paper's HBUBL class).

    Each vertex connects to ``degree`` near neighbors in a latent ring
    (a band-matrix topology: nearly constant degree, high diameter — the
    paper notes HBUBL's high diameter prevents Radii from ever switching
    to pull iterations). Vertex IDs are then randomly permuted: real
    bounded-degree datasets carry no ID locality, so the per-vertex data
    accesses stay irregular even though the topology is mesh-like.
    """
    if degree <= 0:
        raise GraphFormatError("degree must be positive")
    rng = _rng(seed)
    half = max(1, degree // 2)
    src = np.repeat(np.arange(num_vertices, dtype=np.int64), 2 * half)
    offsets = np.tile(
        np.concatenate([
            np.arange(1, half + 1, dtype=np.int64),
            -np.arange(1, half + 1, dtype=np.int64),
        ]),
        num_vertices,
    )
    jitter_mask = rng.random(len(src)) < 0.05
    jitter = rng.integers(-3 * half, 3 * half + 1, size=len(src))
    offsets = np.where(jitter_mask, jitter, offsets)
    dst = (src + offsets) % num_vertices
    relabel = rng.permutation(num_vertices)
    return from_edges(
        np.column_stack([relabel[src], relabel[dst]]),
        num_vertices=num_vertices,
        dedup=True,
        drop_self_loops=True,
    )
