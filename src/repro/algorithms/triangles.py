"""Triangle listing, counting, and approximate counting.

Triangle Reduction (§4.3) makes triangles "the smallest unit of graph
compression", so exact listing is on the compression hot path.  We use the
*forward* (degree-ordered) algorithm: orient every edge from the
lower-ranked to the higher-ranked endpoint (rank = (degree, id)), then for
every oriented edge (u, v) intersect the out-neighborhoods of u and v.
Work is O(m^{3/2}) — exactly the complexity the paper quotes for TR — and
each triangle is emitted exactly once.  Counting alone needs no listing:
with ``L`` the oriented adjacency, the count is ``sum((L @ L) ∘ L)``,
taken as row-blocked scipy sparse products.  Both the join and the count
work in blocks cut by cumulative wedge count, so peak memory is bounded
by wedges, not arcs.

Approximate counters (DOULION edge sparsification and wedge sampling,
§4.3's "numerous approximate schemes") are provided for the accuracy
analytics, and per-vertex counts back Table 6 (average triangles per
vertex) and the reordered-pairs metric for TC.

Because triangle structure is consumed repeatedly on the *same* graph
(TR across seeds, the ``tc`` baseline, ``summarize``, Table 3 bound
checks), the expensive derived structures here — the full triangle list,
the degree-oriented arc arrays with their sorted membership keys, the
edge-id lookup index, and per-edge triangle counts — are memoized through
the graph-keyed :mod:`repro.graphs.analysis` cache.  The cache is keyed
by graph identity and graphs are immutable, so a compressed graph never
sees its original's triangles; it recomputes (and caches) its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.graphs.analysis import analysis_cache, cached_analysis
from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

__all__ = [
    "TriangleList",
    "list_triangles",
    "count_triangles",
    "triangles_per_vertex",
    "edge_triangle_counts",
    "approx_count_doulion",
    "approx_count_wedge_sampling",
    "edge_ids_of_pairs",
]


@dataclass(frozen=True)
class TriangleList:
    """All triangles of a graph.

    ``vertices[t] = (u, v, w)`` with rank(u) < rank(v) < rank(w) in the
    degree ordering used for listing, and ``edge_ids[t]`` holds the
    canonical ids of edges (u,v), (u,w), (v,w) in that order, ready for
    triangle kernels to delete.
    """

    vertices: np.ndarray  # (T, 3) int64
    edge_ids: np.ndarray  # (T, 3) int64

    @property
    def count(self) -> int:
        return len(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def _oriented_adjacency(g: CSRGraph):
    """Out-neighborhoods under the (degree, id) total order, CSR-shaped.

    Returns ``(optr, onbr, rank)``: for each vertex the higher-ranked
    neighbors (the "forward" orientation that makes every triangle appear
    as exactly one directed wedge u→v→w closed by arc u→w).
    """
    deg = g.degrees
    # rank key: degree-major, id-minor; encoded so np comparisons work.
    rank = np.argsort(np.argsort(deg * np.int64(g.n) + np.arange(g.n), kind="stable"))
    heads = g.arc_heads
    tails = g.indices
    forward = rank[tails] > rank[heads]
    fh, ft = heads[forward], tails[forward]
    order = np.lexsort((rank[ft], fh))
    fh, ft = fh[order], ft[order]
    counts = np.bincount(fh, minlength=g.n)
    optr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=optr[1:])
    return optr, ft, rank


@cached_analysis("oriented_arcs")
def _oriented_arcs(g: CSRGraph):
    """The degree-oriented arc arrays plus their sorted membership keys.

    ``(optr, onbr, arc_u, sorted_keys)``: the CSR-shaped forward
    orientation of :func:`_oriented_adjacency`, the head of every
    oriented arc, and the sorted ``u·n+v`` key array used for
    closed-wedge membership tests.  Cached per graph — exact triangle
    listing and count-only passes share one orientation build.
    """
    optr, onbr, _ = _oriented_adjacency(g)
    arc_u = np.repeat(np.arange(g.n), np.diff(optr))
    sorted_keys = np.sort(arc_u * np.int64(g.n) + onbr)
    return _frozen(optr), _frozen(onbr), _frozen(arc_u), _frozen(sorted_keys)


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only before it enters the analysis cache.

    Cached analyses hand the *same* arrays to every caller; an in-place
    mutation would silently poison all future results for that graph, so
    cached buffers refuse writes outright (mirroring ``CSRGraph``'s
    cached ``degrees``/``arc_heads``).
    """
    a.flags.writeable = False
    return a


#: Wedges per block: bounds the peak wedge-buffer memory of the listing
#: join and the sparse count's row-block products.
_WEDGE_BLOCK = 1 << 21


def _wedge_ranges(cum: np.ndarray) -> list[tuple[int, int]]:
    """Cut items into consecutive ``[lo, hi)`` ranges by wedge count.

    ``cum[i]`` is the number of wedges before item ``i`` (length
    items + 1).  Each range holds at most :data:`_WEDGE_BLOCK` wedges,
    except that an item heavier than the bound gets a range of its own.
    """
    ranges = []
    lo, k = 0, len(cum) - 1
    while lo < k:
        hi = int(np.searchsorted(cum, cum[lo] + _WEDGE_BLOCK, side="right")) - 1
        hi = min(max(hi, lo + 1), k)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _arc_wedges(optr: np.ndarray, onbr: np.ndarray) -> np.ndarray:
    """Cumulative wedge count over oriented arcs: arc (u, v) opens
    out-degree(v) wedges, so ``cum[i]`` counts the wedges of arcs < i."""
    cum = np.zeros(len(onbr) + 1, dtype=np.int64)
    np.cumsum(optr[onbr + 1] - optr[onbr], out=cum[1:])
    return cum


def _iter_wedge_blocks(g: CSRGraph):
    """Yield (us, vs, ws) triangle blocks via a vectorized wedge join.

    For every oriented arc (u, v), all candidate wedges (u, v, w ∈ N⁺(v))
    are materialized with one scatter-gather, then closed-wedge membership
    (u, w) ∈ E⁺ is tested with one sorted-key search.  No per-edge Python
    loop; arcs are processed in blocks of bounded wedge count so memory
    stays bounded.
    """
    optr, onbr, arc_u, sorted_keys = _oriented_arcs(g)
    arc_v = onbr

    for lo, hi in _wedge_ranges(_arc_wedges(optr, onbr)):
        u_blk, v_blk = arc_u[lo:hi], arc_v[lo:hi]
        counts = optr[v_blk + 1] - optr[v_blk]
        total = int(counts.sum())
        if total == 0:
            continue
        rep_starts = np.repeat(optr[v_blk], counts)
        rep_bases = np.repeat(np.cumsum(counts) - counts, counts)
        flat = rep_starts + (np.arange(total) - rep_bases)
        ws = onbr[flat]
        us = np.repeat(u_blk, counts)
        vs = np.repeat(v_blk, counts)
        want = us * np.int64(g.n) + ws
        pos = np.searchsorted(sorted_keys, want)
        closed = (pos < len(sorted_keys)) & (
            sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == want
        )
        if closed.any():
            yield us[closed], vs[closed], ws[closed]


def _sparse_triangle_count(g: CSRGraph) -> int:
    """``sum((L @ L) ∘ L)`` over the degree-oriented adjacency ``L``.

    ``(L @ L)[u, w]`` counts the wedges u→v→w and ``L[u, w]`` closes
    them, so the masked sum counts every triangle once.  Rows are taken
    in blocks of bounded wedge count, which bounds each block product.
    """
    optr, onbr, _, _ = _oriented_arcs(g)
    row_cum = _arc_wedges(optr, onbr)[optr]
    if row_cum[-1] == 0:
        return 0
    import scipy.sparse as sp

    L = sp.csr_matrix(
        (np.ones(len(onbr), dtype=np.int64), onbr, optr), shape=(g.n, g.n)
    )
    total = 0
    for lo, hi in _wedge_ranges(row_cum):
        rows = L[lo:hi]
        total += int((rows @ L).multiply(rows).sum())
    return total


@cached_analysis("triangle_list")
def list_triangles(g: CSRGraph) -> TriangleList:
    """Enumerate every triangle exactly once (vectorized forward join).

    The result is memoized per graph: TR compression across S seeds, the
    per-vertex/per-edge counters, and the exact global counter all share
    one O(m^{3/2}) listing of the same graph.
    """
    if g.directed:
        raise ValueError("triangle listing expects an undirected graph")
    blocks = list(_iter_wedge_blocks(g))
    if not blocks:
        empty = np.empty((0, 3), dtype=np.int64)
        return TriangleList(vertices=_frozen(empty), edge_ids=_frozen(empty.copy()))
    tri = np.stack(
        [
            np.concatenate([b[0] for b in blocks]),
            np.concatenate([b[1] for b in blocks]),
            np.concatenate([b[2] for b in blocks]),
        ],
        axis=1,
    )
    eids = np.stack(
        [
            edge_ids_of_pairs(g, tri[:, 0], tri[:, 1]),
            edge_ids_of_pairs(g, tri[:, 0], tri[:, 2]),
            edge_ids_of_pairs(g, tri[:, 1], tri[:, 2]),
        ],
        axis=1,
    )
    return TriangleList(vertices=_frozen(tri), edge_ids=_frozen(eids))


@register_algorithm(
    "count_triangles",
    adapter="scalar",
    aliases=("tc",),
    summary="exact global triangle count (sum((L @ L) ∘ L), L = degree-oriented adjacency)",
    example="tc",
)
def count_triangles(g: CSRGraph) -> int:
    """Exact triangle count as a Python ``int``.

    Reuses a cached triangle list when one exists (e.g. after TR
    compression of the same graph); otherwise counts with the row-blocked
    sparse product of :func:`_sparse_triangle_count` — which materializes
    neither the wedge list nor the (T, 3) arrays — and caches the scalar.
    """
    if g.directed:
        raise ValueError("triangle counting expects an undirected graph")
    cached = analysis_cache().peek(g, "triangle_list")
    if cached is not None:
        return cached.count
    return analysis_cache().lookup(g, "triangle_count", _sparse_triangle_count)


@register_algorithm(
    "triangles_per_vertex",
    adapter="ordering",
    aliases=("tc_per_vertex", "tpv"),
    summary="triangles through each vertex (Table 6's quantity / n)",
    example="tc_per_vertex",
)
def triangles_per_vertex(g: CSRGraph) -> np.ndarray:
    """Number of triangles through each vertex (Table 6's quantity / n)."""
    tl = list_triangles(g)
    out = np.zeros(g.n, dtype=np.int64)
    if tl.count:
        np.add.at(out, tl.vertices.ravel(), 1)
    return out


@cached_analysis("edge_triangle_counts")
def edge_triangle_counts(g: CSRGraph) -> np.ndarray:
    """Number of triangles containing each canonical edge.

    Drives the CT Triangle-Reduction variant (remove edges belonging to
    the fewest triangles first, Fig. 6 right).  Cached per graph, so CT
    sweeps across seeds pay for one counting pass.
    """
    tl = list_triangles(g)
    out = np.zeros(g.num_edges, dtype=np.int64)
    if tl.count:
        np.add.at(out, tl.edge_ids.ravel(), 1)
    return _frozen(out)


@cached_analysis("edge_key_index")
def _edge_key_index(g: CSRGraph):
    """``(sorted_keys, order)`` of the canonical ``src·n+dst`` edge keys —
    the binary-search index behind :func:`edge_ids_of_pairs`, built once
    per graph."""
    keys = g.edge_src * np.int64(g.n) + g.edge_dst
    order = np.argsort(keys, kind="stable")
    return _frozen(keys[order]), _frozen(order)


def edge_ids_of_pairs(g: CSRGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized lookup of canonical edge ids for endpoint arrays.

    Raises ``KeyError`` if any pair is not an edge.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if not g.directed:
        lo, hi = np.minimum(u, v), np.maximum(u, v)
    else:
        lo, hi = u, v
    if g.num_edges == 0:
        if len(u):
            raise KeyError(f"pair ({u[0]}, {v[0]}) is not an edge")
        return np.empty(0, dtype=np.int64)
    sorted_keys, order = _edge_key_index(g)
    want = lo * np.int64(g.n) + hi
    pos = np.searchsorted(sorted_keys, want)
    ok = (pos < len(sorted_keys)) & (
        sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == want
    )
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise KeyError(f"pair ({u[bad]}, {v[bad]}) is not an edge")
    return order[pos]


def approx_count_doulion(g: CSRGraph, p: float, *, seed=None) -> float:
    """DOULION estimator: sparsify with probability ``p``, count, scale 1/p³.

    Unbiased for the global triangle count; the same "coin" the paper cites
    for uniform sampling preserving triangle counts (§4.2.2).
    """
    check_probability(p, "p")
    if p == 0.0:
        return 0.0
    rng = as_generator(seed)
    keep = rng.random(g.num_edges) < p
    return count_triangles(g.keep_edges(keep)) / p**3


def approx_count_wedge_sampling(g: CSRGraph, samples: int = 10_000, *, seed=None) -> float:
    """Wedge-sampling estimator of the triangle count.

    Samples wedges (paths of length 2) proportionally to d(v)·(d(v)-1)/2,
    checks closure, and scales: T ≈ closed_fraction × total_wedges / 3.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = as_generator(seed)
    deg = g.degrees.astype(np.float64)
    wedges_per_vertex = deg * (deg - 1) / 2.0
    total_wedges = wedges_per_vertex.sum()
    if total_wedges == 0:
        return 0.0
    prob = wedges_per_vertex / total_wedges
    centers = rng.choice(g.n, size=samples, p=prob)
    closed = 0
    for c in centers:
        row = g.neighbors(c)
        i, j = rng.choice(len(row), size=2, replace=False)
        if g.has_edge(int(row[i]), int(row[j])):
            closed += 1
    return (closed / samples) * total_wedges / 3.0
