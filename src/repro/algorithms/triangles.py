"""Triangle listing and counting.

Triangle Reduction (§4.3) makes triangles "the smallest unit of graph
compression", so exact listing is on the compression hot path.  We use the
*forward* (degree-ordered) algorithm: orient every edge from the
lower-ranked to the higher-ranked endpoint (rank = (degree, id)), then for
every oriented edge (u, v) intersect the out-neighborhoods of u and v.
Work is O(m^{3/2}) — exactly the complexity the paper quotes for TR — and
each triangle is emitted exactly once.  Listing tests closure against a
row-block table: for a block of heads u, the cell (u, w) holds the index
of arc u→w, so a wedge u→v→w is closed where its cell is set, and all
three edge ids are read off the oriented arcs, which carry them.
Counting alone needs no listing: with ``L`` the oriented adjacency, the
count is ``sum((L @ L) ∘ L)``, taken as row-blocked scipy sparse
products.  Both the join and the count work in blocks cut by cumulative
wedge count, so peak memory is bounded by wedges, not arcs.

Per-vertex counts back Table 6 (average triangles per vertex) and the
reordered-pairs metric for TC.

Because triangle structure is consumed repeatedly on the *same* graph
(TR across seeds, the ``tc`` baseline, ``summarize``, Table 3 bound
checks), the expensive derived structures here — the full triangle list,
the degree-oriented arc arrays with their edge ids, the edge-id lookup
index, and per-edge triangle counts — are memoized through
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

__all__ = [
    "TriangleList",
    "list_triangles",
    "count_triangles",
    "triangles_per_vertex",
    "edge_triangle_counts",
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

    Returns ``(optr, onbr, oeid)``: for each vertex the higher-ranked
    neighbors (the "forward" orientation that makes every triangle appear
    as exactly one directed wedge u→v→w closed by arc u→w), in rank
    order, and the canonical edge id of every oriented arc, carried over
    from ``g.arc_edge_ids``.
    """
    deg = g.degrees
    # rank key: degree-major, id-minor; encoded so np comparisons work.
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(deg * np.int64(g.n) + np.arange(g.n))] = np.arange(g.n)
    heads = g.arc_heads
    tails = g.indices
    forward = rank[tails] > rank[heads]
    fh, ft, fe = heads[forward], tails[forward], g.arc_edge_ids[forward]
    # Keys are unique, so any sort gives the (head, rank of tail) order.
    order = np.argsort(fh * np.int64(g.n) + rank[ft])
    counts = np.bincount(fh, minlength=g.n)
    optr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=optr[1:])
    return optr, ft[order], fe[order]


@cached_analysis("oriented_arcs")
def _oriented_arcs(g: CSRGraph):
    """The degree-oriented arc arrays.

    ``(optr, onbr, arc_u, arc_eid)``: the CSR-shaped forward orientation
    of :func:`_oriented_adjacency`, the head of every oriented arc, and
    every arc's canonical edge id.  Cached per graph — exact triangle
    listing and count-only passes share one orientation build.
    """
    optr, onbr, arc_eid = _oriented_adjacency(g)
    arc_u = np.repeat(np.arange(g.n), np.diff(optr))
    return _frozen(optr), _frozen(onbr), _frozen(arc_u), _frozen(arc_eid)


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

#: Cells of the listing's row-block closure table (16 MiB of int32): a
#: block holds ``max(1, _TABLE_CELLS // n)`` head rows of ``n`` cells.
_TABLE_CELLS = 1 << 22


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


def _closed_wedges(n: int, optr, onbr, arc_u):
    """Yield ``(uv, vw, uw)`` oriented-arc indices of every closed wedge.

    Heads are taken in row blocks of ``max(1, _TABLE_CELLS // n)``
    vertices.  For a block starting at row ``r0``, table cell
    ``(u - r0)·n + w`` holds the index + 1 of arc (u, w), so a wedge
    u→v→w (arc ``uv``, then arc ``vw`` of N⁺(v)) is closed exactly where
    its cell is non-zero, and that cell names the closing arc.  Wedges
    run in arc order within sub-blocks cut by :data:`_WEDGE_BLOCK`, so
    triangles come out ordered by (u, rank v, rank w).  Only the cells a
    block wrote are cleared after it: O(arcs) resets, not O(n²).
    """
    cum = _arc_wedges(optr, onbr)
    rows = max(1, _TABLE_CELLS // n)
    dtype = np.int32 if len(onbr) < np.iinfo(np.int32).max else np.int64
    table = np.zeros(min(rows, n) * n, dtype=dtype)
    for r0 in range(0, n, rows):
        a0, a1 = int(optr[r0]), int(optr[min(r0 + rows, n)])
        if cum[a1] == cum[a0]:
            continue
        row_base = (arc_u[a0:a1] - r0) * n  # table offset of each arc's head
        cells = row_base + onbr[a0:a1]
        table[cells] = np.arange(a0 + 1, a1 + 1, dtype=dtype)
        for lo, hi in _wedge_ranges(cum[a0 : a1 + 1]):
            lo, hi = lo + a0, hi + a0
            counts = np.diff(cum[lo : hi + 1])
            # Arc vw walks N⁺(v) from optr[v]: offset each wedge by its
            # arc's first wedge, so the whole sub-block is one arange.
            vw = np.repeat(optr[onbr[lo:hi]] - cum[lo:hi], counts)
            vw += np.arange(int(cum[lo]), int(cum[hi]))
            cell = np.repeat(row_base[lo - a0 : hi - a0], counts)
            cell += onbr[vw]
            hit = table[cell]
            closed = (hit != 0).nonzero()[0]
            if len(closed):
                uv = np.repeat(np.arange(lo, hi), counts)[closed]
                yield uv, vw[closed], hit[closed].astype(np.int64) - 1
        table[cells] = 0


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
    """Enumerate every triangle exactly once (row-block table join).

    Vertices come from the closed wedges' arcs and every edge id from an
    oriented arc's ``arc_eid``, so no edge-id lookup runs.  The result is
    memoized per graph: TR compression across S seeds, the
    per-vertex/per-edge counters, and the exact global counter all share
    one O(m^{3/2}) listing of the same graph.
    """
    if g.directed:
        raise ValueError("triangle listing expects an undirected graph")
    optr, onbr, arc_u, arc_eid = _oriented_arcs(g)
    blocks = list(_closed_wedges(g.n, optr, onbr, arc_u)) if len(onbr) else []
    if not blocks:
        empty = np.empty((0, 3), dtype=np.int64)
        return TriangleList(vertices=_frozen(empty), edge_ids=_frozen(empty.copy()))
    uv, vw, uw = (np.concatenate([b[i] for b in blocks]) for i in range(3))
    tri = np.stack([arc_u[uv], onbr[uv], onbr[vw]], axis=1)
    eids = np.stack([arc_eid[uv], arc_eid[uw], arc_eid[vw]], axis=1)
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
