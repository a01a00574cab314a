"""Triangle listing and counting.

Triangle Reduction (§4.3) makes triangles "the smallest unit of graph
compression", so exact listing is on the compression hot path.  We use the
*forward* (degree-ordered) algorithm: orient every edge from the
lower-ranked to the higher-ranked endpoint (rank = (degree, id)), then for
every oriented edge (u, v) intersect the out-neighborhoods of u and v.
Work is O(m^{3/2}) — exactly the complexity the paper quotes for TR — and
each triangle is emitted exactly once.  Listing tests closure against a
row-block table: for a block of heads u, the cell (u, w) holds the edge
id of arc u→w, so a wedge u→v→w is closed where its cell is set and the
cell names the closing edge; the other two edge ids are read off the
oriented arcs, which carry them.  The list keeps only the edge ids, 12
bytes a triangle; a triangle's vertices are read off its edges'
endpoints when first asked for.
Counting alone needs no listing: with ``L`` the oriented adjacency, the
count is ``sum((L @ L) ∘ L)``, taken as row-blocked scipy sparse
products.  Both the join and the count work in blocks cut by cumulative
wedge count, so peak memory is bounded by wedges, not arcs.

Per-vertex counts back Table 6 (average triangles per vertex) and the
reordered-pairs metric for TC.

Because triangle structure is consumed repeatedly on the *same* graph
(TR across seeds, the ``tc`` baseline, ``summarize``, Table 3 bound
checks), the expensive derived structures here — the triangle list, the
degree-oriented arc arrays with their edge ids, the edge-id lookup
index, and per-edge triangle counts — are memoized through the
graph-keyed :mod:`repro.graphs.analysis` cache.  The cache is keyed by
graph identity and graphs are immutable, so a compressed graph never
sees its original's triangle *list*, nor its per-vertex or per-edge
counts; it computes (and caches) its own, and TR's draws index
triangles in list order.

The global count is another matter.  An edge subgraph made by
:meth:`~repro.graphs.csr.CSRGraph.keep_edges` — every sampling scheme's
output — has exactly its parent's triangles whose three edges survive.
``keep_edges`` records the lineage ``(weakref(parent), keep mask)``, and
when that parent is alive and has already been counted or listed (the
``tc`` baseline runs first), the subgraph's count is read off the
parent's :func:`list_triangles` (5.7 MiB of int32 edge ids for v-ewk's
493,319 triangles), built once per parent.  A triangle survives where
all three of its edges do, so the result equals the direct count.
Without a live counted parent — it was collected, the graph was
relabelled, or nothing counted the parent — the sparse count runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.graphs.analysis import analysis_cache, cached_analysis, lineage_parent
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
    """All triangles of a graph, as the ids of their edges.

    ``edge_ids[t]`` holds the canonical ids of edges (u,v), (u,w), (v,w),
    in that order, of the triangle (u, v, w) with rank(u) < rank(v) <
    rank(w) in the degree ordering used for listing: a row-major (T, 3)
    array, int32 (int64 from 2³¹ edges on), ready for triangle kernels to
    delete.  ``edge_src``/``edge_dst`` are the graph's endpoint arrays,
    not the graph itself: the analysis cache keys graphs weakly, and a
    value that referenced its key would pin it.
    """

    edge_ids: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray

    @cached_property
    def vertices(self) -> np.ndarray:
        """``(T, 3)`` int64 rows ``(u, v, w)``, derived on first read: u
        is the endpoint e_uv and e_uw share, v the other end of e_uv, w
        the other end of e_uw."""
        e_uv, e_uw = self.edge_ids[:, 0], self.edge_ids[:, 1]
        a, b = self.edge_src[e_uv], self.edge_dst[e_uv]
        c, d = self.edge_src[e_uw], self.edge_dst[e_uw]
        u = np.where((a == c) | (a == d), a, b)
        return _frozen(np.stack([u, a + b - u, c + d - u], axis=1))

    @property
    def count(self) -> int:
        return len(self.edge_ids)

    def __len__(self) -> int:
        return len(self.edge_ids)


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
    every arc's canonical edge id, int32 (int64 from 2³¹ edges on).
    Cached per graph — exact triangle listing and count-only passes
    share one orientation build.
    """
    optr, onbr, arc_eid = _oriented_adjacency(g)
    arc_u = np.repeat(np.arange(g.n), np.diff(optr))
    arc_eid = arc_eid.astype(edge_id_dtype(g))
    return _frozen(optr), _frozen(onbr), _frozen(arc_u), _frozen(arc_eid)


def edge_id_dtype(g: CSRGraph) -> type:
    """The dtype triangle edge ids of ``g`` take: int32, int64 from 2³¹
    edges on."""
    return np.int32 if g.num_edges < 2**31 else np.int64


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

#: Closure-table cells: ``max(_MIN_TABLE_CELLS, _TABLE_CELLS_PER_ARC ·
#: arcs)``, cut into head rows of ``n``.  The floor (4 MiB of int32) keeps
#: a v-ewk-sized listing within a few MB of the sparse count's peak;
#: growing with the arcs keeps the block loop short at a million edges.
_MIN_TABLE_CELLS = 1 << 20
_TABLE_CELLS_PER_ARC = 4


def _wedge_ranges(cum: np.ndarray) -> list[tuple[int, int]]:
    """Cut items into consecutive ``[lo, hi)`` ranges by wedge count.

    ``cum[i]`` is the number of wedges before item ``i`` (length
    items + 1).  Each range holds at most :data:`_WEDGE_BLOCK` wedges,
    except that an item heavier than the bound gets a range of its own.
    """
    lo, k = 0, len(cum) - 1
    if cum[k] - cum[0] <= _WEDGE_BLOCK:  # the common case: one range
        return [(0, k)] if k else []
    ranges = []
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


def _closed_wedges(n: int, optr, onbr, arc_u, arc_eid):
    """Yield ``(e_uv, e_uw, e_vw)``, the edge ids of every closed wedge.

    Heads are taken in row blocks sized by :data:`_MIN_TABLE_CELLS` and
    :data:`_TABLE_CELLS_PER_ARC`.  For a block starting at row ``r0``,
    table cell ``(u - r0)·n + w`` holds 1 + the edge id of arc (u, w),
    in ``arc_eid``'s dtype, so a wedge u→v→w (arc ``uv``, then arc
    ``vw`` of N⁺(v)) is closed exactly where its cell is non-zero, and
    that cell names the closing edge.  Wedges run in arc order within
    sub-blocks cut by :data:`_WEDGE_BLOCK`, so triangles come out
    ordered by (u, rank v, rank w).  Only the cells a block wrote are
    cleared after it: O(arcs) resets, not O(n²).
    """
    cum = _arc_wedges(optr, onbr)
    rows = max(1, max(_MIN_TABLE_CELLS, _TABLE_CELLS_PER_ARC * len(onbr)) // n)
    table = np.zeros(min(rows, n) * n, dtype=arc_eid.dtype)
    for r0 in range(0, n, rows):
        a0, a1 = int(optr[r0]), int(optr[min(r0 + rows, n)])
        if cum[a1] == cum[a0]:
            continue
        row_base = (arc_u[a0:a1] - r0) * n  # table offset of each arc's head
        cells = row_base + onbr[a0:a1]
        table[cells] = arc_eid[a0:a1] + 1
        for lo, hi in _wedge_ranges(cum[a0 : a1 + 1]):
            lo, hi = lo + a0, hi + a0
            counts = cum[lo + 1 : hi + 1] - cum[lo:hi]  # np.diff: 3x the call cost
            # Arc vw walks N⁺(v) from optr[v]: offset each wedge by its
            # arc's first wedge, so the whole sub-block is one arange.
            vw = np.repeat(optr[onbr[lo:hi]] - cum[lo:hi], counts)
            vw += np.arange(int(cum[lo]), int(cum[hi]))
            cell = np.repeat(row_base[lo - a0 : hi - a0], counts)
            cell += onbr[vw]
            hit = table[cell]
            closed = (hit != 0).nonzero()[0]
            if len(closed):
                e_uv = np.repeat(arc_eid[lo:hi], counts)[closed]
                yield e_uv, hit[closed] - 1, arc_eid[vw[closed]]
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

    Every edge id is read off an oriented arc's ``arc_eid``, so no
    edge-id lookup runs, and the closed wedges' edge ids are gathered
    block by block into the (T, 3) rows.  The result is memoized per
    graph: TR compression across S seeds, the per-vertex/per-edge
    counters, and the exact global counter all share one O(m^{3/2})
    listing of the same graph.
    """
    if g.directed:
        raise ValueError("triangle listing expects an undirected graph")
    optr, onbr, arc_u, arc_eid = _oriented_arcs(g)
    columns = ([], [], [])
    if len(onbr):
        for block in _closed_wedges(g.n, optr, onbr, arc_u, arc_eid):
            for column, ids in zip(columns, block):
                column.append(ids)
    edge_ids = np.empty((sum(map(len, columns[0])), 3), dtype=arc_eid.dtype)
    for k, column in enumerate(columns):
        if column:
            edge_ids[:, k] = np.concatenate(column)
            column.clear()
    return TriangleList(_frozen(edge_ids), g.edge_src, g.edge_dst)


#: Triangles per block of a derived count.  Each block's three strided
#: reads stay cache-sized; whole (T, 3) columns cost a v-ewk sample's
#: ``tc`` request about half again as much.
_DERIVE_BLOCK = 1 << 16

#: Analyses whose presence on a lineage parent makes it the source an
#: edge subgraph's count derives from: the parent has been counted or
#: listed, so its triangle list is worth building.
_DERIVATION_SOURCES = ("triangle_count", "triangle_list")


def _derived_or_sparse_count(g: CSRGraph) -> int:
    """The triangles of ``g``'s counted lineage parent whose three edges
    ``g`` keeps, else the sparse count."""
    found = lineage_parent(g, _DERIVATION_SOURCES)
    if found is None:
        return _sparse_triangle_count(g)
    parent, mask = found
    edge_ids = list_triangles(parent).edge_ids
    alive = 0
    for lo in range(0, len(edge_ids), _DERIVE_BLOCK):
        rows = edge_ids[lo : lo + _DERIVE_BLOCK]
        # np.take, not fancy indexing: about twice as fast on these sizes.
        kept = np.take(mask, rows[:, 0])
        kept &= np.take(mask, rows[:, 1])
        kept &= np.take(mask, rows[:, 2])
        alive += int(np.count_nonzero(kept))
    return alive


@register_algorithm(
    "count_triangles",
    adapter="scalar",
    aliases=("tc",),
    summary=(
        "exact global triangle count (a sampled subgraph's surviving "
        "triangles of its counted parent, else sum((L @ L) ∘ L))"
    ),
    example="tc",
)
def count_triangles(g: CSRGraph) -> int:
    """Exact triangle count as a Python ``int``.

    In order: a cached triangle list of ``g`` gives ``.count`` (e.g.
    after TR compression of the same graph); an edge subgraph whose
    live lineage parent was already counted or listed counts the
    parent's triangles whose three edges it keeps, read off the
    parent's :func:`list_triangles` (listed on the first such
    derivation when the parent was only counted); otherwise the
    row-blocked sparse product of :func:`_sparse_triangle_count`, which
    materializes neither the wedge list nor the (T, 3) arrays.  The last
    two cache the scalar.
    """
    if g.directed:
        raise ValueError("triangle counting expects an undirected graph")
    cached = analysis_cache().peek(g, "triangle_list")
    if cached is not None:
        return cached.count
    return analysis_cache().lookup(g, "triangle_count", _derived_or_sparse_count)


@register_algorithm(
    "triangles_per_vertex",
    adapter="ordering",
    aliases=("tc_per_vertex", "tpv"),
    summary="triangles through each vertex (Table 6's quantity / n)",
    example="tc_per_vertex",
)
def triangles_per_vertex(g: CSRGraph) -> np.ndarray:
    """Number of triangles through each vertex (Table 6's quantity / n)."""
    return np.bincount(list_triangles(g).vertices.ravel(), minlength=g.n)


@cached_analysis("edge_triangle_counts")
def edge_triangle_counts(g: CSRGraph) -> np.ndarray:
    """Number of triangles containing each canonical edge.

    Drives the CT Triangle-Reduction variant (remove edges belonging to
    the fewest triangles first, Fig. 6 right).  Cached per graph, so CT
    sweeps across seeds pay for one counting pass.
    """
    edge_ids = list_triangles(g).edge_ids
    return _frozen(np.bincount(edge_ids.ravel(), minlength=g.num_edges))


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
