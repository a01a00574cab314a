"""Minimum spanning tree / forest.

The max-weight Triangle Reduction variant exists precisely to preserve MST
weight (§4.3, §6.1 "Others"), so the MST weight is a headline accuracy
metric.  Two engines:

- :func:`boruvka` — the default engine: vectorized rounds (minimum
  crossing edge per component via ``np.minimum.at``, hooking, pointer
  jumping), no per-edge Python loop;
- :func:`kruskal` — sort + union-find, the exact reference
  (``mst(method=kruskal)``).

Both rank edges by (weight, edge id), a strict total order under which
the minimum spanning *forest* is unique, so the two return bit-identical
results on every graph, disconnected ones included.

Borůvka's rank order is a cached analysis (``"mst_rank_order"``).  An
edge subgraph made by :meth:`~repro.graphs.csr.CSRGraph.keep_edges` —
every sampling scheme's output — records its lineage parent and keep
mask (:func:`repro.graphs.analysis.lineage_parent`).  When that parent
is alive, has its order cached (a grid's ``mst`` baseline sorts the
input first) and the subgraph's weights are the parent's weights under
the mask, the subgraph's order is the parent's order filtered by the
mask and renumbered: O(m) instead of the O(m log m) ``lexsort``.  Ties
by edge id survive, because child edge ids are monotone in parent ids.
The weights are always compared, never assumed: spectral sparsification
reweights its sample but passes the lineage on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.graphs.analysis import cached_analysis, lineage_parent
from repro.graphs.csr import CSRGraph

__all__ = ["MSTResult", "kruskal", "boruvka", "minimum_spanning_forest", "UnionFind"]


class UnionFind:
    """Array-based disjoint sets with path halving + union by size."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


@dataclass(frozen=True)
class MSTResult:
    """Edge ids of a minimum spanning forest and its total weight."""

    edge_ids: np.ndarray
    total_weight: float
    num_trees: int


def _weights(g: CSRGraph) -> np.ndarray:
    return (
        g.edge_weights
        if g.is_weighted
        else np.ones(g.num_edges, dtype=np.float64)
    )


def _lexsort_order(g: CSRGraph) -> np.ndarray:
    """Edge ids by (weight, edge id): rank -> edge id."""
    return np.lexsort((np.arange(g.num_edges), _weights(g)))


def _weights_kept(parent: CSRGraph, mask: np.ndarray, g: CSRGraph) -> bool:
    """Whether ``g``'s edge weights are ``parent``'s under the keep mask."""
    return np.array_equal(_weights(parent)[mask], _weights(g))


@cached_analysis("mst_rank_order")
def _rank_order(g: CSRGraph) -> np.ndarray:
    """:func:`_lexsort_order` of ``g``, derived from its sorted lineage
    parent's order when ``g`` keeps the parent's weights.

    The parent's order lists parent edge ids by (weight, id); dropping
    the ids the mask removes and renumbering the rest (``cumsum(mask) -
    1``) lists ``g``'s ids by the same weights, ties still by id.
    """
    found = lineage_parent(g, ("mst_rank_order",))
    if found is None or not _weights_kept(*found, g):
        order = _lexsort_order(g)
    else:
        parent, mask = found
        porder = _rank_order(parent)
        new_id = np.cumsum(mask) - 1
        order = new_id[porder[mask[porder]]]
    order.flags.writeable = False
    return order


def kruskal(g: CSRGraph) -> MSTResult:
    """Exact MSF via sorted edges + union-find.

    Ties are broken by edge id, which makes the result deterministic (and
    unique when weights are distinct).
    """
    if g.directed:
        raise ValueError("MST is defined for undirected graphs")
    w = _weights(g)
    order = np.lexsort((np.arange(g.num_edges), w))
    uf = UnionFind(g.n)
    chosen = []
    total = 0.0
    for e in order:
        u, v = int(g.edge_src[e]), int(g.edge_dst[e])
        if uf.union(u, v):
            chosen.append(int(e))
            total += float(w[e])
            if len(chosen) == g.n - 1:
                break
    roots = len({uf.find(x) for x in range(g.n)})
    return MSTResult(
        edge_ids=np.array(chosen, dtype=np.int64),
        total_weight=total,
        num_trees=roots,
    )


def boruvka(g: CSRGraph) -> MSTResult:
    """Vectorized Borůvka rounds; returns exactly what :func:`kruskal` does.

    Edges are ranked by (weight, edge id), a strict total order under which
    the minimum spanning forest is unique.  Each round every component
    takes its minimum-rank crossing edge (``np.minimum.at``) and hooks onto
    the component across it; the only cycles such hooks can form are
    mutual picks of one shared edge, which are broken by keeping the
    smaller component as root.  Pointer jumping then contracts the hook
    forest, and edges that became internal are dropped for good.  There is
    no per-edge or per-vertex Python loop, and O(log n) rounds.

    The forest is returned in Kruskal's form: edge ids in rank order and
    the weight summed one edge at a time in that order, so every field is
    bit-identical to :func:`kruskal`.
    """
    if g.directed:
        raise ValueError("MST is defined for undirected graphs")
    n, m = g.n, g.num_edges
    w = _weights(g)
    order = _rank_order(g)  # rank -> edge id
    # Live crossing edges in rank order: endpoint component ids and rank.
    a, b = g.edge_src[order], g.edge_dst[order]
    rank = np.arange(m, dtype=np.int64)
    picked = [np.empty(0, dtype=np.int64)]
    while True:
        live = a != b
        a, b, rank = a[live], b[live], rank[live]
        if not len(rank):
            break
        # Positions follow rank order, so the minimum position per
        # component is its minimum-rank crossing edge.
        best = np.full(n, len(rank), dtype=np.int64)
        pos = np.arange(len(rank), dtype=np.int64)
        np.minimum.at(best, a, pos)
        np.minimum.at(best, b, pos)
        comps = np.flatnonzero(best < len(rank))
        at = best[comps]
        other = np.where(a[at] == comps, b[at], a[at])
        parent = np.arange(n, dtype=np.int64)
        parent[comps] = other
        # Two components that picked the same edge point at each other;
        # the smaller one stays a root and the edge is recorded once.
        root = (parent[other] == comps) & (comps < other)
        parent[comps[root]] = comps[root]
        picked.append(rank[at[~root]])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        a, b = parent[a], parent[b]
    chosen = order[np.sort(np.concatenate(picked))]
    # Sequential accumulation rounds exactly like Kruskal's running total.
    total = float(np.cumsum(w[chosen])[-1]) if len(chosen) else 0.0
    return MSTResult(
        edge_ids=chosen,
        total_weight=total,
        num_trees=n - len(chosen),
    )


@register_algorithm(
    "mst",
    adapter="scalar",
    aliases=("minimum_spanning_forest",),
    extract=lambda res: res.total_weight,
    summary="minimum-spanning-forest weight (vectorized Borůvka; Kruskal reference)",
    example="mst(method=boruvka)",
)
def minimum_spanning_forest(g: CSRGraph, *, method: str = "boruvka") -> MSTResult:
    if method == "kruskal":
        return kruskal(g)
    if method == "boruvka":
        return boruvka(g)
    raise ValueError(f"unknown method {method!r}")
