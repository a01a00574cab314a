"""Compressed Sparse Row graph core.

``CSRGraph`` is the single graph representation used across the library —
the paper's execution engine keeps graphs "maintained as adjacency arrays"
(§4.5.2), which is exactly CSR.  The structure is *immutable*: lossy
compression never mutates a graph in place; kernels record deletions into
buffers (:mod:`repro.core.atomic`) which are applied at the end of a kernel
sweep, producing a new ``CSRGraph``.  Immutability is what makes the
parallel kernel semantics of the paper (atomic deletes merged after the
sweep) deterministic and race-free in this implementation.

Identity model
--------------
Every *undirected edge* (or directed arc for directed graphs) has a stable
integer **edge id** ``0..m-1`` indexing the canonical edge arrays
``edge_src``/``edge_dst``/``edge_weights`` (canonical means ``src < dst``
for undirected graphs).  The CSR adjacency additionally stores, for every
stored arc, the id of the canonical edge it belongs to (``arc_edge_ids``),
so a kernel holding a local view of the graph can delete "this edge" without
any searching.  ``delete_edges``/``keep_edges`` take edge-id masks and
return new graphs with *edge ids renumbered* (they index the new arrays) but
vertex ids preserved.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.analysis import inherit_lineage, record_lineage

__all__ = ["CSRGraph", "MAX_KEYED_VERTICES"]

#: The largest n whose vertex-pair keys ``u·n + v`` (u, v < n) fit in
#: int64: ⌊√(2⁶³ − 1)⌋.
MAX_KEYED_VERTICES = 3_037_000_499


class CSRGraph:
    """An immutable graph in CSR form with stable edge identities.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertex ids are ``0..n-1``.  Isolated
        vertices are allowed (compression often creates them).
    edge_src, edge_dst:
        Canonical edge endpoint arrays of length ``m``.  For undirected
        graphs every edge appears exactly once with ``src < dst``; for
        directed graphs each arc appears once as given.
    edge_weights:
        Optional ``float64`` array of length ``m``; ``None`` for unweighted
        graphs.
    directed:
        Whether the graph is directed.  Undirected graphs store both arc
        directions in the adjacency.

    Notes
    -----
    Use :meth:`from_edges` (which cleans, deduplicates, and canonicalizes
    raw input) rather than the constructor unless the arrays are already
    canonical — the constructor validates cheaply but does not repair.
    """

    __slots__ = (
        "n",
        "edge_src",
        "edge_dst",
        "edge_weights",
        "directed",
        "indptr",
        "indices",
        "arc_edge_ids",
        "_degrees",
        "_in_degrees",
        "_arc_heads",
        # Weak referenceability is what lets the analysis cache
        # (:mod:`repro.graphs.analysis`) key derived structures by graph
        # identity without pinning graphs in memory.
        "__weakref__",
    )

    def __init__(
        self,
        num_vertices: int,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_weights: np.ndarray | None = None,
        *,
        directed: bool = False,
    ) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
        if edge_src.shape != edge_dst.shape or edge_src.ndim != 1:
            raise ValueError("edge_src and edge_dst must be 1-D arrays of equal length")
        m = len(edge_src)
        if m and (edge_src.min() < 0 or max(edge_src.max(), edge_dst.max()) >= num_vertices):
            raise ValueError("edge endpoints out of range")
        if not directed and m and np.any(edge_src >= edge_dst):
            raise ValueError(
                "undirected canonical edges require src < dst "
                "(self-loops are not allowed); use CSRGraph.from_edges"
            )
        if directed and m and np.any(edge_src == edge_dst):
            raise ValueError("self-loops are not allowed; use CSRGraph.from_edges")
        if edge_weights is not None:
            edge_weights = np.ascontiguousarray(edge_weights, dtype=np.float64)
            if edge_weights.shape != edge_src.shape:
                raise ValueError("edge_weights must match the number of edges")

        self.n = int(num_vertices)
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.edge_weights = edge_weights
        self.directed = bool(directed)
        self._degrees = None
        self._in_degrees = None
        self._arc_heads = None
        self._build_csr()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _build_csr(self) -> None:
        """Build adjacency arrays (both directions for undirected graphs)."""
        m = len(self.edge_src)
        eids = np.arange(m, dtype=np.int64)
        if self.directed:
            heads, tails, arc_ids = self.edge_src, self.edge_dst, eids
        else:
            heads = np.concatenate([self.edge_src, self.edge_dst])
            tails = np.concatenate([self.edge_dst, self.edge_src])
            arc_ids = np.concatenate([eids, eids])
        order = np.lexsort((tails, heads))
        heads, tails, arc_ids = heads[order], tails[order], arc_ids[order]
        counts = np.bincount(heads, minlength=self.n)
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.indices = np.ascontiguousarray(tails)
        self.arc_edge_ids = np.ascontiguousarray(arc_ids)

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        src,
        dst,
        weights=None,
        *,
        directed: bool = False,
        dedup: str = "first",
    ) -> "CSRGraph":
        """Build a graph from raw (possibly messy) edge arrays.

        Self-loops are dropped.  For undirected graphs endpoints are
        canonicalized to ``src < dst``.  Duplicate edges are collapsed
        according to ``dedup``:

        - ``"first"``: keep the first occurrence's weight,
        - ``"sum"``: sum duplicate weights (parallel-edge aggregation, used
          when building summaries),
        - ``"min"`` / ``"max"``: keep the extreme weight.

        The cleaned edges are sorted by the unique key ``src·n + dst``
        and so come out ordered by ``(src, dst)``; the adjacency is
        assembled from them directly instead of through the constructor's
        ``lexsort`` over all arcs (buffer-identical to it): a directed
        graph's rows are its edges in order; an undirected row holds the
        vertex's in-neighbours (all below it, ordered by one argsort of
        the key ``dst·n + src``) and then its out-neighbours (in edge
        order).  The keys must fit in int64, so a graph with edges takes
        at most ``MAX_KEYED_VERTICES`` (⌊√(2⁶³ − 1)⌋) vertices; a larger
        ``num_vertices`` raises ``ValueError``.  Endpoints outside
        ``[0, num_vertices)`` raise as in the constructor.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        w = None if weights is None else np.asarray(weights, dtype=np.float64).ravel()
        if w is not None and w.shape != src.shape:
            raise ValueError("weights must match the number of edges")

        keep = src != dst
        src, dst = src[keep], dst[keep]
        if w is not None:
            w = w[keep]
        if not directed and len(src):
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            src, dst = lo, hi

        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        n, m = int(num_vertices), len(src)
        if m and (src.min() < 0 or max(src.max(), dst.max()) >= n):
            raise ValueError("edge endpoints out of range")
        if m and n > MAX_KEYED_VERTICES:
            raise ValueError(
                f"num_vertices={n} exceeds {MAX_KEYED_VERTICES}, the most "
                "vertices whose u*n + v pair keys fit in int64"
            )
        if m:
            # Sort by the unique pair key src·n + dst; weighted edges keep
            # their input order among duplicates (stable), which "first"
            # and "sum" depend on.
            keys = src * np.int64(n) + dst
            if w is None:
                keys = np.sort(keys)
            else:
                order = np.argsort(keys, kind="stable")
                keys, w = keys[order], w[order]
            # Collapse duplicates on the sorted keys.
            is_first = np.empty(m, dtype=bool)
            is_first[0] = True
            is_first[1:] = keys[1:] != keys[:-1]
            if not is_first.all():
                group = np.cumsum(is_first) - 1
                if w is not None:
                    if dedup == "sum":
                        uw = np.bincount(group, weights=w)
                    elif dedup == "min":
                        uw = np.full(group[-1] + 1, np.inf)
                        np.minimum.at(uw, group, w)
                    elif dedup == "max":
                        uw = np.full(group[-1] + 1, -np.inf)
                        np.maximum.at(uw, group, w)
                    elif dedup == "first":
                        uw = w[is_first]
                    else:
                        raise ValueError(f"unknown dedup policy {dedup!r}")
                    w = uw
                keys = keys[is_first]
                m = len(keys)
            src, dst = np.divmod(keys, np.int64(n))
        heads = src if directed else np.concatenate([src, dst])
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
        eids = np.arange(m, dtype=np.int64)
        if directed:
            indices, arc_ids = dst.copy(), eids
        else:
            # Row v = in-arcs (tails < v, by tail) then out-arcs (tails > v,
            # by tail).  In-arc j of the key order lands after the out-arcs
            # of every earlier row; out-arc e after every in-arc up to and
            # including its row's.
            by_dst = np.argsort(dst * np.int64(n) + src)
            out_deg = np.bincount(src, minlength=n)
            out_before = np.cumsum(out_deg) - out_deg
            in_through = np.cumsum(np.bincount(dst, minlength=n))
            pos_in = eids + out_before[dst[by_dst]]
            pos_out = eids + in_through[src]
            indices = np.empty(2 * m, dtype=np.int64)
            arc_ids = np.empty(2 * m, dtype=np.int64)
            indices[pos_in] = src[by_dst]
            indices[pos_out] = dst
            arc_ids[pos_in] = by_dst
            arc_ids[pos_out] = eids
        return cls._from_parts(
            n, src, dst, w, directed=directed,
            indptr=indptr, indices=indices, arc_edge_ids=arc_ids,
        )

    @classmethod
    def empty(cls, num_vertices: int = 0, *, directed: bool = False) -> "CSRGraph":
        """An edgeless graph on ``num_vertices`` vertices."""
        z = np.empty(0, dtype=np.int64)
        return cls(num_vertices, z, z, None, directed=directed)

    @classmethod
    def _from_parts(
        cls,
        num_vertices: int,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_weights: np.ndarray | None,
        *,
        directed: bool,
        indptr: np.ndarray,
        indices: np.ndarray,
        arc_edge_ids: np.ndarray,
    ) -> "CSRGraph":
        """Reassemble a graph from already-built CSR arrays, skipping both
        validation and :meth:`_build_csr` (the ``lexsort``).

        Only for trusted producers — the binary snapshot loader
        (:mod:`repro.graphs.snapshot`), which persisted arrays taken from
        a live ``CSRGraph``, and the sort-free O(m) transform fast paths
        (:meth:`keep_edges` / :meth:`remove_vertices` /
        :meth:`with_weights`), which derive the child's adjacency from the
        parent's already-sorted arrays.  Callers with unvetted arrays must
        go through the constructor or :meth:`from_edges`.
        """
        g = object.__new__(cls)
        g.n = int(num_vertices)
        g.edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        g.edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
        g.edge_weights = (
            None
            if edge_weights is None
            else np.ascontiguousarray(edge_weights, dtype=np.float64)
        )
        g.directed = bool(directed)
        g.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        g.indices = np.ascontiguousarray(indices, dtype=np.int64)
        g.arc_edge_ids = np.ascontiguousarray(arc_edge_ids, dtype=np.int64)
        g._degrees = None
        g._in_degrees = None
        g._arc_heads = None
        return g

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of canonical edges (undirected edges, or directed arcs)."""
        return len(self.edge_src)

    @property
    def is_weighted(self) -> bool:
        return self.edge_weights is not None

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex (out-degree for directed graphs)."""
        if self._degrees is None:
            d = np.diff(self.indptr)
            d.flags.writeable = False
            self._degrees = d
        return self._degrees

    @property
    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (== degrees for undirected graphs)."""
        if self.directed:
            if self._in_degrees is None:
                d = np.bincount(self.edge_dst, minlength=self.n)
                d.flags.writeable = False
                self._in_degrees = d
            return self._in_degrees
        return self.degrees

    @property
    def arc_heads(self) -> np.ndarray:
        """Head vertex of every stored arc (parallel to ``indices``).

        The row-expansion of ``indptr``; cached on the instance because
        repeated derivation from one parent (e.g. TR across seeds) and
        triangle orientation both need it.
        """
        if self._arc_heads is None:
            h = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            h.flags.writeable = False
            self._arc_heads = h
        return self._arc_heads

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of ``v`` (out-neighbors if directed); a view."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def incident_edge_ids(self, v: int) -> np.ndarray:
        """Canonical edge ids of the arcs leaving ``v``; parallel to neighbors."""
        return self.arc_edge_ids[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights of arcs leaving ``v``; all-ones view if unweighted."""
        if self.edge_weights is None:
            return np.ones(self.degree(v), dtype=np.float64)
        return self.edge_weights[self.incident_edge_ids(v)]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test by binary search on the sorted neighbor row."""
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and row[i] == v

    def edge_id(self, u: int, v: int) -> int:
        """Canonical edge id of edge (u, v); raises ``KeyError`` if absent."""
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        if i >= len(row) or row[i] != v:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        return int(self.incident_edge_ids(u)[i])

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical edge arrays ``(src, dst)`` (do not mutate)."""
        return self.edge_src, self.edge_dst

    def weight_of(self, edge_id: int) -> float:
        return 1.0 if self.edge_weights is None else float(self.edge_weights[edge_id])

    def total_weight(self) -> float:
        if self.edge_weights is None:
            return float(self.num_edges)
        return float(self.edge_weights.sum())

    # ------------------------------------------------------------------ #
    # derivation (all return new graphs)
    # ------------------------------------------------------------------ #

    def keep_edges(self, keep_mask: np.ndarray) -> "CSRGraph":
        """Subgraph with the canonical edges where ``keep_mask`` is True.

        The vertex set is preserved (compression never renumbers vertices;
        accuracy metrics compare per-vertex outputs positionally).

        Sort-free O(m) derivation: the parent's adjacency is already
        lexsorted by (head, tail) and the child keeps a subset of its
        edges, so the child's arcs are exactly the parent's arcs whose
        edge survives, *in parent order* — a subsequence of a sorted
        sequence is sorted.  Masking arcs with ``keep_mask[arc_edge_ids]``,
        renumbering edge ids with a cumsum, and rebuilding ``indptr`` with
        a ``bincount`` therefore reproduces, bit for bit, what a full
        ``lexsort`` rebuild would produce (arc keys are unique: no
        parallel edges, no self-loops), without the O(m log m) sort or
        re-validation.  See :meth:`_keep_edges_rebuild` for the legacy
        path kept as the equivalence/benchmark reference.

        The child's lineage ``(weakref(self), copy of keep_mask)`` is
        recorded in the analysis cache, so triangle counts of the child
        can be read off this graph's triangles
        (:func:`repro.graphs.analysis.lineage_parent`).
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != self.edge_src.shape:
            raise ValueError("mask length must equal num_edges")
        new_id = np.cumsum(keep_mask, dtype=np.int64) - 1  # old -> new edge id
        arc_keep = keep_mask[self.arc_edge_ids]
        # indptr[v] = #kept arcs before row v: one running sum over the
        # arcs, sampled at the parent's row boundaries.
        arc_csum = np.empty(len(arc_keep) + 1, dtype=np.int64)
        arc_csum[0] = 0
        np.cumsum(arc_keep, out=arc_csum[1:])
        arc_idx = np.flatnonzero(arc_keep)
        edge_idx = np.flatnonzero(keep_mask)
        w = None if self.edge_weights is None else self.edge_weights[edge_idx]
        child = CSRGraph._from_parts(
            self.n,
            self.edge_src[edge_idx],
            self.edge_dst[edge_idx],
            w,
            directed=self.directed,
            indptr=arc_csum[self.indptr],
            indices=self.indices[arc_idx],
            arc_edge_ids=new_id[self.arc_edge_ids[arc_idx]],
        )
        record_lineage(child, self, keep_mask)
        return child

    def _keep_edges_rebuild(self, keep_mask: np.ndarray) -> "CSRGraph":
        """Legacy O(m log m) :meth:`keep_edges`: slice the edge arrays and
        rebuild the adjacency from scratch (constructor ``lexsort``).

        Kept as the reference implementation: the property-test suite
        asserts the fast path is buffer-identical to this, and
        ``benchmarks/bench_core.py`` measures the speedup against it.
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != self.edge_src.shape:
            raise ValueError("mask length must equal num_edges")
        w = None if self.edge_weights is None else self.edge_weights[keep_mask]
        return CSRGraph(
            self.n,
            self.edge_src[keep_mask],
            self.edge_dst[keep_mask],
            w,
            directed=self.directed,
        )

    def delete_edges(self, edge_ids: np.ndarray) -> "CSRGraph":
        """Drop the canonical edges listed in ``edge_ids`` (duplicates ok).

        Ids must lie in ``[0, num_edges)``; negative ids are rejected
        rather than wrapping around numpy-style (which would silently
        delete the wrong edge).
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64).ravel()
        if len(edge_ids):
            bad = (edge_ids < 0) | (edge_ids >= self.num_edges)
            if bad.any():
                offender = int(edge_ids[np.argmax(bad)])
                raise ValueError(
                    f"edge id {offender} out of range for a graph with "
                    f"{self.num_edges} edges (valid: 0..{self.num_edges - 1})"
                )
        mask = np.ones(self.num_edges, dtype=bool)
        mask[edge_ids] = False
        return self.keep_edges(mask)

    def remove_vertices(self, vertex_ids, *, relabel: bool = False) -> "CSRGraph":
        """Drop vertices and their incident edges.

        With ``relabel=False`` (default) the removed vertices remain as
        isolated ids so per-vertex outputs stay positionally comparable;
        with ``relabel=True`` the survivors are renumbered compactly (used
        by triangle collapse, which genuinely changes the vertex set).

        Both forms are sort-free O(m): the edge drop rides
        :meth:`keep_edges`, and compaction renumbers through a *monotone*
        map, which preserves every sorted order the CSR invariants need.
        Only the ``relabel=False`` result keeps :meth:`keep_edges`'s
        lineage; a renumbered graph has none.
        """
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64).ravel()
        if len(vertex_ids):
            bad = (vertex_ids < 0) | (vertex_ids >= self.n)
            if bad.any():
                offender = int(vertex_ids[np.argmax(bad)])
                raise ValueError(
                    f"vertex id {offender} out of range for a graph with "
                    f"{self.n} vertices (valid: 0..{self.n - 1})"
                )
        gone = np.zeros(self.n, dtype=bool)
        gone[vertex_ids] = True
        keep_edge = ~(gone[self.edge_src] | gone[self.edge_dst])
        g = self.keep_edges(keep_edge)
        if not relabel:
            return g
        keep_v = ~gone
        new_id = np.cumsum(keep_v, dtype=np.int64) - 1
        indptr = np.zeros(int(keep_v.sum()) + 1, dtype=np.int64)
        np.cumsum(np.diff(g.indptr)[keep_v], out=indptr[1:])
        return CSRGraph._from_parts(
            int(keep_v.sum()),
            new_id[g.edge_src],
            new_id[g.edge_dst],
            g.edge_weights,
            directed=self.directed,
            indptr=indptr,
            indices=new_id[g.indices],
            arc_edge_ids=g.arc_edge_ids,
        )

    def insert_edges(
        self,
        src,
        dst,
        weights=None,
        *,
        num_vertices: int | None = None,
    ) -> "CSRGraph":
        """New graph with ``Δ`` additional canonical edges merged in.

        The streaming counterpart of :meth:`keep_edges`: instead of
        rebuilding the CSR with a ``lexsort`` over all ``m + Δ`` edges,
        the parent's already-sorted edge and arc arrays are *merged* with
        the (small) sorted batch — only the Δ new entries are sorted, and
        every parent entry moves by a ``searchsorted`` offset.  The result
        is bit-identical to a from-scratch :meth:`from_edges` rebuild of
        the combined edge set, in O(m + Δ log Δ) work.

        Validation mirrors the other transforms: endpoints must lie in
        ``[0, num_vertices)`` (negative ids are rejected rather than
        wrapping numpy-style), self-loops, duplicate batch entries, and
        edges already present are all rejected with the offender named.
        ``num_vertices`` may grow the vertex set (new vertices arrive
        with their first edges in a stream); it can never shrink it.

        Weightedness must match: a weighted graph requires batch weights,
        an unweighted graph rejects them — mixing would silently change
        every algorithm's reading of the untouched edges.

        An empty batch with no vertex growth returns ``self`` (graphs are
        immutable, so sharing is safe).
        """
        n_new = self.n if num_vertices is None else int(num_vertices)
        if n_new < self.n:
            raise ValueError(
                f"num_vertices may not shrink the graph: {n_new} < {self.n}"
            )
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if self.is_weighted and weights is None and len(src):
            raise ValueError(
                "graph is weighted; inserted edges must carry weights"
            )
        if not self.is_weighted and weights is not None:
            raise ValueError(
                "graph is unweighted; inserted edges may not carry weights"
            )
        w = None if weights is None else np.asarray(weights, dtype=np.float64).ravel()
        if w is not None and w.shape != src.shape:
            raise ValueError("weights must match the number of inserted edges")

        delta = len(src)
        if delta:
            bad = (src < 0) | (src >= n_new) | (dst < 0) | (dst >= n_new)
            if bad.any():
                i = int(np.argmax(bad))
                u = int(src[i]) if src[i] < 0 or src[i] >= n_new else int(dst[i])
                raise ValueError(
                    f"endpoint {u} of inserted edge ({int(src[i])}, "
                    f"{int(dst[i])}) out of range for a graph with "
                    f"{n_new} vertices (valid: 0..{n_new - 1})"
                )
            loops = src == dst
            if loops.any():
                v = int(src[np.argmax(loops)])
                raise ValueError(f"self-loop ({v}, {v}) is not allowed")
            if not self.directed:
                lo = np.minimum(src, dst)
                hi = np.maximum(src, dst)
                src, dst = lo, hi
        if delta == 0:
            if n_new == self.n:
                return self
            pad = np.full(n_new - self.n, self.indptr[-1], dtype=np.int64)
            return CSRGraph._from_parts(
                n_new,
                self.edge_src,
                self.edge_dst,
                self.edge_weights,
                directed=self.directed,
                indptr=np.concatenate([self.indptr, pad]),
                indices=self.indices,
                arc_edge_ids=self.arc_edge_ids,
            )

        # Sort only the batch (O(Δ log Δ)); the parent arrays stay put.
        N = np.int64(max(n_new, 1))
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if w is not None:
            w = w[order]
        new_keys = src * N + dst
        dup = new_keys[1:] == new_keys[:-1]
        if dup.any():
            i = int(np.argmax(dup)) + 1
            raise ValueError(
                f"duplicate edge ({int(src[i])}, {int(dst[i])}) in the "
                "inserted batch"
            )

        m = self.num_edges
        parent_keys = self.edge_src * N + self.edge_dst
        if m and np.any(parent_keys[1:] < parent_keys[:-1]):
            # The parent's canonical edge arrays are not sorted (a raw
            # constructor graph); fall back to the full rebuild, which is
            # the fast path's bit-identity reference anyway.
            present = np.isin(new_keys, parent_keys)
            if present.any():
                i = int(np.argmax(present))
                raise ValueError(
                    f"edge ({int(src[i])}, {int(dst[i])}) is already present"
                )
            return CSRGraph.from_edges(
                n_new,
                np.concatenate([self.edge_src, src]),
                np.concatenate([self.edge_dst, dst]),
                None if w is None else np.concatenate([self.edge_weights, w]),
                directed=self.directed,
            )

        # Merge positions: edge keys are unique across parent and batch,
        # so each side's final slot is its own rank plus the number of
        # other-side entries preceding it.
        pos = np.searchsorted(parent_keys, new_keys)
        if m:
            present = (pos < m) & (parent_keys[np.minimum(pos, m - 1)] == new_keys)
        else:
            present = np.zeros(delta, dtype=bool)
        if present.any():
            i = int(np.argmax(present))
            raise ValueError(
                f"edge ({int(src[i])}, {int(dst[i])}) is already present"
            )
        new_edge_ids = pos + np.arange(delta, dtype=np.int64)
        parent_edge_ids = (
            np.arange(m, dtype=np.int64) + np.searchsorted(new_keys, parent_keys)
        )

        merged_src = np.empty(m + delta, dtype=np.int64)
        merged_dst = np.empty(m + delta, dtype=np.int64)
        merged_src[parent_edge_ids] = self.edge_src
        merged_src[new_edge_ids] = src
        merged_dst[parent_edge_ids] = self.edge_dst
        merged_dst[new_edge_ids] = dst
        merged_w = None
        if w is not None:
            merged_w = np.empty(m + delta, dtype=np.float64)
            merged_w[parent_edge_ids] = self.edge_weights
            merged_w[new_edge_ids] = w

        # Arcs: the batch contributes Δ (directed) or 2Δ (both
        # directions) new arcs, sorted among themselves, then merged into
        # the parent's (head, tail)-sorted arc sequence the same way.
        if self.directed:
            arc_heads_new, arc_tails_new, arc_ids_new = src, dst, new_edge_ids
        else:
            arc_heads_new = np.concatenate([src, dst])
            arc_tails_new = np.concatenate([dst, src])
            arc_ids_new = np.concatenate([new_edge_ids, new_edge_ids])
            arc_order = np.lexsort((arc_tails_new, arc_heads_new))
            arc_heads_new = arc_heads_new[arc_order]
            arc_tails_new = arc_tails_new[arc_order]
            arc_ids_new = arc_ids_new[arc_order]
        new_arc_keys = arc_heads_new * N + arc_tails_new
        parent_arc_keys = self.arc_heads * N + self.indices
        arcs = len(self.indices)
        num_new_arcs = len(new_arc_keys)
        new_arc_pos = (
            np.searchsorted(parent_arc_keys, new_arc_keys)
            + np.arange(num_new_arcs, dtype=np.int64)
        )
        parent_arc_pos = (
            np.arange(arcs, dtype=np.int64)
            + np.searchsorted(new_arc_keys, parent_arc_keys)
        )
        indices = np.empty(arcs + num_new_arcs, dtype=np.int64)
        indices[parent_arc_pos] = self.indices
        indices[new_arc_pos] = arc_tails_new
        arc_edge_ids = np.empty(arcs + num_new_arcs, dtype=np.int64)
        arc_edge_ids[parent_arc_pos] = parent_edge_ids[self.arc_edge_ids]
        arc_edge_ids[new_arc_pos] = arc_ids_new

        new_counts = np.bincount(arc_heads_new, minlength=n_new)
        grow = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(new_counts, out=grow[1:])
        if n_new == self.n:
            base = self.indptr
        else:
            base = np.concatenate(
                [self.indptr, np.full(n_new - self.n, self.indptr[-1], dtype=np.int64)]
            )
        return CSRGraph._from_parts(
            n_new,
            merged_src,
            merged_dst,
            merged_w,
            directed=self.directed,
            indptr=base + grow,
            indices=indices,
            arc_edge_ids=arc_edge_ids,
        )

    def with_weights(self, weights: np.ndarray | None) -> "CSRGraph":
        """Same structure with replaced (or removed) edge weights.

        The adjacency arrays are shared with ``self`` (graphs are
        immutable), so this is O(m) in the weight copy only — no rebuild.
        Edge ids are unchanged, so the result inherits ``self``'s lineage
        link (a reweighted sample keeps its derived triangle counts).
        """
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != self.edge_src.shape:
                raise ValueError("edge_weights must match the number of edges")
        g = CSRGraph._from_parts(
            self.n,
            self.edge_src,
            self.edge_dst,
            weights,
            directed=self.directed,
            indptr=self.indptr,
            indices=self.indices,
            arc_edge_ids=self.arc_edge_ids,
        )
        inherit_lineage(g, self)
        return g

    def relabeled(self, mapping: np.ndarray, num_new: int, *, dedup: str = "first") -> "CSRGraph":
        """Contract vertices through ``mapping`` (old id -> new id).

        Edges mapping to self-loops vanish; parallel edges collapse per
        ``dedup``.  This is the primitive behind supervertex construction in
        lossy summarization and triangle collapse.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (self.n,):
            raise ValueError("mapping must have one entry per vertex")
        return CSRGraph.from_edges(
            num_new,
            mapping[self.edge_src],
            mapping[self.edge_dst],
            self.edge_weights,
            directed=self.directed,
            dedup=dedup,
        )

    def to_undirected(self) -> "CSRGraph":
        """Symmetrized copy (identity for undirected graphs)."""
        if not self.directed:
            return self
        return CSRGraph.from_edges(
            self.n, self.edge_src, self.edge_dst, self.edge_weights, directed=False
        )

    # ------------------------------------------------------------------ #
    # interop & diagnostics
    # ------------------------------------------------------------------ #

    def to_scipy(self):
        """Adjacency as ``scipy.sparse.csr_matrix`` (symmetric if undirected)."""
        from scipy.sparse import csr_matrix

        if self.edge_weights is None:
            data = np.ones(len(self.indices), dtype=np.float64)
        else:
            data = self.edge_weights[self.arc_edge_ids]
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breakage.

        Exercised heavily by the property-based tests: CSR rows sorted,
        arc/edge id cross-references consistent, degree sums correct.
        """
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.indices)
        assert np.all(np.diff(self.indptr) >= 0)
        expected_arcs = self.num_edges if self.directed else 2 * self.num_edges
        assert len(self.indices) == expected_arcs
        for v in range(self.n):
            row = self.neighbors(v)
            assert np.all(row[1:] >= row[:-1]), f"row {v} not sorted"
        # Every arc must point back at a canonical edge containing its head.
        heads = np.repeat(np.arange(self.n), np.diff(self.indptr))
        e = self.arc_edge_ids
        ok = (self.edge_src[e] == heads) & (self.edge_dst[e] == self.indices)
        if not self.directed:
            ok |= (self.edge_dst[e] == heads) & (self.edge_src[e] == self.indices)
        assert ok.all(), "arc -> edge-id cross reference broken"

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        w = "weighted" if self.is_weighted else "unweighted"
        return f"CSRGraph(n={self.n}, m={self.num_edges}, {kind}, {w})"
