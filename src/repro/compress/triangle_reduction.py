"""Triangle Reduction (TR) — the paper's novel compression class (§4.3).

A fraction ``p`` of all triangles is sampled u.a.r.; from each sampled
triangle a prescribed part is removed.  Variants (all selectable through
:class:`TriangleReduction`):

``basic``  (Triangle p-x-Reduction)
    Remove ``x`` ∈ {1, 2} uniformly-random edges from each sampled
    triangle.  Idempotent overlapping deletes.
``edge_once``  (EO p-x-TR)
    Every edge gets *at most one removal lottery*: when a sampled triangle
    is reduced, its drawn edge is deleted only if no earlier instance
    considered it, and **all three** triangle edges become considered —
    the two survivors are protected from every later instance.  This is
    what makes §6.1's bounds work ("we consider each triangle for
    deletion at most once; the probability of deleting an edge along the
    shortest path is at most 1/3") and caps removals at ~m/3 even when
    T ≫ m (§6.3: "the scheme can eliminate up to a third of the number
    of edges").
``count_triangles``  (CT p-x-TR, Fig. 6 right)
    Like ``edge_once`` but deterministic edge choice: remove the triangle
    edge contained in the *fewest* triangles (precomputed globally), so
    structurally important multi-triangle edges are removed last.
``max_weight``
    Remove the maximum-weight edge, and only from triangles whose three
    edges are all still present (checked against the deletion buffer).
    Every removed edge is then the heaviest edge of an intact cycle, so by
    the cycle property the MST weight is preserved *exactly* — the §4.3
    claim the weighted experiments verify.
``collapse``  (Triangle p-Reduction by Collapse)
    Sampled vertex-disjoint triangles are contracted into a single vertex
    (the minimum id), shrinking the vertex set as well.

Paper-text note: Listing 1 names the sampling parameter ``tr_stays`` while
§4.3, Table 2 (m − pT) and the evaluation axes all define ``p`` as the
probability of *reducing* a triangle (e.g. 0.9-1-TR removes far more than
0.2-1-TR in Table 6).  We follow the text: a triangle is reduced with
probability ``p``.
"""

from __future__ import annotations

import numpy as np

from repro.compress.base import CompressionResult, CompressionScheme
from repro.compress.registry import register_scheme
from repro.core.kernels import TriangleKernel
from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

__all__ = [
    "TriangleReduction",
    "BasicTRKernel",
    "EdgeOnceTRKernel",
    "CountTrianglesTRKernel",
    "MaxWeightTRKernel",
]

_VARIANTS = ("basic", "edge_once", "count_triangles", "max_weight", "collapse")


#: For x = 2, the two slots kept when slot ``i`` draws the largest number.
_OTHER_SLOTS = np.array([[1, 2], [0, 2], [0, 1]])


def _draw_triangle_edges(
    rng, edge_ids: np.ndarray, idx: np.ndarray, x: int
) -> np.ndarray:
    """The ``x`` edges each sampled triangle ``edge_ids[idx]`` draws, (k, x).

    One ``rng.random((k, 3))`` draw ranks a row's three slots, and the x
    lowest-ranked slots are drawn — what a per-row argsort would pick,
    read off without sorting: x = 1 takes the row's argmin, x = 2 every
    slot but its argmax (in slot order; callers treat a row as a set).
    """
    ranks = rng.random((len(idx), 3))
    if x == 1:
        return edge_ids[idx, ranks.argmin(axis=1)][:, None]
    return edge_ids[idx[:, None], _OTHER_SLOTS[ranks.argmax(axis=1)]]


def _edge_once_delete_mask(
    num_edges: int, touched: np.ndarray, drawn: np.ndarray
) -> np.ndarray:
    """Vectorized edge-once semantics.

    ``touched[i]`` are the 3 edges of the i-th reduction event (in event
    order) and ``drawn[i]`` the x edges it tries to delete.  Sequentially,
    an edge is deleted iff it is drawn by the event that *first touches*
    it — later events see it considered.  That fixed point is computable
    without the sequential loop: one min-scatter finds each edge's first
    touching event, then drawn edges matching their own first-touch index
    are the deletions.
    """
    delete = np.zeros(num_edges, dtype=bool)
    if len(touched) == 0:
        return delete
    num_events = len(touched)
    first_touch = np.full(num_edges, num_events, dtype=np.int64)
    event_of = np.repeat(np.arange(num_events, dtype=np.int64), touched.shape[1])
    np.minimum.at(first_touch, touched.ravel(), event_of)
    wins = first_touch[drawn] == np.arange(num_events, dtype=np.int64)[:, None]
    delete[drawn[wins]] = True
    return delete


# --------------------------------------------------------------------- #
# kernel programs (the Listing-1 forms)
# --------------------------------------------------------------------- #


class BasicTRKernel(TriangleKernel):
    """p-x-reduction: sampled triangles lose x random edges."""

    name = "p_x_reduction"

    def __call__(self, triangle, sg) -> None:
        if sg.rand() < sg.p:
            x = int(sg.param("x", 1))
            edges = list(triangle.edge_ids)
            for _ in range(x):
                e = sg.rand_choice(edges)
                edges.remove(e)
                sg.delete_edge_id(e)


class EdgeOnceTRKernel(TriangleKernel):
    """EO p-x-reduction: one removal lottery per edge (§4.3).

    A sampled triangle draws x edges; each is deleted only on its *first*
    consideration, and every edge of the triangle is marked considered —
    survivors are protected from all later kernel instances.
    """

    name = "p_x_reduction_EO"

    def __call__(self, triangle, sg) -> None:
        if sg.rand() < sg.p:
            x = int(sg.param("x", 1))
            edges = list(triangle.edge_ids)
            for _ in range(x):
                e = sg.rand_choice(edges)
                edges.remove(e)
                if sg.considered_once(e):
                    sg.delete_edge_id(e)
            for e in edges:  # protect the survivors
                sg.considered_once(e)


class CountTrianglesTRKernel(TriangleKernel):
    """CT variant: remove the edge in the fewest triangles, edge-once.

    Requires ``sg.params["edge_triangle_counts"]`` (precomputed by the
    scheme; kernels only see local state plus SG parameters, matching the
    paper's model where global data lives in SG).
    """

    name = "p_x_reduction_CT"

    def __call__(self, triangle, sg) -> None:
        if sg.rand() < sg.p:
            counts = sg.param("edge_triangle_counts")
            x = int(sg.param("x", 1))
            edges = sorted(triangle.edge_ids, key=lambda e: (counts[e], e))
            for e in edges[:x]:
                if sg.considered_once(e):
                    sg.delete_edge_id(e)
            for e in edges[x:]:  # protect the survivors
                sg.considered_once(e)


class MaxWeightTRKernel(TriangleKernel):
    """Max-weight variant: delete the heaviest edge of intact triangles."""

    name = "p_1_reduction_max_weight"

    def __call__(self, triangle, sg) -> None:
        if sg.rand() < sg.p:
            # Only reduce triangles whose cycle is still intact, so the
            # removed edge is the max of a real cycle (exact MST weight).
            if any(sg.buffer.edge_deleted[e] for e in triangle.edge_ids):
                return
            sg.delete_edge_id(triangle.max_weight_edge())


# --------------------------------------------------------------------- #
# the scheme
# --------------------------------------------------------------------- #


@register_scheme(
    "triangle_reduction",
    positional="p",
    aliases=("tr",),
    summary="sample triangles w.p. p, remove x edges each; EO/CT/max-weight/collapse variants (§4.3)",
    example="EO-0.8-1-TR",
)
class TriangleReduction(CompressionScheme):
    """Triangle p-x-Reduction and its variants."""

    def __init__(
        self,
        p: float,
        *,
        x: int = 1,
        variant: str = "basic",
        approx_listing_p: float | None = None,
    ):
        self.p = check_probability(p, "p")
        if x not in (1, 2):
            raise ValueError(f"x must be 1 or 2, got {x}")
        if variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
        if variant == "max_weight" and x != 1:
            raise ValueError("max_weight removes exactly one edge (x=1)")
        if approx_listing_p is not None:
            check_probability(approx_listing_p, "approx_listing_p")
            if approx_listing_p == 0.0:
                raise ValueError("approx_listing_p must be > 0 (or None for exact)")
        self.x = x
        self.variant = variant
        # §4.3: "numerous approximate schemes find fractions of all
        # triangles in a graph much faster than O(m^{3/2}) ... further
        # reducing the cost of lossy compression based on TR".  When set,
        # triangles are discovered on a DOULION-style edge subsample
        # (probability approx_listing_p), trading reduction scope for
        # listing speed; discovered triangles still reference original
        # edge ids, so deletion semantics are unchanged.
        self.approx_listing_p = approx_listing_p

    def params(self) -> dict:
        out = {"p": self.p, "x": self.x, "variant": self.variant}
        if self.approx_listing_p is not None:
            out["approx_listing_p"] = self.approx_listing_p
        return out

    def kernel_params(self) -> dict:
        return {"p": self.p, "x": self.x}

    # -- fast path -------------------------------------------------------- #

    def compress(self, g: CSRGraph, *, seed=None) -> CompressionResult:
        from repro.algorithms.triangles import edge_triangle_counts

        rng = as_generator(seed)
        tl = self._discover_triangles(g, rng)
        t = tl.count
        if t == 0:
            return CompressionResult(
                graph=g, original=g, scheme=self.name, params=self.params(),
                extras={"triangles": 0, "triangles_reduced": 0},
            )
        sampled = rng.random(t) < self.p
        idx = np.flatnonzero(sampled)

        if self.variant == "collapse":
            return self._collapse(g, tl, idx, rng)

        delete = np.zeros(g.num_edges, dtype=bool)
        if self.variant == "basic":
            delete[_draw_triangle_edges(rng, tl.edge_ids, idx, self.x).ravel()] = True
        elif self.variant == "edge_once":
            chosen = _draw_triangle_edges(rng, tl.edge_ids, idx, self.x)
            delete = _edge_once_delete_mask(g.num_edges, tl.edge_ids[idx], chosen)
        elif self.variant == "count_triangles":
            counts = edge_triangle_counts(g)
            eids = tl.edge_ids[idx]
            order = np.argsort(counts[eids] * np.int64(g.num_edges) + eids, axis=1)
            ranked = np.take_along_axis(eids, order[:, : self.x], axis=1)
            delete = _edge_once_delete_mask(g.num_edges, eids, ranked)
        elif self.variant == "max_weight":
            w = (
                g.edge_weights
                if g.is_weighted
                else np.ones(g.num_edges, dtype=np.float64)
            )
            for row in tl.edge_ids[idx]:
                if delete[row].any():
                    continue
                weights = w[row]
                delete[row[int(np.argmax(weights))]] = True
        compressed = g.keep_edges(~delete)
        return CompressionResult(
            graph=compressed,
            original=g,
            scheme=self.name,
            params=self.params(),
            extras={"triangles": t, "triangles_reduced": int(len(idx))},
        )

    def _collapse(self, g: CSRGraph, tl, idx: np.ndarray, rng) -> CompressionResult:
        """Contract sampled, vertex-disjoint triangles to single vertices."""
        used = np.zeros(g.n, dtype=bool)
        mapping = np.arange(g.n, dtype=np.int64)
        collapsed = 0
        for i in idx:
            u, v, w = tl.vertices[i]
            if used[u] or used[v] or used[w]:
                continue
            used[[u, v, w]] = True
            target = min(u, v, w)
            mapping[[u, v, w]] = target
            collapsed += 1
        # Compact ids: survivors keep order.
        survivors = np.unique(mapping)
        compact = np.zeros(g.n, dtype=np.int64)
        compact[survivors] = np.arange(len(survivors))
        final = compact[mapping]
        compressed = g.relabeled(final, len(survivors), dedup="min")
        return CompressionResult(
            graph=compressed,
            original=g,
            scheme=self.name,
            params=self.params(),
            extras={
                "triangles": tl.count,
                "triangles_collapsed": collapsed,
                "mapping": final,
            },
        )

    def _discover_triangles(self, g: CSRGraph, rng):
        """Exact listing, or approximate discovery on an edge subsample."""
        from repro.algorithms.triangles import TriangleList, list_triangles

        if self.approx_listing_p is None:
            return list_triangles(g)
        keep = rng.random(g.num_edges) <= self.approx_listing_p
        sub = g.keep_edges(keep)
        # Map the subsample's edge ids back to originals.
        original_ids = np.flatnonzero(keep)
        tl = list_triangles(sub)
        return TriangleList(
            vertices=tl.vertices, edge_ids=original_ids[tl.edge_ids]
        )

    # -- kernel path ------------------------------------------------------ #

    def make_kernel(self):
        if self.variant == "basic":
            return BasicTRKernel()
        if self.variant == "edge_once":
            return EdgeOnceTRKernel()
        if self.variant == "count_triangles":
            return CountTrianglesTRKernel()
        if self.variant == "max_weight":
            return MaxWeightTRKernel()
        return None  # collapse changes the vertex set; not a pure del-kernel

    def compress_via_kernels(self, g: CSRGraph, *, seed=None, backend="serial", num_chunks=None):
        if self.variant == "count_triangles":
            from repro.algorithms.triangles import edge_triangle_counts
            from repro.core.runtime import SlimGraphRuntime

            params = self.kernel_params()
            params["edge_triangle_counts"] = edge_triangle_counts(g)
            runtime = SlimGraphRuntime(
                self.make_kernel(), params=params, backend=backend, num_chunks=num_chunks
            )
            result = runtime.run(g, seed=seed)
            return CompressionResult(
                graph=result.graph, original=g, scheme=self.name + "+kernels",
                params=self.params(), extras={"rounds": result.rounds},
            )
        return super().compress_via_kernels(
            g, seed=seed, backend=backend, num_chunks=num_chunks
        )
