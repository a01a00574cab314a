"""O(k)-spanners via low-diameter decomposition (§4.5.3).

The scheme the paper selected after surveying spanner constructions:
Miller–Peng–Xu.  Stage 1 decomposes the graph with exponential-shift LDD
(β = ln(n)/k); stage 2 keeps, per cluster, the shortest-path tree realizing
the decomposition, plus — per (cluster, neighboring cluster) — one
crossing edge.  The result is a subgraph with O(n^{1+1/k}) edges
(in expectation) and stretch O(k).

Fig. 5's spanner panel (mild gains for small k, a large jump past a
threshold), Table 5 (KL vs k), Table 6 (spanners destroy triangles), and
§7.2 (critical-edge preservation) all run through this class.
"""

from __future__ import annotations

import numpy as np

from repro.compress.base import CompressionResult, CompressionScheme
from repro.compress.registry import register_scheme
from repro.compress.mappings import LDDResult, beta_for_spanner, low_diameter_decomposition
from repro.core.kernels import SubgraphKernel
from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_generator

__all__ = ["Spanner", "DeriveSpannerKernel"]


class DeriveSpannerKernel(SubgraphKernel):
    """Listing 1, lines 27–33: keep a spanning tree + one edge per
    neighboring subgraph, delete the rest.

    The intra-cluster spanning tree comes from ``sg.params
    ["ldd_parent_edges"]`` (the SSSP tree the mapping construction already
    built — recomputing it per kernel would duplicate stage-1 work).
    """

    name = "derive_spanner"

    def __call__(self, subgraph, sg) -> None:
        parent_edges = sg.param("ldd_parent_edges")
        keep = set()
        for v in subgraph.vertices:
            e = parent_edges[v]
            if e >= 0:
                keep.add(int(e))
        # Delete intra-cluster non-tree edges.
        for e in subgraph.internal_edge_ids():
            if int(e) not in keep:
                sg.delete_edge_id(int(e))
        # Keep only the first out-edge per neighboring subgraph.
        out_eids, neighbor_clusters = subgraph.out_edges()
        seen: set[int] = set()
        for e, c in zip(out_eids, neighbor_clusters):
            if int(c) in seen:
                sg.delete_edge_id(int(e))
            else:
                seen.add(int(c))


@register_scheme(
    "spanner",
    positional="k",
    summary="LDD cluster trees + one crossing edge per cluster pair; O(k) stretch (§4.5.3)",
    example="spanner(k=8)",
)
class Spanner(CompressionScheme):
    """O(k)-spanner: larger k → smaller (sparser) spanner, larger stretch."""

    def __init__(self, k: float, *, weighted: bool = False):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # Integer-valued k stays int through the spec round trip.
        self.k = int(k) if isinstance(k, int) and not isinstance(k, bool) else float(k)
        # Grow LDD waves along edge weights: per-cluster trees become
        # weighted shortest-path trees, improving weighted SSSP stretch.
        self.weighted = weighted

    def params(self) -> dict:
        return {"k": self.k, "weighted": self.weighted}

    def _decompose(self, g: CSRGraph, seed) -> LDDResult:
        return low_diameter_decomposition(
            g, beta_for_spanner(g, self.k), seed=seed, weighted=self.weighted
        )

    def compress(self, g: CSRGraph, *, seed=None) -> CompressionResult:
        rng = as_generator(seed)
        ldd = self._decompose(g, rng)
        keep = np.zeros(g.num_edges, dtype=bool)
        # 1. Intra-cluster SSSP-tree edges.
        tree_edges = ldd.parent_edge_ids[ldd.parent_edge_ids >= 0]
        keep[tree_edges] = True
        # 2. One crossing edge per unordered cluster pair, chosen as the
        #    smallest edge id — identical to the kernel, where both clusters
        #    of a pair scan the same crossing-edge set in ascending id order
        #    and therefore keep the same single edge.
        mp = ldd.mapping
        cs, cd = mp[g.edge_src], mp[g.edge_dst]
        crossing = np.flatnonzero(cs != cd)
        if len(crossing):
            C = np.int64(ldd.num_clusters)
            lo = np.minimum(cs[crossing], cd[crossing])
            hi = np.maximum(cs[crossing], cd[crossing])
            key = lo * C + hi
            # crossing is ascending, so a stable sort leaves each pair's
            # smallest edge id at the start of its run.
            order = np.argsort(key, kind="stable")
            key = key[order]
            first = np.ones(len(key), dtype=bool)
            first[1:] = key[1:] != key[:-1]
            keep[crossing[order[first]]] = True
        compressed = g.keep_edges(keep)
        return CompressionResult(
            graph=compressed,
            original=g,
            scheme=self.name,
            params=self.params(),
            extras={"mapping": ldd.mapping, "num_clusters": ldd.num_clusters},
        )

    # -- kernel path ------------------------------------------------------ #

    def make_kernel(self):
        return DeriveSpannerKernel()

    def mapping_fn(self):
        scheme = self

        def build(g: CSRGraph, sg, rng) -> np.ndarray:
            ldd = scheme._decompose(g, rng)
            sg.params["ldd_parent_edges"] = ldd.parent_edge_ids
            return ldd.mapping

        return build
