"""Single-vertex kernels: low-degree vertex removal (§4.4).

Removing degree-0 and degree-1 vertices preserves betweenness centrality
exactly for the surviving vertices (degree-1 vertices contribute no
shortest paths between higher-degree vertices) and never changes the MST
weight by more than the removed pendant edges.  Applied iteratively it
prunes whole pendant trees (``max_rounds > 1``).
"""

from __future__ import annotations

import numpy as np

from repro.compress.base import CompressionResult, CompressionScheme
from repro.compress.mappings import relabel_mapping
from repro.compress.registry import register_scheme
from repro.core.kernels import VertexKernel
from repro.graphs.csr import CSRGraph

__all__ = ["LowDegreeVertexRemoval", "LowDegreeKernel"]


class LowDegreeKernel(VertexKernel):
    """Listing 1, lines 24–25: drop vertices of degree ≤ ``max_degree``
    (the paper's kernel is ``max_degree=1``)."""

    name = "low_degree"

    def __init__(self, max_degree: int = 1):
        self.max_degree = max_degree

    def __call__(self, v, sg) -> None:
        if v.deg <= self.max_degree:
            sg.delete(v)


@register_scheme(
    "low_degree",
    summary="remove degree ≤ max_degree vertices, optionally to a fixpoint (§4.4)",
    example="low_degree(max_degree=1)",
)
class LowDegreeVertexRemoval(CompressionScheme):
    """Remove degree ≤ ``max_degree`` vertices, optionally to a fixpoint.

    ``rounds=1`` is the paper's kernel; ``rounds=None`` iterates until no
    low-degree vertex remains (pendant-tree peeling).
    """

    def __init__(self, *, max_degree: int = 1, rounds: int | None = 1, relabel: bool = False):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.max_degree = max_degree
        self.rounds = rounds
        self.relabel = relabel

    def params(self) -> dict:
        return {"max_degree": self.max_degree, "rounds": self.rounds, "relabel": self.relabel}

    def compress(self, g: CSRGraph, *, seed=None) -> CompressionResult:
        current = g
        removed_total = 0
        done_rounds = 0
        # Original id -> current compacted id (-1 once dropped), composed
        # round by round; the alignment provenance for relabel=True.
        mapping = np.arange(g.n, dtype=np.int64)
        limit = self.rounds if self.rounds is not None else 1 << 30
        while done_rounds < limit:
            done_rounds += 1
            victims = np.flatnonzero(current.degrees <= self.max_degree)
            # Degree-0 vertices are only "removed" when relabeling; without
            # relabeling they are already isolated and stay put.
            if not self.relabel:
                victims = victims[current.degrees[victims] > 0]
            if len(victims) == 0:
                break
            removed_total += len(victims)
            if self.relabel:
                round_map = relabel_mapping(current.n, victims)
                alive = mapping >= 0
                mapping[alive] = round_map[mapping[alive]]
            current = current.remove_vertices(victims, relabel=self.relabel)
            if self.relabel is False and self.max_degree == 0:
                break
        extras = {"vertices_removed": removed_total, "rounds": done_rounds}
        if self.relabel:
            extras["mapping"] = mapping
        return CompressionResult(
            graph=current,
            original=g,
            scheme=self.name,
            params=self.params(),
            extras=extras,
        )

    def make_kernel(self):
        # One kernel pass is one round that leaves vertex ids in place;
        # peeling to a fixpoint or relabeling has no kernel program.
        if self.rounds != 1 or self.relabel:
            return None
        return LowDegreeKernel(self.max_degree)
