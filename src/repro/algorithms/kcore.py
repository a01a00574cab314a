"""k-core decomposition (degeneracy ordering).

The peeling order drives greedy coloring (the *coloring number* of §6.1 is
achieved by coloring in reverse degeneracy order) and gives the degeneracy,
which sandwiches the arboricity the paper's coloring bounds are stated in.
Linear-time bucket peeling (Batagelj–Zaveršnik).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.graphs.csr import CSRGraph

__all__ = ["CoreResult", "core_numbers"]


@dataclass(frozen=True)
class CoreResult:
    core: np.ndarray  # core number per vertex
    order: np.ndarray  # peeling order (degeneracy order)

    @property
    def degeneracy(self) -> int:
        return int(self.core.max()) if len(self.core) else 0


@register_algorithm(
    "kcore",
    adapter="ordering",
    aliases=("core_numbers",),
    extract=lambda res: res.core,
    summary="k-core decomposition; per-vertex core numbers",
    example="kcore",
)
@register_algorithm(
    "degeneracy",
    adapter="scalar",
    extract=lambda res: res.degeneracy,
    summary="graph degeneracy (max core number; arboricity upper bound)",
    example="degeneracy",
)
def core_numbers(g: CSRGraph) -> CoreResult:
    """Peel vertices in nondecreasing residual degree; O(n + m)."""
    if g.directed:
        raise ValueError("k-core expects an undirected graph")
    n = g.n
    deg = g.degrees.copy()
    max_deg = int(deg.max()) if n else 0
    # Bucket sort vertices by degree.
    bin_start = np.zeros(max_deg + 2, dtype=np.int64)
    np.add.at(bin_start, deg + 1, 1)
    np.cumsum(bin_start, out=bin_start)
    pos = np.empty(n, dtype=np.int64)
    vert = np.empty(n, dtype=np.int64)
    fill = bin_start[:-1].copy()
    for v in range(n):
        pos[v] = fill[deg[v]]
        vert[pos[v]] = v
        fill[deg[v]] += 1
    core = deg.copy()
    bin_ptr = bin_start[:-1].copy()
    for i in range(n):
        v = vert[i]
        for u in g.neighbors(v):
            if core[u] > core[v]:
                # Swap u toward the front of its bucket and shrink it.
                du = core[u]
                pu = pos[u]
                pw = bin_ptr[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_ptr[du] += 1
                core[u] -= 1
    return CoreResult(core=core, order=vert)
