"""Maximal independent sets.

Table 3 tracks the maximum independent set size ÎS under compression;
exact MIS is NP-hard, so the substrate reports the greedy (min-degree)
maximal independent set — the standard comparable proxy when the same
heuristic runs on original and compressed graphs.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.graphs.csr import CSRGraph

__all__ = ["greedy_mis"]


@register_algorithm(
    "mis",
    adapter="vertex_set",
    aliases=("greedy_mis", "independent_set"),
    summary="min-degree greedy maximal independent set (Table 3's ÎS proxy)",
    example="mis",
)
def greedy_mis(g: CSRGraph) -> np.ndarray:
    """Min-degree greedy maximal independent set; returns vertex ids.

    Deterministic: ties broken by vertex id.  Uses lazy degree updates
    (heap entries are revalidated on pop).
    """
    if g.directed:
        raise ValueError("independent set expects an undirected graph")
    import heapq

    deg = g.degrees.copy()
    alive = np.ones(g.n, dtype=bool)
    heap = [(int(d), v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    chosen = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v]:
            continue
        if d != deg[v]:
            heapq.heappush(heap, (int(deg[v]), v))
            continue
        chosen.append(v)
        alive[v] = False
        for u in g.neighbors(v):
            if alive[u]:
                alive[u] = False
                for w in g.neighbors(u):
                    if alive[w]:
                        deg[w] -= 1
    return np.array(sorted(chosen), dtype=np.int64)
