#!/usr/bin/env python
"""Approximate social-network analytics on a compressed graph.

The workload the paper's introduction motivates: a triangle-dense social
network (the Catster/Dogster regime, T/n in the hundreds) where the
analyst wants communities, influencers, and triangle statistics — but the
graph is too big to keep exact.

This example compresses with Edge-Once Triangle Reduction (the scheme
§6.1 proves gentle on matchings, components, and shortest paths), then
compares the full analytics battery before/after:

- connected components (should be preserved exactly — §7.2),
- PageRank influencers (top-10 overlap),
- per-vertex triangle counts (reordered-pair metric),
- maximal matching size (≥ 2/3 bound).

Run:  python examples/social_network_analysis.py
"""

import numpy as np

from repro import build_scheme, datasets
from repro.algorithms import (
    connected_components,
    greedy_matching,
    pagerank,
)
from repro.algorithms.triangles import triangles_per_vertex
from repro.metrics import reordered_neighbor_pairs


def main() -> None:
    graph = datasets.load("s-cds", seed=0)
    print(f"social network: {graph} (T/n is high: dense pet communities)\n")

    scheme = build_scheme("EO-0.8-1-TR")
    result = scheme.compress(graph, seed=1)
    compressed = result.graph
    print(
        f"compressed with {scheme!r}: kept {result.compression_ratio:.1%} of edges\n"
    )

    # 1. Communities: EO-TR never cuts a triangle's last cycle edge first,
    #    so the component structure survives.
    cc0 = connected_components(graph).num_components
    cc1 = connected_components(compressed).num_components
    print(f"connected components : {cc0} -> {cc1}"
          f" ({'preserved' if cc0 == cc1 else 'CHANGED'})")

    # 2. Influencers: rank overlap of the top 10.
    top0 = set(pagerank(graph).top(10).tolist())
    top1 = set(pagerank(compressed).top(10).tolist())
    print(f"top-10 PageRank overlap: {len(top0 & top1)}/10")

    # 3. Triangle statistics per vertex.
    tv0 = triangles_per_vertex(graph).astype(float)
    tv1 = triangles_per_vertex(compressed).astype(float)
    flipped = reordered_neighbor_pairs(graph, tv0, tv1)
    print(f"triangle-count order : {flipped:.2%} of neighboring pairs flipped")

    # 4. Matching (the §6.1 2/3 bound, on the greedy proxy).
    m0 = greedy_matching(graph).size
    m1 = greedy_matching(compressed).size
    print(f"maximal matching     : {m0} -> {m1} "
          f"(ratio {m1 / m0:.2f}; theory floor ~0.67)")


if __name__ == "__main__":
    main()
