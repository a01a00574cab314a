#!/usr/bin/env python
"""Shortest paths on a weighted road network — where TR *cannot* help.

§7.1's weighted-graph finding: "For very sparse graphs, such as the US
road network, compression ratio and thus speedups ... from TR is very
low" — road networks are triangle-free, so Triangle Reduction has nothing
to reduce.  Spanners, on the other hand, still compress (they keep
shortest-path trees plus sparse inter-cluster links) at a bounded
distance stretch.

This example runs both schemes on the v-usa stand-in and compares:
edge reduction, SSSP distance stretch, and MST weight.

Run:  python examples/road_network_shortest_paths.py
"""

import numpy as np

from repro import build_scheme, datasets
from repro.algorithms import dijkstra, minimum_spanning_forest


def main() -> None:
    road = datasets.load("v-usa", seed=0)
    print(f"road network: {road} (weighted, triangle-free)\n")

    source = 0
    base = dijkstra(road, source)
    base_mst = minimum_spanning_forest(road).total_weight

    for spec in ["0.9-1-TR", "spanner(k=4)"]:
        result = build_scheme(spec).compress(road, seed=1)
        sub = result.graph

        sp = dijkstra(sub, source)
        both = np.isfinite(base.distance) & np.isfinite(sp.distance) & (base.distance > 0)
        stretch = (
            float(np.max(sp.distance[both] / base.distance[both])) if both.any() else 1.0
        )
        mst = minimum_spanning_forest(sub).total_weight

        print(f"{spec}:")
        print(f"  edges removed     : {result.edge_reduction:7.1%}")
        print(f"  max SSSP stretch  : {stretch:7.3f}x")
        print(f"  MST weight        : {base_mst:,.0f} -> {mst:,.0f}")
        print()

    print(
        "TR removed nothing (no triangles), so distances are exact but\n"
        "storage is unchanged; the spanner trades bounded stretch for a\n"
        "real reduction — choose by consulting Table 3 first (§7.5)."
    )


if __name__ == "__main__":
    main()
