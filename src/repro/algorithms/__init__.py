"""Graph-algorithm substrate (the GAPBS stand-in).

Every algorithm the paper's evaluation runs over compressed graphs: BFS,
SSSP, PageRank, Connected Components, Triangle Counting, Betweenness
Centrality, MST, matchings, coloring, independent sets, k-cores, path
statistics, and graph spectra.

Each module registers its headline entry point in the open algorithm
registry (:mod:`repro.algorithms.registry`) under the paper's table names
(``pr``, ``cc``, ``tc``, ``bfs``, ``sssp``, ``mst``, ``bc``, …), declaring
a typed result adapter that routes the output to compatible §5 metrics.
Declarative :class:`~repro.algorithms.spec.AlgorithmSpec` strings —
``"pagerank(iterations=50)"`` — parse, round-trip, and build through the
same machinery as compression-scheme specs.
"""

from repro.algorithms.adapters import ResultAdapter, get_adapter, registered_adapters
from repro.algorithms.registry import (
    AlgorithmEntry,
    BoundAlgorithm,
    build_algorithm,
    register_algorithm,
    registered_algorithms,
    unregister_algorithm,
)
from repro.algorithms.spec import AlgorithmSpec
from repro.algorithms.bfs import BFSResult, bfs
from repro.algorithms.components import ComponentsResult, connected_components, largest_component
from repro.algorithms.pagerank import PageRankResult, pagerank
from repro.algorithms.triangles import (
    TriangleList,
    list_triangles,
    count_triangles,
    triangles_per_vertex,
    edge_triangle_counts,
)
from repro.algorithms.sssp import SSSPResult, dijkstra, delta_stepping, sssp
from repro.algorithms.mst import MSTResult, kruskal, boruvka, minimum_spanning_forest
from repro.algorithms.matching import MatchingResult, greedy_matching, maximum_matching_size
from repro.algorithms.coloring import ColoringResult, greedy_coloring, coloring_number
from repro.algorithms.independent_set import greedy_mis
from repro.algorithms.kcore import CoreResult, core_numbers
from repro.algorithms.paths import PathStats, path_length_stats, pairwise_distance, exact_diameter
from repro.algorithms.betweenness import betweenness_centrality
from repro.algorithms.spectrum import (
    laplacian,
    laplacian_eigenvalues,
    spectral_distance,
    quadratic_form,
    quadratic_form_ratio_bounds,
)
from repro.algorithms.arboricity import ArboricityEstimate, estimate_arboricity

__all__ = [
    "AlgorithmSpec",
    "AlgorithmEntry",
    "BoundAlgorithm",
    "ResultAdapter",
    "register_algorithm",
    "registered_algorithms",
    "unregister_algorithm",
    "build_algorithm",
    "get_adapter",
    "registered_adapters",
    "BFSResult",
    "bfs",
    "ComponentsResult",
    "connected_components",
    "largest_component",
    "PageRankResult",
    "pagerank",
    "TriangleList",
    "list_triangles",
    "count_triangles",
    "triangles_per_vertex",
    "edge_triangle_counts",
    "SSSPResult",
    "dijkstra",
    "delta_stepping",
    "sssp",
    "MSTResult",
    "kruskal",
    "boruvka",
    "minimum_spanning_forest",
    "MatchingResult",
    "greedy_matching",
    "maximum_matching_size",
    "ColoringResult",
    "greedy_coloring",
    "coloring_number",
    "greedy_mis",
    "CoreResult",
    "core_numbers",
    "PathStats",
    "path_length_stats",
    "pairwise_distance",
    "exact_diameter",
    "betweenness_centrality",
    "laplacian",
    "laplacian_eigenvalues",
    "spectral_distance",
    "quadratic_form",
    "quadratic_form_ratio_bounds",
    "ArboricityEstimate",
    "estimate_arboricity",
]
