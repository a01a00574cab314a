"""repro — Slim Graph: practical lossy graph compression (SC'19 reproduction).

The public API mirrors the paper's three-part architecture:

- **Programming model** (:mod:`repro.core`): compression kernels over
  vertices, edges, triangles and subgraphs; the ``SG`` container; the
  parallel execution engine and the Listing-2 runtime.
- **Compression schemes** (:mod:`repro.compress`): uniform sampling,
  spectral sparsifiers, Triangle Reduction (all variants), spanners, lossy
  summarization, plus the cut-sparsifier and low-rank baselines.
- **Analytics** (:mod:`repro.metrics`, :mod:`repro.analytics`): KL and
  other divergences, reordered-pair counts, BFS critical edges, degree
  distributions, and the scheme×algorithm evaluation harness.

Substrates: :mod:`repro.graphs` (CSR core + generators + datasets),
:mod:`repro.algorithms` (the GAPBS stand-in), :mod:`repro.distributed`
(simulated MPI-RMA pipeline), :mod:`repro.theory` (Table 3 bounds).

Quickstart
----------
>>> from repro import Session, datasets, pagerank
>>> g = datasets.load("s-pok", seed=0)
>>> session = Session(g, seed=1)
>>> scores = session.compress("spanner(k=8)").run(pagerank).score(["kl"])
>>> scores["kl_divergence"]  # doctest: +SKIP
0.0123

Schemes are named by declarative specs — ``"uniform(p=0.5)"``, the
paper's TR labels (``"EO-0.8-1-TR"``), or ``|`` pipelines
(``"low_degree(max_degree=1) | spanner(k=4)"``) — parsed by
:class:`~repro.compress.spec.SchemeSpec` and built through the open
registry (:func:`~repro.compress.registry.register_scheme`); the session
caches each algorithm's original-graph run across every scheme it scores.

The algorithm and metric axes are symmetric: algorithms parse from
declarative :class:`~repro.algorithms.spec.AlgorithmSpec` strings
(``"pagerank(iterations=50)"``, the paper aliases ``"pr"``/``"cc"``/
``"tc"``/``"bfs"``) through their own open registry
(:func:`~repro.algorithms.registry.register_algorithm`), each declaring a
typed result adapter that selects compatible metrics from the metric
registry (:func:`~repro.metrics.registry.register_metric`).
``Session.grid(schemes, algorithms, metrics)`` sweeps the full cube into
a tidy, CSV/JSON round-trippable :class:`~repro.analytics.grid.SweepTable`.
"""

from repro.graphs import CSRGraph, generators, datasets
from repro.compress import (
    Chain,
    CompressionResult,
    CompressionScheme,
    RandomUniformSampling,
    SchemeSpec,
    SpectralSparsifier,
    StageRecord,
    TriangleReduction,
    Spanner,
    LossySummarization,
    LowDegreeVertexRemoval,
    CutSparsifier,
    ClusteredLowRankApproximation,
    build_scheme,
    register_scheme,
    registered_schemes,
)
from repro.core import (
    SG,
    SlimGraphRuntime,
    run_kernels,
    VertexKernel,
    EdgeKernel,
    TriangleKernel,
    SubgraphKernel,
)
from repro.algorithms import (
    AlgorithmSpec,
    BoundAlgorithm,
    bfs,
    build_algorithm,
    connected_components,
    pagerank,
    count_triangles,
    register_algorithm,
    registered_algorithms,
    sssp,
    dijkstra,
    minimum_spanning_forest,
    betweenness_centrality,
    greedy_matching,
    greedy_coloring,
)
from repro.metrics import (
    kl_divergence,
    register_metric,
    registered_metrics,
    reordered_pairs_fraction,
    reordered_neighbor_pairs,
    critical_edge_preservation,
)
from repro.analytics import (
    CompressedRun,
    ScoreReport,
    Session,
    SweepTable,
)
from repro import theory
from repro import distributed
from repro import runner
from repro import service
from repro.runner import ArtifactStore, run_sweep
from repro.service import JobQueue, JobSpec, execute_job

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "generators",
    "datasets",
    "CompressionResult",
    "CompressionScheme",
    "RandomUniformSampling",
    "SpectralSparsifier",
    "TriangleReduction",
    "Spanner",
    "LossySummarization",
    "LowDegreeVertexRemoval",
    "CutSparsifier",
    "ClusteredLowRankApproximation",
    "SchemeSpec",
    "StageRecord",
    "Chain",
    "build_scheme",
    "register_scheme",
    "registered_schemes",
    "SG",
    "SlimGraphRuntime",
    "run_kernels",
    "VertexKernel",
    "EdgeKernel",
    "TriangleKernel",
    "SubgraphKernel",
    "bfs",
    "connected_components",
    "pagerank",
    "count_triangles",
    "sssp",
    "dijkstra",
    "minimum_spanning_forest",
    "betweenness_centrality",
    "greedy_matching",
    "greedy_coloring",
    "kl_divergence",
    "reordered_pairs_fraction",
    "reordered_neighbor_pairs",
    "critical_edge_preservation",
    "Session",
    "CompressedRun",
    "ScoreReport",
    "SweepTable",
    "AlgorithmSpec",
    "BoundAlgorithm",
    "register_algorithm",
    "registered_algorithms",
    "build_algorithm",
    "register_metric",
    "registered_metrics",
    "theory",
    "distributed",
    "runner",
    "service",
    "ArtifactStore",
    "run_sweep",
    "JobQueue",
    "JobSpec",
    "execute_job",
    "__version__",
]
