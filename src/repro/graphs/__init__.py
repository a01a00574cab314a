"""Graph substrate: CSR core, generators, datasets, and I/O."""

from repro.graphs.analysis import AnalysisCache, analysis_cache, cached_analysis
from repro.graphs.csr import CSRGraph
from repro.graphs import generators
from repro.graphs import datasets
from repro.graphs.views import cluster_subgraphs
from repro.graphs.properties import GraphSummary, summarize, degree_statistics, density
from repro.graphs.weights import (
    with_uniform_weights,
    with_exponential_weights,
    with_unit_weights,
)
from repro.graphs import edgelist
from repro.graphs.snapshot import load_snapshot, save_snapshot

__all__ = [
    "AnalysisCache",
    "analysis_cache",
    "cached_analysis",
    "load_snapshot",
    "save_snapshot",
    "CSRGraph",
    "generators",
    "datasets",
    "cluster_subgraphs",
    "GraphSummary",
    "summarize",
    "degree_statistics",
    "density",
    "with_uniform_weights",
    "with_exponential_weights",
    "with_unit_weights",
    "edgelist",
]
