"""Lossy compression schemes (Table 2) and the scheme registry."""

from repro.compress.base import CompressionResult, CompressionScheme, StageRecord
from repro.compress.chain import Chain
from repro.compress.spec import SchemeSpec
from repro.compress.uniform import RandomUniformSampling, RandomUniformKernel
from repro.compress.spectral import (
    SpectralSparsifier,
    SpectralSparsifyKernel,
    edge_keep_probabilities,
)
from repro.compress.triangle_reduction import (
    TriangleReduction,
    BasicTRKernel,
    EdgeOnceTRKernel,
    CountTrianglesTRKernel,
    MaxWeightTRKernel,
)
from repro.compress.vertex_filters import LowDegreeVertexRemoval, LowDegreeKernel
from repro.compress.spanner import Spanner, DeriveSpannerKernel
from repro.compress.summarization import (
    LossySummarization,
    GraphSummary,
    DeriveSummaryKernel,
)
from repro.compress.mappings import (
    low_diameter_decomposition,
    jaccard_minhash_clustering,
    LDDResult,
    jaccard_similarity,
)
from repro.compress.cut_sparsifier import CutSparsifier, ni_forest_indices
from repro.compress.lowrank import ClusteredLowRankApproximation
from repro.compress.sampling import (
    RandomVertexSampling,
    RandomWalkSampling,
    VertexSamplingKernel,
)
from repro.compress.registry import (
    SchemeEntry,
    build_scheme,
    get_entry,
    register_scheme,
    registered_schemes,
    unregister_scheme,
)

__all__ = [
    "CompressionResult",
    "CompressionScheme",
    "StageRecord",
    "Chain",
    "SchemeSpec",
    "SchemeEntry",
    "register_scheme",
    "unregister_scheme",
    "registered_schemes",
    "get_entry",
    "build_scheme",
    "RandomUniformSampling",
    "RandomUniformKernel",
    "SpectralSparsifier",
    "SpectralSparsifyKernel",
    "edge_keep_probabilities",
    "TriangleReduction",
    "BasicTRKernel",
    "EdgeOnceTRKernel",
    "CountTrianglesTRKernel",
    "MaxWeightTRKernel",
    "LowDegreeVertexRemoval",
    "LowDegreeKernel",
    "Spanner",
    "DeriveSpannerKernel",
    "LossySummarization",
    "GraphSummary",
    "DeriveSummaryKernel",
    "low_diameter_decomposition",
    "jaccard_minhash_clustering",
    "LDDResult",
    "jaccard_similarity",
    "CutSparsifier",
    "ni_forest_indices",
    "ClusteredLowRankApproximation",
    "RandomVertexSampling",
    "RandomWalkSampling",
    "VertexSamplingKernel",
]
