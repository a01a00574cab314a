"""Slim Graph programming model: kernels, SG container, engine, runtime."""

from repro.core.kernels import (
    VertexView,
    EdgeView,
    TriangleView,
    SubgraphView,
    CompressionKernel,
    VertexKernel,
    EdgeKernel,
    TriangleKernel,
    SubgraphKernel,
)
from repro.core.sg import SG
from repro.core.atomic import DeletionBuffer, EdgeFlags
from repro.core.engine import run_kernels, KernelSweepResult
from repro.core.runtime import SlimGraphRuntime, RuntimeResult

__all__ = [
    "VertexView",
    "EdgeView",
    "TriangleView",
    "SubgraphView",
    "CompressionKernel",
    "VertexKernel",
    "EdgeKernel",
    "TriangleKernel",
    "SubgraphKernel",
    "SG",
    "DeletionBuffer",
    "EdgeFlags",
    "run_kernels",
    "KernelSweepResult",
    "SlimGraphRuntime",
    "RuntimeResult",
]
