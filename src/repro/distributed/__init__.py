"""Simulated distributed compression (MPI-RMA stand-in)."""

from repro.distributed.partition import EdgePartition
from repro.distributed.rma import Window, RMAError
from repro.distributed.engine import (
    DistributedCompressionResult,
    distributed_uniform_sampling,
)

__all__ = [
    "EdgePartition",
    "Window",
    "RMAError",
    "DistributedCompressionResult",
    "distributed_uniform_sampling",
]
