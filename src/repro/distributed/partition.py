"""Edge partitioning for distributed compression (§3.2, §7.3).

The paper's distributed pipeline runs *edge compression kernels* over an
edge-partitioned graph with MPI RMA.  ``EdgePartition`` reproduces the data
layout: canonical edges are split into per-rank contiguous 1-D blocks, the
layout of the paper's MPI implementation.  Each rank owns its slice of the global keep
mask; ownership is disjoint, so ranks never conflict — the property that
makes the paper's one-sided-communication design race-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.csr import CSRGraph
from repro.utils.chunking import chunk_ranges

__all__ = ["EdgePartition"]


@dataclass(frozen=True)
class EdgePartition:
    """Assignment of canonical edge ranges to ranks."""

    num_ranks: int
    ranges: tuple[tuple[int, int], ...]

    @classmethod
    def contiguous(cls, g: CSRGraph, num_ranks: int) -> "EdgePartition":
        """Equal-count contiguous ranges (the MPI-RMA layout)."""
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        ranges = chunk_ranges(g.num_edges, num_ranks)
        return cls(num_ranks=max(1, len(ranges)) if g.num_edges else num_ranks,
                   ranges=tuple(ranges))

    def validate(self, num_edges: int) -> None:
        """Ranges must tile [0, num_edges) exactly, in order."""
        pos = 0
        for lo, hi in self.ranges:
            assert lo == pos and hi >= lo, "ranges must be contiguous and ordered"
            pos = hi
        assert pos == num_edges, "ranges must cover all edges"
