"""Subgraph extraction.

Subgraph kernels (§4.5) receive induced subgraphs derived from a
vertex-to-cluster mapping; this helper groups the vertices of each one.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph

__all__ = ["cluster_subgraphs"]


def cluster_subgraphs(g: CSRGraph, mapping: np.ndarray):
    """Group vertices by cluster id; yields ``(cluster_id, vertex_array)``.

    ``mapping`` assigns every vertex a cluster id (the §4.5.2 mapping
    structure).  Iteration order is ascending cluster id; vectorized
    grouping via one argsort rather than n list appends.
    """
    mapping = np.asarray(mapping, dtype=np.int64)
    if mapping.shape != (g.n,):
        raise ValueError("mapping must assign a cluster to every vertex")
    order = np.argsort(mapping, kind="stable")
    sorted_ids = mapping[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [g.n]])
    for s, e in zip(starts, ends):
        yield int(sorted_ids[s]), order[s:e]
