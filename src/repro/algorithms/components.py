"""Connected components.

Vectorized Shiloach–Vishkin-style min-label propagation with pointer
jumping: every round relaxes component labels across all edges at once and
then compresses label chains, so the number of rounds is O(log n) even on
long paths (road networks).  This mirrors the parallel CC kernels the paper
runs via GAPBS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.graphs.csr import CSRGraph

__all__ = ["ComponentsResult", "connected_components", "largest_component"]


@dataclass(frozen=True)
class ComponentsResult:
    """Per-vertex component labels (minimum vertex id in the component)."""

    labels: np.ndarray
    num_components: int

    def sizes(self) -> np.ndarray:
        """Component sizes indexed by compacted component id."""
        _, counts = np.unique(self.labels, return_counts=True)
        return counts

    def component_of(self, v: int) -> int:
        return int(self.labels[v])


@register_algorithm(
    "connected_components",
    adapter="scalar",
    aliases=("cc",),
    extract=lambda res: res.num_components,
    summary="number of weakly connected components (Shiloach–Vishkin style)",
    example="cc",
)
def connected_components(g: CSRGraph) -> ComponentsResult:
    """Weakly connected components (edge direction ignored)."""
    n = g.n
    labels = np.arange(n, dtype=np.int64)
    if g.num_edges == 0:
        return ComponentsResult(labels=labels, num_components=n)
    src, dst = g.edge_src, g.edge_dst
    while True:
        lo = np.minimum(labels[src], labels[dst])
        new = labels.copy()
        np.minimum.at(new, src, lo)
        np.minimum.at(new, dst, lo)
        # Pointer jumping: compress chains until labels are roots.
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            break
        labels = new
    # Each label is its component's least vertex id, so the components
    # are counted by their roots: the vertices labelled with themselves.
    num = int(np.count_nonzero(labels == np.arange(n)))
    return ComponentsResult(labels=labels, num_components=num)


def largest_component(g: CSRGraph) -> np.ndarray:
    """Vertex ids of the largest weakly connected component."""
    res = connected_components(g)
    uniq, counts = np.unique(res.labels, return_counts=True)
    big = uniq[np.argmax(counts)]
    return np.flatnonzero(res.labels == big)
