"""Typed result adapters: the bridge from algorithm outputs to metrics.

Every registered algorithm declares what *shape* its output has, and that
shape — not the algorithm — decides which §5 accuracy metrics apply:

- ``scalar`` — one number (CC count, MST weight, triangle count);
- ``distribution`` — a nonnegative per-vertex mass vector that normalizes
  to a probability distribution (PageRank, Laplacian spectra);
- ``ordering`` — a per-vertex score vector judged by relative order
  (betweenness, triangles per vertex, SSSP distances);
- ``vertex_set`` — a set of vertex ids (maximal independent sets);
- ``traversal`` — a rooted traversal whose accuracy is judged on the
  *graphs* (BFS critical edges), not on the output value itself.

An adapter owns the output coercion that used to live as ad-hoc
``.ranks``-aware ``_as_float_array`` hacks inside the session: it
canonicalizes raw results into comparable values and aligns per-vertex
vectors across a vertex-set-changing compression via the scheme's vertex
mapping (see :func:`repro.compress.mappings.vertex_alignment`) instead of
naive zero-padding.

The compatible-metric sets live on the other side of the bridge: each
:func:`repro.metrics.registry.register_metric` call names the adapters it
applies to, and ``default_metric`` here picks the §5 routing default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["ResultAdapter", "get_adapter", "registered_adapters"]


def _as_float_vector(value) -> np.ndarray:
    """1-D float view of a per-vertex output (``.ranks``-result aware)."""
    if hasattr(value, "ranks"):
        value = value.ranks
    out = np.asarray(value, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"expected a 1-D per-vertex vector, got shape {out.shape}")
    return out


def _as_scalar(value) -> float:
    if hasattr(value, "__len__") and not isinstance(value, str):
        raise ValueError(f"expected a scalar output, got {type(value).__name__}")
    return float(value)


def _as_vertex_set(value) -> frozenset:
    if isinstance(value, frozenset):
        return value
    return frozenset(int(v) for v in np.asarray(value, dtype=np.int64).ravel())


def _align_vectors(a: np.ndarray, b: np.ndarray, mapping) -> tuple:
    """Bring ``b`` (compressed-graph vector) onto the original vertex ids.

    ``mapping[v]`` is the compressed vertex carrying original vertex ``v``
    (-1 when the vertex was dropped outright; those positions read 0, the
    "no mass / no score" value).  Without a mapping, a shorter ``b`` is
    zero-padded — the legacy fallback for schemes that shrink the vertex
    set without recording provenance.
    """
    if len(b) == len(a):
        return a, b
    if mapping is not None and len(mapping) == len(a):
        idx = np.asarray(mapping, dtype=np.int64)
        if idx.size and idx.max() < len(b):
            aligned = np.zeros(len(a), dtype=np.float64)
            present = idx >= 0
            aligned[present] = b[idx[present]]
            return a, aligned
    if len(b) > len(a):
        raise ValueError("compressed output longer than original")
    padded = np.zeros(len(a), dtype=np.float64)
    padded[: len(b)] = b
    return a, padded


def _identity_align(a, b, mapping):
    return a, b


def _align_vertex_sets(a: frozenset, b: frozenset, mapping) -> tuple:
    """Translate a compressed-graph vertex set back to original ids.

    Under a relabeling/collapsing scheme, ``b`` holds compressed ids;
    each is replaced by the (first) original vertex it carries so both
    sets live in the original id space.  Identity when no mapping.
    """
    if mapping is None:
        return a, b
    idx = np.asarray(mapping, dtype=np.int64)
    alive = np.flatnonzero(idx >= 0)
    compressed_ids, first = np.unique(idx[alive], return_index=True)
    originals = alive[first]
    lookup = dict(zip(compressed_ids.tolist(), originals.tolist()))
    return a, frozenset(lookup[c] for c in b if c in lookup)


@dataclass(frozen=True)
class ResultAdapter:
    """How one output shape is canonicalized, aligned, and scored."""

    name: str
    canonicalize: Callable[[Any], Any]
    align: Callable[[Any, Any, Any], tuple]
    default_metric: str
    summary: str = ""


_ADAPTERS: dict[str, ResultAdapter] = {
    a.name: a
    for a in (
        ResultAdapter(
            name="scalar",
            canonicalize=_as_scalar,
            align=_identity_align,
            default_metric="relative_change",
            summary="one number (CC count, MST weight, triangle count)",
        ),
        ResultAdapter(
            name="distribution",
            canonicalize=_as_float_vector,
            align=_align_vectors,
            default_metric="kl_divergence",
            summary="nonnegative mass vector; normalized before divergences",
        ),
        ResultAdapter(
            name="ordering",
            canonicalize=_as_float_vector,
            align=_align_vectors,
            default_metric="reordered_neighbor_pairs",
            summary="per-vertex scores judged by relative order",
        ),
        ResultAdapter(
            name="vertex_set",
            canonicalize=_as_vertex_set,
            align=_align_vertex_sets,
            default_metric="jaccard_overlap",
            summary="a set of vertex ids (independent sets, matchings)",
        ),
        ResultAdapter(
            name="traversal",
            canonicalize=lambda value: value,
            align=_identity_align,
            default_metric="critical_edge_preservation",
            summary="rooted traversal; scored on the graphs (critical edges)",
        ),
    )
}

def get_adapter(name: str) -> ResultAdapter:
    """Adapter by name; an unknown name is an error naming the known ones."""
    adapter = _ADAPTERS.get(name)
    if adapter is None:
        raise ValueError(
            f"unknown result adapter {name!r}; known: {sorted(_ADAPTERS)}"
        )
    return adapter


def registered_adapters() -> dict[str, ResultAdapter]:
    return dict(sorted(_ADAPTERS.items()))
