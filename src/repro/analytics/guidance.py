"""Scheme-selection guidance — §7.5 ("How To Select Compression Schemes?")
as an API.

The paper's recipe: (1) consult Table 3 and pick the scheme with the best
accuracy for the property you need preserved, (2) verify the scheme is
feasible for your graph (weighted/directed support, size), (3) pick
parameters from the Fig. 5 sweeps.  :func:`recommend` encodes steps 1–2;
step 3 is :meth:`repro.analytics.session.Session.sweep`.

The ranking below is the paper's own Table 3 + §6.3 discussion distilled:
each property maps to schemes ordered best-first, each with the paper's
rationale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.csr import CSRGraph

__all__ = ["Recommendation", "recommend", "PRESERVABLE_PROPERTIES"]


@dataclass(frozen=True)
class Recommendation:
    """One ranked suggestion: a registry spec plus the Table 3 rationale."""

    scheme_spec: str
    rationale: str
    feasible: bool
    caveat: str = ""


# property -> ordered (spec template, rationale) from Table 3 / §6.3 / §7.2.
_RANKINGS: dict[str, list[tuple[str, str]]] = {
    "connected_components": [
        ("EO-{p}-1-TR", "EO-TR deletes at most one edge per triangle cycle; "
                        "#CC preserved (§6.3, §7.2)"),
        ("spanner(k={k})", "spanning trees + one inter-cluster edge keep "
                           "connectivity deterministically (§6.2)"),
        ("spectral(p={p})", "every vertex keeps incident edges w.h.p.; "
                            "far fewer splits than uniform (§7.2)"),
    ],
    "shortest_paths": [
        ("spanner(k={k})", "distances stretch at most O(k) by construction "
                           "(§4.5.3); best SSSP preservation (§7.2)"),
        ("EO-{p}-1-TR", "paths grow at most (1+p)x w.h.p.; a 2-spanner "
                        "deterministically (§6.1, §6.3)"),
    ],
    "mst_weight": [
        ("tr(p={p}, variant=max_weight)", "removing the max-weight edge of "
                                          "intact triangles preserves the MST "
                                          "weight exactly (cycle property, §4.3)"),
        ("spanner(k={k})", "spanning-tree cores keep light edges (§7.2)"),
    ],
    "graph_spectrum": [
        ("spectral(p={p})", "degree-aware sampling with 1/p reweighting is a "
                            "spectral sparsifier (§4.2.1)"),
    ],
    "triangle_count": [
        ("uniform(p={p})", "DOULION: E[T'] = p^3 T, rescale by 1/p^3 "
                           "(§4.2.2, Table 3)"),
        ("spectral(p={p})", "preserves TC ordering on heavy-tailed graphs "
                            "(§7.2; see EXPERIMENTS.md deviation note)"),
    ],
    "betweenness_centrality": [
        ("low_degree(max_degree=1)", "degree-1 vertices contribute no "
                                     "shortest paths between interior "
                                     "vertices: BC exact (§4.4)"),
        ("EO-{p}-1-TR", "small edge loss, bounded path stretch (§6.1)"),
    ],
    "pagerank": [
        ("EO-{p}-1-TR", "lowest KL divergence at comparable budgets "
                        "(Table 5)"),
        ("spectral(p={p})", "random-walk structure tracks the spectrum"),
        ("uniform(p={p})", "unbiased but diverges fastest (Table 5)"),
    ],
    "matching": [
        ("EO-{p}-1-TR", "expected matching size >= 2/3 of the original "
                        "(§6.1); the least-affected property under TR (§7.2)"),
        ("uniform(p={p})", "E[matching] >= p * original (Table 3)"),
    ],
    "coloring": [
        ("EO-{p}-1-TR", "coloring number stays >= 1/3 of the original "
                        "(arboricity argument, §6.1)"),
        ("spanner(k={k})", "O(n^{1/k} log n) colors suffice (§6.2)"),
    ],
    "cut_sizes": [
        ("cut_sparsifier(epsilon={eps})", "Benczur-Karger sampling preserves "
                                          "all cuts within 1±ε (§4.6)"),
        ("spectral(p={p})", "a spectral sparsifier is also a cut sparsifier "
                            "(§4.6)"),
    ],
    "neighborhoods": [
        ("summarization(epsilon={eps})", "per-vertex symmetric difference "
                                         "bounded by ε·d(v) (§4.5.4)"),
    ],
    "storage": [
        ("spanner(k={k})", "largest reductions: subgraphs become spanning "
                           "trees (§7.1); increase k for more"),
        ("uniform(p={p})", "arbitrary reduction via p at Θ(m) cost"),
    ],
}

PRESERVABLE_PROPERTIES = sorted(_RANKINGS)

# Feasibility per Table 2's W/D columns (scheme family -> supports).
_SUPPORTS = {
    "tr": {"weighted": True, "directed": False},
    "EO": {"weighted": True, "directed": False},
    "uniform": {"weighted": True, "directed": True},
    "spectral": {"weighted": True, "directed": False},
    "spanner": {"weighted": False, "directed": False},
    "summarization": {"weighted": False, "directed": False},
    "low_degree": {"weighted": True, "directed": False},
    "cut_sparsifier": {"weighted": True, "directed": False},
}


def _family(spec: str) -> str:
    head = spec.split("(")[0]
    if head.startswith("EO") or head.endswith("TR"):
        return "tr"
    return head


def recommend(
    preserve: str,
    graph: CSRGraph | None = None,
    *,
    p: float = 0.8,
    k: int = 8,
    eps: float = 0.2,
) -> list[Recommendation]:
    """Rank compression schemes for preserving ``preserve`` (§7.5 step 1–2).

    Parameters
    ----------
    preserve:
        One of :data:`PRESERVABLE_PROPERTIES`.
    graph:
        Optional: feasibility (weighted/directed support, triangle
        availability) is checked against this graph.
    p, k, eps:
        Default parameters substituted into the returned specs; tune with
        :meth:`repro.analytics.session.Session.sweep` (§7.5 step 3).
    """
    if preserve not in _RANKINGS:
        raise ValueError(
            f"unknown property {preserve!r}; choose from {PRESERVABLE_PROPERTIES}"
        )
    out: list[Recommendation] = []
    for template, rationale in _RANKINGS[preserve]:
        spec = template.format(p=p, k=k, eps=eps)
        feasible = True
        caveat = ""
        if graph is not None:
            support = _SUPPORTS.get(_family(spec), {"weighted": True, "directed": True})
            if graph.directed and not support["directed"]:
                feasible = False
                caveat = "scheme operates on undirected graphs; symmetrize first"
            elif graph.is_weighted and not support["weighted"]:
                caveat = "weights are ignored by this scheme"
            if _family(spec) == "tr" and graph is not None and not graph.directed:
                # TR needs triangles to do anything.
                from repro.algorithms.triangles import count_triangles

                if graph.num_edges and count_triangles(graph) == 0:
                    feasible = False
                    caveat = "graph is triangle-free: TR removes nothing"
        out.append(
            Recommendation(
                scheme_spec=spec, rationale=rationale, feasible=feasible, caveat=caveat
            )
        )
    return out
