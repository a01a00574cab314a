#!/usr/bin/env python
"""Choosing a compression scheme — §7.5's guidelines as a library call.

The paper closes its evaluation with a recipe: (1) pick the scheme Table 3
ranks best for the property you must preserve, (2) check feasibility for
your graph, (3) tune parameters with the Fig. 5 sweeps.  The
``repro.analytics.recommend`` API encodes steps 1–2; this example walks
all three for two very different inputs — a weighted road network and a
triangle-rich social graph — and verifies the recommendation actually
delivers on its promise.

Run:  python examples/scheme_selection.py
"""

from repro import Session, build_scheme, datasets
from repro.analytics import recommend


def pick_and_verify(graph, graph_label, preserve, measure) -> None:
    """Apply the top feasible recommendation and report its accuracy.

    ``measure(original, compressed) -> (description, value)``; exact
    schemes report 0 error, approximate fallbacks report how far off they
    landed — the honest version of Table 3's exact-vs-bounded columns.
    """
    print(f"--- preserve {preserve!r} on {graph_label} ---")
    recs = recommend(preserve, graph)
    for rec in recs:
        flag = "OK " if rec.feasible else "NO "
        note = rec.caveat or rec.rationale
        print(f"  [{flag}] {rec.scheme_spec:34s} {note[:60]}")
    best = next(r for r in recs if r.feasible)
    scheme = build_scheme(best.scheme_spec)
    result = scheme.compress(graph, seed=0)
    label, value = measure(graph, result.graph)
    print(
        f"  -> applied {best.scheme_spec}: kept {result.compression_ratio:.1%} "
        f"of edges; {label}: {value}\n"
    )


def main() -> None:
    road = datasets.load("v-usa", seed=0)
    social = datasets.load("s-cds", seed=0)

    # Step 1+2 on two property/graph pairs.
    from repro.algorithms import connected_components, minimum_spanning_forest

    def mst_error(g, h):
        w0 = minimum_spanning_forest(g).total_weight
        w1 = minimum_spanning_forest(h).total_weight
        return "MST weight drift", f"{abs(w1 - w0) / w0:.2%} (exact scheme infeasible: no triangles)"

    def cc_exact(g, h):
        same = (
            connected_components(g).num_components
            == connected_components(h).num_components
        )
        return "#CC preserved exactly", same

    pick_and_verify(road, "v-usa (weighted road network)", "mst_weight", mst_error)
    pick_and_verify(social, "s-cds (triangle-dense social)", "connected_components", cc_exact)

    # Step 3: tune the parameter with a sweep (Fig. 5 methodology).  A
    # session sweep takes spec strings directly and reuses the baseline
    # algorithm runs across all three parameter values.
    print("--- step 3: parameter sweep for spanner storage on s-cds ---")
    rows = Session(social, seed=0).sweep(
        [f"spanner(k={k})" for k in (2, 8, 32)], algorithms=["cc"]
    )
    for row in rows:
        print(
            f"  k={int(row.parameter):3d}: kept {row.compression_ratio:6.1%} of edges, "
            f"#CC relative change {row.metric_value:+.3f}"
        )


if __name__ == "__main__":
    main()
