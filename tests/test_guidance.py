"""Tests for the §7.5 scheme-selection guidance API."""

import pytest

from repro.analytics.guidance import PRESERVABLE_PROPERTIES, recommend
from repro.compress.registry import build_scheme
from repro.graphs import generators as gen
from repro.graphs.weights import with_uniform_weights


class TestRecommend:
    def test_all_properties_have_rankings(self):
        for prop in PRESERVABLE_PROPERTIES:
            recs = recommend(prop)
            assert recs, prop
            assert all(r.rationale for r in recs)

    def test_specs_are_constructible(self):
        """Every recommended spec must parse through the registry."""
        for prop in PRESERVABLE_PROPERTIES:
            for rec in recommend(prop):
                scheme = build_scheme(rec.scheme_spec)
                assert scheme is not None

    def test_unknown_property(self):
        with pytest.raises(ValueError, match="unknown property"):
            recommend("chromatic_polynomial")

    def test_mst_ranking_prefers_max_weight_tr(self):
        recs = recommend("mst_weight")
        assert "max_weight" in recs[0].scheme_spec

    def test_triangle_free_graph_marks_tr_infeasible(self):
        road = gen.grid_2d(8, 8)
        recs = recommend("mst_weight", road)
        tr = recs[0]
        assert not tr.feasible
        assert "triangle-free" in tr.caveat

    def test_directed_graph_feasibility(self):
        g = gen.rmat(8, 4, seed=0, directed=True)
        recs = recommend("pagerank", g)
        by_spec = {r.scheme_spec.split("(")[0]: r for r in recs}
        assert by_spec["uniform"].feasible  # uniform supports directed
        # TR needs undirected graphs.
        tr = [r for r in recs if "TR" in r.scheme_spec][0]
        assert not tr.feasible

    def test_weighted_graph_caveat_for_spanner(self):
        g = with_uniform_weights(gen.erdos_renyi(50, m=120, seed=1), seed=0)
        recs = recommend("storage", g)
        spanner = [r for r in recs if r.scheme_spec.startswith("spanner")][0]
        assert spanner.feasible
        assert "weights" in spanner.caveat

    def test_parameters_flow_into_specs(self):
        recs = recommend("shortest_paths", p=0.3, k=42)
        assert any("k=42" in r.scheme_spec for r in recs)
        assert any("0.3" in r.scheme_spec for r in recs)

    def test_recommended_scheme_actually_preserves_cc(self):
        """End-to-end: the top CC recommendation preserves #CC."""
        from repro.algorithms.components import connected_components

        g = gen.powerlaw_cluster(300, 5, 0.6, seed=2)
        rec = recommend("connected_components", g)[0]
        assert rec.feasible
        sub = build_scheme(rec.scheme_spec).compress(g, seed=0).graph
        assert (
            connected_components(sub).num_components
            == connected_components(g).num_components
        )

    def test_recommended_scheme_preserves_mst_weight(self):
        from repro.algorithms.mst import kruskal

        g = with_uniform_weights(gen.powerlaw_cluster(300, 5, 0.6, seed=3), seed=1)
        rec = recommend("mst_weight", g)[0]
        assert rec.feasible
        sub = build_scheme(rec.scheme_spec).compress(g, seed=0).graph
        assert kruskal(sub).total_weight == pytest.approx(kruskal(g).total_weight)


class TestFamilyClassification:
    """The internal spec -> feasibility-family mapping (PR-5 coverage)."""

    def test_tr_spellings_map_to_tr(self):
        from repro.analytics.guidance import _family

        assert _family("EO-0.8-1-TR") == "tr"
        assert _family("0.5-1-TR") == "tr"
        assert _family("tr(p=0.5, variant=max_weight)") == "tr"

    def test_named_schemes_map_to_themselves(self):
        from repro.analytics.guidance import _family

        for head in ("spanner", "uniform", "spectral", "summarization",
                     "low_degree", "cut_sparsifier"):
            assert _family(f"{head}(x=1)") == head

    def test_every_ranked_spec_has_a_support_entry(self):
        """No recommendation silently falls back to 'supports anything'."""
        from repro.analytics.guidance import _RANKINGS, _SUPPORTS, _family

        for rankings in _RANKINGS.values():
            for template, _ in rankings:
                spec = template.format(p=0.5, k=4, eps=0.2)
                assert _family(spec) in _SUPPORTS, spec


class TestRankingStability:
    def test_repeated_calls_identical(self):
        for prop in PRESERVABLE_PROPERTIES:
            assert recommend(prop) == recommend(prop)

    def test_order_is_the_documented_table3_order(self):
        specs = [r.scheme_spec.split("(")[0] for r in recommend("pagerank")]
        assert specs == ["EO-0.8-1-TR", "spectral", "uniform"]

    def test_graph_feasibility_does_not_reorder(self):
        g = gen.grid_2d(6, 6)  # triangle-free: TR infeasible but still first
        bare = [r.scheme_spec for r in recommend("connected_components")]
        with_graph = [r.scheme_spec for r in recommend("connected_components", g)]
        assert bare == with_graph

    def test_properties_list_is_sorted_and_stable(self):
        assert PRESERVABLE_PROPERTIES == sorted(PRESERVABLE_PROPERTIES)
        assert len(PRESERVABLE_PROPERTIES) >= 10


class TestDegenerateInputs:
    def test_empty_graph(self):
        from repro.graphs.csr import CSRGraph

        for prop in PRESERVABLE_PROPERTIES:
            recs = recommend(prop, CSRGraph.empty(0))
            assert recs and all(isinstance(r.feasible, bool) for r in recs)

    def test_edgeless_graph_keeps_tr_feasible(self):
        """num_edges == 0 skips the triangle probe (nothing to reduce is
        not the same as provably triangle-free input data)."""
        from repro.graphs.csr import CSRGraph

        recs = recommend("connected_components", CSRGraph.empty(5))
        tr = [r for r in recs if "TR" in r.scheme_spec][0]
        assert tr.feasible

    def test_single_edge_graph_marks_tr_infeasible(self):
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.from_edges(2, [0], [1])
        recs = recommend("connected_components", g)
        tr = [r for r in recs if "TR" in r.scheme_spec][0]
        assert not tr.feasible
        assert "triangle-free" in tr.caveat

    def test_directed_weighted_combination(self):
        g = with_uniform_weights(gen.rmat(6, 4, seed=0, directed=True), seed=1)
        recs = recommend("storage", g)
        spanner = [r for r in recs if r.scheme_spec.startswith("spanner")][0]
        assert not spanner.feasible
        assert "undirected" in spanner.caveat
