"""Tests for the metamorphic compression invariants."""

import numpy as np
import pytest

from repro.compress.base import CompressionResult, StageRecord
from repro.compress.mappings import relabel_mapping
from repro.compress.registry import build_scheme, registered_schemes
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.weights import with_uniform_weights
from repro.verify import properties


@pytest.fixture
def plc_weighted(plc300):
    return with_uniform_weights(plc300, seed=4)


class TestSubgraphInvariants:
    def test_scheme_sets_cover_the_registry(self):
        """Every registered scheme is classified (subgraph or not), so a
        new scheme cannot silently skip the fuzz matrix's strictest check."""
        known = properties.SUBGRAPH_SCHEMES | {"summarization", "lowrank"}
        assert set(registered_schemes()) <= known
        assert properties.WEIGHT_PRESERVING_SCHEMES <= properties.SUBGRAPH_SCHEMES

    @pytest.mark.parametrize(
        "spec",
        [
            "uniform(p=0.5)",
            "spanner(k=4)",
            "EO-0.8-1-TR",
            "vertex_sampling(p=0.7)",
            "low_degree(max_degree=1)",
            "random_walk_sampling(target_fraction=0.5)",
        ],
    )
    def test_weight_preserving_schemes_pass(self, plc_weighted, spec):
        result = build_scheme(spec).compress(plc_weighted, seed=0)
        assert properties.subgraph_invariants(result) == []

    @pytest.mark.parametrize("spec", ["spectral(p=0.2)", "cut_sparsifier(epsilon=0.5)"])
    def test_reweighting_schemes_pass_endpoint_subset(self, plc_weighted, spec):
        result = build_scheme(spec).compress(plc_weighted, seed=0)
        assert properties.subgraph_invariants(result, weights_preserved=False) == []

    def test_foreign_edge_is_flagged(self, plc300):
        # Forge a "compression" that invents an edge not in the original.
        n = plc300.n
        fake = CSRGraph.from_edges(n, [0], [n - 1])
        if plc300.has_edge(0, n - 1):
            pytest.skip("fixture happens to contain the forged edge")
        result = CompressionResult(
            graph=fake, original=plc300, scheme="uniform", params={"p": 0.5}
        )
        msgs = properties.subgraph_invariants(result)
        assert any("do not exist in the original" in m for m in msgs)

    def test_changed_weight_is_flagged(self, plc_weighted):
        doubled = plc_weighted.with_weights(plc_weighted.edge_weights * 2.0)
        result = CompressionResult(
            graph=doubled, original=plc_weighted, scheme="uniform", params={}
        )
        msgs = properties.subgraph_invariants(result)
        assert any("weight of surviving edge" in m for m in msgs)
        assert properties.subgraph_invariants(result, weights_preserved=False) == []

    def test_vertex_change_needs_alignment(self, plc300):
        shrunk = plc300.remove_vertices([0, 1], relabel=True)
        bare = CompressionResult(
            graph=shrunk, original=plc300, scheme="vertex_sampling", params={}
        )
        msgs = properties.subgraph_invariants(bare)
        assert any("no alignment" in m for m in msgs)

        with_mapping = CompressionResult(
            graph=shrunk,
            original=plc300,
            scheme="vertex_sampling",
            params={},
            extras={"mapping": relabel_mapping(plc300.n, [0, 1])},
        )
        assert properties.subgraph_invariants(with_mapping) == []

    def test_vertex_change_still_checks_monotone_counts(self):
        """Relabeling must not disable the count-only bounds: a forged
        n-changing 'compression' that grows m is flagged."""
        sparse = gen.path_graph(6)
        dense = gen.complete_graph(5)  # n=5 < 6 but m=10 > 5
        result = CompressionResult(
            graph=dense,
            original=sparse,
            scheme="vertex_sampling",
            params={},
            extras={"mapping": relabel_mapping(6, [5])},
        )
        msgs = properties.subgraph_invariants(result)
        assert any("m never increases" in m for m in msgs)
        assert any("max degree never increases" in m for m in msgs)


class TestLineage:
    def test_chain_lineage_composes(self, plc300):
        result = build_scheme("uniform(p=0.9) | spanner(k=4)").compress(plc300, seed=1)
        assert properties.lineage_composes(result) == []
        assert len(result.lineage) == 2

    def test_single_stage_lineage(self, plc300):
        result = build_scheme("uniform(p=0.5)").compress(plc300, seed=1)
        assert properties.lineage_composes(result) == []

    def test_broken_lineage_is_flagged(self, plc300):
        sub = plc300.keep_edges(np.arange(plc300.num_edges) % 2 == 0)
        bad = StageRecord(
            scheme="uniform", params={}, vertices_in=plc300.n,
            vertices_out=plc300.n, edges_in=123, edges_out=456,
        )
        result = CompressionResult(
            graph=sub, original=plc300, scheme="uniform", params={}, lineage=(bad,),
        )
        msgs = properties.lineage_composes(result)
        assert any("starts at m=123" in m for m in msgs)
        assert any("ends at m=456" in m for m in msgs)


class TestPipelineInvariants:
    def test_tr_preserves_components(self, plc300):
        assert properties.tr_preserves_components(plc300, seed=0) == []

    def test_spanner_invariants(self, plc300):
        assert properties.spanner_invariants(plc300, k=4, seed=0) == []

    def test_spanner_stretch_violation_detected(self, monkeypatch):
        """Sanity: a fake 'spanner' that opens a long cycle must trip the
        stretch predicate (distance 1 becomes 39 against a 4k=4 bound)."""
        g = gen.cycle_graph(40)

        class FakeSpanner:
            def compress(self, graph, *, seed=None):
                mask = np.ones(graph.num_edges, dtype=bool)
                mask[0] = False
                return CompressionResult(
                    graph=graph.keep_edges(mask), original=graph,
                    scheme="spanner", params={"k": 1},
                )

        monkeypatch.setattr(properties, "build_scheme", lambda spec: FakeSpanner())
        msgs = properties.spanner_invariants(g, k=1, seed=0)
        assert any("stretch violated" in m for m in msgs)

    def test_fastpath_identity(self, plc300):
        rng = np.random.default_rng(0)
        mask = rng.random(plc300.num_edges) < 0.5
        assert properties.fastpath_identity(plc300, mask) == []

    def test_fastpath_identity_weighted_directed(self):
        g = with_uniform_weights(gen.rmat(5, 4, seed=2, directed=True), seed=3)
        rng = np.random.default_rng(1)
        mask = rng.random(g.num_edges) < 0.5
        assert properties.fastpath_identity(g, mask) == []


    def test_summary_identity(self, plc300):
        assert properties.summary_identity(plc300, seed=2) == []

    def test_summary_identity_catches_reordered_corrections(self, monkeypatch):
        from repro.compress.summarization import LossySummarization

        encode = LossySummarization._encode

        def reordered(self, g, mapping):
            summary = encode(self, g, mapping)
            summary.corrections_plus = summary.corrections_plus[::-1]
            return summary

        monkeypatch.setattr(LossySummarization, "_encode", reordered)
        msgs = properties.summary_identity(gen.powerlaw_cluster(60, 3, 0.5, seed=1))
        assert any("corrections_plus differ" in m for m in msgs)


    def test_triangle_list_identity(self, plc300):
        assert properties.triangle_list_identity(plc300) == []

    def test_triangle_list_identity_catches_reordered_triangles(self, monkeypatch):
        from repro.algorithms import triangles

        listing = triangles.list_triangles

        def reordered(g):
            tl = listing(g)
            return triangles.TriangleList(tl.edge_ids[::-1], tl.edge_src, tl.edge_dst)

        monkeypatch.setattr(triangles, "list_triangles", reordered)
        g = gen.powerlaw_cluster(60, 3, 0.5, seed=1)
        msgs = properties.triangle_list_identity(g)
        assert any("triangle vertices differ" in m for m in msgs)
        assert any("triangle edge_ids differ" in m for m in msgs)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_triangle_derive_identity(self, plc300, plc_weighted, seed):
        assert properties.triangle_derive_identity(plc300, seed=seed) == []
        assert properties.triangle_derive_identity(plc_weighted, seed=seed) == []

    def test_triangle_derive_identity_catches_a_bad_mask(self, monkeypatch):
        from repro.algorithms import triangles

        lineage_parent = triangles.lineage_parent

        def keep_everything(g, names):
            found = lineage_parent(g, names)
            return None if found is None else (found[0], np.ones_like(found[1]))

        monkeypatch.setattr(triangles, "lineage_parent", keep_everything)
        msgs = properties.triangle_derive_identity(gen.powerlaw_cluster(200, 4, 0.6, seed=1))
        assert any("derived count differs" in m for m in msgs), msgs

    @pytest.mark.parametrize("seed", [0, 3])
    def test_mst_derive_identity(self, plc300, plc_weighted, seed):
        assert properties.mst_derive_identity(plc300, seed=seed) == []
        assert properties.mst_derive_identity(plc_weighted, seed=seed) == []

    def test_mst_derive_identity_catches_an_unchecked_reweighting(self, monkeypatch):
        from repro.algorithms import mst

        # Without the weights check the spectral stage, which reweights
        # its sample but keeps the lineage link, derives a stale order.
        monkeypatch.setattr(mst, "_weights_kept", lambda parent, mask, g: True)
        msgs = properties.mst_derive_identity(gen.powerlaw_cluster(200, 4, 0.6, seed=1))
        assert any(
            m.startswith("after spectral") and "rank order differs" in m for m in msgs
        ), msgs
        assert not any(m.startswith("after uniform") for m in msgs), msgs


class TestRoundTrips:
    def test_snapshot_roundtrip(self, plc300, tmp_path):
        assert properties.snapshot_roundtrip(plc300, tmp_path) == []

    def test_snapshot_roundtrip_weighted(self, plc_weighted, tmp_path):
        assert properties.snapshot_roundtrip(plc_weighted, tmp_path) == []

    def test_store_roundtrip(self, plc300, tmp_path):
        assert properties.store_roundtrip(plc300, tmp_path) == []

    def test_baseline_replay_identity(self, plc300, plc_weighted, tmp_path):
        assert properties.baseline_replay_identity(plc300, tmp_path / "a") == []
        assert properties.baseline_replay_identity(plc_weighted, tmp_path / "b") == []

    def test_baseline_replay_identity_catches_a_bad_replay(self, plc300, tmp_path, monkeypatch):
        # A store that hands back the values in the wrong order must not
        # pass for the computed baseline.
        import repro.runner.store

        real = repro.runner.store._decode_baseline

        def reversed_vectors(adapter, array):
            value = real(adapter, array)
            return value[::-1] if isinstance(value, np.ndarray) else value

        monkeypatch.setattr(repro.runner.store, "_decode_baseline", reversed_vectors)
        msgs = properties.baseline_replay_identity(plc300, tmp_path)
        assert msgs == ["replay-store cells differ from the store-less grid"]

    def test_parallel_grid_equivalence(self, plc300):
        assert properties.parallel_grid_equivalence(plc300) == []
