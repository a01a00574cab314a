"""Tests for vertex filters, cut sparsifier, low-rank baseline, registry."""

import numpy as np
import pytest

from repro.algorithms.betweenness import betweenness_centrality
from repro.compress.cut_sparsifier import CutSparsifier, ni_forest_indices
from repro.compress.lowrank import ClusteredLowRankApproximation
from repro.compress.registry import build_scheme
from repro.compress.vertex_filters import LowDegreeVertexRemoval
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph


class TestLowDegree:
    def test_removes_pendant_vertices(self, tiny):
        res = LowDegreeVertexRemoval().compress(tiny)
        # Vertex 4 has degree 1.
        assert res.graph.degree(4) == 0
        assert res.extras["vertices_removed"] >= 1

    def test_star_collapses(self, star20):
        res = LowDegreeVertexRemoval().compress(star20)
        assert res.graph.num_edges == 0

    def test_fixpoint_peels_trees(self):
        g = gen.balanced_tree(2, 5)
        res = LowDegreeVertexRemoval(rounds=None).compress(g)
        assert res.graph.num_edges == 0

    def test_single_round_vs_fixpoint(self):
        g = gen.path_graph(10)
        one = LowDegreeVertexRemoval(rounds=1).compress(g)
        fix = LowDegreeVertexRemoval(rounds=None).compress(g)
        assert one.graph.num_edges > fix.graph.num_edges == 0

    def test_preserves_bc_of_interior_vertices(self):
        """§4.4: degree-1 removal preserves betweenness of survivors."""
        # A clique with pendants hanging off it.
        core = gen.complete_graph(6)
        g = CSRGraph.from_edges(
            9,
            np.concatenate([core.edge_src, [0, 1, 2]]),
            np.concatenate([core.edge_dst, [6, 7, 8]]),
        )
        res = LowDegreeVertexRemoval().compress(g)
        bc0 = betweenness_centrality(g, normalized=False)
        bc1 = betweenness_centrality(res.graph, normalized=False)
        # Vertices 3,4,5 had no pendant: their BC counts shrink only by
        # paths involving removed leaves; vertices that never route leaf
        # paths (all of 3,4,5 route none in a clique) are preserved.
        assert np.allclose(bc0[[3, 4, 5]], bc1[[3, 4, 5]])

    def test_kernel_path(self, tiny):
        res = LowDegreeVertexRemoval().compress_via_kernels(tiny, seed=0)
        assert res.graph.degree(4) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LowDegreeVertexRemoval(max_degree=-1)


class TestCutSparsifier:
    def test_ni_indices_first_forest_spans(self, er300):
        idx = ni_forest_indices(er300)
        forest1 = np.flatnonzero(idx == 1)
        from repro.algorithms.components import connected_components

        sub = er300.keep_edges(idx == 1)
        assert (
            connected_components(sub).num_components
            == connected_components(er300).num_components
        )
        assert len(forest1) <= er300.n - 1

    def test_ni_indices_bounded_by_strength(self):
        g = gen.complete_graph(8)  # every edge has connectivity 7
        idx = ni_forest_indices(g)
        assert idx.max() <= 7

    def test_cut_value_preserved_in_expectation(self):
        """A planted two-cluster graph: the sparse cut survives reweighted."""
        a = gen.complete_graph(12)
        b = gen.complete_graph(12)
        g0 = gen.disjoint_union(a, b)
        bridge_src = np.concatenate([g0.edge_src, [0, 1, 2]])
        bridge_dst = np.concatenate([g0.edge_dst, [12, 13, 14]])
        g = CSRGraph.from_edges(24, bridge_src, bridge_dst)
        res = CutSparsifier(0.4, c=0.4).compress(g, seed=0)
        sub = res.graph
        # Cut between the halves, weighted.
        left = np.arange(12)
        cut_edges = (
            ((sub.edge_src < 12) & (sub.edge_dst >= 12))
            | ((sub.edge_src >= 12) & (sub.edge_dst < 12))
        )
        cut_weight = sub.edge_weights[cut_edges].sum()
        assert cut_weight == pytest.approx(3.0, abs=2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CutSparsifier(0.0)


class TestLowRank:
    def test_clique_reconstructs_exactly(self):
        """K_n adjacency is (J - I): rank 2, so rank>=2 SVD recovers it."""
        g = gen.complete_graph(10)
        res = ClusteredLowRankApproximation(2, num_clusters=1).compress(g, seed=0)
        assert res.graph.num_edges == g.num_edges

    def test_high_error_on_random_graph(self, er300):
        """§7.4: low-rank yields very high error rates on sparse graphs."""
        res = ClusteredLowRankApproximation(4, num_clusters=8, keep_intercluster=False).compress(
            er300, seed=1
        )
        # Most edges lost: symmetric difference is large.
        assert abs(res.graph.num_edges - er300.num_edges) > 0.3 * er300.num_edges

    def test_dense_storage_reported(self, er300):
        res = ClusteredLowRankApproximation(4, num_clusters=4).compress(er300, seed=2)
        assert res.extras["dense_storage_floats"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusteredLowRankApproximation(0)
        with pytest.raises(ValueError):
            ClusteredLowRankApproximation(2, num_clusters=0)


class TestRegistry:
    def test_tr_labels(self):
        s = build_scheme("0.5-1-TR")
        assert s.p == 0.5 and s.x == 1 and s.variant == "basic"
        s = build_scheme("EO-0.8-1-TR")
        assert s.variant == "edge_once" and s.p == 0.8
        s = build_scheme("CT-0.5-2-TR")
        assert s.variant == "count_triangles" and s.x == 2

    def test_named_schemes(self):
        assert build_scheme("uniform(p=0.2)").p == 0.2
        assert build_scheme("spectral(p=0.05, variant=avgdeg)").variant == "avgdeg"
        assert build_scheme("spanner(k=128)").k == 128
        assert build_scheme("summarization(epsilon=0.4)").epsilon == 0.4
        assert build_scheme("lowrank(rank=8)").rank == 8

    def test_bool_parsing(self):
        s = build_scheme("spectral(p=0.5, reweight=false)")
        assert s.reweight is False

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_scheme("zstd(level=3)")
