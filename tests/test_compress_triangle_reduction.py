"""Tests for Triangle Reduction — the paper's novel scheme (§4.3)."""

import numpy as np
import pytest

from repro.algorithms.components import connected_components
from repro.algorithms.mst import kruskal
from repro.algorithms.triangles import count_triangles, list_triangles
from repro.compress import triangle_reduction
from repro.compress.triangle_reduction import (
    TriangleReduction,
    _draw_triangle_edges,
    _edge_once_delete_mask,
)
from repro.graphs import generators as gen
from repro.graphs.weights import with_uniform_weights


class TestBasicTR:
    def test_p_zero_is_identity(self, plc300):
        res = TriangleReduction(0.0).compress(plc300, seed=0)
        assert res.graph.num_edges == plc300.num_edges

    def test_p_one_reduces_every_listed_triangle(self, plc300):
        res = TriangleReduction(1.0).compress(plc300, seed=0)
        t = list_triangles(plc300).count
        assert res.extras["triangles_reduced"] == t
        assert res.graph.num_edges < plc300.num_edges

    def test_expected_removal_at_most_pT(self, plc300):
        """Table 2: #remaining edges is m − pT at most (overlap reduces)."""
        p = 0.5
        t = count_triangles(plc300)
        res = TriangleReduction(p).compress(plc300, seed=1)
        removed = res.edges_removed
        assert removed <= p * t + 4 * np.sqrt(t)
        assert removed > 0

    def test_triangle_free_graph_untouched(self, grid10):
        res = TriangleReduction(0.9).compress(grid10, seed=0)
        assert res.graph.num_edges == grid10.num_edges
        assert res.extras["triangles"] == 0

    def test_x2_removes_more(self, plc300):
        r1 = TriangleReduction(0.7, x=1).compress(plc300, seed=3)
        r2 = TriangleReduction(0.7, x=2).compress(plc300, seed=3)
        assert r2.graph.num_edges < r1.graph.num_edges

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TriangleReduction(0.5, x=3)
        with pytest.raises(ValueError):
            TriangleReduction(0.5, variant="unknown")
        with pytest.raises(ValueError):
            TriangleReduction(0.5, x=2, variant="max_weight")
        with pytest.raises(ValueError):
            TriangleReduction(1.2)


class TestSlotDraws:
    """Slots picked without a per-row argsort are the argsort's picks."""

    @pytest.mark.parametrize("x", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_matches_row_argsort(self, plc300, x, seed):
        eids = list_triangles(plc300).edge_ids
        idx = np.flatnonzero(np.random.default_rng(seed).random(len(eids)) < 0.6)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_triangle_edges(rng, eids, idx, x)
        slots = np.argsort(ref_rng.random((len(idx), 3)), axis=1)[:, :x]
        ref = np.take_along_axis(eids[idx], slots, axis=1)
        assert got.shape == (len(idx), x)
        assert np.array_equal(np.sort(got, axis=1), np.sort(ref, axis=1))
        assert rng.random() == ref_rng.random()  # same draws consumed

    def test_no_sampled_triangles(self, plc300):
        eids = list_triangles(plc300).edge_ids
        empty = np.empty(0, dtype=np.int64)
        for x in (1, 2):
            got = _draw_triangle_edges(np.random.default_rng(0), eids, empty, x)
            assert got.shape == (0, x)

    @pytest.mark.parametrize("block", [2, 1 << 15])
    def test_exact_ties_follow_argmin_and_argmax(self, monkeypatch, block):
        """Equal ranks pick argmin's first minimum (x = 1) and drop
        argmax's first maximum (x = 2)."""
        monkeypatch.setattr(triangle_reduction, "_TRIANGLE_BLOCK", block)
        ranks = np.array(
            [
                [0.5, 0.5, 0.5],
                [0.2, 0.2, 0.7],
                [0.7, 0.2, 0.2],
                [0.2, 0.7, 0.2],
                [0.7, 0.7, 0.2],
                [0.2, 0.7, 0.7],
                [0.7, 0.2, 0.7],
            ]
        )
        eids = 100 + np.arange(3 * len(ranks), dtype=np.int64).reshape(-1, 3)
        idx = np.arange(len(ranks))
        got = _draw_triangle_edges(_FixedRanks(ranks), eids, idx, 1)
        assert got[:, 0].tolist() == [100, 103, 107, 109, 114, 115, 119]
        assert np.array_equal(got[:, 0], eids[idx, ranks.argmin(axis=1)])
        got = _draw_triangle_edges(_FixedRanks(ranks), eids, idx, 2)
        assert got.tolist() == [
            [101, 102], [103, 104], [107, 108], [109, 111],
            [113, 114], [115, 117], [119, 120],
        ]
        assert np.array_equal(got, eids[idx[:, None], _OTHER_SLOTS[ranks.argmax(axis=1)]])


class _FixedRanks:
    """A stub rng whose ``random((b, 3))`` hands out fixed rows in order."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.at = 0

    def random(self, shape):
        out = self.rows[self.at : self.at + shape[0]]
        self.at += shape[0]
        assert out.shape == shape
        return out.copy()


#: For x = 2, the two slots kept when slot ``i`` draws the largest rank.
_OTHER_SLOTS = np.array([[1, 2], [0, 2], [0, 1]])


def _one_shot_draw(rng, edge_ids, idx, x):
    """The slot picks as one (k, 3) draw and a row argmin / argmax."""
    ranks = rng.random((len(idx), 3))
    if x == 1:
        return edge_ids[idx, ranks.argmin(axis=1)][:, None]
    return edge_ids[idx[:, None], _OTHER_SLOTS[ranks.argmax(axis=1)]]


def _one_shot_mask(num_edges, touched, drawn):
    """Edge-once deletions from one first-touch scatter of event ids."""
    first_touch = np.full(num_edges, len(touched), dtype=np.int64)
    event_of = np.repeat(np.arange(len(touched)), 3)
    np.minimum.at(first_touch, touched.ravel(), event_of)
    wins = first_touch[drawn] == np.arange(len(touched))[:, None]
    delete = np.zeros(num_edges, dtype=bool)
    delete[drawn[wins]] = True
    return delete


def _one_shot_reduce(g, p, x, variant, rng):
    eids = list_triangles(g).edge_ids
    idx = np.flatnonzero(rng.random(len(eids)) < p)
    drawn = _one_shot_draw(rng, eids, idx, x)
    if variant == "basic":
        delete = np.zeros(g.num_edges, dtype=bool)
        delete[drawn.ravel()] = True
    else:
        delete = _one_shot_mask(g.num_edges, eids[idx], drawn)
    return g.keep_edges(~delete), len(idx)


class TestTriangleBlocks:
    """Block-wise draws and first-touch scatters equal the one-shot code
    on every side of a block boundary, drawing the same numbers."""

    BLOCK = 8

    @pytest.mark.parametrize("k", [0, BLOCK - 3, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    @pytest.mark.parametrize("x", [1, 2])
    def test_draws_and_mask(self, monkeypatch, plc300, k, x):
        monkeypatch.setattr(triangle_reduction, "_TRIANGLE_BLOCK", self.BLOCK)
        eids = list_triangles(plc300).edge_ids
        pool = np.flatnonzero(np.random.default_rng(k).random(len(eids)) < 0.5)
        idx = pool[:k]
        assert len(idx) == k
        rng, ref_rng = np.random.default_rng(x), np.random.default_rng(x)
        got = _draw_triangle_edges(rng, eids, idx, x)
        ref = _one_shot_draw(ref_rng, eids, idx, x)
        assert np.array_equal(got, ref)
        assert rng.random() == ref_rng.random()  # same draws consumed
        assert np.array_equal(
            _edge_once_delete_mask(plc300.num_edges, eids, idx, got),
            _one_shot_mask(plc300.num_edges, eids[idx], ref),
        )

    @pytest.mark.parametrize(
        "p, offset",
        [(0.0, 0), (0.6, 3), (0.6, 0), (0.6, -1)],
        ids=["k0", "below", "at", "above"],
    )
    @pytest.mark.parametrize("x", [1, 2])
    @pytest.mark.parametrize("variant", ["basic", "edge_once"])
    def test_scheme_matches_one_shot(self, monkeypatch, plc300, variant, x, p, offset):
        """k = 0, k < block, k = block and k = block + 1 sampled triangles
        (the block is set to k + offset)."""
        ref_rng = np.random.default_rng(9)
        ref, k = _one_shot_reduce(plc300, p, x, variant, ref_rng)
        monkeypatch.setattr(triangle_reduction, "_TRIANGLE_BLOCK", max(k + offset, 1))
        rng = np.random.default_rng(9)
        res = TriangleReduction(p, x=x, variant=variant).compress(plc300, seed=rng)
        assert res.extras["triangles_reduced"] == k
        assert np.array_equal(res.graph.edge_src, ref.edge_src)
        assert np.array_equal(res.graph.edge_dst, ref.edge_dst)
        assert rng.random() == ref_rng.random()  # same draws consumed


class TestEdgeOnce:
    def test_edge_once_considers_each_edge_once(self, plc300):
        """At p=1 with EO, removed edges = edges that won some first-draw;
        every removal lottery touches a distinct edge."""
        res = TriangleReduction(1.0, variant="edge_once").compress(plc300, seed=2)
        assert res.graph.num_edges < plc300.num_edges

    def test_eo_deletes_at_most_one_edge_per_disjoint_triangle(self):
        """On a strip, triangles share edges; EO still leaves >= 2 edges in
        any *edge-disjoint* triangle it touches first."""
        g = gen.triangle_strip(20)
        res = TriangleReduction(1.0, variant="edge_once").compress(g, seed=4)
        # Connectivity preserved: one edge removed per triangle never cuts.
        assert connected_components(res.graph).num_components == 1

    def test_eo_preserves_components_on_clustered_graph(self, plc300):
        before = connected_components(plc300).num_components
        res = TriangleReduction(0.8, variant="edge_once").compress(plc300, seed=6)
        after = connected_components(res.graph).num_components
        # §7.2: "spanners and the EO variant of TR maintain the number of CC"
        assert after == before

    def test_kernel_path_valid(self, plc300):
        scheme = TriangleReduction(0.6, variant="edge_once")
        res = scheme.compress_via_kernels(plc300, seed=3)
        # Subgraph of the original with a plausible removal count.
        assert 0 < res.graph.num_edges <= plc300.num_edges
        for u, v in zip(res.graph.edge_src, res.graph.edge_dst):
            assert plc300.has_edge(int(u), int(v))


class TestCountTrianglesVariant:
    def test_ct_prefers_low_count_edges(self, plc300):
        """CT removes edges in few triangles first: the surviving graph
        keeps more triangles than EO at the same p (multi-triangle edges
        are protected deterministically)."""
        ct = TriangleReduction(0.5, variant="count_triangles").compress(plc300, seed=7)
        eo = TriangleReduction(0.5, variant="edge_once").compress(plc300, seed=7)
        assert count_triangles(ct.graph) >= count_triangles(eo.graph)

    def test_ct_kernel_path(self, plc300):
        res = TriangleReduction(0.5, variant="count_triangles").compress_via_kernels(
            plc300, seed=7
        )
        assert res.graph.num_edges < plc300.num_edges


class TestMaxWeight:
    def test_mst_weight_preserved_exactly(self, plc300):
        wg = with_uniform_weights(plc300, seed=11)
        before = kruskal(wg).total_weight
        for p in (0.3, 1.0):
            res = TriangleReduction(p, variant="max_weight").compress(wg, seed=1)
            after = kruskal(res.graph).total_weight
            assert after == pytest.approx(before, abs=1e-9)

    def test_mst_weight_preserved_kernel_path(self, plc300):
        wg = with_uniform_weights(plc300, seed=11)
        before = kruskal(wg).total_weight
        res = TriangleReduction(1.0, variant="max_weight").compress_via_kernels(wg, seed=1)
        assert kruskal(res.graph).total_weight == pytest.approx(before)

    def test_unweighted_graph_supported(self, plc300):
        res = TriangleReduction(0.5, variant="max_weight").compress(plc300, seed=0)
        assert res.graph.num_edges <= plc300.num_edges


class TestCollapse:
    def test_collapse_shrinks_vertices(self, plc300):
        res = TriangleReduction(0.7, variant="collapse").compress(plc300, seed=5)
        assert res.graph.n < plc300.n
        assert res.graph.num_edges < plc300.num_edges
        res.graph.validate()

    def test_collapse_count_matches_vertex_loss(self, plc300):
        res = TriangleReduction(0.7, variant="collapse").compress(plc300, seed=5)
        collapsed = res.extras["triangles_collapsed"]
        # Each collapsed triangle merges 3 vertices into 1 (loses 2).
        assert plc300.n - res.graph.n == 2 * collapsed

    def test_collapse_preserves_connectivity(self, plc300):
        before = connected_components(plc300).num_components
        res = TriangleReduction(0.9, variant="collapse").compress(plc300, seed=3)
        after = connected_components(res.graph).num_components
        assert after == before  # contraction never disconnects

    def test_collapse_mapping_is_surjective(self, plc300):
        res = TriangleReduction(0.5, variant="collapse").compress(plc300, seed=9)
        mapping = res.extras["mapping"]
        assert len(np.unique(mapping)) == res.graph.n


class TestFig6Right:
    def test_variant_reduction_ordering(self):
        """Fig. 6 (right): at fixed p, EO and CT differ from basic TR in
        removed-edge volume; all reduce, and EO/CT never remove more than
        one lottery per edge."""
        g = gen.powerlaw_cluster(500, 6, 0.8, seed=13)
        m = g.num_edges
        results = {
            v: TriangleReduction(0.5, variant=v).compress(g, seed=21).edge_reduction
            for v in ("basic", "edge_once", "count_triangles")
        }
        assert all(0 < r < 1 for r in results.values())
        # EO protects multi-triangle edges -> it removes no more than basic
        # (they coincide only when no triangles overlap).
        assert results["edge_once"] <= results["basic"] + 0.02
