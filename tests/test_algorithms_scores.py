"""PageRank, betweenness, triangles — verified against networkx oracles."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.betweenness import betweenness_centrality
from repro.algorithms import triangles
from repro.algorithms.pagerank import pagerank
from repro.algorithms.triangles import (
    count_triangles,
    edge_ids_of_pairs,
    edge_triangle_counts,
    list_triangles,
    triangles_per_vertex,
)
from repro.graphs import generators as gen
from repro.graphs.analysis import analysis_cache
from repro.graphs.csr import CSRGraph
from repro.verify.fuzz import FAMILIES
from repro.graphs import datasets
from repro.verify.oracles import oracle_triangle_count, oracle_triangle_list
from tests.conftest import to_networkx

FAMILY_GRAPHS = [
    (f"{name}.s{seed}", build(seed))
    for name, build in FAMILIES.items()
    for seed in (0, 1)
]


class TestPageRank:
    def test_vs_networkx(self, er300):
        ours = pagerank(er300).ranks
        theirs = nx.pagerank(to_networkx(er300), alpha=0.85, tol=1e-12)
        assert np.allclose(ours, [theirs[v] for v in range(er300.n)], atol=1e-6)

    def test_sums_to_one(self, plc300):
        r = pagerank(plc300)
        assert r.converged
        assert r.ranks.sum() == pytest.approx(1.0)

    def test_dangling_vertices(self):
        g = CSRGraph.from_edges(4, [0, 1], [1, 2], directed=True)  # 3 isolated
        r = pagerank(g)
        assert r.ranks.sum() == pytest.approx(1.0)
        assert np.all(r.ranks > 0)

    def test_star_ranks_center_highest(self, star20):
        r = pagerank(star20)
        assert r.top(1)[0] == 0

    def test_weighted(self, er300):
        w = np.linspace(1, 5, er300.num_edges)
        wg = er300.with_weights(w)
        r1 = pagerank(wg, weighted=True).ranks
        r2 = pagerank(wg, weighted=False).ranks
        assert not np.allclose(r1, r2)

    def test_damping_validation(self, tiny):
        with pytest.raises(ValueError):
            pagerank(tiny, damping=1.5)

    def test_empty_graph(self):
        assert pagerank(CSRGraph.empty(0)).ranks.shape == (0,)


class TestTriangles:
    def test_count_vs_networkx(self, plc300):
        truth = sum(nx.triangles(to_networkx(plc300)).values()) // 3
        assert count_triangles(plc300) == truth

    def test_listing_count_agrees(self, plc300):
        assert list_triangles(plc300).count == count_triangles(plc300)

    def test_listing_unique_and_valid(self, plc300):
        tl = list_triangles(plc300)
        seen = set()
        for (u, v, w), (e1, e2, e3) in zip(tl.vertices, tl.edge_ids):
            key = frozenset((int(u), int(v), int(w)))
            assert key not in seen
            seen.add(key)
            assert plc300.has_edge(int(u), int(v))
            assert plc300.has_edge(int(u), int(w))
            assert plc300.has_edge(int(v), int(w))
            assert plc300.edge_id(int(u), int(v)) == e1
            assert plc300.edge_id(int(u), int(w)) == e2
            assert plc300.edge_id(int(v), int(w)) == e3

    def test_per_vertex_vs_networkx(self, plc300):
        ours = triangles_per_vertex(plc300)
        theirs = nx.triangles(to_networkx(plc300))
        assert all(ours[v] == theirs[v] for v in range(plc300.n))

    def test_edge_counts_sum(self, plc300):
        # Each triangle contributes to exactly 3 edges.
        assert edge_triangle_counts(plc300).sum() == 3 * count_triangles(plc300)

    def test_complete_graph_count(self):
        g = gen.complete_graph(8)
        assert count_triangles(g) == 8 * 7 * 6 // 6

    def test_triangle_free(self, grid10):
        assert count_triangles(grid10) == 0
        assert list_triangles(grid10).count == 0

    def test_edge_ids_of_pairs_errors(self, tiny):
        with pytest.raises(KeyError):
            edge_ids_of_pairs(tiny, np.array([0]), np.array([4]))

    def test_directed_rejected(self):
        g = CSRGraph.from_edges(3, [0], [1], directed=True)
        with pytest.raises(ValueError):
            count_triangles(g)


def _fresh_count(g):
    """count_triangles with nothing cached for ``g``."""
    analysis_cache().forget(g)
    return count_triangles(g)


def _fresh_listing(g):
    analysis_cache().forget(g)
    return list_triangles(g)


class TestSparseTriangleCount:
    """The row-blocked sparse count against the join and the oracle."""

    @pytest.mark.parametrize(
        "case,g", FAMILY_GRAPHS, ids=[c for c, _ in FAMILY_GRAPHS]
    )
    def test_every_family(self, case, g):
        count = _fresh_count(g)
        assert type(count) is int
        assert count == len(_fresh_listing(g)) == oracle_triangle_count(g)

    @pytest.mark.parametrize("bound", [1, 3, 40])
    def test_small_wedge_bound_forces_blocks(self, monkeypatch, plc300, bound):
        count = _fresh_count(plc300)
        listing = _fresh_listing(plc300)
        monkeypatch.setattr(triangles, "_WEDGE_BLOCK", bound)
        optr, onbr, _, _ = triangles._oriented_arcs(plc300)
        assert len(triangles._wedge_ranges(triangles._arc_wedges(optr, onbr))) > 10
        assert _fresh_count(plc300) == count
        blocked = _fresh_listing(plc300)
        assert np.array_equal(blocked.vertices, listing.vertices)
        assert np.array_equal(blocked.edge_ids, listing.edge_ids)

    def test_single_arc_above_bound(self, monkeypatch):
        # With a bound of 2 wedges the K9 arcs into high-rank vertices
        # exceed it and each must sit in a block of its own.
        g = gen.disjoint_union(gen.complete_graph(9), gen.star_graph(12))
        expected = 9 * 8 * 7 // 6
        monkeypatch.setattr(triangles, "_WEDGE_BLOCK", 2)
        optr, onbr, _, _ = triangles._oriented_arcs(g)
        cum = triangles._arc_wedges(optr, onbr)
        assert (np.diff(cum) > 2).any()
        assert _fresh_count(g) == expected
        assert len(_fresh_listing(g)) == expected

    def test_wedge_ranges_cut(self, monkeypatch):
        monkeypatch.setattr(triangles, "_WEDGE_BLOCK", 3)
        cum = np.array([0, 0, 5, 6, 6, 20])
        ranges = triangles._wedge_ranges(cum)
        assert ranges == [(0, 1), (1, 2), (2, 4), (4, 5)]
        for lo, hi in ranges:
            assert hi - lo == 1 or cum[hi] - cum[lo] <= 3
        assert triangles._wedge_ranges(np.zeros(1, dtype=np.int64)) == []

    @pytest.mark.parametrize(
        "g",
        [
            CSRGraph.from_edges(0, [], []),
            CSRGraph.from_edges(5, [], []),
            gen.path_graph(2),
        ],
        ids=["n0", "edgeless", "one-edge"],
    )
    def test_no_wedges(self, g):
        count = _fresh_count(g)
        assert type(count) is int and count == 0

    def test_cached_listing_is_used(self, monkeypatch, plc300):
        tl = _fresh_listing(plc300)

        def boom(g):
            raise AssertionError("count recomputed despite a cached listing")

        monkeypatch.setattr(triangles, "_sparse_triangle_count", boom)
        assert count_triangles(plc300) == tl.count
        assert analysis_cache().peek(plc300, "triangle_count") is None

    def test_count_is_cached(self, monkeypatch, plc300):
        count = _fresh_count(plc300)
        monkeypatch.setattr(triangles, "_sparse_triangle_count", lambda g: -1)
        assert count_triangles(plc300) == count
        assert analysis_cache().peek(plc300, "triangle_count") == count


class TestBetweenness:
    def test_vs_networkx(self, er300):
        ours = betweenness_centrality(er300)
        theirs = nx.betweenness_centrality(to_networkx(er300))
        assert np.allclose(ours, [theirs[v] for v in range(er300.n)], atol=1e-9)

    def test_star_center(self, star20):
        bc = betweenness_centrality(star20, normalized=True)
        assert bc[0] == pytest.approx(1.0)
        assert np.allclose(bc[1:], 0.0)

    def test_path_interior(self):
        g = gen.path_graph(5)
        bc = betweenness_centrality(g, normalized=False)
        # Middle vertex lies on 2*3=... pairs: (0,3),(0,4),(1,3),(1,4),(0,2)x? exact: vertex 2 on pairs {0,1}x{3,4} = 4
        assert bc[2] == pytest.approx(4.0)

    def test_sampled_close_to_exact(self, er300):
        exact = betweenness_centrality(er300)
        approx = betweenness_centrality(er300, num_sources=150, seed=0)
        # Top-ranked vertex should agree on a dense-enough sample.
        assert np.corrcoef(exact, approx)[0, 1] > 0.9


def _assert_matches_oracle(g):
    got, ref = _fresh_listing(g), oracle_triangle_list(g)
    assert got.vertices.dtype == got.edge_ids.dtype == np.int64
    assert np.array_equal(got.vertices, ref.vertices)
    assert np.array_equal(got.edge_ids, ref.edge_ids)
    return got


class TestTriangleListing:
    """The row-block table join against the sorted-key join reference:
    same triangles, same order, same edge ids."""

    @pytest.mark.parametrize(
        "case,g", FAMILY_GRAPHS, ids=[c for c, _ in FAMILY_GRAPHS]
    )
    def test_every_family(self, case, g):
        _assert_matches_oracle(g)

    @pytest.mark.parametrize("name", ["v-ewk", "s-pok"])
    def test_stand_ins(self, name):
        assert len(_assert_matches_oracle(datasets.load(name, seed=0))) > 0

    @pytest.mark.parametrize("cells", [1, 299, 300, 301, 7 * 300 + 5])
    @pytest.mark.parametrize("wedges", [1, 2, 7, 1 << 21])
    def test_row_blocks_and_wedge_blocks_cut_anywhere(
        self, monkeypatch, plc300, cells, wedges
    ):
        # A cap below n still holds one row; one wedge per sub-block cuts
        # between every pair of arcs.
        monkeypatch.setattr(triangles, "_TABLE_CELLS", cells)
        monkeypatch.setattr(triangles, "_WEDGE_BLOCK", wedges)
        assert len(_assert_matches_oracle(plc300)) == oracle_triangle_count(plc300)

    def test_table_is_capped_and_reset(self, monkeypatch, plc300):
        monkeypatch.setattr(triangles, "_TABLE_CELLS", 3 * plc300.n + 1)
        tables = []
        zeros = np.zeros

        def spy(*args, **kwargs):
            tables.append(zeros(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(triangles.np, "zeros", spy)
        optr, onbr, arc_u, _ = triangles._oriented_arcs(plc300)
        closed = list(triangles._closed_wedges(plc300.n, optr, onbr, arc_u))
        monkeypatch.undo()
        table = next(t for t in tables if t.dtype == np.int32)
        assert table.size == 3 * plc300.n
        assert not table.any()  # every block cleared what it wrote
        assert len(closed) > 1

    @pytest.mark.parametrize(
        "g",
        [
            CSRGraph.empty(0),
            CSRGraph.empty(6),
            gen.grid_2d(7, 9),
            gen.path_graph(2),
        ],
        ids=["n0", "edgeless", "grid", "one-edge"],
    )
    def test_no_triangles(self, g):
        tl = _assert_matches_oracle(g)
        assert tl.vertices.shape == tl.edge_ids.shape == (0, 3)

    def test_isolated_vertices(self):
        g = gen.disjoint_union(
            CSRGraph.empty(4), gen.complete_graph(4), CSRGraph.empty(3)
        )
        tl = _assert_matches_oracle(g)
        assert len(tl) == 4
        assert set(np.unique(tl.vertices).tolist()) == {4, 5, 6, 7}

    def test_complete_graph(self):
        g = gen.complete_graph(50)
        tl = _assert_matches_oracle(g)
        assert len(tl) == 50 * 49 * 48 // 6
        e = tl.edge_ids
        for a, b, col in ((0, 1, 0), (0, 2, 1), (1, 2, 2)):
            assert np.array_equal(
                e[:, col], edge_ids_of_pairs(g, tl.vertices[:, a], tl.vertices[:, b])
            )

    def test_result_is_read_only(self, plc300):
        tl = _fresh_listing(plc300)
        with pytest.raises(ValueError):
            tl.edge_ids[0, 0] = 0

    def test_directed_rejected(self):
        g = CSRGraph.from_edges(3, [0, 1, 0], [1, 2, 2], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            list_triangles(g)
        with pytest.raises(ValueError, match="undirected"):
            oracle_triangle_list(g)
