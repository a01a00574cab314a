"""MST, matching, coloring, independent sets, k-cores, paths, spectra,
arboricity — against networkx oracles and known closed forms."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.arboricity import estimate_arboricity
from repro.algorithms.coloring import coloring_number, greedy_coloring
from repro.algorithms.independent_set import greedy_mis
from repro.algorithms.kcore import core_numbers
from repro.algorithms.matching import greedy_matching, maximum_matching_size
from repro.algorithms.mst import boruvka, kruskal, minimum_spanning_forest
from repro.algorithms.paths import exact_diameter, pairwise_distance, path_length_stats
from repro.algorithms.spectrum import (
    laplacian_eigenvalues,
    quadratic_form,
    quadratic_form_ratio_bounds,
    spectral_distance,
)
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.weights import with_uniform_weights
from tests.conftest import to_networkx


def assert_same_forest(g):
    """Borůvka must return exactly Kruskal's forest: ids, total, trees."""
    a, b = kruskal(g), boruvka(g)
    assert np.array_equal(a.edge_ids, b.edge_ids)
    assert b.edge_ids.dtype == np.int64
    assert a.total_weight == b.total_weight
    assert a.num_trees == b.num_trees


def _repeated_weights(g, levels, seed):
    rng = np.random.default_rng(seed)
    return g.with_weights(rng.integers(1, levels + 1, g.num_edges).astype(float))


class TestMST:
    def test_kruskal_vs_networkx(self, weighted300):
        truth = nx.minimum_spanning_tree(to_networkx(weighted300)).size(weight="weight")
        assert kruskal(weighted300).total_weight == pytest.approx(truth)

    def test_boruvka_matches_kruskal(self, weighted300):
        assert boruvka(weighted300).total_weight == kruskal(weighted300).total_weight
        assert boruvka(weighted300).num_trees == kruskal(weighted300).num_trees

    def test_forest_on_disconnected(self):
        g = gen.disjoint_union(gen.path_graph(4), gen.cycle_graph(5))
        res = kruskal(g)
        assert res.num_trees == 2
        assert len(res.edge_ids) == g.n - 2

    def test_unweighted_spanning_tree(self, er300):
        res = kruskal(er300)
        from repro.algorithms.components import connected_components

        cc = connected_components(er300).num_components
        assert len(res.edge_ids) == er300.n - cc

    def test_dispatch(self, weighted300):
        a = minimum_spanning_forest(weighted300, method="kruskal")
        b = minimum_spanning_forest(weighted300, method="boruvka")
        assert a.total_weight == pytest.approx(b.total_weight)
        with pytest.raises(ValueError):
            minimum_spanning_forest(weighted300, method="prim")

    def test_default_method_is_boruvka(self, monkeypatch, weighted300):
        from repro.algorithms import mst

        ref = kruskal(weighted300)
        monkeypatch.setattr(mst, "kruskal", lambda g: pytest.fail("ran kruskal"))
        res = minimum_spanning_forest(weighted300)
        assert np.array_equal(res.edge_ids, ref.edge_ids)
        assert res.total_weight == ref.total_weight


class TestBoruvkaBitIdentity:
    """The vectorized Borůvka is bit-identical to the Kruskal reference."""

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted(self, seed):
        g = gen.powerlaw_cluster(400, 4, 0.5, seed=seed)
        assert_same_forest(with_uniform_weights(g, 1.0, 10.0, seed=seed))

    @pytest.mark.parametrize("levels", [1, 2, 5])
    def test_repeated_weights(self, levels):
        g = gen.erdos_renyi(300, m=1200, seed=levels)
        assert_same_forest(_repeated_weights(g, levels, seed=levels))

    @pytest.mark.parametrize(
        "g",
        [
            gen.rmat(9, 8, seed=3),
            gen.grid_2d(12, 9),
            gen.complete_graph(12),
            gen.star_graph(30),
        ],
        ids=["rmat", "grid", "complete", "star"],
    )
    def test_unweighted_all_ties(self, g):
        assert not g.is_weighted
        assert_same_forest(g)

    def test_disconnected_with_isolated_vertices(self):
        g = gen.disjoint_union(
            gen.path_graph(6),
            CSRGraph.from_edges(4, [], []),
            gen.cycle_graph(7),
            gen.complete_graph(5),
        )
        assert_same_forest(g)
        assert_same_forest(_repeated_weights(g, 2, seed=1))
        assert boruvka(g).num_trees == 4 + 3

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_edgeless(self, n):
        g = CSRGraph.from_edges(n, [], [])
        assert_same_forest(g)
        res = boruvka(g)
        assert res.edge_ids.shape == (0,)
        assert res.total_weight == 0.0
        assert res.num_trees == n

    def test_directed_raises(self):
        g = CSRGraph.from_edges(3, [0, 1], [1, 2], directed=True)
        with pytest.raises(ValueError):
            boruvka(g)

    @given(
        n=st.integers(1, 40),
        m=st.integers(0, 150),
        levels=st.integers(0, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, n, m, levels, seed):
        """levels = 0 leaves the graph unweighted; otherwise weights take
        ``levels`` distinct values, so ties are common."""
        rng = np.random.default_rng(seed)
        g = CSRGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
        if levels:
            g = _repeated_weights(g, levels, seed)
        assert_same_forest(g)


class TestRankOrderLineage:
    """A keep_edges sample's Borůvka order is read off its sorted parent's
    order when it keeps the parent's weights, and sorted otherwise."""

    def _sample(self, g, p=0.5, seed=0):
        return g.keep_edges(np.random.default_rng(seed).random(g.num_edges) < p)

    def _forbid_sort(self, monkeypatch):
        from repro.algorithms import mst

        monkeypatch.setattr(mst, "_lexsort_order", lambda g: pytest.fail("sorted"))

    @pytest.mark.parametrize("levels", [0, 2, 50])
    def test_sample_derives_from_sorted_parent(self, monkeypatch, levels):
        from repro.algorithms import mst

        g = gen.powerlaw_cluster(400, 4, 0.5, seed=levels)
        if levels:
            g = _repeated_weights(g, levels, seed=levels)
        boruvka(g)  # sorts and caches the parent's order
        child = self._sample(g)
        grandchild = self._sample(child, p=0.7, seed=1)
        with monkeypatch.context() as patch:
            self._forbid_sort(patch)
            derived = [mst._rank_order(child), mst._rank_order(grandchild)]
        for order, sample in zip(derived, (child, grandchild)):
            assert np.array_equal(order, mst._lexsort_order(sample))
            assert_same_forest(sample)

    def test_reweighted_sample_is_sorted(self):
        from repro.algorithms import mst

        g = with_uniform_weights(gen.powerlaw_cluster(300, 4, 0.5, seed=1), seed=1)
        boruvka(g)
        child = self._sample(g)
        reweighted = child.with_weights(child.edge_weights[::-1].copy())
        parent, mask = mst.lineage_parent(reweighted, ("mst_rank_order",))
        assert parent is g and not mst._weights_kept(g, mask, reweighted)
        assert np.array_equal(
            mst._rank_order(reweighted), mst._lexsort_order(reweighted)
        )
        assert_same_forest(reweighted)

    def test_unsorted_or_dead_parent_is_sorted(self, monkeypatch):
        import gc

        from repro.algorithms import mst

        calls = []
        lexsort_order = mst._lexsort_order
        monkeypatch.setattr(
            mst, "_lexsort_order", lambda g: calls.append(g.num_edges) or lexsort_order(g)
        )
        g = with_uniform_weights(gen.powerlaw_cluster(300, 4, 0.5, seed=2), seed=2)
        child = self._sample(g)
        assert_same_forest(child)  # the parent was never sorted
        assert calls == [child.num_edges]
        boruvka(g)
        orphan, g_edges = self._sample(g, seed=3), g.num_edges
        del g
        gc.collect()
        assert_same_forest(orphan)
        assert calls[1:] == [g_edges, orphan.num_edges]


class TestMatching:
    def test_greedy_is_valid_matching(self, er300):
        res = greedy_matching(er300)
        touched = set()
        for e in res.edge_ids:
            u, v = int(er300.edge_src[e]), int(er300.edge_dst[e])
            assert u not in touched and v not in touched
            touched |= {u, v}
            assert res.mate[u] == v and res.mate[v] == u

    def test_greedy_is_maximal(self, er300):
        res = greedy_matching(er300)
        # No edge can be added: at least one endpoint of every edge matched.
        for u, v in zip(er300.edge_src, er300.edge_dst):
            assert res.mate[u] != -1 or res.mate[v] != -1

    def test_greedy_at_least_half_of_maximum(self, er300):
        exact = maximum_matching_size(er300)
        assert greedy_matching(er300).size >= exact / 2

    def test_exact_vs_networkx(self, plc300):
        nxg = to_networkx(plc300)
        truth = len(nx.algorithms.matching.max_weight_matching(nxg, maxcardinality=True))
        assert maximum_matching_size(plc300) == truth

    def test_orders(self, weighted300):
        for order in ("id", "random", "weight"):
            res = greedy_matching(weighted300, order=order, seed=1)
            assert res.size > 0
        with pytest.raises(ValueError):
            greedy_matching(weighted300, order="magic")


class TestColoringAndCores:
    def test_core_numbers_vs_networkx(self, plc300):
        ours = core_numbers(plc300).core
        theirs = nx.core_number(to_networkx(plc300))
        assert all(ours[v] == theirs[v] for v in range(plc300.n))

    def test_greedy_coloring_proper_all_orders(self, plc300):
        for order in (None, "degeneracy", "degree", "random"):
            res = greedy_coloring(plc300, order, seed=3)
            assert res.is_proper(plc300)

    def test_coloring_number_definition(self, plc300):
        cn = coloring_number(plc300)
        assert cn == core_numbers(plc300).degeneracy + 1
        # Greedy in reverse degeneracy order achieves it.
        assert greedy_coloring(plc300, "degeneracy").num_colors <= cn

    def test_complete_graph_coloring(self):
        g = gen.complete_graph(6)
        assert coloring_number(g) == 6
        assert greedy_coloring(g, "degeneracy").num_colors == 6

    def test_tree_coloring(self):
        g = gen.balanced_tree(3, 3)
        assert coloring_number(g) == 2

    def test_explicit_order_validation(self, tiny):
        with pytest.raises(ValueError):
            greedy_coloring(tiny, [0, 0, 1, 2, 3])


class TestIndependentSet:
    def _check_is(self, g, iset):
        members = set(iset.tolist())
        for u, v in zip(g.edge_src, g.edge_dst):
            assert not (int(u) in members and int(v) in members)

    def test_greedy_independent_and_maximal(self, er300):
        iset = greedy_mis(er300)
        self._check_is(er300, iset)
        members = set(iset.tolist())
        for v in range(er300.n):
            if v not in members:
                assert any(int(u) in members for u in er300.neighbors(v))

    def test_star_mis_is_leaves(self, star20):
        assert len(greedy_mis(star20)) == 19


class TestPaths:
    def test_exact_diameter_known(self):
        assert exact_diameter(gen.path_graph(10)) == 9
        assert exact_diameter(gen.cycle_graph(10)) == 5
        assert exact_diameter(gen.complete_graph(5)) == 1

    def test_disconnected_diameter_inf(self):
        g = gen.disjoint_union(gen.path_graph(2), gen.path_graph(2))
        assert exact_diameter(g) == float("inf")

    def test_pairwise_distance(self, weighted300):
        import networkx as nx

        d = pairwise_distance(weighted300, 0, 10)
        truth = nx.shortest_path_length(
            to_networkx(weighted300), 0, 10, weight="weight"
        )
        assert d == pytest.approx(truth)

    def test_sampled_stats_cover_exact(self, er300):
        exact = path_length_stats(er300, num_sources=None)
        sampled = path_length_stats(er300, num_sources=50, seed=2)
        assert sampled.average_length == pytest.approx(exact.average_length, rel=0.2)
        assert sampled.eccentricity_max <= exact.eccentricity_max


class TestSpectrum:
    def test_known_eigenvalues_complete(self):
        # L(K_n) eigenvalues: 0 and n (multiplicity n-1).
        vals = laplacian_eigenvalues(gen.complete_graph(6))
        assert vals[0] == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(vals[1:], 6.0, atol=1e-8)

    def test_zero_eigenvalues_count_components(self):
        g = gen.disjoint_union(gen.cycle_graph(4), gen.cycle_graph(5))
        vals = laplacian_eigenvalues(g)
        assert int((np.abs(vals) < 1e-8).sum()) == 2

    def test_quadratic_form_matches_matrix(self, weighted300):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(weighted300.n)
        from repro.algorithms.spectrum import laplacian

        direct = float(x @ (laplacian(weighted300) @ x))
        assert quadratic_form(weighted300, x) == pytest.approx(direct)

    def test_spectral_distance_zero_for_identical(self, er300):
        assert spectral_distance(er300, er300) == pytest.approx(0.0, abs=1e-9)

    def test_sparsifier_beats_uniform_on_quadratic_forms(self, plc300):
        from repro.compress.spectral import SpectralSparsifier
        from repro.compress.uniform import RandomUniformSampling

        spec = SpectralSparsifier(0.6).compress(plc300, seed=1).graph
        # Equal edge budget for uniform.
        p_keep = spec.num_edges / plc300.num_edges
        uni = RandomUniformSampling(p_keep).compress(plc300, seed=1).graph
        lo_s, hi_s = quadratic_form_ratio_bounds(plc300, spec, seed=3)
        lo_u, hi_u = quadratic_form_ratio_bounds(plc300, uni, seed=3)
        spread_s = max(abs(1 - lo_s), abs(hi_s - 1))
        spread_u = max(abs(1 - lo_u), abs(hi_u - 1))
        assert spread_s < spread_u


class TestArboricity:
    def test_tree(self):
        est = estimate_arboricity(gen.balanced_tree(2, 4))
        assert est.lower <= 1 <= max(est.upper, 1)

    def test_complete_graph(self):
        # α(K_n) = ceil(n/2); degeneracy = n-1.
        est = estimate_arboricity(gen.complete_graph(8))
        assert est.lower <= 4 <= est.upper

    def test_bracket_holds(self, plc300):
        est = estimate_arboricity(plc300)
        assert est.lower <= est.upper
