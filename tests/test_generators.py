"""Tests for synthetic graph generators."""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.generators import _decode_pair_ranks


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = gen.erdos_renyi(50, m=200, seed=0)
        assert g.num_edges == 200
        g.validate()

    def test_p_variant_expectation(self):
        n, p = 200, 0.05
        g = gen.erdos_renyi(n, p=p, seed=1)
        expected = p * n * (n - 1) / 2
        assert abs(g.num_edges - expected) < 5 * np.sqrt(expected)

    def test_decode_pair_ranks_exhaustive(self):
        for n in (2, 3, 5, 9):
            total = n * (n - 1) // 2
            u, v = _decode_pair_ranks(np.arange(total), n)
            expected = [(a, b) for a in range(n) for b in range(a + 1, n)]
            assert list(zip(u.tolist(), v.tolist())) == expected

    def test_rejects_both_p_and_m(self):
        with pytest.raises(ValueError):
            gen.erdos_renyi(10, p=0.5, m=5)

    def test_rejects_too_many_edges(self):
        with pytest.raises(ValueError):
            gen.erdos_renyi(4, m=100)

    def test_deterministic(self):
        a = gen.erdos_renyi(40, m=100, seed=9)
        b = gen.erdos_renyi(40, m=100, seed=9)
        assert np.array_equal(a.edge_src, b.edge_src)


class TestRMAT:
    def test_size_and_powerlaw(self):
        g = gen.rmat(10, 8, seed=3)
        assert g.n == 1024
        assert 0 < g.num_edges <= 8 * 1024
        # Heavy tail: the max degree should far exceed the average.
        assert g.degrees.max() > 5 * g.degrees.mean()

    def test_directed(self):
        g = gen.rmat(8, 4, seed=2, directed=True)
        assert g.directed

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            gen.rmat(5, 4, a=0.8, b=0.3, c=0.3)


class TestPreferentialAttachment:
    def test_powerlaw_cluster_triangles(self):
        from repro.algorithms.triangles import count_triangles

        lo = gen.powerlaw_cluster(200, 4, 0.0, seed=5)
        hi = gen.powerlaw_cluster(200, 4, 0.95, seed=5)
        assert count_triangles(hi) > count_triangles(lo)


class TestStructured:
    def test_grid_triangle_free(self):
        from repro.algorithms.triangles import count_triangles

        g = gen.grid_2d(6, 7)
        assert g.n == 42
        assert g.num_edges == 6 * 6 + 5 * 7
        assert count_triangles(g) == 0

    def test_grid_diagonals_have_triangles(self):
        from repro.algorithms.triangles import count_triangles

        g = gen.grid_2d(4, 4, diagonals=True)
        assert count_triangles(g) > 0

    def test_road_network_weighted(self):
        g = gen.road_network(8, 8, seed=1)
        assert g.is_weighted
        assert np.all(g.edge_weights >= 1.0) and np.all(g.edge_weights <= 10.0)

    def test_complete_graph(self):
        g = gen.complete_graph(7)
        assert g.num_edges == 21
        assert np.all(g.degrees == 6)

    def test_star(self):
        g = gen.star_graph(10)
        assert g.degree(0) == 9
        assert np.all(g.degrees[1:] == 1)

    def test_path_cycle(self):
        assert gen.path_graph(5).num_edges == 4
        assert gen.cycle_graph(5).num_edges == 5
        with pytest.raises(ValueError):
            gen.cycle_graph(2)

    def test_balanced_tree(self):
        g = gen.balanced_tree(2, 3)
        assert g.n == 15
        assert g.num_edges == 14

    def test_triangle_strip(self):
        from repro.algorithms.triangles import count_triangles

        g = gen.triangle_strip(6)
        assert g.n == 8
        assert count_triangles(g) == 6

    def test_watts_strogatz(self):
        g = gen.watts_strogatz(50, 4, 0.1, seed=2)
        assert g.n == 50
        assert g.num_edges <= 100
        with pytest.raises(ValueError):
            gen.watts_strogatz(10, 3, 0.1)

    def test_disjoint_union(self):
        a = gen.path_graph(3)
        b = gen.cycle_graph(4)
        u = gen.disjoint_union(a, b)
        assert u.n == 7
        assert u.num_edges == 2 + 4
        from repro.algorithms.components import connected_components

        assert connected_components(u).num_components == 2

    def test_disjoint_union_weights(self):
        a = gen.path_graph(3).with_weights(np.array([2.0, 3.0]))
        b = gen.path_graph(2)
        u = gen.disjoint_union(a, b)
        assert u.is_weighted
        assert u.total_weight() == 2.0 + 3.0 + 1.0


class TestArgumentValidation:
    """Every generator rejects invalid inputs with a ValueError naming the
    offending argument (the PR-5 validation audit)."""

    def test_erdos_renyi_needs_exactly_one_of_p_m(self):
        with pytest.raises(ValueError, match="exactly one of p or m"):
            gen.erdos_renyi(10)
        with pytest.raises(ValueError, match="exactly one of p or m"):
            gen.erdos_renyi(10, p=0.5, m=5)

    def test_erdos_renyi_rejects_negative_m(self):
        with pytest.raises(ValueError, match="m must be >= 0"):
            gen.erdos_renyi(10, m=-1)

    def test_erdos_renyi_rejects_non_integer_m(self):
        with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
            gen.erdos_renyi(10, m=2.5)
        with pytest.raises(ValueError, match="m must be an integer"):
            gen.erdos_renyi(10, m=True)

    def test_erdos_renyi_names_p_and_n(self):
        with pytest.raises(ValueError, match="p must be"):
            gen.erdos_renyi(10, p=1.5)
        with pytest.raises(ValueError, match="n must be"):
            gen.erdos_renyi(0, m=0)

    def test_rmat_names_probabilities(self):
        with pytest.raises(ValueError, match=r"a, b, c .* got a=0.9"):
            gen.rmat(4, 2, a=0.9, b=0.2, c=0.2)
        with pytest.raises(ValueError, match="got a=-0.1"):
            gen.rmat(4, 2, a=-0.1, b=0.5, c=0.5)

    def test_rmat_names_scale_and_edge_factor(self):
        with pytest.raises(ValueError, match="scale must be"):
            gen.rmat(0, 2)
        with pytest.raises(ValueError, match="edge_factor must be"):
            gen.rmat(4, 0)
        with pytest.raises(ValueError, match="scale must be an integer, got 2.5"):
            gen.rmat(2.5, 4)
        with pytest.raises(ValueError, match="edge_factor must be an integer"):
            gen.rmat(4, 2.5)

    def test_powerlaw_cluster_names_arguments(self):
        with pytest.raises(ValueError, match="m_attach must be < n, got m_attach=9 with n=8"):
            gen.powerlaw_cluster(8, 9, 0.5)
        with pytest.raises(ValueError, match="triangle_p must be"):
            gen.powerlaw_cluster(20, 3, 1.5)

    def test_watts_strogatz_names_k(self):
        with pytest.raises(ValueError, match="k must be even.*got k=3"):
            gen.watts_strogatz(10, 3, 0.1)
        with pytest.raises(ValueError, match="0 < k < n, got k=10 with n=10"):
            gen.watts_strogatz(10, 10, 0.1)
        with pytest.raises(ValueError, match="0 < k < n, got k=0"):
            gen.watts_strogatz(10, 0, 0.1)
        with pytest.raises(ValueError, match="beta must be"):
            gen.watts_strogatz(10, 4, -0.1)

    def test_grid_names_rows_cols(self):
        with pytest.raises(ValueError, match="rows must be"):
            gen.grid_2d(0, 5)
        with pytest.raises(ValueError, match="cols must be"):
            gen.grid_2d(5, 0)

    def test_road_network_names_drop_p(self):
        with pytest.raises(ValueError, match="drop_p must be"):
            gen.road_network(4, 4, drop_p=2.0)

    def test_degenerate_family_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            gen.complete_graph(0)
        with pytest.raises(ValueError, match="n must be"):
            gen.star_graph(0)
        with pytest.raises(ValueError, match="n must be"):
            gen.path_graph(-1)
        with pytest.raises(ValueError, match="n must be >= 3 for a cycle, got n=2"):
            gen.cycle_graph(2)
        with pytest.raises(ValueError, match="branching must be"):
            gen.balanced_tree(0, 2)
        with pytest.raises(ValueError, match="height must be >= 0, got height=-1"):
            gen.balanced_tree(2, -1)
        with pytest.raises(ValueError, match="num_triangles must be"):
            gen.triangle_strip(0)

    def test_disjoint_union_rejects_mixed_directedness(self):
        d = gen.rmat(3, 2, seed=0, directed=True)
        with pytest.raises(ValueError, match="directed with undirected"):
            gen.disjoint_union(d, gen.path_graph(3))


def _all_buffers(g):
    out = [g.edge_src, g.edge_dst, g.indptr, g.indices, g.arc_edge_ids]
    if g.is_weighted:
        out.append(g.edge_weights)
    return out


class TestDeterminismProperties:
    """Identical seed => bit-identical CSR buffers, for every seeded
    generator (the contract the fuzz harness's replayable case ids need)."""

    BUILDERS = {
        "erdos_renyi": lambda seed: gen.erdos_renyi(60, m=150, seed=seed),
        "erdos_renyi_p": lambda seed: gen.erdos_renyi(60, p=0.1, seed=seed),
        "rmat": lambda seed: gen.rmat(5, 4, seed=seed),
        "rmat_directed": lambda seed: gen.rmat(5, 4, seed=seed, directed=True),
        "powerlaw_cluster": lambda seed: gen.powerlaw_cluster(60, 3, 0.5, seed=seed),
        "watts_strogatz": lambda seed: gen.watts_strogatz(60, 4, 0.3, seed=seed),
        "road_network": lambda seed: gen.road_network(6, 7, seed=seed),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_same_seed_bit_identical(self, name):
        build = self.BUILDERS[name]
        a, b = build(17), build(17)
        for buf_a, buf_b in zip(_all_buffers(a), _all_buffers(b)):
            assert np.array_equal(buf_a, buf_b)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_different_seed_differs(self, name):
        build = self.BUILDERS[name]
        a, b = build(17), build(18)
        same = all(
            np.array_equal(x, y) and len(x) == len(y)
            for x, y in zip(_all_buffers(a), _all_buffers(b))
        ) and a.num_edges == b.num_edges
        assert not same, f"{name} ignored its seed"


class TestStructureProperties:
    def test_powerlaw_cluster_triangles_nondecreasing_in_triangle_p(self):
        """Fixed seed: more triangle-formation steps => more triangles."""
        from repro.algorithms.triangles import count_triangles

        for seed in (0, 7):
            counts = [
                count_triangles(gen.powerlaw_cluster(200, 4, tp, seed=seed))
                for tp in (0.0, 0.5, 1.0)
            ]
            # Coarse checkpoints: the RNG stream diverges between
            # triangle_p values, so fine-grained monotonicity is only
            # statistical; the widely-spaced trend is robust.
            assert counts == sorted(counts), f"seed {seed}: {counts}"
            assert counts[-1] > counts[0]

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (8, 9)])
    def test_grid_exact_counts(self, rows, cols):
        from repro.algorithms.triangles import count_triangles

        g = gen.grid_2d(rows, cols)
        assert g.n == rows * cols
        assert g.num_edges == rows * (cols - 1) + cols * (rows - 1)
        assert count_triangles(g) == 0

        d = gen.grid_2d(rows, cols, diagonals=True)
        cells = (rows - 1) * (cols - 1)
        assert d.num_edges == g.num_edges + cells
        assert count_triangles(d) == 2 * cells

    @pytest.mark.parametrize("branching,height", [(2, 0), (2, 3), (3, 2), (1, 4)])
    def test_balanced_tree_exact_counts(self, branching, height):
        from repro.algorithms.triangles import count_triangles

        g = gen.balanced_tree(branching, height)
        if branching > 1:
            expected_n = (branching ** (height + 1) - 1) // (branching - 1)
        else:
            expected_n = height + 1
        assert g.n == expected_n
        assert g.num_edges == expected_n - 1
        assert count_triangles(g) == 0

    @pytest.mark.parametrize("t", [1, 2, 5, 9])
    def test_triangle_strip_exact_counts(self, t):
        from repro.algorithms.triangles import count_triangles

        g = gen.triangle_strip(t)
        assert g.n == t + 2
        assert g.num_edges == 2 * t + 1
        assert count_triangles(g) == t
