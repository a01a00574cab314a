"""Tests for divergences, reordered pairs, BFS quality, distributions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import generators as gen
from repro.metrics.bfs_quality import critical_edge_preservation, critical_edges
from repro.metrics.distributions import degree_cdf_distance, degree_histogram, fit_power_law
from repro.metrics.divergences import (
    all_divergences,
    bhattacharyya_distance,
    hellinger_distance,
    js_divergence,
    kl_divergence,
    normalize_distribution,
    total_variation,
)
from repro.metrics.ordering import (
    count_reordered_pairs,
    reordered_neighbor_pairs,
    reordered_pairs_fraction,
)
from repro.metrics.scalars import is_preserved, relative_change


class TestDivergences:
    def test_kl_zero_iff_identical(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
        q = np.array([0.5, 0.3, 0.2])
        assert kl_divergence(p, q) > 0

    def test_kl_asymmetric(self):
        p = np.array([0.9, 0.05, 0.05])
        q = np.array([0.4, 0.3, 0.3])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_kl_handles_zeros_via_smoothing(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert np.isfinite(kl_divergence(p, q))

    def test_kl_known_value(self):
        # D(Bern(1/2) || Bern(1/4)) in bits.
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log2(0.5 / 0.25) + 0.5 * np.log2(0.5 / 0.75)
        assert kl_divergence(p, q, smoothing=0.0) == pytest.approx(expected)

    def test_js_symmetric_and_bounded(self):
        p = np.array([0.7, 0.2, 0.1])
        q = np.array([0.1, 0.1, 0.8])
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))
        assert 0.0 <= js_divergence(p, q) <= 1.0

    def test_tv_and_hellinger_bounds(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert total_variation(p, q) == pytest.approx(1.0)
        assert hellinger_distance(p, q) == pytest.approx(1.0)

    def test_bhattacharyya_zero_for_identical(self):
        p = np.array([0.25, 0.75])
        assert bhattacharyya_distance(p, p) == pytest.approx(0.0, abs=1e-6)

    def test_all_divergences_keys(self):
        d = all_divergences(np.array([0.5, 0.5]), np.array([0.4, 0.6]))
        assert set(d) == {"kl", "js", "hellinger", "total_variation", "bhattacharyya"}

    def test_normalize_validation(self):
        with pytest.raises(ValueError):
            normalize_distribution(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            normalize_distribution(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_kl_nonnegative_property(self, values):
        rng = np.random.default_rng(0)
        p = np.asarray(values)
        q = rng.random(len(values)) + 0.01
        assert kl_divergence(p, q) >= -1e-9


class TestOrdering:
    def _brute(self, a, b):
        count = 0
        for i, j in itertools.combinations(range(len(a)), 2):
            if (a[i] - a[j]) * (b[i] - b[j]) < 0:
                count += 1
        return count

    def test_known_values(self):
        a = np.arange(10.0)
        assert count_reordered_pairs(a, a) == 0
        assert count_reordered_pairs(a, -a) == 45
        assert reordered_pairs_fraction(a, -a) == pytest.approx(0.45)

    def test_ties_do_not_count(self):
        a = np.array([1.0, 1.0, 2.0])
        b = np.array([2.0, 1.0, 3.0])
        # Pair (0,1) tied in a -> not discordant even though b orders them.
        assert count_reordered_pairs(a, b) == self._brute(a, b) == 0

    @given(
        st.lists(st.integers(0, 8), min_size=2, max_size=40),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, values, seed):
        a = np.asarray(values, dtype=float)
        rng = np.random.default_rng(seed)
        b = rng.integers(0, 8, size=len(a)).astype(float)
        assert count_reordered_pairs(a, b) == self._brute(a, b)

    def test_neighbor_pairs(self, tiny):
        before = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        after = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        # Every adjacent pair flips (no ties).
        assert reordered_neighbor_pairs(tiny, before, after) == 1.0
        assert reordered_neighbor_pairs(tiny, before, before) == 0.0

    def test_empty(self):
        assert reordered_pairs_fraction(np.array([]), np.array([])) == 0.0


class TestBFSQuality:
    def test_fig4_classification(self):
        """Hand-checked classification on a 2-level example.

        root 0 - {1, 2}; 1-2 intra-level; {1,2} - 3.
        """
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.from_edges(4, [0, 0, 1, 1, 2], [1, 2, 2, 3, 3])
        ce = critical_edges(g, 0)
        # Critical: (0,1), (0,2), (1,3), (2,3). Non-critical: (1,2).
        assert ce.num_critical == 4
        crit = {
            (int(g.edge_src[e]), int(g.edge_dst[e]))
            for e in np.flatnonzero(ce.critical_mask)
        }
        assert crit == {(0, 1), (0, 2), (1, 3), (2, 3)}
        # Tree: 3 edges (n reached - 1).
        assert ce.num_tree == 3
        assert ce.num_potential == 1

    def test_identity_preservation(self, plc300):
        assert critical_edge_preservation(plc300, plc300, 0) == pytest.approx(1.0)

    def test_spanner_preservation_decreases_with_k(self):
        from repro.compress.spanner import Spanner

        g = gen.powerlaw_cluster(500, 6, 0.5, seed=3)
        values = [
            critical_edge_preservation(
                g, Spanner(k).compress(g, seed=1).graph, 0
            )
            for k in (2, 8, 32)
        ]
        assert values[0] >= values[1] >= values[2]
        assert values[0] > 0.4

    def test_tree_edges_always_critical(self, plc300):
        ce = critical_edges(plc300, 5)
        assert np.all(ce.critical_mask[ce.tree_mask])


class TestDistributions:
    def test_histogram_fractions(self, plc300):
        values, fractions = degree_histogram(plc300)
        assert np.all(np.diff(values) > 0)
        assert fractions.sum() == pytest.approx(
            (plc300.degrees > 0).sum() / plc300.n
        )

    def test_cdf_distance_identity(self, plc300):
        assert degree_cdf_distance(plc300, plc300) == 0.0

    def test_cdf_distance_detects_sampling(self, plc300):
        from repro.compress.uniform import RandomUniformSampling

        sub = RandomUniformSampling(0.3).compress(plc300, seed=0).graph
        assert degree_cdf_distance(plc300, sub) > 0.05

    def test_power_law_fit_on_powerlaw_cluster(self):
        g = gen.powerlaw_cluster(2000, 3, 0.1, seed=0)
        fit = fit_power_law(g)
        assert 1.0 < fit.slope < 4.5
        assert fit.residual > 0

    def test_fit_degenerate(self):
        g = gen.path_graph(2)
        fit = fit_power_law(g)
        assert fit.slope == 0.0


class TestScalars:
    def test_relative_change(self):
        assert relative_change(10, 5) == -0.5
        assert relative_change(0, 0) == 0.0
        assert relative_change(0, 1) == float("inf")

    def test_is_preserved(self):
        assert is_preserved(10, 10)
        assert not is_preserved(10, 9)
        assert is_preserved(10, 9.5, rel_tol=0.1)
