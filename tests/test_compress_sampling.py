"""Tests for the graph-sampling schemes (the §2 "sampling" class)."""

import numpy as np
import pytest

from repro.algorithms.components import connected_components
from repro.compress.sampling import RandomVertexSampling, RandomWalkSampling
from repro.graphs import generators as gen


class TestVertexSampling:
    def test_expected_vertex_fraction(self, er300):
        res = RandomVertexSampling(0.5).compress(er300, seed=0)
        removed = res.extras["vertices_removed"]
        assert abs(removed - 0.5 * er300.n) < 4 * np.sqrt(0.25 * er300.n)

    def test_edge_survival_is_p_squared(self, er300):
        """Both endpoints must survive: E[m'] = p² m, the vertex-sampling
        bias the survey literature warns about."""
        p = 0.6
        sizes = [
            RandomVertexSampling(p).compress(er300, seed=s).graph.num_edges
            for s in range(8)
        ]
        assert np.mean(sizes) == pytest.approx(p**2 * er300.num_edges, rel=0.15)

    def test_kernel_path_bit_identical(self, er300):
        scheme = RandomVertexSampling(0.5)
        a = scheme.compress(er300, seed=3).graph
        b = scheme.compress_via_kernels(er300, seed=3).graph
        assert np.array_equal(a.edge_src, b.edge_src)
        assert np.array_equal(a.edge_dst, b.edge_dst)

    def test_vertex_ids_preserved_by_default(self, er300):
        res = RandomVertexSampling(0.5).compress(er300, seed=1)
        assert res.graph.n == er300.n

    def test_relabel(self, er300):
        res = RandomVertexSampling(0.5, relabel=True).compress(er300, seed=1)
        assert res.graph.n == er300.n - res.extras["vertices_removed"]
        res.graph.validate()

    def test_p_edge_cases(self, er300):
        assert RandomVertexSampling(1.0).compress(er300, seed=0).graph.num_edges == er300.num_edges
        assert RandomVertexSampling(0.0).compress(er300, seed=0).graph.num_edges == 0


class TestRandomWalkSampling:
    def test_reaches_target_fraction(self, plc300):
        res = RandomWalkSampling(0.4).compress(plc300, seed=0)
        kept = res.extras["vertices_kept"]
        assert kept >= 0.4 * plc300.n - 1

    def test_sample_is_locally_connected(self, plc300):
        """RW samples stay far more connected than independent vertex
        sampling at the same vertex budget."""
        rw = RandomWalkSampling(0.4, restart_p=0.1).compress(plc300, seed=1)
        kept_fraction = rw.extras["vertices_kept"] / plc300.n
        vs = RandomVertexSampling(kept_fraction).compress(plc300, seed=1)
        # Compare components among non-isolated vertices.
        def live_components(g):
            res = connected_components(g)
            labels = res.labels[g.degrees > 0]
            return len(np.unique(labels)) if len(labels) else 0

        assert live_components(rw.graph) <= live_components(vs.graph)

    def test_walk_respects_budget(self):
        # Disconnected graph: restarts + reseeds still terminate.
        g = gen.disjoint_union(gen.path_graph(50), gen.path_graph(50))
        res = RandomWalkSampling(0.9, max_steps_factor=50).compress(g, seed=2)
        assert res.extras["walk_steps"] <= 50 * g.n

    def test_registry(self):
        from repro.compress.registry import build_scheme

        s = build_scheme("random_walk_sampling(target_fraction=0.3, restart_p=0.2)")
        assert s.target_fraction == 0.3
        assert s.restart_p == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWalkSampling(1.5)
        with pytest.raises(ValueError):
            RandomWalkSampling(0.5, max_steps_factor=0)
