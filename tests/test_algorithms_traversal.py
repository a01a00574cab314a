"""BFS, connected components, SSSP — verified against networkx oracles."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.components import connected_components, largest_component
from repro.algorithms.sssp import delta_stepping, dijkstra, sssp
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.weights import with_uniform_weights
from repro.verify.fuzz import FAMILIES, FuzzCase, build_graph
from tests.conftest import to_networkx


class TestBFS:
    def test_levels_vs_networkx(self, er300):
        res = bfs(er300, 0)
        truth = nx.single_source_shortest_path_length(to_networkx(er300), 0)
        for v, d in truth.items():
            assert res.level[v] == d
        assert res.num_reached == len(truth)

    def test_parents_consistent(self, er300):
        res = bfs(er300, 0)
        for v in res.reached():
            if v == 0:
                assert res.parent[v] == 0
                continue
            p = res.parent[v]
            assert er300.has_edge(int(p), int(v))
            assert res.level[v] == res.level[p] + 1

    def test_unreached_marked(self):
        g = gen.disjoint_union(gen.path_graph(3), gen.path_graph(3))
        res = bfs(g, 0)
        assert res.level[3] == -1 and res.parent[3] == -1
        assert res.num_reached == 3

    def test_source_validation(self, tiny):
        with pytest.raises(ValueError):
            bfs(tiny, 99)

    def test_directed_bfs(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3], directed=True)
        res = bfs(g, 0)
        assert res.level.tolist() == [0, 1, 2, 3]
        back = bfs(g, 3)
        assert back.num_reached == 1


class TestComponents:
    def test_vs_networkx(self, er300):
        assert (
            connected_components(er300).num_components
            == nx.number_connected_components(to_networkx(er300))
        )

    def test_labels_are_min_ids(self, tiny):
        res = connected_components(tiny)
        assert res.num_components == 1
        assert np.all(res.labels == 0)

    def test_long_path_converges(self):
        g = gen.path_graph(2000)
        res = connected_components(g)
        assert res.num_components == 1

    def test_isolated_vertices(self):
        g = CSRGraph.empty(5)
        res = connected_components(g)
        assert res.num_components == 5
        assert res.sizes().tolist() == [1] * 5

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("directed", [False, True])
    def test_count_is_the_number_of_distinct_labels(self, family, directed):
        # The count is taken from the roots; it must equal the number of
        # distinct labels it replaced.
        for seed in (0, 1, 2):
            res = connected_components(build_graph(FuzzCase(family, directed, False, seed)))
            assert res.num_components == len(np.unique(res.labels))

    def test_largest_component(self):
        g = gen.disjoint_union(gen.path_graph(3), gen.complete_graph(5))
        big = largest_component(g)
        assert len(big) == 5
        assert big.tolist() == [3, 4, 5, 6, 7]


class TestSSSP:
    def test_dijkstra_vs_networkx(self, weighted300):
        res = dijkstra(weighted300, 0)
        truth = nx.single_source_dijkstra_path_length(to_networkx(weighted300), 0)
        for v, d in truth.items():
            assert res.distance[v] == pytest.approx(d)
        assert res.num_reached == len(truth)

    def test_delta_stepping_matches_dijkstra(self, weighted300):
        a = dijkstra(weighted300, 5)
        for delta in (0.5, 2.0, 100.0):
            b = delta_stepping(weighted300, 5, delta=delta)
            assert np.allclose(
                np.nan_to_num(a.distance, posinf=-1.0),
                np.nan_to_num(b.distance, posinf=-1.0),
            )

    def test_unweighted_equals_bfs(self, er300):
        levels = bfs(er300, 3).level
        dist = delta_stepping(er300, 3).distance
        finite = np.isfinite(dist)
        assert np.array_equal(np.flatnonzero(levels >= 0), np.flatnonzero(finite))
        assert np.allclose(dist[finite], levels[levels >= 0])

    def test_path_reconstruction(self, weighted300):
        res = dijkstra(weighted300, 0)
        v = int(np.argmax(np.where(np.isfinite(res.distance), res.distance, -1)))
        path = res.path_to(v)
        assert path[0] == 0 and path[-1] == v
        total = sum(
            weighted300.weight_of(weighted300.edge_id(a, b))
            for a, b in zip(path, path[1:])
        )
        assert total == pytest.approx(res.distance[v])

    def test_unreachable_path_empty(self):
        g = gen.disjoint_union(gen.path_graph(2), gen.path_graph(2))
        assert dijkstra(g, 0).path_to(3) == []

    def test_negative_weight_rejected(self, er300):
        bad = er300.with_weights(np.full(er300.num_edges, -1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            dijkstra(bad, 0)

    def test_sssp_dispatch(self, weighted300):
        for method in ("dijkstra", "delta", "auto"):
            r = sssp(weighted300, 0, method=method)
            assert r.distance[0] == 0.0
        with pytest.raises(ValueError):
            sssp(weighted300, 0, method="bogus")

    def test_invalid_delta(self, weighted300):
        with pytest.raises(ValueError):
            delta_stepping(weighted300, 0, delta=0.0)


class TestBFSValidator:
    """Graph500-style validation of BFS outputs (§5)."""

    def test_valid_output_passes(self, er300):
        from repro.algorithms.bfs import validate_bfs_tree

        res = bfs(er300, 0)
        assert validate_bfs_tree(er300, res) == []

    def test_corrupted_parent_detected(self, er300):
        import dataclasses

        from repro.algorithms.bfs import validate_bfs_tree

        res = bfs(er300, 0)
        parent = res.parent.copy()
        victim = int(res.reached()[-1])
        if victim == 0:
            victim = int(res.reached()[1])
        parent[victim] = victim  # self-parent on a non-root
        bad = dataclasses.replace(res, parent=parent)
        errors = validate_bfs_tree(er300, bad)
        assert errors

    def test_corrupted_level_detected(self, er300):
        import dataclasses

        from repro.algorithms.bfs import validate_bfs_tree

        res = bfs(er300, 0)
        level = res.level.copy()
        victim = int(res.reached()[-1])
        level[victim] += 5
        bad = dataclasses.replace(res, level=level)
        assert validate_bfs_tree(er300, bad)

    def test_validator_on_every_dataset_standin(self):
        from repro.algorithms.bfs import validate_bfs_tree
        from repro.graphs import datasets

        for name in ("s-pok", "l-dbl", "v-usa"):
            g = datasets.load(name, seed=0)
            res = bfs(g, 0)
            assert validate_bfs_tree(g, res) == [], name
