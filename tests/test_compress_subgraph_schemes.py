"""Tests for mappings, spanners, and lossy summarization (§4.5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.bfs import bfs
from repro.algorithms.components import connected_components
from repro.compress.mappings import (
    beta_for_spanner,
    jaccard_minhash_clustering,
    jaccard_similarity,
    low_diameter_decomposition,
)
from repro.compress.spanner import Spanner
from repro.compress.summarization import GraphSummary, LossySummarization, _budget_walk
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.verify.fuzz import FAMILIES, FuzzCase, build_graph
from repro.verify.oracles import (
    oracle_budget_walk,
    oracle_decompress,
    oracle_ldd,
    oracle_summary,
    oracle_triangle_list,
)


class TestLDD:
    def test_mapping_covers_all_vertices(self, plc300):
        ldd = low_diameter_decomposition(plc300, beta=0.5, seed=0)
        assert ldd.mapping.shape == (plc300.n,)
        assert ldd.mapping.min() == 0
        assert ldd.mapping.max() == ldd.num_clusters - 1

    def test_clusters_are_connected(self, plc300):
        ldd = low_diameter_decomposition(plc300, beta=0.5, seed=0)
        mapping = ldd.mapping
        intra = mapping[plc300.edge_src] == mapping[plc300.edge_dst]
        labels = connected_components(plc300.keep_edges(intra)).labels
        for c in range(ldd.num_clusters):
            assert len(np.unique(labels[mapping == c])) == 1

    def test_parent_edges_form_intra_cluster_forest(self, plc300):
        ldd = low_diameter_decomposition(plc300, beta=0.5, seed=0)
        eids = ldd.parent_edge_ids
        for v in range(plc300.n):
            e = eids[v]
            if e < 0:
                continue
            u, w = int(plc300.edge_src[e]), int(plc300.edge_dst[e])
            assert v in (u, w)
            other = u if v == w else w
            assert ldd.mapping[other] == ldd.mapping[v]
        # Tree edges count = n - #clusters.
        assert int((eids >= 0).sum()) == plc300.n - ldd.num_clusters

    def test_beta_controls_cluster_count(self, plc300):
        few = low_diameter_decomposition(plc300, beta=0.05, seed=1).num_clusters
        many = low_diameter_decomposition(plc300, beta=5.0, seed=1).num_clusters
        assert few < many

    def test_beta_validation(self, plc300):
        with pytest.raises(ValueError):
            low_diameter_decomposition(plc300, beta=0.0)


def _ldd_weights(m: int, kind: str, rng) -> np.ndarray:
    w = rng.uniform(1.0, 10.0, m)
    if kind == "unit":
        return np.ones(m)
    if kind == "exponential":
        return rng.exponential(1.0, m)
    if kind == "zero":
        w[rng.random(m) < 0.3] = 0.0
    elif kind == "negative":
        w[rng.random(m) < 0.2] *= -0.1
    return w


def assert_same_ldd(got, ref):
    assert np.array_equal(got.mapping, ref.mapping)
    assert np.array_equal(got.centers, ref.centers)
    assert np.array_equal(got.parent_edge_ids, ref.parent_edge_ids)
    assert got.num_clusters == ref.num_clusters


class _FixedShifts(np.random.Generator):
    """A generator whose exponential draw is a fixed shift vector."""

    def __init__(self, shifts):
        super().__init__(np.random.PCG64(0))
        self.shifts = shifts

    def exponential(self, scale=1.0, size=None):
        return self.shifts.copy()


class TestLDDMatchesHeapOracle:
    """The frontier rounds are bit-identical to the heap Dijkstra."""

    @pytest.mark.parametrize(
        "weights", [None, "unit", "uniform", "exponential", "zero", "negative"]
    )
    @pytest.mark.parametrize("directed", [False, True], ids=["und", "dir"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fuzz_families(self, family, directed, weights):
        for seed in (0, 1):
            g = build_graph(FuzzCase(family, directed, False, seed))
            if weights is not None:
                rng = np.random.default_rng(seed)
                g = g.with_weights(_ldd_weights(g.num_edges, weights, rng))
            for k in (2, 4, 8, 32):
                beta = beta_for_spanner(g, k)
                for weighted in {False, weights is not None}:
                    assert_same_ldd(
                        low_diameter_decomposition(
                            g, beta, seed=seed, weighted=weighted
                        ),
                        oracle_ldd(g, beta, seed=seed, weighted=weighted),
                    )

    @pytest.mark.parametrize("weighted", [False, True], ids=["hops", "int_weights"])
    @pytest.mark.parametrize("graph", ["grid", "plc300"])
    def test_tied_candidates(self, plc300, graph, weighted):
        """Integer shifts and lengths make several candidates reach a
        vertex at the same distance, from different centers and from one
        center along different edges: the winner is the least (d,
        center, edge), as the heap pops it."""
        g = gen.grid_2d(7, 7) if graph == "grid" else plc300
        rng = np.random.default_rng(4)
        if weighted:
            g = g.with_weights(rng.integers(1, 3, g.num_edges).astype(np.float64))
        for _ in range(8):
            shifts = rng.integers(0, 4, g.n).astype(np.float64)
            assert_same_ldd(
                low_diameter_decomposition(
                    g, 1.0, seed=_FixedShifts(shifts), weighted=weighted
                ),
                oracle_ldd(g, 1.0, seed=_FixedShifts(shifts), weighted=weighted),
            )

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless_graphs(self, n):
        g = CSRGraph.from_edges(n, [], [])
        got = low_diameter_decomposition(g, 1.0, seed=3)
        assert_same_ldd(got, oracle_ldd(g, 1.0, seed=3))
        assert got.num_clusters == n
        assert (got.parent_edge_ids == -1).all()

    def test_isolated_vertices(self):
        g = CSRGraph.from_edges(12, [0, 1, 2, 6], [1, 2, 3, 7])
        for seed in range(5):
            assert_same_ldd(
                low_diameter_decomposition(g, 0.5, seed=seed),
                oracle_ldd(g, 0.5, seed=seed),
            )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weights_rejected(self, bad):
        g = gen.path_graph(4).with_weights(np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError, match=r"finite.*edge 1 \(1, 2\)"):
            low_diameter_decomposition(g, 1.0, seed=0, weighted=True)
        # Unweighted waves ignore the weights.
        low_diameter_decomposition(g, 1.0, seed=0)


class TestJaccardClustering:
    def test_valid_compact_mapping(self, plc300):
        mapping = jaccard_minhash_clustering(plc300, seed=0)
        assert mapping.shape == (plc300.n,)
        assert mapping.max() == len(np.unique(mapping)) - 1

    def test_twins_merge(self):
        """Vertices with identical neighborhoods must land together."""
        # Two 'twin' leaves attached to the same clique.
        g = CSRGraph.from_edges(
            6, [0, 0, 1, 1, 2, 4, 5, 4, 5], [1, 2, 2, 3, 3, 0, 0, 1, 1]
        )
        mapping = jaccard_minhash_clustering(g, threshold=0.5, seed=3)
        assert mapping[4] == mapping[5]

    def test_cluster_size_cap(self, plc300):
        mapping = jaccard_minhash_clustering(plc300, threshold=0.0, max_cluster_size=4, seed=1)
        _, counts = np.unique(mapping, return_counts=True)
        assert counts.max() <= 4

    def test_jaccard_similarity_values(self, tiny):
        assert jaccard_similarity(tiny, 0, 0) == 1.0
        # 0 and 1 are adjacent and share neighbor 2.
        assert 0 < jaccard_similarity(tiny, 0, 1) <= 1.0

    def test_threshold_validation(self, plc300):
        with pytest.raises(ValueError):
            jaccard_minhash_clustering(plc300, threshold=2.0)


class TestSpanner:
    def test_preserves_connectivity(self, plc300):
        before = connected_components(plc300).num_components
        for k in (2, 4, 16):
            res = Spanner(k).compress(plc300, seed=0)
            assert connected_components(res.graph).num_components == before

    def test_larger_k_sparser(self, plc300):
        m2 = Spanner(2).compress(plc300, seed=1).graph.num_edges
        m16 = Spanner(16).compress(plc300, seed=1).graph.num_edges
        assert m16 <= m2

    def test_stretch_bounded(self, plc300):
        """Sampled pairwise distances grow by at most O(k)."""
        k = 4
        res = Spanner(k).compress(plc300, seed=2)
        lv0 = bfs(plc300, 0).level
        lv1 = bfs(res.graph, 0).level
        reached = lv0 > 0
        assert np.all(lv1[reached] > 0)  # still reachable
        stretch = lv1[reached] / lv0[reached]
        assert stretch.max() <= 4 * k

    def test_edge_budget(self, plc300):
        """m' = O(n^{1+1/k}): check with a generous constant."""
        for k in (2, 8):
            m = Spanner(k).compress(plc300, seed=3).graph.num_edges
            assert m <= 6 * plc300.n ** (1 + 1 / k) * (1 + np.log(k))

    def test_kernel_path_identical_to_fast_path(self, plc300):
        """Same seed -> same LDD -> both paths keep exactly the same edges."""
        scheme = Spanner(4)
        a = scheme.compress(plc300, seed=5).graph
        b = scheme.compress_via_kernels(plc300, seed=5).graph
        assert a.num_edges == b.num_edges
        assert np.array_equal(a.edge_src, b.edge_src)
        assert np.array_equal(a.edge_dst, b.edge_dst)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            Spanner(0.5)


class TestSummarization:
    def test_lossless_roundtrip(self, plc300):
        res = LossySummarization(0.0).compress(plc300, seed=0)
        assert res.graph.num_edges == plc300.num_edges
        assert np.array_equal(res.graph.edge_src, plc300.edge_src)
        assert np.array_equal(res.graph.edge_dst, plc300.edge_dst)

    def test_lossless_roundtrip_many_seeds(self):
        for seed in range(4):
            g = gen.powerlaw_cluster(150, 4, 0.7, seed=seed)
            res = LossySummarization(0.0).compress(g, seed=seed)
            assert res.graph.num_edges == g.num_edges

    def test_storage_never_exceeds_input(self, plc300):
        """The MDL rule only creates superedges that shrink the encoding."""
        res = LossySummarization(0.0).compress(plc300, seed=0)
        assert res.extras["storage_edges"] <= plc300.num_edges

    def test_epsilon_bounds_neighborhood_error(self, plc300):
        from repro.theory.bounds import summary_neighborhoods

        eps = 0.4
        res = LossySummarization(eps).compress(plc300, seed=1)
        check = summary_neighborhoods(plc300, res.graph, eps)
        assert check.holds, check

    def test_epsilon_bounds_edge_count(self, plc300):
        from repro.theory.bounds import summary_edges

        eps = 0.3
        res = LossySummarization(eps).compress(plc300, seed=2)
        assert summary_edges(plc300.num_edges, res.graph.num_edges, eps).holds

    def test_larger_epsilon_drops_more(self, plc300):
        small = LossySummarization(0.1).compress(plc300, seed=3)
        large = LossySummarization(0.8).compress(plc300, seed=3)
        diff_small = abs(small.graph.num_edges - plc300.num_edges)
        diff_large = abs(large.graph.num_edges - plc300.num_edges)
        assert diff_large >= diff_small

    @pytest.mark.parametrize(
        "g",
        [None, gen.complete_graph(12), gen.rmat(9, 8, seed=0)],
        ids=["plc300", "complete12", "rmat9x8"],
    )
    def test_kernel_path_matches_fast_path_lossless(self, plc300, g):
        g = plc300 if g is None else g
        scheme = LossySummarization(0.0)
        fast = scheme.summarize(g, seed=4)
        res = scheme.compress_via_kernels(g, seed=4)
        kern = res.extras["summary"]

        def canonical(pairs):
            return {(min(u, v), max(u, v)) for u, v in pairs}

        assert np.array_equal(kern.mapping, fast.mapping)
        assert set(map(tuple, kern.superedges.tolist())) == set(
            map(tuple, fast.superedges.tolist())
        )
        assert canonical(kern.corrections_plus) == canonical(fast.corrections_plus)
        assert canonical(kern.corrections_minus) == canonical(fast.corrections_minus)
        assert res.graph.num_edges == g.num_edges

    def test_summary_decompress_dense_cluster(self):
        """A clique cluster should be encoded as one self-superedge."""
        g = gen.complete_graph(8)
        scheme = LossySummarization(0.0, threshold=0.2)
        summary = scheme.summarize(g, seed=0)
        assert summary.num_supervertices < 8
        approx = summary.decompress()
        assert approx.num_edges == g.num_edges

    def test_summary_object_fields(self, plc300):
        summary = LossySummarization(0.2).summarize(plc300, seed=5)
        assert isinstance(summary, GraphSummary)
        assert summary.storage_edges() == (
            len(summary.superedges)
            + len(summary.corrections_plus)
            + len(summary.corrections_minus)
        )

    def test_directed_rejected(self):
        g = CSRGraph.from_edges(3, [0], [1], directed=True)
        with pytest.raises(ValueError):
            LossySummarization(0.1).compress(g)


def assert_same_summary(got, ref):
    assert got.num_vertices == ref.num_vertices
    assert np.array_equal(got.mapping, ref.mapping)
    assert np.array_equal(got.superedges, ref.superedges)
    assert np.array_equal(got.corrections_plus, ref.corrections_plus)
    assert np.array_equal(got.corrections_minus, ref.corrections_minus)
    a, b = got.decompress(), oracle_decompress(ref)
    for attr in ("indptr", "indices", "edge_src", "edge_dst", "arc_edge_ids"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


def assert_walks_agree(pairs, budget, seed):
    """The rounds walk returns the loop's kept pairs in order, leaves the
    same budgets and draws the same random numbers."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    fast_budget = np.array(budget, dtype=np.int64)
    loop_budget = fast_budget.copy()
    fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    kept = _budget_walk(pairs, fast_budget, fast_rng)
    ref = oracle_budget_walk(
        [tuple(p) for p in pairs.tolist()], loop_budget, loop_rng
    )
    assert kept.dtype == np.int64 and kept.shape == (len(ref), 2)
    assert [tuple(p) for p in kept.tolist()] == ref
    assert np.array_equal(fast_budget, loop_budget)
    assert fast_rng.random() == loop_rng.random()
    return kept, fast_budget


@st.composite
def walk_inputs(draw, max_n=12, max_k=60):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(0, max_k))
    u = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    shift = draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k))
    budget = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    pairs = [(a, (a + s) % n) for a, s in zip(u, shift)]
    return pairs, budget, draw(st.integers(0, 2**31 - 1))


class TestBudgetWalk:
    """``_budget_walk`` (exact rounds) against the sequential loop of
    :func:`repro.verify.oracles.oracle_budget_walk`."""

    def test_no_pairs_draws_nothing(self):
        kept, budget = assert_walks_agree([], [2, 2, 2], seed=0)
        assert kept.shape == (0, 2)
        assert budget.tolist() == [2, 2, 2]
        rng = np.random.default_rng(0)
        _budget_walk(np.empty((0, 2), dtype=np.int64), np.zeros(3, np.int64), rng)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize(
        "budget, dropped", [([1, 1], True), ([0, 3], False), ([3, 0], False)]
    )
    def test_one_pair(self, budget, dropped):
        kept, left = assert_walks_agree([(0, 1)], budget, seed=1)
        assert len(kept) == (0 if dropped else 1)
        assert left.tolist() == ([b - 1 for b in budget] if dropped else budget)

    def test_all_budgets_zero_keep_everything_in_walk_order(self):
        pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
        kept, _ = assert_walks_agree(pairs, [0, 0, 0, 0], seed=2)
        order = np.random.default_rng(2).permutation(len(pairs))
        assert kept.tolist() == [list(pairs[i]) for i in order]

    @pytest.mark.parametrize("seed", range(4))
    def test_budget_equal_to_incidence_count(self, seed):
        # Vertex 0 meets six pairs and may drop exactly six.
        pairs = [(0, v) for v in range(1, 7)] + [(1, 2), (3, 4), (5, 6)]
        kept, left = assert_walks_agree(pairs, [6, 9, 9, 9, 9, 9, 9], seed)
        assert len(kept) == 0 and left[0] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_star_hub_with_budget_one(self, seed):
        pairs = [(0, leaf) for leaf in range(1, 10)]
        kept, left = assert_walks_agree(pairs, [1] + [1] * 9, seed)
        assert len(kept) == 8 and left[0] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_minus_then_plus_share_one_budget(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 15
        budget = rng.integers(0, 4, n)
        u = rng.integers(0, n, (2, 40))
        v = (u + rng.integers(1, n, (2, 40))) % n
        minus = np.column_stack([u[0], v[0]])
        plus = np.column_stack([u[1], v[1]])
        fast_budget, loop_budget = budget.copy(), budget.copy()
        fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = [_budget_walk(p, fast_budget, fast_rng) for p in (minus, plus)]
        loop = [
            oracle_budget_walk([tuple(r) for r in p.tolist()], loop_budget, loop_rng)
            for p in (minus, plus)
        ]
        for got, ref in zip(fast, loop):
            assert [tuple(r) for r in got.tolist()] == ref
        assert np.array_equal(fast_budget, loop_budget)
        assert (fast_budget >= 0).all()

    @given(walk_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop(self, data):
        pairs, budget, seed = data
        assert_walks_agree(pairs, budget, seed)


class TestSummarizationMatchesOracle:
    """The numpy summary is the loop reference's, field for field and in
    order, for every seed."""

    @pytest.mark.parametrize("max_cluster_size", [4, 32])
    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("epsilon", [0.0, 0.4])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fuzz_families(self, family, epsilon, threshold, max_cluster_size):
        kw = dict(threshold=threshold, max_cluster_size=max_cluster_size)
        for seed in (0, 1, 2):
            g = build_graph(FuzzCase(family, False, False, seed))
            assert_same_summary(
                LossySummarization(epsilon, **kw).summarize(g, seed=seed),
                oracle_summary(g, epsilon=epsilon, seed=seed, **kw),
            )

    @pytest.mark.parametrize("batch", [1, 7])
    def test_batched_clustering(self, monkeypatch, batch):
        """Groups split across many pair batches cluster the same way."""
        import repro.compress.mappings as mappings

        monkeypatch.setattr(mappings, "_PAIR_BATCH", batch)
        for family in ("powerlaw_cluster", "degenerate"):
            g = build_graph(FuzzCase(family, False, False, 1))
            assert_same_summary(
                LossySummarization(0.4).summarize(g, seed=3),
                oracle_summary(g, epsilon=0.4, seed=3),
            )

    @pytest.mark.parametrize("num_hashes", [1, 3])
    @pytest.mark.parametrize("max_cluster_size", [0, 1, 2])
    def test_dense_and_degenerate_inputs(self, max_cluster_size, num_hashes):
        kw = dict(max_cluster_size=max_cluster_size, num_hashes=num_hashes)
        graphs = [
            CSRGraph.from_edges(1, [], []),
            CSRGraph.from_edges(12, [0, 1, 2, 6], [1, 2, 3, 7]),
            gen.star_graph(40),
            gen.complete_graph(12),
        ]
        for g in graphs:
            for seed in range(3):
                assert_same_summary(
                    LossySummarization(1.0, **kw).summarize(g, seed=seed),
                    oracle_summary(g, epsilon=1.0, seed=seed, **kw),
                )

    def test_empty_graph(self):
        summary = LossySummarization(0.4).summarize(CSRGraph.from_edges(0, [], []))
        assert summary.members() == []
        assert summary.storage_edges() == 0
        assert summary.decompress().n == 0

    def test_no_scipy_import(self):
        """The summarization path stays scipy-free: importing scipy.sparse
        alone costs the grid-structural workload about 22 MB of RSS."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import sys\n"
            "from repro.compress.summarization import LossySummarization\n"
            "from repro.graphs import generators as gen\n"
            "LossySummarization(0.4).compress(gen.powerlaw_cluster(200, 4, 0.5, seed=1))\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr


class TestSummaryStorage:
    """Summary serialization: the storage use case of the paper's title."""

    def test_roundtrip(self, plc300, tmp_path):
        from repro.compress.summarization import (
            LossySummarization,
            load_summary,
            save_summary,
        )

        summary = LossySummarization(0.2).summarize(plc300, seed=0)
        path = tmp_path / "summary.npz"
        save_summary(summary, path)
        back = load_summary(path)
        assert back.num_vertices == summary.num_vertices
        assert np.array_equal(back.superedges, summary.superedges)
        assert np.array_equal(back.corrections_plus, summary.corrections_plus)
        assert np.array_equal(back.corrections_minus, summary.corrections_minus)
        a = summary.decompress()
        b = back.decompress()
        assert a.num_edges == b.num_edges
        assert np.array_equal(a.edge_src, b.edge_src)

    def test_lossless_file_roundtrips_graph(self, plc300, tmp_path):
        from repro.compress.summarization import (
            LossySummarization,
            load_summary,
            save_summary,
        )

        summary = LossySummarization(0.0).summarize(plc300, seed=1)
        path = tmp_path / "lossless.npz"
        save_summary(summary, path)
        restored = load_summary(path).decompress()
        assert restored.num_edges == plc300.num_edges
        assert np.array_equal(restored.edge_src, plc300.edge_src)

    GOOD = dict(
        num_vertices=np.array([4]),
        mapping=np.array([0, 0, 1, 2]),
        superedges=np.array([[0, 1]]),
        corrections_plus=np.array([[2, 3]]),
        corrections_minus=np.array([[0, 2]]),
    )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("superedges", None, "no 'superedges' array"),
            ("mapping", None, "no 'mapping' array"),
            ("superedges", np.array([0, 1]), r"superedges must have shape \(k, 2\)"),
            ("corrections_plus", np.zeros((2, 3), dtype=np.int64), "corrections_plus must have shape"),
            ("mapping", np.array([0, 0, 1]), "mapping must have num_vertices=4 entries"),
            ("mapping", np.array([0, -1, 1, 2]), "mapping holds supervertex ids"),
            ("mapping", np.array([0, 0, 1, 9]), "mapping holds supervertex ids"),
            ("superedges", np.array([[0, 9]]), r"superedges holds supervertex ids outside \[0, 3\)"),
            ("superedges", np.array([[-1, 0]]), "superedges holds supervertex ids"),
            ("corrections_plus", np.array([[2, 4]]), r"corrections_plus holds vertex ids outside \[0, 4\)"),
            ("corrections_minus", np.array([[-3, 1]]), "corrections_minus holds vertex ids"),
            ("num_vertices", np.array([-1]), "num_vertices must be one non-negative"),
            ("num_vertices", np.array([4, 4]), "num_vertices must be one non-negative"),
            ("mapping", np.array([0.0, 0.0, 1.0, 2.0]), "mapping must hold integers"),
        ],
    )
    def test_untrusted_file_rejected(self, tmp_path, field, value, message):
        from repro.compress.summarization import load_summary

        arrays = dict(self.GOOD)
        if value is None:
            del arrays[field]
        else:
            arrays[field] = value
        path = tmp_path / "bad.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=message):
            load_summary(path)

    @pytest.mark.parametrize("damage", ["reversed", "duplicated", "self_loops", "covered"])
    def test_loaded_correction_rows_decompress_like_oracle(self, tmp_path, damage):
        """Correction rows from a file are untrusted: reversed, repeated,
        self-loop or already-covered pairs decompress exactly as the
        reference does."""
        from repro.compress.summarization import load_summary, save_summary

        g = build_graph(FuzzCase("near_cliques", False, False, 0))
        summary = LossySummarization(
            0.0, threshold=0.6, max_cluster_size=4
        ).summarize(g, seed=0)
        assert len(summary.superedges) and len(summary.corrections_minus)
        cp, cm = summary.corrections_plus, summary.corrections_minus
        if damage == "reversed":
            cp, cm = cp[:, ::-1], cm[::2, ::-1]
        elif damage == "duplicated":
            cp, cm = np.concatenate([cp, cp[::3]]), np.concatenate([cm[::-1], cm])
        elif damage == "self_loops":
            loops = np.repeat(np.arange(0, g.n, 7), 2).reshape(-1, 2)
            cp, cm = np.concatenate([loops, cp]), np.concatenate([cm, loops])
        else:
            u, v = summary._covered_pairs()
            covered = np.column_stack([u, v])
            cp = np.concatenate([cp, covered[::5], covered[1::5, ::-1]])
            cm = np.concatenate([cm, covered[2::9]])
        summary.corrections_plus, summary.corrections_minus = cp, cm
        path = tmp_path / "damaged.npz"
        save_summary(summary, path)
        loaded = load_summary(path)
        got, ref = loaded.decompress(), oracle_decompress(loaded)
        for attr in ("indptr", "indices", "arc_edge_ids", "edge_src", "edge_dst"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr
        assert got.edge_weights is None and ref.edge_weights is None
        got.validate()

    def test_saved_arrays_are_int64_rows(self, tmp_path, plc300):
        from repro.compress.summarization import save_summary

        summary = LossySummarization(0.2).summarize(plc300, seed=0)
        summary.corrections_plus = summary.corrections_plus[:, ::-1].astype(np.int32)
        path = tmp_path / "s.npz"
        save_summary(summary, path)
        with np.load(path) as z:
            for name in ("superedges", "corrections_plus", "corrections_minus"):
                arr = z[name]
                assert arr.dtype == np.int64 and arr.ndim == 2 and arr.shape[1] == 2
                assert arr.flags.c_contiguous
            assert np.array_equal(z["corrections_plus"], summary.corrections_plus)

    def test_valid_hand_written_file_loads(self, tmp_path):
        from repro.compress.summarization import load_summary

        path = tmp_path / "good.npz"
        np.savez(path, **self.GOOD)
        g = load_summary(path).decompress()
        # Superedge (0, 1) covers (0, 2) and (1, 2); C⁻ removes (0, 2).
        assert list(zip(g.edge_src.tolist(), g.edge_dst.tolist())) == [(1, 2), (2, 3)]


class TestApproxListingTR:
    """§4.3: approximate triangle discovery further reduces TR's cost."""

    def test_approx_listing_is_subset_semantics(self, plc300):
        from repro.compress.triangle_reduction import TriangleReduction

        exact = TriangleReduction(0.5).compress(plc300, seed=2)
        approx = TriangleReduction(0.5, approx_listing_p=0.6).compress(plc300, seed=2)
        # Fewer triangles discovered -> fewer (or equal) edges removed.
        assert approx.extras["triangles"] <= exact.extras["triangles"]
        assert approx.edges_removed <= exact.edges_removed
        # Still a subgraph of the original.
        for u, v in zip(approx.graph.edge_src, approx.graph.edge_dst):
            assert plc300.has_edge(int(u), int(v))

    def test_approx_listing_p_one_equals_exact(self, plc300):
        from repro.compress.triangle_reduction import TriangleReduction

        exact = TriangleReduction(0.7).compress(plc300, seed=3)
        full = TriangleReduction(0.7, approx_listing_p=1.0).compress(plc300, seed=3)
        # p=1 subsample keeps every edge: identical triangle set; the
        # extra RNG draw shifts the stream, so compare counts not bits.
        assert full.extras["triangles"] == exact.extras["triangles"]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_subsample_vertices_match_the_oracle(self, family):
        # Triangles found on the subsample carry original edge ids, and
        # the vertices read off those edges are the oracle's on the
        # subsample; collapse contracts them in that order.
        from repro.compress.triangle_reduction import TriangleReduction

        for seed in (0, 1):
            g = build_graph(FuzzCase(family, False, False, seed))
            rng = np.random.default_rng(seed)
            keep = rng.random(g.num_edges) <= 0.6
            vertices, edge_ids = oracle_triangle_list(g.keep_edges(keep))
            tl = TriangleReduction(0.5, approx_listing_p=0.6)._discover_triangles(
                g, np.random.default_rng(seed)
            )
            assert np.array_equal(tl.vertices, vertices)
            assert np.array_equal(tl.edge_ids, np.flatnonzero(keep)[edge_ids])

            res = TriangleReduction(
                0.5, variant="collapse", approx_listing_p=0.6
            ).compress(g, seed=seed)
            assert res.extras["triangles"] == len(vertices)
            if not len(vertices):
                continue
            used = np.zeros(g.n, dtype=bool)
            mapping = np.arange(g.n)
            for tri in vertices[rng.random(len(vertices)) < 0.5]:
                if not used[tri].any():
                    used[tri] = True
                    mapping[tri] = tri.min()
            assert res.extras["triangles_collapsed"] == used.sum() // 3
            assert np.array_equal(
                res.extras["mapping"], np.unique(mapping, return_inverse=True)[1]
            )

    def test_approx_list_keeps_the_exact_lists_dtype(self, plc300):
        # Mapped back to original edge ids, the list keeps the int32 ids
        # of the exact listing: 12 bytes a triangle.
        from repro.algorithms.triangles import list_triangles
        from repro.compress.triangle_reduction import TriangleReduction

        tl = TriangleReduction(0.5, approx_listing_p=0.6)._discover_triangles(
            plc300, np.random.default_rng(0)
        )
        assert tl.count > 0
        assert tl.edge_ids.dtype == list_triangles(plc300).edge_ids.dtype == np.int32
        assert tl.edge_ids.nbytes == 12 * tl.count

    def test_validation(self):
        from repro.compress.triangle_reduction import TriangleReduction

        import pytest

        with pytest.raises(ValueError):
            TriangleReduction(0.5, approx_listing_p=0.0)
        with pytest.raises(ValueError):
            TriangleReduction(0.5, approx_listing_p=1.5)


class TestWeightedSpanner:
    """Weighted LDD waves: trees follow light edges, improving weighted
    SSSP stretch (§7.2's claim for spanners on weighted graphs)."""

    def test_weighted_option_changes_trees(self):
        from repro.graphs.weights import with_exponential_weights

        g = with_exponential_weights(
            gen.powerlaw_cluster(300, 5, 0.6, seed=4), 2.0, seed=5
        )
        hop = Spanner(4, weighted=False).compress(g, seed=6).graph
        wtd = Spanner(4, weighted=True).compress(g, seed=6).graph
        assert not np.array_equal(hop.edge_src, wtd.edge_src)

    def test_weighted_spanner_improves_weighted_stretch(self):
        from repro.algorithms.sssp import dijkstra
        from repro.graphs.weights import with_exponential_weights

        g = with_exponential_weights(
            gen.powerlaw_cluster(300, 5, 0.6, seed=7), 2.0, seed=8
        )
        base = dijkstra(g, 0).distance

        def mean_stretch(sub):
            d = dijkstra(sub, 0).distance
            both = np.isfinite(base) & np.isfinite(d) & (base > 0)
            return float(np.mean(d[both] / base[both]))

        stretches_w, stretches_h = [], []
        for seed in range(3):
            stretches_h.append(
                mean_stretch(Spanner(4, weighted=False).compress(g, seed=seed).graph)
            )
            stretches_w.append(
                mean_stretch(Spanner(4, weighted=True).compress(g, seed=seed).graph)
            )
        assert np.mean(stretches_w) <= np.mean(stretches_h) + 0.05

    def test_weighted_still_preserves_connectivity(self):
        from repro.graphs.weights import with_uniform_weights

        g = with_uniform_weights(gen.powerlaw_cluster(200, 4, 0.5, seed=9), seed=10)
        sub = Spanner(8, weighted=True).compress(g, seed=11).graph
        assert (
            connected_components(sub).num_components
            == connected_components(g).num_components
        )

    def test_unweighted_graph_ignores_flag(self, plc300):
        a = Spanner(4, weighted=True).compress(plc300, seed=12).graph
        b = Spanner(4, weighted=False).compress(plc300, seed=12).graph
        assert np.array_equal(a.edge_src, b.edge_src)
