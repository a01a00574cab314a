"""Tests for the graph-keyed analysis cache and its perf-record plumbing.

Covers the cache contract (identity keying, weak entries, hit/miss
accounting, the fingerprint a store reload installs), mutation-free
invalidation (a derived
graph never sees its parent's cached triangles), lineage derivation (an
edge subgraph's triangle count read off its counted parent equals the
sparse count, which runs instead without a live counted parent; a
sampling grid's ``mst`` sorts only its root), and the headline reuse
guarantee: a multi-seed TR sweep lists the original graph's triangles
exactly once, observable through cache stats and BENCH perf records.
"""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.algorithms import triangles
from repro.algorithms.triangles import (
    _DERIVATION_SOURCES,
    _sparse_triangle_count,
    count_triangles,
    edge_triangle_counts,
    list_triangles,
)
from repro.analytics.session import Session
from repro.compress.registry import build_scheme
from repro.graphs import generators as gen
from repro.graphs.analysis import AnalysisCache, analysis_cache, lineage_parent, stats_delta
from repro.graphs.weights import with_uniform_weights
from repro.verify.oracles import oracle_triangle_list


@pytest.fixture
def cache():
    return analysis_cache()


def triangle_rich(seed=0, n=300):
    return gen.powerlaw_cluster(n, 4, 0.6, seed=seed)


class TestAnalysisCache:
    def test_lookup_computes_once(self):
        c = AnalysisCache()
        g = triangle_rich()
        calls = []

        def build(graph):
            calls.append(graph)
            return "value"

        assert c.lookup(g, "thing", build) == "value"
        assert c.lookup(g, "thing", build) == "value"
        assert len(calls) == 1
        s = c.stats()
        assert s["hits"] == 1 and s["misses"] == 1

    def test_identity_keyed_not_content_keyed(self):
        c = AnalysisCache()
        g1 = triangle_rich(seed=1)
        g2 = triangle_rich(seed=1)  # same content, different object
        c.put(g1, "thing", "a")
        assert c.peek(g1, "thing") == "a"
        assert c.peek(g2, "thing") is None

    def test_entries_die_with_the_graph(self):
        c = AnalysisCache()
        g = triangle_rich()
        c.put(g, "thing", "value")
        assert c.stats()["live_graphs"] == 1
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
        assert c.stats()["live_graphs"] == 0

    def test_forget_one_analysis(self):
        c = AnalysisCache()
        g = triangle_rich()
        c.put(g, "a", 1)
        c.put(g, "b", 2)
        c.forget(g, "a")
        c.forget(g, "missing")
        assert c.peek(g, "a") is None and c.peek(g, "b") == 2
        c.forget(g)
        assert c.peek(g, "b") is None

    def test_stats_delta(self):
        before = {"hits": 1, "misses": 2, "by_analysis": {"a": {"hits": 1, "misses": 2}}}
        after = {
            "hits": 4,
            "misses": 2,
            "by_analysis": {"a": {"hits": 1, "misses": 2}, "b": {"hits": 3, "misses": 0}},
        }
        d = stats_delta(before, after)
        assert d == {"hits": 3, "misses": 0, "by_analysis": {"b": {"hits": 3, "misses": 0}}}


class TestTriangleAnalyses:
    def test_list_triangles_memoized(self, cache):
        g = triangle_rich()
        t1 = list_triangles(g)
        t2 = list_triangles(g)
        assert t1 is t2
        assert cache.peek(g, "triangle_list") is t1

    def test_count_reuses_cached_list(self, cache):
        g = triangle_rich()
        tl = list_triangles(g)
        before = cache.stats()
        assert count_triangles(g) == tl.count
        delta = stats_delta(before, cache.stats())
        assert delta["by_analysis"]["triangle_list"]["hits"] == 1
        assert delta["misses"] == 0

    def test_count_without_list_caches_scalar_only(self, cache):
        g = triangle_rich(seed=7)
        before = cache.stats()
        c1 = count_triangles(g)
        c2 = count_triangles(g)
        assert c1 == c2
        assert cache.peek(g, "triangle_list") is None
        delta = stats_delta(before, cache.stats())
        assert delta["by_analysis"]["triangle_count"] == {"hits": 1, "misses": 1}

    def test_edge_triangle_counts_memoized(self, cache):
        g = triangle_rich()
        assert edge_triangle_counts(g) is edge_triangle_counts(g)

    def test_cached_arrays_are_read_only(self):
        """Shared cached buffers refuse in-place mutation — a caller
        sorting/overwriting a result cannot poison later consumers."""
        g = triangle_rich()
        tl = list_triangles(g)
        counts = edge_triangle_counts(g)
        for arr in (tl.vertices, tl.edge_ids, counts):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_derived_graph_never_sees_parent_triangles(self, cache):
        """Mutation-free invalidation: the child recomputes its own list."""
        g = triangle_rich()
        parent_list = list_triangles(g)
        assert parent_list.count > 0
        rng = np.random.default_rng(0)
        child = g.keep_edges(rng.random(g.num_edges) < 0.5)
        assert cache.peek(child, "triangle_list") is None
        child_list = list_triangles(child)
        assert child_list is not parent_list
        assert child_list.count <= parent_list.count  # subgraph monotone
        # And the parent's entry was left untouched.
        assert cache.peek(g, "triangle_list") is parent_list


GRID_SAMPLING_SCHEMES = (
    "uniform(p=0.5)",
    "uniform(p=0.8)",
    "spectral(p=0.5)",
    "low_degree(max_degree=1)",
    "vertex_sampling(p=0.5)",
)


@pytest.fixture(scope="module")
def sampled_root():
    """A weighted graph of v-ewk's size (8192 vertices, ~65k edges)."""
    return with_uniform_weights(gen.powerlaw_cluster(8192, 8, 0.5, seed=11), seed=12)


def derives(g) -> bool:
    return lineage_parent(g, _DERIVATION_SOURCES) is not None


class TestLineageDerivation:
    """An edge subgraph's triangle count is read off its counted parent's
    triangle edge ids, and always equals the sparse count."""

    @pytest.mark.parametrize("spec", GRID_SAMPLING_SCHEMES)
    def test_derived_count_equals_sparse(self, sampled_root, spec):
        count_triangles(sampled_root)
        for seed in (0, 1, 2):
            child = build_scheme(spec).compress(sampled_root, seed=seed).graph
            if child is not sampled_root:
                assert derives(child)
            assert count_triangles(child) == _sparse_triangle_count(child)

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_derived_count_blocks_cut_anywhere(self, monkeypatch, block):
        g = triangle_rich(seed=18)
        count_triangles(g)
        child = g.keep_edges(np.random.default_rng(5).random(g.num_edges) < 0.6)
        monkeypatch.setattr(triangles, "_DERIVE_BLOCK", block)
        assert derives(child)
        assert count_triangles(child) == _sparse_triangle_count(child)

    def test_chain_derives_from_the_counted_parent(self, cache):
        g = triangle_rich(seed=13)
        count_triangles(g)
        rng = np.random.default_rng(1)
        mid = g.keep_edges(rng.random(g.num_edges) < 0.8)
        child = mid.keep_edges(rng.random(mid.num_edges) < 0.7)
        child = child.with_weights(np.ones(child.num_edges))  # same edge ids
        assert derives(mid) and not derives(child)  # no reach past mid to g
        assert count_triangles(mid) == _sparse_triangle_count(mid)  # from g
        parent, mask = lineage_parent(child, _DERIVATION_SOURCES)
        assert parent is mid and mask.sum() == child.num_edges
        assert count_triangles(child) == _sparse_triangle_count(child)
        assert cache.peek(mid, "triangle_list") is not None

    def test_child_never_pins_its_parent(self):
        parent = triangle_rich(seed=14)
        count_triangles(parent)
        child = parent.keep_edges(np.random.default_rng(2).random(parent.num_edges) < 0.5)
        want = _sparse_triangle_count(child)
        ref = weakref.ref(parent)
        del parent
        gc.collect()
        assert ref() is None
        assert not derives(child)
        assert count_triangles(child) == want

    def test_relabelled_graph_counts_sparse(self):
        g = triangle_rich(seed=15)
        count_triangles(g)
        kept = g.remove_vertices([0, 1, 2])
        relabelled = g.remove_vertices([0, 1, 2], relabel=True)
        assert derives(kept)
        assert not derives(relabelled)
        assert count_triangles(relabelled) == count_triangles(kept)

    def test_uncounted_root_builds_no_table(self, cache):
        g = triangle_rich(seed=16)
        child = g.keep_edges(np.random.default_rng(3).random(g.num_edges) < 0.5)
        before = cache.stats()
        assert count_triangles(child) == _sparse_triangle_count(child)
        delta = stats_delta(before, cache.stats())
        assert "triangle_list" not in delta["by_analysis"]
        assert cache.peek(g, "triangle_list") is None
        assert cache.peek(g, "triangle_count") is None

    def test_list_is_never_derived(self):
        g = triangle_rich(seed=17)
        count_triangles(g)
        child = g.keep_edges(np.random.default_rng(4).random(g.num_edges) < 0.5)
        count_triangles(child)
        got = list_triangles(child)
        vertices, edge_ids = oracle_triangle_list(child)
        assert np.array_equal(got.vertices, vertices)
        assert np.array_equal(got.edge_ids, edge_ids)


class TestSessionIntegration:
    def test_tr_multiseed_sweep_lists_triangles_exactly_once(self, cache):
        """The acceptance guarantee: S TR seeds + the tc baseline = one
        O(m^{3/2}) listing of the original graph."""
        g = triangle_rich(seed=3)
        session = Session(g, seed=0)
        before = cache.stats()
        for seed in (0, 1, 2):
            session.grid(["EO-0.6-1-TR"], ["tc"], seed=seed)
        delta = stats_delta(before, cache.stats())
        assert delta["by_analysis"]["triangle_list"]["misses"] == 1
        assert delta["by_analysis"]["triangle_list"]["hits"] >= 3

    def test_sampling_grid_sorts_only_the_root_for_mst(self, monkeypatch):
        """The ``mst`` baseline sorts the input once; every sample that
        keeps its weights reads its Borůvka order off the root's, and a
        reweighted spectral sample sorts its own."""
        from repro.algorithms import mst

        sorted_sizes = []
        lexsort_order = mst._lexsort_order

        def counting(graph):
            sorted_sizes.append(graph.num_edges)
            return lexsort_order(graph)

        monkeypatch.setattr(mst, "_lexsort_order", counting)
        g = with_uniform_weights(triangle_rich(seed=9), seed=9)
        session = Session(g, seed=0)
        session.grid(["uniform(p=0.5)", "uniform(p=0.8)"], ["mst"], seed=0)
        assert sorted_sizes == [g.num_edges]
        session.grid(["spectral(p=0.5)"], ["mst"], seed=0)
        assert len(sorted_sizes) == 2 and sorted_sizes[1] < g.num_edges

    def test_grid_perf_reports_analysis_cache(self):
        g = triangle_rich(seed=4)
        session = Session(g, seed=0)
        session.grid(["0.5-1-TR"], ["tc"])
        perf = session.last_grid_perf
        assert "analysis_cache" in perf
        assert perf["analysis_cache"]["misses"] >= 1
        assert "triangle_list" in perf["analysis_cache"]["by_analysis"]

    def test_store_grid_perf_reports_analysis_cache(self, tmp_path):
        g = triangle_rich(seed=5)
        session = Session(g, seed=0, store=tmp_path / "store")
        session.grid(["0.5-1-TR"], ["tc"])
        perf = session.last_grid_perf
        assert perf["analysis_cache"]["misses"] >= 1
        # Warm replay does no structural analysis at all.
        warm = Session(g, seed=0, store=tmp_path / "store")
        warm.grid(["0.5-1-TR"], ["tc"])
        assert warm.last_grid_perf["analysis_cache"] == {
            "hits": 0,
            "misses": 0,
            "by_analysis": {},
        }

    def test_run_sweep_bench_record_carries_analysis_counts(self, tmp_path):
        from repro.runner.harness import SweepSpec, run_sweep, write_bench_record

        g = triangle_rich(seed=6)
        spec = SweepSpec(
            name="tr-cache-probe",
            graphs=("probe",),
            schemes=("EO-0.6-1-TR",),
            algorithms=("tc",),
            seeds=(0, 1, 2),
        )
        result = run_sweep(spec, graph_loader=lambda name: g)
        record = json.loads(write_bench_record(result, tmp_path).read_text())
        assert record["analysis_misses"] >= 1
        assert record["analysis_hits"] >= 2
        # Per-grid detail: exactly one grid misses the triangle list.
        listing_misses = sum(
            grid["analysis_cache"]["by_analysis"]
            .get("triangle_list", {})
            .get("misses", 0)
            for grid in record["grids"]
        )
        assert listing_misses == 1


class TestSnapshotReload:
    def test_store_reload_installs_fingerprint(self, tmp_path, cache):
        from repro.runner.store import ArtifactStore

        g = triangle_rich(seed=8)
        list_triangles(g)
        store = ArtifactStore(tmp_path / "store")
        fp, _ = store.add_graph(g)
        reloaded = store.load_graph(fp)
        assert reloaded is not g
        assert cache.peek(reloaded, "fingerprint") == fp
        # Analyses stay per object: the reload shares no triangle listing.
        assert cache.peek(reloaded, "triangle_list") is None

    def test_reload_fingerprint_is_not_recomputed(self, tmp_path, monkeypatch):
        import repro.runner.fingerprint as fingerprint
        from repro.runner.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        g = triangle_rich(seed=9)
        fp, _ = store.add_graph(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

        def recompute(graph):
            raise AssertionError("fingerprint recomputed")

        monkeypatch.setattr(fingerprint, "_compute_fingerprint", recompute)
        with pytest.raises(AssertionError, match="recomputed"):
            fingerprint.graph_fingerprint(triangle_rich(seed=9))
        assert fingerprint.graph_fingerprint(store.load_graph(fp)) == fp
