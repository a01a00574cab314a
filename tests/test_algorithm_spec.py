"""Tests for the declarative algorithm spec, the algorithm registry, the
result adapters, and the metric registry."""

import json

import numpy as np
import pytest

from repro.algorithms import (
    AlgorithmSpec,
    build_algorithm,
    register_algorithm,
    registered_algorithms,
    unregister_algorithm,
)
from repro.algorithms.adapters import get_adapter, registered_adapters
from repro.algorithms.registry import resolve_algorithm
from repro.metrics.registry import (
    metrics_for_adapter,
    register_metric,
    registered_metrics,
    resolve_metric,
    unregister_metric,
)


class TestAlgorithmSpecRoundTrip:
    def test_parse_format_stable(self):
        for text in [
            "pagerank(iterations=50)",
            "sssp(delta=2.0, source=0)",
            "cc",
            "bfs(source=3)",
            "betweenness(num_sources=32, seed=0)",
        ]:
            spec = AlgorithmSpec.parse(text)
            assert AlgorithmSpec.parse(spec.to_string()) == spec

    def test_every_registered_example_parses(self):
        for name, entry in registered_algorithms().items():
            spec = AlgorithmSpec.parse(entry.example)
            assert spec.name == name
            assert AlgorithmSpec.parse(spec.to_string()) == spec

    def test_int_params_stay_int(self):
        spec = AlgorithmSpec.parse("pagerank(iterations=50)")
        value = spec.params["max_iterations"]
        assert value == 50 and isinstance(value, int)
        delta = AlgorithmSpec.parse("sssp(delta=2.0, source=0)").params["delta"]
        assert isinstance(delta, float)

    def test_json_transport(self):
        spec = AlgorithmSpec.parse("sssp(delta=2.0, source=0)")
        wire = json.loads(json.dumps(spec.to_dict()))
        assert AlgorithmSpec.from_dict(wire) == spec
        # ints survive the wire
        spec2 = AlgorithmSpec.parse("pagerank(iterations=50)")
        back = AlgorithmSpec.from_dict(json.loads(json.dumps(spec2.to_dict())))
        assert isinstance(back.params["max_iterations"], int)

    def test_equality_and_hash_params_driven(self):
        a = AlgorithmSpec.parse("pagerank(iterations=50)")
        b = AlgorithmSpec("pagerank", {"max_iterations": 50})
        c = AlgorithmSpec.parse("pagerank(iterations=51)")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_paper_aliases_resolve(self):
        assert AlgorithmSpec.parse("pr").name == "pagerank"
        assert AlgorithmSpec.parse("cc").name == "connected_components"
        assert AlgorithmSpec.parse("tc").name == "count_triangles"
        assert AlgorithmSpec.parse("bfs").name == "bfs"
        assert resolve_algorithm("MST") == "mst"
        assert resolve_algorithm("bc") == "betweenness"

    def test_param_alias_canonicalized(self):
        a = AlgorithmSpec.parse("pagerank(iterations=9)")
        b = AlgorithmSpec.parse("pagerank(max_iterations=9)")
        assert a == b

    def test_positional_binds_registered_parameter(self):
        assert AlgorithmSpec.parse("bfs(3)") == AlgorithmSpec.parse("bfs(source=3)")

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            AlgorithmSpec.parse("")
        with pytest.raises(ValueError):
            AlgorithmSpec.parse("pagerank(iterations=)")
        with pytest.raises(ValueError):
            AlgorithmSpec.parse("sssp(delta=2.0, 7)")  # positional not first
        with pytest.raises(ValueError):
            AlgorithmSpec.parse("pagerank(7)")  # no positional declared


class TestAlgorithmRegistry:
    def test_all_modules_registered(self):
        names = set(registered_algorithms())
        assert {
            "arboricity",
            "betweenness",
            "bfs",
            "coloring",
            "coloring_number",
            "connected_components",
            "count_triangles",
            "degeneracy",
            "kcore",
            "matching",
            "mis",
            "mst",
            "pagerank",
            "path_stats",
            "spectrum",
            "sssp",
            "triangles_per_vertex",
        } <= names

    def test_every_entry_has_valid_adapter(self):
        adapters = set(registered_adapters())
        for entry in registered_algorithms().values():
            assert entry.adapter in adapters

    def test_build_and_compute(self, plc300):
        pr = build_algorithm("pagerank(iterations=20)")
        ranks = pr.compute(plc300)
        assert ranks.shape == (plc300.n,)
        assert ranks.sum() == pytest.approx(1.0)
        cc = build_algorithm("cc")
        assert cc.compute(plc300) >= 1.0
        mis = build_algorithm("mis")
        out = mis.compute(plc300)
        assert isinstance(out, frozenset)

    def test_bound_equality_keys_cache(self):
        a = build_algorithm("pr", iterations=30)
        b = build_algorithm("pagerank(max_iterations=30)")
        assert a == b and hash(a) == hash(b)
        assert a != build_algorithm("pr", iterations=31)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            build_algorithm("quantum_walk")

    def test_collision_rejected(self):
        @register_algorithm("tmp_collision_probe", adapter="scalar")
        def probe(g):
            return 0

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_algorithm("tmp_collision_probe", adapter="scalar")(
                    lambda g: 1
                )
            with pytest.raises(ValueError, match="already registered"):
                register_algorithm(
                    "other_name", adapter="scalar", aliases=("tmp_collision_probe",)
                )(lambda g: 2)
            # Alias colliding with an existing alias is rejected too.
            with pytest.raises(ValueError, match="already registered"):
                register_algorithm("another_name", adapter="scalar", aliases=("pr",))(
                    lambda g: 3
                )
        finally:
            unregister_algorithm("tmp_collision_probe")

    def test_unknown_adapter_rejected_at_registration(self):
        with pytest.raises(ValueError, match="unknown result adapter"):
            register_algorithm("tmp_bad_adapter", adapter="tensor")

    def test_unregister_removes_aliases(self):
        register_algorithm("tmp_gone", adapter="scalar", aliases=("tmp_gone_alias",))(
            lambda g: 0
        )
        unregister_algorithm("tmp_gone")
        assert resolve_algorithm("tmp_gone") is None
        assert resolve_algorithm("tmp_gone_alias") is None


class TestResultAdapters:
    def test_unknown_kind_names_known_adapters(self):
        assert get_adapter("scalar").name == "scalar"
        with pytest.raises(ValueError, match="vector") as err:
            get_adapter("vector")
        for name in ("scalar", "distribution", "ordering", "vertex_set", "traversal"):
            assert name in str(err.value)

    def test_distribution_canonicalize_is_ranks_aware(self, plc300):
        from repro.algorithms.pagerank import pagerank

        res = pagerank(plc300, max_iterations=10)
        arr = get_adapter("distribution").canonicalize(res)
        assert isinstance(arr, np.ndarray)
        np.testing.assert_allclose(arr, res.ranks)

    def test_align_through_mapping(self):
        adapter = get_adapter("distribution")
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([10.0, 20.0])
        mapping = np.array([0, 1, 1, -1])
        a2, b2 = adapter.align(a, b, mapping)
        np.testing.assert_allclose(b2, [10.0, 20.0, 20.0, 0.0])

    def test_align_falls_back_to_padding(self):
        adapter = get_adapter("ordering")
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([5.0, 6.0])
        _, b2 = adapter.align(a, b, None)
        np.testing.assert_allclose(b2, [5.0, 6.0, 0.0])


class TestMetricRegistry:
    def test_builtins_present_with_aliases(self):
        names = set(registered_metrics())
        assert {
            "kl_divergence",
            "js_divergence",
            "relative_change",
            "reordered_neighbor_pairs",
            "jaccard_overlap",
            "critical_edge_preservation",
        } <= names
        assert resolve_metric("kl").name == "kl_divergence"
        assert resolve_metric("critical_edges").name == "critical_edge_preservation"

    def test_adapter_compatibility_sets(self):
        dist = {e.name for e in metrics_for_adapter("distribution")}
        assert "kl_divergence" in dist and "relative_change" not in dist
        scal = {e.name for e in metrics_for_adapter("scalar")}
        assert scal == {"absolute_change", "relative_change"}

    def test_default_metric_per_adapter_is_registered(self):
        for adapter in registered_adapters().values():
            entry = resolve_metric(adapter.default_metric)
            assert adapter.name in entry.adapters

    def test_register_and_collision(self):
        @register_metric("tmp_metric", adapters=("scalar",), aliases=("tmpm",))
        def tmp_metric(ctx, a, b):
            return 0.0

        try:
            assert resolve_metric("tmpm").name == "tmp_metric"
            with pytest.raises(ValueError, match="already registered"):
                register_metric("tmp_metric", adapters=("scalar",))(
                    lambda ctx, a, b: 1.0
                )
            with pytest.raises(ValueError, match="already registered"):
                register_metric("tmp_metric2", adapters=("scalar",), aliases=("kl",))(
                    lambda ctx, a, b: 1.0
                )
        finally:
            unregister_metric("tmp_metric")
        with pytest.raises(ValueError):
            resolve_metric("tmp_metric")

    def test_metric_requires_adapter(self):
        with pytest.raises(ValueError, match="at least one adapter"):
            register_metric("tmp_no_adapter", adapters=())
