"""Tests for the declarative spec layer: SchemeSpec round trips, the open
registry, params-driven scheme identity, and Chain composition."""

import json

import pytest

from repro.compress import (
    Chain,
    CompressionScheme,
    SchemeSpec,
    build_scheme,
    register_scheme,
    registered_schemes,
    unregister_scheme,
)
from repro.compress.base import CompressionResult
from repro.compress.registry import get_entry


class TestSchemeSpecParsing:
    def test_named_form_types_preserved(self):
        spec = SchemeSpec.parse("spanner(k=8, weighted=false)")
        assert spec.name == "spanner"
        assert spec.params == {"k": 8, "weighted": False}
        assert isinstance(spec.params["k"], int)

    def test_tr_labels_parse_to_triangle_reduction(self):
        spec = SchemeSpec.parse("EO-0.8-1-TR")
        assert spec.name == "triangle_reduction"
        assert spec.params == {"p": 0.8, "x": 1, "variant": "edge_once"}
        assert isinstance(spec.params["x"], int)

    def test_tr_label_round_trips(self):
        for label in ["0.5-1-TR", "EO-0.8-1-TR", "CT-0.5-2-TR", "EO-1.0-1-TR"]:
            assert SchemeSpec.parse(label).to_string() == label

    def test_alias_canonicalized(self):
        assert SchemeSpec.parse("tr(p=0.5)").name == "triangle_reduction"

    def test_none_and_bool_values(self):
        spec = SchemeSpec.parse("low_degree(max_degree=2, rounds=none, relabel=true)")
        assert spec.params == {"max_degree": 2, "rounds": None, "relabel": True}
        assert SchemeSpec.parse(spec.to_string()) == spec

    def test_bare_positional_binds_via_registry(self):
        assert SchemeSpec.parse("spanner(8)").params == {"k": 8}
        assert SchemeSpec.parse("uniform(0.5)").params == {"p": 0.5}

    def test_pipeline_syntax(self):
        spec = SchemeSpec.parse("uniform(p=0.9) | spanner(k=4)")
        assert spec.name == "chain"
        assert [s.name for s in spec.stages] == ["uniform", "spanner"]
        assert SchemeSpec.parse(spec.to_string()) == spec

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            SchemeSpec.parse("")
        with pytest.raises(ValueError):
            SchemeSpec.parse("low_degree(3)")  # no positional registered

    def test_json_round_trip(self):
        spec = SchemeSpec.parse("spectral(p=0.05, variant=avgdeg)")
        payload = json.dumps(spec.to_dict())
        assert SchemeSpec.from_dict(json.loads(payload)) == spec
        chain = SchemeSpec.parse("uniform(p=0.9) | EO-0.8-1-TR")
        payload = json.dumps(chain.to_dict())
        assert SchemeSpec.from_dict(json.loads(payload)) == chain


class TestRegistryRoundTrip:
    def test_every_registered_scheme_round_trips(self):
        entries = registered_schemes()
        assert len(entries) >= 10
        for name, entry in entries.items():
            scheme = build_scheme(entry.example)
            spec = scheme.spec()
            assert spec.name == name
            rebuilt = build_scheme(spec.to_string())
            assert rebuilt == scheme, name
            assert hash(rebuilt) == hash(scheme), name
            # Canonical strings are stable under re-parsing.
            canonical = spec.to_string()
            assert SchemeSpec.parse(canonical).to_string() == canonical, name
            # And survive JSON transport.
            assert SchemeSpec.from_dict(spec.to_dict()) == spec, name

    def test_integer_params_stay_int(self):
        k = build_scheme("spanner(k=32)").k
        assert k == 32 and isinstance(k, int)
        assert isinstance(build_scheme("spanner(k=32)").params()["k"], int)
        rank = build_scheme("lowrank(rank=8)").rank
        assert rank == 8 and isinstance(rank, int)
        x = build_scheme("EO-0.8-2-TR").x
        assert x == 2 and isinstance(x, int)
        # Through the full parse -> construct -> params -> format loop.
        assert "k=32" in build_scheme("spanner(k=32)").spec().to_string()

    def test_float_k_still_supported(self):
        assert build_scheme("spanner(k=2.5)").k == 2.5

    def test_external_registration(self):
        @register_scheme("noop_test_scheme", summary="does nothing")
        class Noop(CompressionScheme):
            def params(self):
                return {}

            def compress(self, g, *, seed=None):
                return CompressionResult(
                    graph=g, original=g, scheme=self.name, params={}
                )

        try:
            scheme = build_scheme("noop_test_scheme")
            assert isinstance(scheme, Noop)
            assert scheme.name == "noop_test_scheme"
            assert "noop_test_scheme" in registered_schemes()
        finally:
            unregister_scheme("noop_test_scheme")
        with pytest.raises(ValueError):
            build_scheme("noop_test_scheme")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):

            @register_scheme("uniform")
            class Impostor(CompressionScheme):
                pass

    def test_alias_hijack_rejected(self):
        with pytest.raises(ValueError, match="alias"):

            @register_scheme("freeloader", aliases=("uniform",))
            class AliasImpostor(CompressionScheme):
                pass

        with pytest.raises(ValueError, match="alias"):

            @register_scheme("tr")
            class NameImpostor(CompressionScheme):
                pass

    def test_aliases_resolve_to_one_entry(self):
        assert get_entry("tr") is get_entry("triangle_reduction")
        assert {
            "uniform", "spectral", "triangle_reduction", "spanner",
            "summarization", "low_degree", "cut_sparsifier", "lowrank",
            "vertex_sampling", "random_walk_sampling",
        } <= set(registered_schemes())
        assert get_entry("tr").positional == "p"


class TestSchemeIdentity:
    def test_eq_and_hash_by_params(self):
        a = build_scheme("uniform(p=0.5)")
        b = build_scheme("uniform(p=0.5)")
        c = build_scheme("uniform(p=0.6)")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_different_classes_not_equal(self):
        assert build_scheme("uniform(p=0.5)") != build_scheme("vertex_sampling(p=0.5)")

    def test_repr_driven_by_params(self):
        assert repr(build_scheme("uniform(p=0.5)")) == "RandomUniformSampling(p=0.5)"

    def test_usable_as_cache_key(self):
        cache = {build_scheme("spanner(k=8)"): "hit"}
        assert cache[build_scheme("spanner(k=8)")] == "hit"


class TestChain:
    def test_or_operator_builds_chain(self, plc300):
        pipeline = build_scheme("low_degree(max_degree=1)") | build_scheme("spanner(k=4)")
        assert isinstance(pipeline, Chain)
        assert len(pipeline.stages) == 2

    def test_lineage_records_each_stage(self, plc300):
        pipeline = build_scheme("uniform(p=0.9) | spanner(k=4)")
        result = pipeline.compress(plc300, seed=0)
        assert [st.scheme for st in result.lineage] == ["uniform", "spanner"]
        assert result.lineage[0].params == {"p": 0.9}
        assert result.lineage[1].params == {"k": 4, "weighted": False}
        # Edge counts thread through: stage i+1 starts where stage i ended.
        assert result.lineage[0].edges_in == plc300.num_edges
        assert result.lineage[0].edges_out == result.lineage[1].edges_in
        assert result.lineage[1].edges_out == result.graph.num_edges
        # The whole-pipeline ratio is measured against the first graph.
        assert result.original is plc300

    def test_single_scheme_lineage_autopopulated(self, plc300):
        result = build_scheme("uniform(p=0.5)").compress(plc300, seed=0)
        assert len(result.lineage) == 1
        assert result.lineage[0].scheme == "uniform"
        assert result.lineage[0].params == {"p": 0.5}

    def test_chain_flattens(self):
        a = build_scheme("uniform(p=0.9)")
        b = build_scheme("spanner(k=4)")
        c = build_scheme("low_degree(max_degree=1)")
        assert len(((a | b) | c).stages) == 3

    def test_chain_spec_round_trip(self):
        pipeline = build_scheme("uniform(p=0.9) | spanner(k=4)")
        rebuilt = build_scheme(pipeline.spec().to_string())
        assert rebuilt == pipeline

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            Chain([])
