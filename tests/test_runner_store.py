"""Tests for the content-addressed artifact store, graph fingerprints,
and binary CSR snapshots."""

import json

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.snapshot import SnapshotError, load_snapshot, save_snapshot
from repro.runner.fingerprint import graph_fingerprint
from repro.runner.store import BASELINE_SCHEMA_VERSION, SCHEMA_VERSION, ArtifactStore
from tests.conftest import rewrite_baseline_meta


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


FP = "f" * 64
PAYLOAD = {"cells": [{"scheme": "uniform(p=0.5)", "value": 0.25}], "perf": {}}


class TestCellKey:
    def test_equal_configs_key_identically(self, store):
        a = store.cell_key(FP, "uniform(p=0.5)", 0, "pagerank(iterations=50)", ["kl"])
        # Aliases and spelling variants resolve to the same canonical key.
        b = store.cell_key(FP, "uniform(0.5)", 0, "pr(iterations=50)", ["kl"])
        assert a == b and a.digest == b.digest

    def test_every_component_discriminates(self, store):
        base = store.cell_key(FP, "uniform(p=0.5)", 0, "pr", ["kl"])
        variants = [
            store.cell_key("0" * 64, "uniform(p=0.5)", 0, "pr", ["kl"]),
            store.cell_key(FP, "uniform(p=0.4)", 0, "pr", ["kl"]),
            store.cell_key(FP, "uniform(p=0.5)", 1, "pr", ["kl"]),
            store.cell_key(FP, "uniform(p=0.5)", 0, "cc", ["kl"]),
            store.cell_key(FP, "uniform(p=0.5)", 0, "pr", ["l2"]),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == len(variants) + 1

    def test_bare_callables_rejected(self, store):
        with pytest.raises(TypeError, match="declarative"):
            store.cell_key(FP, "uniform(p=0.5)", 0, lambda g: 0, [])


class TestStoreRoundTrip:
    def test_miss_then_hit(self, store):
        key = store.cell_key(FP, "uniform(p=0.5)", 0, "pr", ["kl"])
        assert store.get_cells(key) is None
        assert key not in store
        store.put_cells(key, PAYLOAD)
        assert key in store
        assert store.get_cells(key) == PAYLOAD
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.writes == 1
        assert len(store) == 1

    def test_truncated_record_is_a_miss(self, store):
        """Atomic-write crash simulation: a half-written record must read
        as a miss (recomputed + overwritten), never as an error."""
        key = store.cell_key(FP, "uniform(p=0.5)", 0, "pr", ["kl"])
        store.put_cells(key, PAYLOAD)
        path = store._record_path(key)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # crash mid-write
        assert store.get_cells(key) is None
        assert store.stats.corrupt == 1
        # A fresh put over the damage recovers the record.
        store.put_cells(key, PAYLOAD)
        assert store.get_cells(key) == PAYLOAD

    def test_schema_version_mismatch_invalidates(self, store):
        key = store.cell_key(FP, "uniform(p=0.5)", 0, "pr", ["kl"])
        store.put_cells(key, PAYLOAD)
        path = store._record_path(key)
        record = json.loads(path.read_text())
        assert record["schema_version"] == SCHEMA_VERSION
        record["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        assert store.get_cells(key) is None
        assert store.stats.invalidated == 1
        # A fresh put rewrites the record under the current version.
        store.put_cells(key, PAYLOAD)
        assert store.get_cells(key) == PAYLOAD

    def test_foreign_json_is_a_miss(self, store):
        key = store.cell_key(FP, "uniform(p=0.5)", 0, "pr", ["kl"])
        path = store._record_path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(["not", "a", "record"]))
        assert store.get_cells(key) is None

    def test_no_temp_files_left_behind(self, store):
        key = store.cell_key(FP, "uniform(p=0.5)", 0, "pr", ["kl"])
        store.put_cells(key, PAYLOAD)
        leftovers = list(store.root.rglob("*.tmp"))
        assert leftovers == []


class TestBaselineRecords:
    @pytest.mark.parametrize(
        "adapter, value",
        [
            ("scalar", 7.0),
            ("distribution", np.array([0.25, 0.5, 0.25])),
            ("ordering", np.array([3.0, np.inf, 1.0])),
            ("vertex_set", frozenset({4, 0, 9})),
            ("vertex_set", frozenset()),
        ],
    )
    def test_round_trip_by_adapter(self, store, adapter, value):
        key = store.baseline_key(FP, "pr")
        assert store.get_baseline(key) is None
        store.put_baseline(key, value, 0.125, adapter=adapter)
        got, seconds = store.get_baseline(key)
        assert seconds == 0.125
        assert type(got) is type(value)
        if isinstance(value, np.ndarray):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, value)
        else:
            assert got == value
        assert (store.stats.baseline_misses, store.stats.baseline_hits) == (1, 1)
        assert store.stats.baseline_writes == 1
        # Cell counters count cell records only.
        assert (store.stats.hits, store.stats.misses, store.stats.writes) == (0, 0, 0)
        assert len(store) == 0
        path = store._baseline_path(key)
        assert path.parent.parent.name == "baselines" and path.suffix == ".npz"

    def test_spellings_share_a_key_and_parameters_split_it(self, store):
        a = store.baseline_key(FP, "pagerank(max_iterations=50)")
        assert a == store.baseline_key(FP, "pr(max_iterations=50)")
        digests = {
            a.digest,
            store.baseline_key(FP, "pagerank(max_iterations=100)").digest,
            store.baseline_key("0" * 64, "pagerank(max_iterations=50)").digest,
            store.baseline_key(FP, "sssp(source=0)").digest,
            store.baseline_key(FP, "sssp(source=3)").digest,
        }
        assert len(digests) == 5

    def test_bare_callables_rejected(self, store):
        with pytest.raises(TypeError, match="declarative"):
            store.baseline_key(FP, lambda g: 0)

    def test_truncated_record_is_a_miss(self, store):
        key = store.baseline_key(FP, "cc")
        store.put_baseline(key, 3.0, 0.5, adapter="scalar")
        path = store._baseline_path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.get_baseline(key) is None
        path.write_bytes(b"")
        assert store.get_baseline(key) is None
        assert store.stats.baseline_misses == 2

    def test_other_schema_version_is_a_miss(self, store):
        key = store.baseline_key(FP, "cc")
        store.put_baseline(key, 3.0, 0.5, adapter="scalar")
        rewrite_baseline_meta(
            store._baseline_path(key), schema_version=BASELINE_SCHEMA_VERSION + 1
        )
        assert store.get_baseline(key) is None

    def test_foreign_key_is_a_miss(self, store):
        key = store.baseline_key(FP, "cc")
        store.put_baseline(key, 3.0, 0.5, adapter="scalar")
        rewrite_baseline_meta(store._baseline_path(key), key={"graph": "0" * 64})
        assert store.get_baseline(key) is None

    def test_value_of_the_wrong_shape_is_a_miss(self, store):
        key = store.baseline_key(FP, "pr")
        store.put_baseline(key, np.array([0.5, 0.5]), 0.5, adapter="distribution")
        rewrite_baseline_meta(store._baseline_path(key), adapter="scalar")
        assert store.get_baseline(key) is None
        rewrite_baseline_meta(store._baseline_path(key), adapter="vertex_set")
        assert store.get_baseline(key) is None

    def test_pickled_record_is_refused(self, store):
        key = store.baseline_key(FP, "mis")
        path = store._baseline_path(key)
        path.parent.mkdir(parents=True)
        meta = {
            "schema_version": BASELINE_SCHEMA_VERSION,
            "key": key.to_dict(),
            "adapter": "vertex_set",
            "seconds": 0.5,
        }
        with open(path, "wb") as fh:
            np.savez(
                fh,
                value=np.array([frozenset({1})], dtype=object),
                meta=np.array(json.dumps(meta)),
            )
        assert store.get_baseline(key) is None

    def test_injected_read_fault_is_a_miss(self, store):
        from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan

        key = store.baseline_key(FP, "cc")
        store.put_baseline(key, 3.0, 0.5, adapter="scalar")
        install_plan(FaultPlan(faults=(FaultSpec("store.get_baseline", times=1),)))
        try:
            assert store.get_baseline(key) is None
        finally:
            clear_plan()
        assert store.get_baseline(key) == (3.0, 0.5)

    def test_no_temp_files_left_behind(self, store):
        store.put_baseline(store.baseline_key(FP, "cc"), 3.0, 0.5, adapter="scalar")
        assert list(store.root.rglob("*.tmp")) == []


class TestGraphSnapshots:
    def _assert_same_graph(self, a, b):
        assert a.n == b.n and a.directed == b.directed
        np.testing.assert_array_equal(a.edge_src, b.edge_src)
        np.testing.assert_array_equal(a.edge_dst, b.edge_dst)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.arc_edge_ids, b.arc_edge_ids)
        if a.edge_weights is None:
            assert b.edge_weights is None
        else:
            np.testing.assert_array_equal(a.edge_weights, b.edge_weights)

    def test_snapshot_round_trip(self, plc300, tmp_path):
        path = save_snapshot(plc300, tmp_path / "g.npz")
        loaded = load_snapshot(path)
        self._assert_same_graph(plc300, loaded)
        loaded.validate()

    def test_snapshot_round_trip_weighted_directed(self, tmp_path):
        g = gen.rmat(6, 4, seed=3, directed=True)
        from repro.graphs.weights import with_uniform_weights

        g = with_uniform_weights(g, 1.0, 5.0, seed=1)
        loaded = load_snapshot(save_snapshot(g, tmp_path / "g.npz"))
        self._assert_same_graph(g, loaded)

    def test_damaged_snapshot_raises_snapshot_error(self, plc300, tmp_path):
        path = save_snapshot(plc300, tmp_path / "g.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(SnapshotError):
            load_snapshot(path)
        (tmp_path / "not-npz.npz").write_text("hello")
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "not-npz.npz")

    def test_add_graph_rewrites_damaged_snapshot(self, store, plc300):
        fp, path = store.add_graph(plc300)
        sidecar = path / "indices.npy"
        data = sidecar.read_bytes()
        sidecar.write_bytes(data[: len(data) // 2])  # disk damage
        fp2, path2 = store.add_graph(plc300)
        assert (fp2, path2) == (fp, path)
        # The damaged file was replaced, not handed to workers as-is.
        self._assert_same_graph(plc300, load_snapshot(path2))

    def test_store_graph_round_trip(self, store, plc300):
        fp, path = store.add_graph(plc300)
        assert fp == graph_fingerprint(plc300)
        assert store.graph_path(fp) == path
        self._assert_same_graph(plc300, store.load_graph(fp))
        # Idempotent: a second add reuses the snapshot.
        assert store.add_graph(plc300) == (fp, path)
        assert store.load_graph("0" * 64) is None


class TestExplodedSnapshots:
    """The v2 (directory) layout: mmap-ability, atomicity, damage names."""

    def _assert_same_graph(self, a, b):
        TestGraphSnapshots._assert_same_graph(self, a, b)

    def test_round_trip(self, plc300, tmp_path):
        path = save_snapshot(plc300, tmp_path / "g.snap", layout="exploded")
        assert (path / "header.json").exists()
        loaded = load_snapshot(path)
        self._assert_same_graph(plc300, loaded)
        loaded.validate()

    def test_mmap_round_trip(self, plc300, tmp_path):
        path = save_snapshot(plc300, tmp_path / "g.snap", layout="exploded")
        loaded = load_snapshot(path, mmap=True)
        self._assert_same_graph(plc300, loaded)
        # mmap-backed and read-only: the paging win without the footgun.
        assert not loaded.edge_src.flags.writeable
        with pytest.raises(ValueError):
            loaded.edge_src[0] = 99

    def test_v1_arrays_are_read_only_too(self, plc300, tmp_path):
        loaded = load_snapshot(save_snapshot(plc300, tmp_path / "g.npz"))
        assert not loaded.edge_src.flags.writeable
        assert not loaded.indices.flags.writeable
        with pytest.raises(ValueError):
            loaded.indptr[0] = 1

    def test_mmap_of_v1_npz_refused(self, plc300, tmp_path):
        path = save_snapshot(plc300, tmp_path / "g.npz")
        with pytest.raises(SnapshotError, match="exploded"):
            load_snapshot(path, mmap=True)

    def test_missing_header_is_damage(self, plc300, tmp_path):
        path = save_snapshot(plc300, tmp_path / "g.snap", layout="exploded")
        (path / "header.json").unlink()
        with pytest.raises(SnapshotError, match="not a CSR snapshot"):
            load_snapshot(path)

    def test_mixed_generation_sidecar_is_damage(self, plc300, tmp_path):
        # A sidecar disagreeing with the header (e.g. a crash between two
        # overwrites) must be named, not silently assembled.
        path = save_snapshot(plc300, tmp_path / "g.snap", layout="exploded")
        np.save(path / "indptr.npy", np.zeros(3, dtype=np.int64))
        with pytest.raises(SnapshotError, match="indptr"):
            load_snapshot(path)

    def test_future_version_refused(self, plc300, tmp_path):
        path = save_snapshot(plc300, tmp_path / "g.snap", layout="exploded")
        header = json.loads((path / "header.json").read_text())
        header["version"] = 99
        (path / "header.json").write_text(json.dumps(header))
        with pytest.raises(SnapshotError, match="version 99"):
            load_snapshot(path)

    def test_unknown_layout_rejected(self, plc300, tmp_path):
        with pytest.raises(ValueError, match="layout"):
            save_snapshot(plc300, tmp_path / "g", layout="imploded")

    def test_add_graph_exploded_idempotent(self, store, plc300):
        fp, path = store.add_graph(plc300)
        assert fp == graph_fingerprint(plc300)
        assert path == store.root / "graphs" / f"{fp}.snap" and path.is_dir()
        assert store.add_graph(plc300) == (fp, path)
        self._assert_same_graph(plc300, load_snapshot(path, mmap=True))

    def test_add_graph_exploded_rewrites_damage(self, store, plc300):
        fp, path = store.add_graph(plc300)
        (path / "header.json").write_text("{ torn")
        fp2, path2 = store.add_graph(plc300)
        assert (fp2, path2) == (fp, path)
        self._assert_same_graph(plc300, load_snapshot(path2))

    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda header: [], "header"),
            (lambda header: {**header, "version": None}, "version"),
            (lambda header: {**header, "n": None}, "'n'"),
            (
                lambda header: {
                    **header, "arrays": {**header["arrays"], "indptr": [1, 2]}
                },
                "'indptr'",
            ),
        ],
        ids=["not-an-object", "version-null", "n-null", "array-entry-list"],
    )
    def test_damaged_header_fields(self, store, plc300, damage, field):
        fp, path = store.add_graph(plc300)
        header_path = path / "header.json"
        header = json.loads(header_path.read_text())
        header_path.write_text(json.dumps(damage(header)))
        # The loader names the bad field; a store read is a miss, not a crash.
        with pytest.raises(SnapshotError, match=field):
            load_snapshot(path)
        with pytest.raises(SnapshotError, match=field):
            load_snapshot(path, mmap=True)
        assert store.load_graph(fp) is None
        # add_graph's probe never raises: the damaged snapshot is rewritten.
        assert store.add_graph(plc300) == (fp, path)
        self._assert_same_graph(plc300, load_snapshot(path, mmap=True))

    def test_legacy_npz_store_still_serves(self, store, plc300):
        # Stores written before the exploded layout hold graphs/<fp>.npz.
        fp = graph_fingerprint(plc300)
        legacy = save_snapshot(plc300, store.root / "graphs" / f"{fp}.npz")
        assert store.graph_path(fp) == legacy
        self._assert_same_graph(plc300, store.load_graph(fp))
        # Adding the graph writes the exploded snapshot, which then wins.
        _, path = store.add_graph(plc300)
        assert store.graph_path(fp) == path != legacy


class TestSnapshotValidation:
    """Cross-field consistency: damage is named, never deferred to kernels."""

    def _parts(self, g, **overrides):
        parts = {
            "edge_src": g.edge_src,
            "edge_dst": g.edge_dst,
            "indptr": g.indptr,
            "indices": g.indices,
            "arc_edge_ids": g.arc_edge_ids,
            "edge_weights": g.edge_weights,
        }
        parts.update(overrides)
        return parts

    def test_well_formed_passes(self, plc300):
        from repro.graphs.snapshot import validate_parts

        validate_parts(plc300.n, plc300.directed, self._parts(plc300))

    @pytest.mark.parametrize(
        "field,value_fn,match",
        [
            ("edge_src", lambda g: None, "edge_src.*missing"),
            ("edge_dst", lambda g: g.edge_dst[:-1], "edge_dst.*length"),
            ("indptr", lambda g: g.indptr[:-2], "indptr.*length"),
            ("indices", lambda g: g.indices[:-3], "indices.*length"),
            (
                "arc_edge_ids",
                lambda g: g.arc_edge_ids[:-1],
                "arc_edge_ids.*length",
            ),
            (
                "edge_src",
                lambda g: g.edge_src.astype(np.int32),
                "edge_src.*dtype",
            ),
            (
                "indices",
                lambda g: g.indices.reshape(1, -1),
                "indices.*1-D",
            ),
            (
                "edge_weights",
                lambda g: np.ones(3),
                "edge_weights.*length",
            ),
        ],
    )
    def test_each_offending_field_is_named(self, plc300, field, value_fn, match):
        from repro.graphs.snapshot import validate_parts

        parts = self._parts(plc300, **{field: value_fn(plc300)})
        with pytest.raises(SnapshotError, match=match):
            validate_parts(plc300.n, plc300.directed, parts)

    def test_indptr_endpoints_checked(self, plc300):
        from repro.graphs.snapshot import validate_parts

        bad = plc300.indptr.copy()
        bad[-1] += 7
        with pytest.raises(SnapshotError, match="indptr.*ends at"):
            validate_parts(
                plc300.n, plc300.directed, self._parts(plc300, indptr=bad)
            )

    def test_loader_applies_validation(self, plc300, tmp_path):
        # End to end: a structurally inconsistent exploded snapshot whose
        # header matches its sidecars still fails, naming the field.
        path = save_snapshot(plc300, tmp_path / "g.snap", layout="exploded")
        short = np.asarray(plc300.indptr[:-2])
        np.save(path / "indptr.npy", short)
        header = json.loads((path / "header.json").read_text())
        header["arrays"]["indptr"]["shape"] = list(short.shape)
        (path / "header.json").write_text(json.dumps(header))
        with pytest.raises(SnapshotError, match="indptr"):
            load_snapshot(path)


class TestFingerprint:
    def test_content_not_identity(self, plc300):
        twin = gen.powerlaw_cluster(300, 5, 0.7, seed=7)
        assert twin is not plc300
        assert graph_fingerprint(twin) == graph_fingerprint(plc300)

    def test_sensitive_to_structure_weights_direction(self, er300, weighted300):
        fps = {
            graph_fingerprint(er300),
            graph_fingerprint(weighted300),
            graph_fingerprint(gen.erdos_renyi(300, m=900, seed=12)),
            graph_fingerprint(er300.keep_edges(np.arange(er300.num_edges) > 0)),
        }
        assert len(fps) == 4

    def test_snapshot_preserves_fingerprint(self, plc300, tmp_path):
        path = save_snapshot(plc300, tmp_path / "g.npz")
        assert graph_fingerprint(load_snapshot(path)) == graph_fingerprint(plc300)
