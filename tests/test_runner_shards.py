"""Tests for out-of-core shard sets: exact edge tiling, mmap-backed
reloads, per-shard sweep equality, and manifest damage detection."""

import numpy as np
import pytest

from repro.analytics.session import Session
from repro.graphs import generators as gen
from repro.graphs.snapshot import SnapshotError
from repro.runner.shards import ShardSet, shard_graph, sweep_shards

SCHEMES = ["uniform(p=0.5)"]
ALGS = ["pr"]


def _comparable(cells):
    return sorted(
        (c.scheme, c.algorithm, c.metric, c.value, c.compression_ratio, c.seed)
        for c in cells
    )


class TestShardCutting:
    def test_tiles_edges_exactly(self, er300, tmp_path):
        ss = shard_graph(er300, tmp_path / "s", num_shards=3)
        assert len(ss) == 3
        assert sum(s.num_edges for s in ss.shards) == er300.num_edges
        ranges = [(s.edge_lo, s.edge_hi) for s in ss.shards]
        assert ranges[0][0] == 0 and ranges[-1][1] == er300.num_edges
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo

    def test_shards_match_keep_edges(self, er300, tmp_path):
        ss = shard_graph(er300, tmp_path / "s", num_shards=2)
        for shard in ss.shards:
            mask = np.zeros(er300.num_edges, dtype=bool)
            mask[shard.edge_lo : shard.edge_hi] = True
            expected = er300.keep_edges(mask)
            got = ss.load(shard.index)
            assert got.n == er300.n  # vertex set preserved
            np.testing.assert_array_equal(got.edge_src, expected.edge_src)
            np.testing.assert_array_equal(got.indptr, expected.indptr)

    def test_balanced_policy(self, plc300, tmp_path):
        ss = shard_graph(plc300, tmp_path / "s", num_shards=2, policy="balanced")
        assert sum(s.num_edges for s in ss.shards) == plc300.num_edges

    def test_unknown_policy(self, er300, tmp_path):
        with pytest.raises(ValueError, match="policy"):
            shard_graph(er300, tmp_path / "s", num_shards=2, policy="vibes")

    def test_open_round_trip_mmap_read_only(self, er300, tmp_path):
        shard_graph(er300, tmp_path / "s", num_shards=2)
        ss = ShardSet.open(tmp_path / "s")
        for shard, sub in ss:
            assert sub.num_edges == shard.num_edges
            assert not sub.edge_src.flags.writeable

    def test_missing_manifest_is_damage(self, er300, tmp_path):
        ss = shard_graph(er300, tmp_path / "s", num_shards=2)
        (ss.root / "manifest.json").unlink()
        with pytest.raises(SnapshotError, match="manifest"):
            ShardSet.open(ss.root)

    def test_future_manifest_version_refused(self, er300, tmp_path):
        import json

        ss = shard_graph(er300, tmp_path / "s", num_shards=2)
        manifest = dict(ss.manifest, version=99)
        (ss.root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version"):
            ShardSet.open(ss.root)


class TestShardSweep:
    def test_equals_per_shard_in_memory_grids(self, er300, tmp_path):
        ss = shard_graph(er300, tmp_path / "s", num_shards=2)
        table, perf = sweep_shards(ss, SCHEMES, ALGS, ["kl"], seed=3, jobs=2)
        assert perf["num_shards"] == 2
        assert all(p["workers"] for p in perf["shards"])
        for shard in ss.shards:
            label = f"shard:{shard.index}"
            mine = [c for c in table if c.graph == label]
            assert mine, f"no cells for {label}"
            expected = Session(ss.load(shard.index), seed=3).grid(
                SCHEMES, ALGS, ["kl"], seed=3
            )
            assert _comparable(mine) == _comparable(expected)

    def test_accepts_path_and_inline_jobs(self, er300, tmp_path):
        shard_graph(er300, tmp_path / "s", num_shards=2)
        table, perf = sweep_shards(
            tmp_path / "s", SCHEMES, ALGS, ["kl"], seed=3, jobs=1
        )
        assert perf["cells"] == len(table) > 0
        assert perf["failed_cells"] == []

    def test_perf_totals_fold_every_shard(self, er300, tmp_path):
        from repro.runner.store import ArtifactStore

        ss = shard_graph(er300, tmp_path / "s", num_shards=2)
        store = ArtifactStore(tmp_path / "store")
        algs = ["pr", "cc"]
        _, cold = sweep_shards(ss, SCHEMES, algs, seed=3, jobs=2, store=store)
        shards = cold["shards"]
        assert cold["cache_misses"] == sum(p["cache_misses"] for p in shards) > 0
        assert cold["cells_scheduled"] == sum(p["cells_scheduled"] for p in shards)
        assert cold["compress_seconds"] > 0
        assert cold["retries"] == 0
        # Pooled: every computed cell group is attributed to a worker.
        cells = sum(w["cells"] for w in cold["workers"].values())
        assert cells == cold["cells_scheduled"] == cold["cache_misses"]

        _, warm = sweep_shards(ss, SCHEMES, algs, seed=3, jobs=2, store=store)
        assert warm["cache_misses"] == 0
        assert warm["cache_hits"] == warm["cells_scheduled"] == cold["cells_scheduled"]

    def test_quarantined_cells_carry_their_shard(self, er300, tmp_path):
        from repro.algorithms import register_algorithm, unregister_algorithm

        @register_algorithm("tmp_shard_always_fails", adapter="scalar")
        def tmp_shard_always_fails(g):
            raise RuntimeError("poison")

        ss = shard_graph(er300, tmp_path / "s", num_shards=2)
        try:
            _, perf = sweep_shards(
                ss, SCHEMES, ["tmp_shard_always_fails"], seed=3,
                retry={"max_attempts": 1},
            )
        finally:
            unregister_algorithm("tmp_shard_always_fails")
        assert [f["shard"] for f in perf["failed_cells"]] == [0, 1]
        assert all("poison" in f["error"] for f in perf["failed_cells"])
