"""Tests for store-backed and parallel Session.grid/sweep execution:
equality with the in-memory path, zero-recompute warm replays, and seed
plumbing."""

import pytest

from repro.analytics.session import Session
from repro.runner.store import ArtifactStore

SCHEMES = ["uniform(p=0.5)", "spanner(k=8)"]
ALGS = ["pr", "cc", "sssp"]


def _comparable(table):
    """The deterministic face of a table (drop wall-clock noise)."""
    return [
        (c.scheme, c.algorithm, c.metric, c.value, c.compression_ratio, c.seed)
        for c in table
    ]


class TestStoreBackedGrid:
    def test_equals_in_memory_path(self, plc300, tmp_path):
        expected = Session(plc300, seed=1).grid(SCHEMES, ALGS)
        store = ArtifactStore(tmp_path / "store")
        got = Session(plc300, seed=1, store=store).grid(SCHEMES, ALGS)
        assert _comparable(got) == _comparable(expected)

    def test_warm_store_recomputes_nothing(self, plc300, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cold = Session(plc300, seed=1, store=store)
        expected = cold.grid(SCHEMES, ALGS)
        assert cold.last_grid_perf["cache_misses"] == len(expected)

        warm = Session(plc300, seed=1, store=ArtifactStore(tmp_path / "store"))
        got = warm.grid(SCHEMES, ALGS)
        assert _comparable(got) == _comparable(expected)
        # The acceptance guarantee: zero recomputation on a warm store —
        # every cell is a cache hit, and the session never ran a baseline.
        assert warm.last_grid_perf["cache_hits"] == len(expected)
        assert warm.last_grid_perf["cache_misses"] == 0
        assert warm.baseline_computations == 0
        # Even the timings replay byte-identically from the store.
        assert [c.compressed_seconds for c in got] == [
            c.compressed_seconds for c in expected
        ]

    def test_different_seed_misses(self, plc300, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        session = Session(plc300, seed=1, store=store)
        session.grid(SCHEMES, ["pr"], ["kl"])
        session.grid(SCHEMES, ["pr"], ["kl"], seed=2)
        assert session.last_grid_perf["cache_misses"] == len(SCHEMES)

    def test_surface_spellings_share_cells(self, plc300, tmp_path):
        # "pr" (battery short name) and "pagerank" (registry name) bind to
        # one canonical spec, so the store replays across spellings while
        # each call keeps its own display label.
        store = ArtifactStore(tmp_path / "store")
        session = Session(plc300, seed=1, store=store)
        short = session.grid(SCHEMES, ["pr"], ["kl"])
        long = session.grid(SCHEMES, ["pagerank(iterations=100)"], ["kl"])
        assert session.last_grid_perf["cache_hits"] == len(SCHEMES)
        assert [c.value for c in long] == [c.value for c in short]
        assert short.algorithms() == ["pr"]
        assert long.algorithms() == ["pagerank(max_iterations=100)"]

    def test_legacy_callables_rejected(self, plc300, tmp_path):
        session = Session(plc300, seed=1, store=ArtifactStore(tmp_path / "s"))
        with pytest.raises(ValueError, match="registry algorithms"):
            session.grid(SCHEMES, [lambda g: g.num_edges])
        assert len(session.store) == 0

    def test_store_accepts_path_surface(self, plc300, tmp_path):
        session = Session(plc300, seed=1, store=tmp_path / "store")
        assert isinstance(session.store, ArtifactStore)
        session.grid(SCHEMES, ["cc"])
        assert len(session.store) == len(SCHEMES)


class TestParallelGrid:
    def test_parallel_equals_sequential(self, plc300):
        expected = Session(plc300, seed=1).grid(SCHEMES, ALGS)
        got = Session(plc300, seed=1, jobs=2).grid(SCHEMES, ALGS)
        assert _comparable(got) == _comparable(expected)

    def test_parallel_store_backed_round_trip(self, plc300, tmp_path):
        expected = Session(plc300, seed=1).grid(SCHEMES, ALGS)
        store = ArtifactStore(tmp_path / "store")
        cold = Session(plc300, seed=1, store=store, jobs=2)
        assert _comparable(cold.grid(SCHEMES, ALGS)) == _comparable(expected)
        # Warm parallel run: replay only, no pool work needed.
        warm = Session(
            plc300, seed=1, store=ArtifactStore(tmp_path / "store"), jobs=2
        )
        assert _comparable(warm.grid(SCHEMES, ALGS)) == _comparable(expected)
        assert warm.last_grid_perf["cache_misses"] == 0

    def test_parallel_respects_session_defaults(self, plc300):
        # bfs_root/pr_iterations travel to the workers.
        expected = Session(plc300, seed=1, bfs_root=3, pr_iterations=17).grid(
            SCHEMES, ["bfs", "pr"]
        )
        got = Session(plc300, seed=1, bfs_root=3, pr_iterations=17, jobs=2).grid(
            SCHEMES, ["bfs", "pr"]
        )
        assert _comparable(got) == _comparable(expected)


class TestSeedPlumbing:
    def test_grid_records_resolved_seed(self, plc300):
        table = Session(plc300, seed=5).grid(SCHEMES, ["cc"])
        assert {c.seed for c in table} == {5}
        table = Session(plc300, seed=5).grid(SCHEMES, ["cc"], seed=9)
        assert {c.seed for c in table} == {9}

    def test_compressed_run_carries_seed(self, plc300):
        session = Session(plc300, seed=5)
        assert session.compress("uniform(p=0.5)").seed == 5
        assert session.compress("uniform(p=0.5)", seed=11).seed == 11

    def test_sweep_rows_record_cell_seed(self, plc300):
        rows = Session(plc300, seed=4).sweep(SCHEMES, repeats=2)
        # Each row's seed is the seed of its winning repeat — one of the
        # two cell seeds actually applied.
        assert set(r.seed for r in rows) <= {4, 5}
        assert all(r.seed is not None for r in rows)

    def test_store_backed_sweep_matches_values(self, plc300, tmp_path):
        expected = Session(plc300, seed=4).sweep(SCHEMES)
        store = ArtifactStore(tmp_path / "store")
        got = Session(plc300, seed=4, store=store).sweep(SCHEMES)
        key = lambda rows: [
            (r.parameter, r.algorithm, r.scheme_spec, r.metric_name,
             r.metric_value, r.compression_ratio, r.seed)
            for r in rows
        ]
        assert key(got) == key(expected)


class TestWorkerCompressionCache:
    """Regression pin for the `_compute_cell` run-cache semantics: the
    cache holds exactly one (scheme, seed) compression and is evicted on
    ANY key change — a new seed of the same scheme evicts too.  Under the
    scheme-major task order the scheduler emits (seeds grouped within a
    scheme), every (scheme, seed) pair therefore compresses exactly once
    per process."""

    def _counting(self, session):
        calls = []
        real = session.compress

        def compress(scheme, seed=None, **kwargs):
            calls.append((scheme, seed))
            return real(scheme, seed=seed, **kwargs)

        session.compress = compress
        return calls

    def test_one_compression_per_scheme_seed_scheme_major(self, plc300):
        from repro.runner.parallel import _compute_cell

        session = Session(plc300, seed=1)
        calls = self._counting(session)
        runs: dict = {}
        # Scheme-major with seeds grouped: the order the scheduler emits.
        for scheme in SCHEMES:
            for seed in (1, 2):
                for alg in ("pagerank", "cc"):
                    task = {
                        "scheme": scheme,
                        "seed": seed,
                        "algorithm": alg,
                        "metrics": (),
                    }
                    _compute_cell(session, runs, task)
        # 2 schemes x 2 seeds = 4 compressions for 8 tasks; no pair twice.
        assert len(calls) == len(SCHEMES) * 2
        assert len(set(calls)) == len(calls)
        # The cache never grows past the single current compression.
        assert len(runs) == 1

    def test_seed_change_evicts_like_scheme_change(self, plc300):
        from repro.runner.parallel import _compute_cell

        session = Session(plc300, seed=1)
        calls = self._counting(session)
        runs: dict = {}
        # Non-grouped order: revisiting a (scheme, seed) after the cache
        # moved on recompresses — this is the documented (and bounded-
        # memory) behavior the scheduler's ordering is designed around.
        order = [(SCHEMES[0], 1), (SCHEMES[0], 2), (SCHEMES[0], 1)]
        for scheme, seed in order:
            _compute_cell(
                session,
                runs,
                {"scheme": scheme, "seed": seed, "algorithm": "pagerank",
                 "metrics": ()},
            )
        assert len(calls) == 3

    def test_store_backed_inline_grid_compresses_each_scheme_once(
        self, plc300, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        session = Session(plc300, seed=1, store=store)
        calls = self._counting(session)
        session.grid(SCHEMES, ["pr", "cc"], seed=1)
        # 2 schemes x 2 algorithms = 4 tasks, but one compression per
        # scheme: the run cache carries across same-scheme tasks.
        assert len(calls) == len(SCHEMES)


class TestMergePerf:
    def test_sums_counters_tags_manifests_and_merges_workers(self):
        from repro.runner.parallel import PERF_COUNTERS, merge_perf, new_perf

        first = new_perf(
            cache_hits=1,
            cache_misses=2,
            compress_seconds=0.5,
            analysis_cache={"hits": 1, "misses": 0, "by_analysis": {
                "triangles": {"hits": 1, "misses": 0}}},
            failed_cells=[{"scheme": "s", "seed": 0, "algorithm": "pr",
                           "error": "E", "attempts": 3}],
            workers={"7": {"pid": 7, "load_seconds": 0.1,
                           "peak_rss_bytes": 100, "private_bytes": None,
                           "cells": 2}},
        )
        second = new_perf(
            cache_misses=3,
            compress_seconds=0.25,
            analysis_cache={"hits": 0, "misses": 2, "by_analysis": {
                "triangles": {"hits": 0, "misses": 2}}},
            store_write_failures=[{"digest": "d", "error": "E", "attempts": 3}],
            workers={
                "7": {"pid": 7, "load_seconds": 9.0,
                      "peak_rss_bytes": 50, "private_bytes": 30, "cells": 1},
                "8": {"pid": 8, "load_seconds": 0.2,
                      "peak_rss_bytes": None, "private_bytes": 10, "cells": 4},
            },
        )
        total = new_perf(jobs=2)
        assert merge_perf(total, first, graph="a") is total
        merge_perf(total, second, graph="b")

        assert total["jobs"] == 2
        assert (total["cache_hits"], total["cache_misses"]) == (1, 5)
        assert total["compress_seconds"] == pytest.approx(0.75)
        assert set(PERF_COUNTERS) <= set(total)
        assert total["failed_cells"] == [{"graph": "a", **first["failed_cells"][0]}]
        assert total["store_write_failures"] == [
            {"graph": "b", **second["store_write_failures"][0]}
        ]
        assert total["analysis_cache"] == {
            "hits": 1, "misses": 2,
            "by_analysis": {"triangles": {"hits": 1, "misses": 2}},
        }
        seven = total["workers"]["7"]
        assert seven["cells"] == 3
        assert seven["peak_rss_bytes"] == 100  # max, lifetime high-water
        assert seven["private_bytes"] == 30  # None means "not measured"
        assert seven["load_seconds"] == 0.1  # per-process, first sight
        assert total["workers"]["8"]["peak_rss_bytes"] is None
        # The parts are copied, never aliased.
        assert first["workers"]["7"]["cells"] == 2

    def test_pooled_grid_workers_account_every_computed_cell(self, plc300):
        session = Session(plc300, seed=0, jobs=2)
        session.grid(SCHEMES, ALGS)
        perf = session.last_grid_perf
        cells = sum(w["cells"] for w in perf["workers"].values())
        assert cells == perf["cache_misses"] == perf["cells_scheduled"]
        assert perf["analysis_hits"] == perf["analysis_cache"]["hits"]
        assert perf["analysis_misses"] == perf["analysis_cache"]["misses"]
