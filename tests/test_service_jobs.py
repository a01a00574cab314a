"""Tests for the transport-neutral job model (`repro.service.jobs`):
canonical JSON identity, round-trips, and the shared scheduler."""

import json

import pytest

from repro.graphs import generators as gen
from repro.runner.store import ArtifactStore
from repro.service.jobs import (
    FINGERPRINT_PREFIX,
    JobSpec,
    execute_job,
    load_job_graph,
)


@pytest.fixture
def graph():
    return gen.powerlaw_cluster(150, 4, 0.5, seed=3)


@pytest.fixture
def loader(graph):
    return lambda ref: graph


def _job(**overrides) -> JobSpec:
    base = dict(
        graph="g",
        schemes=["uniform(p=0.5)", "spanner(k=4)"],
        algorithms=["pr", "cc"],
        seeds=[0, 1],
    )
    base.update(overrides)
    return JobSpec.build(**base)


class TestIdentity:
    def test_spelling_variants_share_one_key(self):
        a = _job(schemes=["uniform(0.5)"], algorithms=["pr"])
        b = _job(schemes=["uniform(p=0.5)"], algorithms=["pagerank"])
        assert a.job_key == b.job_key

    def test_metric_order_and_aliases_are_canonical(self):
        a = _job(metrics=["l2", "kl"])
        b = _job(metrics=["kl_divergence", "l2_distance"])
        # Normalized at build time (the satellite requirement: JobSpec
        # JSON itself is metric-order-free, not just the hash).
        assert a.metrics == b.metrics == ("kl_divergence", "l2_distance")
        assert a.job_key == b.job_key

    def test_seed_order_and_duplicates_do_not_split_jobs(self):
        assert _job(seeds=[1, 0, 1]).job_key == _job(seeds=[0, 1]).job_key

    def test_every_axis_discriminates(self):
        base = _job()
        variants = [
            _job(graph="h"),
            _job(schemes=["uniform(p=0.4)", "spanner(k=4)"]),
            _job(algorithms=["pr"]),
            _job(metrics=["kl"]),
            _job(seeds=[2]),
            _job(graph_seed=1),
            _job(pr_iterations=50),
        ]
        keys = {base.job_key} | {v.job_key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_session_defaults_fold_into_identity(self):
        # bfs_root only matters to algorithms that take a source; pinning
        # the source explicitly equals relying on the default.
        a = _job(algorithms=["bfs_reach"], bfs_root=3)
        b = _job(algorithms=["bfs_reach(source=3)"])
        assert a.job_key == b.job_key
        assert a.job_key != _job(algorithms=["bfs_reach"], bfs_root=0).job_key
        # ...but is irrelevant (same key) for source-free algorithms.
        assert _job(bfs_root=3).job_key == _job().job_key

    def test_job_key_is_pinned_and_computed_once(self, monkeypatch):
        import pickle
        from dataclasses import replace

        job = _job()
        # The hex is the queue's dedupe key and a stored job's identity:
        # pinning it catches any change to the canonical form.
        key = "4fb7f95e97d3ace6db40c1284a4334423b73b2097a0a65fcbec98ae6f57ebcc4"
        assert job.job_key == key

        def fail(self):
            raise AssertionError("job_key recomputed")

        monkeypatch.setattr(JobSpec, "canonical_dict", fail)
        assert job.job_key == key
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job and hash(clone) == hash(job)
        assert clone.job_key == key
        assert replace(job) == job and hash(replace(job)) == hash(job)

    def test_pr_iterations_fold_into_identity(self):
        assert (
            _job(algorithms=["pagerank(max_iterations=100)"]).job_key
            == _job(algorithms=["pr"], pr_iterations=100).job_key
        )


class TestTransport:
    def test_json_round_trip(self):
        job = _job(metrics=["kl", "l2"], pr_iterations=42)
        clone = JobSpec.from_json(job.to_json())
        assert clone == job
        assert clone.job_key == job.job_key

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job fields.*'shcemes'"):
            JobSpec.from_dict({"graph": "g", "schemes": ["x"], "shcemes": []})

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ValueError, match="'graph' and 'schemes'"):
            JobSpec.from_dict({"schemes": ["uniform(p=0.5)"]})
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_dict(["not", "a", "mapping"])

    def test_bad_specs_fail_at_build_time(self):
        with pytest.raises(Exception):
            _job(schemes=["no_such_scheme(p=0.5)"])
        with pytest.raises(Exception):
            _job(algorithms=["no_such_algorithm"])
        with pytest.raises(ValueError, match="at least one scheme"):
            _job(schemes=[])
        with pytest.raises(ValueError, match="at least one seed"):
            _job(seeds=[])

    #: (field overrides, the field the error must name) for untrusted
    #: bodies: wrong types are rejected, never coerced or run.
    MALFORMED = [
        ({"metrics": ["nope"]}, "metrics"),
        ({"schemes": "uniform(p=0.5)"}, "schemes"),
        ({"schemes": 5}, "schemes"),
        ({"schemes": [5]}, "schemes"),
        ({"algorithms": "pr"}, "algorithms"),
        ({"seeds": [1.5]}, "seeds"),
        ({"seeds": [True]}, "seeds"),
        ({"seeds": "01"}, "seeds"),
        ({"pr_iterations": None}, "pr_iterations"),
        ({"pr_iterations": 2.0}, "pr_iterations"),
        ({"graph_seed": [1]}, "graph_seed"),
        ({"graph_seed": True}, "graph_seed"),
        ({"bfs_root": "3"}, "bfs_root"),
        ({"graph": 5}, "graph"),
        ({"graph": ""}, "graph"),
    ]

    @pytest.mark.parametrize(
        "overrides, field", MALFORMED, ids=[f for _, f in MALFORMED]
    )
    def test_malformed_fields_named(self, overrides, field):
        body = {"graph": "g", "schemes": ["uniform(p=0.5)"], **overrides}
        with pytest.raises(ValueError, match=f"job field '{field}'"):
            JobSpec.from_dict(body)

    def test_registry_errors_name_the_field(self):
        with pytest.raises(ValueError, match="'schemes': unknown scheme"):
            _job(schemes=["no_such_scheme(p=0.5)"])
        with pytest.raises(ValueError, match="'algorithms': unknown algorithm"):
            _job(algorithms=["no_such_algorithm"])
        with pytest.raises(ValueError, match="'metrics': unknown metric 'nope'"):
            _job(metrics=["kl", "nope"])

    def test_any_integral_seed_is_accepted(self):
        import numpy as np

        job = _job(seeds=np.array([3, 1]), graph_seed=np.int64(2))
        assert job.seeds == (3, 1) and job.graph_seed == 2
        assert all(type(s) is int for s in job.seeds)
        assert type(job.graph_seed) is int

    def test_from_sweep_matches_harness_axes(self):
        from repro.runner.harness import get_sweep

        sweep = get_sweep("smoke")
        job = JobSpec.from_sweep(sweep, sweep.graphs[0])
        assert job.graph == sweep.graphs[0]
        assert job.schemes == sweep.schemes
        assert job.seeds == sweep.seeds
        assert job.cell_groups() == (
            len(sweep.schemes) * len(sweep.algorithms) * len(sweep.seeds)
        )


class TestExecution:
    def test_execute_matches_in_memory_session_grid(self, graph, loader):
        from repro.analytics.session import Session

        job = _job()
        result = execute_job(job, graph_loader=loader)
        expected = []
        session = Session(graph, seed=0)
        for seed in job.seeds:
            expected.extend(
                session.grid(job.schemes, job.algorithms, seed=seed)
            )
        got = [
            (c.scheme, c.algorithm, c.metric, c.seed, c.value, c.compression_ratio)
            for c in result.table
        ]
        want = [
            (c.scheme, c.algorithm, c.metric, c.seed, c.value, c.compression_ratio)
            for c in expected
        ]
        assert got == want
        assert all(c.graph == "g" for c in result.table)
        assert result.perf["cells_scheduled"] == job.cell_groups()
        assert result.perf["job_key"] == job.job_key

    def test_store_replay_is_zero_recompute(self, loader, tmp_path):
        job = _job()
        cold = execute_job(job, store=tmp_path / "store", graph_loader=loader)
        warm = execute_job(job, store=tmp_path / "store", graph_loader=loader)
        assert cold.perf["cache_misses"] == job.cell_groups()
        assert warm.perf["cache_misses"] == 0
        assert warm.perf["cache_hits"] == job.cell_groups()
        assert warm.table.to_dict() == cold.table.to_dict()

    def test_fingerprint_graph_reference(self, graph, tmp_path):
        from repro.runner.fingerprint import graph_fingerprint

        store = ArtifactStore(tmp_path / "store")
        fingerprint, _ = store.add_graph(graph)
        job = _job(graph=f"{FINGERPRINT_PREFIX}{fingerprint}")
        loaded = load_job_graph(job, store=store)
        assert graph_fingerprint(loaded) == fingerprint
        result = execute_job(job, store=store)
        assert len(result.table) == job.cell_groups()

    def test_legacy_npz_store_serves_fingerprint_jobs(self, graph, loader, tmp_path):
        # A store written before the exploded layout holds only
        # graphs/<fp>.npz; its fingerprint jobs still run, cold and warm.
        from repro.graphs.snapshot import save_snapshot
        from repro.runner.fingerprint import graph_fingerprint

        store = ArtifactStore(tmp_path / "store")
        fingerprint = graph_fingerprint(graph)
        save_snapshot(graph, store.root / "graphs" / f"{fingerprint}.npz")
        job = _job(graph=f"{FINGERPRINT_PREFIX}{fingerprint}")
        expected = execute_job(_job(), graph_loader=loader).table
        cold = execute_job(job, store=store, jobs=2)
        warm = execute_job(job, store=store, jobs=2)
        assert cold.perf["cache_misses"] == job.cell_groups()
        assert warm.perf["cache_hits"] == job.cell_groups()
        for result in (cold, warm):
            assert [c.value for c in result.table] == [c.value for c in expected]

    def test_fingerprint_reference_needs_a_store(self):
        job = _job(graph=f"{FINGERPRINT_PREFIX}{'a' * 64}")
        with pytest.raises(ValueError, match="needs a store"):
            load_job_graph(job)

    def test_unknown_snapshot_named_in_error(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        job = _job(graph=f"{FINGERPRINT_PREFIX}{'a' * 64}")
        with pytest.raises(ValueError, match="no snapshot"):
            load_job_graph(job, store=store)


def _cell_files(store) -> dict:
    return {
        str(p.relative_to(store.root)): p.read_bytes()
        for p in sorted((store.root / "cells").rglob("*.json"))
    }


def _values(table) -> list:
    return [
        (c.scheme, c.algorithm, c.metric, c.seed, c.value, c.compression_ratio)
        for c in table
    ]


class TestLazyFingerprintJobs:
    """A ``fingerprint:`` job loads its snapshot only when a cell misses."""

    @pytest.fixture
    def stored(self, graph, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        fingerprint, _ = store.add_graph(graph)
        return store, _job(graph=f"{FINGERPRINT_PREFIX}{fingerprint}")

    @staticmethod
    def forbid_snapshot_reads(monkeypatch):
        import repro.graphs.snapshot
        import repro.runner.store

        def refuse(*args, **kwargs):
            raise AssertionError("snapshot read by a fully warm job")

        monkeypatch.setattr(ArtifactStore, "load_graph", refuse)
        monkeypatch.setattr(repro.graphs.snapshot, "load_snapshot", refuse)
        monkeypatch.setattr(repro.runner.store, "load_snapshot", refuse)

    def test_warm_job_never_reads_the_snapshot(self, stored, monkeypatch):
        store, job = stored
        cold = execute_job(job, store=store)
        self.forbid_snapshot_reads(monkeypatch)
        warm = execute_job(job, store=store)
        assert warm.perf["cache_hits"] == job.cell_groups()
        assert warm.perf["cache_misses"] == 0
        assert warm.table.to_dict() == cold.table.to_dict()

    def test_cold_job_loads_once_and_never_hashes(self, stored, monkeypatch):
        import repro.runner.fingerprint
        import repro.runner.store

        store, job = stored
        loads = []
        real = repro.runner.store.load_snapshot

        def counting(*args, **kwargs):
            loads.append(args[0])
            return real(*args, **kwargs)

        def refuse(g):
            raise AssertionError("a stored graph's fingerprint was recomputed")

        monkeypatch.setattr(repro.runner.store, "load_snapshot", counting)
        monkeypatch.setattr(repro.runner.fingerprint, "_compute_fingerprint", refuse)
        result = execute_job(job, store=store)
        assert result.perf["cache_misses"] == job.cell_groups()
        assert len(loads) == 1

    def test_lazy_cold_job_matches_eager_job(self, graph, loader, stored):
        store, job = stored
        lazy = execute_job(job, store=store)
        eager = execute_job(_job(), graph_loader=loader)
        assert _values(lazy.table) == _values(eager.table)

    def test_missing_snapshot_fails_a_warm_job(self, stored):
        import shutil

        store, job = stored
        execute_job(job, store=store)
        shutil.rmtree(store.root / "graphs")
        with pytest.raises(ValueError, match="no snapshot"):
            execute_job(job, store=store)

    def test_damaged_snapshot_fails_only_jobs_that_compute(self, stored):
        store, job = stored
        cold = execute_job(job, store=store)
        for sidecar in store.graph_path(job.graph.split(":", 1)[1]).glob("*.npy"):
            sidecar.unlink()
        # Cells are keyed by content, so the warm job still replays them.
        warm = execute_job(job, store=store)
        assert warm.table.to_dict() == cold.table.to_dict()
        with pytest.raises(ValueError, match="no snapshot"):
            execute_job(_job(graph=job.graph, seeds=[7]), store=store)

    def test_cold_job_on_a_new_seed_replays_baselines(self, graph, loader, stored):
        store, job = stored
        execute_job(job, store=store)
        hits = store.stats.baseline_hits
        again = _job(graph=job.graph, seeds=[7])
        result = execute_job(again, store=store)
        assert result.perf["cache_misses"] == again.cell_groups()
        assert [g["baseline_computations"] for g in result.perf["grids"]] == [0]
        assert store.stats.baseline_hits == hits + len(again.algorithms)
        eager = execute_job(_job(seeds=[7]), graph_loader=loader)
        assert _values(result.table) == _values(eager.table)

    def test_pooled_lazy_job_matches_inline(self, graph, stored, tmp_path, monkeypatch):
        store, job = stored
        inline_store = ArtifactStore(tmp_path / "inline")
        inline_store.add_graph(graph)
        inline = execute_job(job, store=inline_store)
        pooled = execute_job(job, store=store, jobs=2)
        assert _values(pooled.table) == _values(inline.table)
        assert _cell_files(store).keys() == _cell_files(inline_store).keys()
        before = _cell_files(store)
        self.forbid_snapshot_reads(monkeypatch)
        warm = execute_job(job, store=store, jobs=2)
        assert warm.perf["cache_misses"] == 0
        assert warm.table.to_dict() == pooled.table.to_dict()
        assert _cell_files(store) == before

