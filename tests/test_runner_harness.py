"""Tests for the named-sweep harness, resumable BENCH records, and the
``python -m repro.runner`` CLI."""

import json

import pytest

from repro.graphs import generators as gen
from repro.runner.harness import (
    SweepSpec,
    available_sweeps,
    get_sweep,
    register_sweep,
    run_sweep,
    write_bench_record,
)
from repro.runner.store import ArtifactStore


@pytest.fixture
def tiny_sweep() -> SweepSpec:
    return SweepSpec(
        name="tiny_test",
        graphs=("a", "b"),
        schemes=("uniform(p=0.5)", "spanner(k=4)"),
        algorithms=("pr", "cc"),
        seeds=(0, 1),
        pr_iterations=20,
    )


@pytest.fixture
def loader():
    graphs = {
        "a": gen.powerlaw_cluster(120, 4, 0.5, seed=1),
        "b": gen.erdos_renyi(150, m=450, seed=2),
    }
    return graphs.__getitem__


def _values(table):
    return [
        (c.graph, c.scheme, c.algorithm, c.metric, c.seed, c.value,
         c.compression_ratio)
        for c in table
    ]


class TestRunSweep:
    def test_spans_graphs_and_seeds(self, tiny_sweep, loader):
        result = run_sweep(tiny_sweep, graph_loader=loader)
        # 2 graphs x 2 schemes x 2 algorithms x 2 seeds, default metrics.
        assert len(result.table) == 16
        assert result.table.graphs() == ["a", "b"]
        assert {c.seed for c in result.table} == {0, 1}
        assert result.perf["cells"] == 16
        assert result.perf["cache_misses"] == 16
        assert result.perf["wall_seconds"] > 0

    def test_warm_store_run_is_pure_replay(self, tiny_sweep, loader, tmp_path):
        cold = run_sweep(tiny_sweep, graph_loader=loader, store=tmp_path / "store")
        assert cold.perf["cache_misses"] == 16
        warm = run_sweep(tiny_sweep, graph_loader=loader, store=tmp_path / "store")
        # The acceptance criterion: a re-run against a warm store performs
        # zero recomputation — every cell group is a hit.
        assert warm.perf["cache_misses"] == 0
        assert warm.perf["cache_hits"] == 16
        assert warm.perf["compress_seconds"] == 0.0
        assert _values(warm.table) == _values(cold.table)

    def test_interrupted_sweep_resumes(self, tiny_sweep, loader, tmp_path):
        from dataclasses import replace

        store_path = tmp_path / "store"
        # "Interrupted" run: only the first seed completed.
        run_sweep(replace(tiny_sweep, seeds=(0,)), graph_loader=loader, store=store_path)
        resumed = run_sweep(tiny_sweep, graph_loader=loader, store=store_path)
        assert resumed.perf["cache_hits"] == 8
        assert resumed.perf["cache_misses"] == 8

    def test_axis_overrides(self, tiny_sweep, loader):
        result = run_sweep(tiny_sweep, graph_loader=loader, seeds=[7], graphs=["a"])
        assert result.perf["seeds"] == [7]
        assert result.table.graphs() == ["a"]
        assert len(result.table) == 4

    def test_bench_record_written(self, tiny_sweep, loader, tmp_path):
        result = run_sweep(tiny_sweep, graph_loader=loader, store=tmp_path / "s")
        path = write_bench_record(result, tmp_path / "out")
        assert path.name == "BENCH_tiny_test.json"
        record = json.loads(path.read_text())
        assert record["schema_version"] == 1
        assert record["sweep"] == "tiny_test"
        assert record["cells"] == 16
        assert {"cache_hits", "cache_misses", "compress_seconds",
                "wall_seconds", "grids", "store_stats"} <= set(record)


class TestPerfFold:
    """Job records fold their grids, sweep records fold their jobs."""

    #: Registry metric -> flat counter of the sweep record.
    RUNNER_METRICS = {
        "repro.runner.cells_scheduled": "cells_scheduled",
        "repro.runner.cache_hits": "cache_hits",
        "repro.runner.cache_misses": "cache_misses",
        "repro.runner.task_retries": "retries",
        "repro.runner.pool_rebuilds": "pool_rebuilds",
        "repro.runner.store_write_retries": "store_write_retries",
    }

    @staticmethod
    def _assert_sum(total, parts):
        from repro.runner.parallel import PERF_COUNTERS

        for key in PERF_COUNTERS:
            assert total[key] == pytest.approx(sum(p[key] for p in parts)), key
        for key in ("failed_cells", "store_write_failures"):
            assert len(total[key]) == sum(len(p[key]) for p in parts), key
        cells = sum(w["cells"] for w in total["workers"].values())
        assert cells == sum(
            w["cells"] for p in parts for w in p["workers"].values()
        )

    def _sweep(self, tiny_sweep, loader, store, monkeypatch):
        import repro.runner.harness as harness

        jobs = []
        real = harness.execute_job

        def spy(job, **kwargs):
            jobs.append(real(job, **kwargs))
            return jobs[-1]

        monkeypatch.setattr(harness, "execute_job", spy)
        result = run_sweep(tiny_sweep, graph_loader=loader, store=store, jobs=2)
        return result.perf, [job.perf for job in jobs]

    def test_cold_then_warm_counters_fold(
        self, tiny_sweep, loader, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        for run in ("cold", "warm"):
            sweep, jobs = self._sweep(tiny_sweep, loader, store, monkeypatch)
            assert [job["graph"] for job in jobs] == ["a", "b"]
            for job in jobs:
                assert [g["seed"] for g in job["grids"]] == [0, 1]
                self._assert_sum(job, job["grids"])
            self._assert_sum(sweep, jobs)
            assert sweep["grids"] == [g for job in jobs for g in job["grids"]]
            metrics = sweep["metrics"]
            runner = {k for k in metrics if k.startswith("repro.runner.")}
            assert runner == set(self.RUNNER_METRICS) | {"repro.runner.failed_cells"}
            for name, key in self.RUNNER_METRICS.items():
                assert metrics[name] == sweep[key], name
            assert metrics["repro.runner.failed_cells"] == len(sweep["failed_cells"])
            assert metrics["repro.analysis.hits"] == sweep["analysis_hits"]
            assert metrics["repro.analysis.misses"] == sweep["analysis_misses"]
            assert sweep["cells_scheduled"] == 16
            workers = sum(w["cells"] for w in sweep["workers"].values())
            if run == "cold":
                assert sweep["cache_misses"] == workers == 16
            else:
                assert sweep["cache_hits"] == 16
                assert sweep["cache_misses"] == workers == 0


class TestRegistry:
    def test_builtin_sweeps_registered(self):
        assert {"smoke", "fig5", "table5"} <= set(available_sweeps())
        assert get_sweep("table5").metrics == ("kl",)

    def test_unknown_sweep_named_in_error(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            get_sweep("nope")

    def test_duplicate_registration_rejected(self):
        spec = SweepSpec(name="dup_test", graphs=("a",), schemes=("uniform(p=0.5)",))
        register_sweep(spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_sweep(spec)
            register_sweep(spec, replace_existing=True)
        finally:
            from repro.runner import harness

            harness._SWEEPS.pop("dup_test", None)


class TestCLI:
    def test_list(self, capsys):
        from repro.runner.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "table5" in out

    def test_no_sweep_is_usage_error(self, capsys):
        from repro.runner.__main__ import main

        assert main([]) == 2

    def test_smoke_run_twice_via_cli(self, tmp_path, capsys):
        from repro.runner.__main__ import main

        args = [
            "smoke",
            "--store", str(tmp_path / "store"),
            "--out", str(tmp_path / "out"),
            "--seeds", "0",
            "--csv",
        ]
        assert main(args) == 0
        record = json.loads((tmp_path / "out" / "BENCH_smoke.json").read_text())
        assert record["cache_misses"] == record["cells_scheduled"] > 0
        assert main(args + ["--markdown"]) == 0
        record = json.loads((tmp_path / "out" / "BENCH_smoke.json").read_text())
        assert record["cache_misses"] == 0
        assert record["cache_hits"] == record["cells_scheduled"]
        assert (tmp_path / "out" / "smoke_cells.csv").exists()
        assert "| scheme |" in capsys.readouterr().out
