"""Tests for the fluent evaluation session: baseline caching, scoring,
and sweeps as a view over grid cells."""

import pytest

from repro.algorithms import register_algorithm, unregister_algorithm
from repro.algorithms.pagerank import pagerank
from repro.analytics import Session
from repro.compress.registry import build_scheme
from repro.compress.uniform import RandomUniformSampling


@pytest.fixture
def counting_algorithm():
    """A temporary registered scalar algorithm counting its executions."""
    calls = {"n": 0}

    @register_algorithm("tmp_counting", adapter="scalar")
    def tmp_counting(g):
        calls["n"] += 1
        return g.num_edges

    yield "tmp_counting", calls
    unregister_algorithm("tmp_counting")


class TestBaselineCache:
    def test_baseline_reused_across_schemes(self, plc300):
        session = Session(plc300, seed=0)
        session.grid(["uniform(p=0.5)"])
        first = session.baseline_computations
        assert first > 0
        session.grid(["spanner(k=8)"])
        session.grid(["EO-0.8-1-TR"])
        # Scoring two more schemes ran zero extra original-graph work.
        assert session.baseline_computations == first

    def test_counting_via_instrumented_algorithm(self, plc300, counting_algorithm):
        name, calls = counting_algorithm
        session = Session(plc300, seed=0)
        session.grid(["uniform(p=0.5)"], [name])
        session.grid(["uniform(p=0.9)"], [name])
        # 1 baseline + 2 compressed runs; a session-less pair would do 4.
        assert calls["n"] == 3

    def test_records_match_shimless_path(self, plc300):
        rows = Session(plc300, seed=0).sweep([RandomUniformSampling(0.5)])
        names = {r.algorithm for r in rows}
        assert names == {"bfs", "cc", "pr", "tc", "tc_per_vertex"}
        assert all(r.compression_ratio < 1 for r in rows)


class TestFluentApi:
    def test_compress_run_score(self, plc300):
        scores = (
            Session(plc300, seed=0)
            .compress("spanner(k=8)")
            .run(pagerank)
            .score(["kl"])
        )
        assert scores["kl_divergence"] >= 0
        assert scores["kl"] == scores["kl_divergence"]

    def test_multiple_metrics_and_algorithms(self, plc300):
        session = Session(plc300, seed=0)
        run = session.compress("uniform(p=0.5)").run(pagerank).run("cc")
        scores = run.score()
        assert set(scores) == {"pagerank", "cc"}
        assert "kl_divergence" in scores["pagerank"]
        assert "relative_change" in scores["cc"]

    def test_named_battery_algorithms(self, plc300):
        scores = (
            Session(plc300, seed=0)
            .compress("uniform(p=0.5)")
            .run("pr", "tc")
            .score()
        )
        assert set(scores) == {"pr", "tc"}

    def test_pipeline_spec_compresses(self, plc300):
        run = Session(plc300, seed=0).compress("uniform(p=0.9) | spanner(k=4)")
        assert [st.scheme for st in run.lineage] == ["uniform", "spanner"]
        assert run.graph.num_edges < plc300.num_edges

    def test_score_without_run_rejected(self, plc300):
        with pytest.raises(ValueError):
            Session(plc300).compress("uniform(p=0.5)").score(["kl"])

    def test_unknown_metric_rejected(self, plc300):
        run = Session(plc300, seed=0).compress("uniform(p=0.5)").run(pagerank)
        with pytest.raises(ValueError):
            run.score(["wasserstein"])

    def test_bfs_run_only_scores_critical_edges(self, plc300):
        run = Session(plc300, seed=0).compress("uniform(p=0.5)").run("bfs")
        scores = run.score(["critical_edges"])
        assert 0 <= scores["critical_edge_preservation"] <= 1.5
        with pytest.raises(ValueError, match="critical_edges"):
            run.score(["kl"])

    def test_outputs_accessor_reuses_baseline(self, plc300):
        run = Session(plc300, seed=0).compress("uniform(p=0.5)").run(pagerank)
        out0, out1 = run.outputs("pagerank")
        assert len(out0.ranks) == plc300.n
        assert len(out1.ranks) == run.graph.n
        with pytest.raises(ValueError):
            run.outputs("never_ran")


class TestSessionSweep:
    def test_spec_list_sweep(self, plc300):
        session = Session(plc300, seed=0)
        rows = session.sweep(
            ["uniform(p=0.2)", "uniform(p=0.5)", "uniform(p=0.9)"],
            algorithms=["cc"],
        )
        ratios = {row.parameter: row.compression_ratio for row in rows}
        assert ratios[0.2] < ratios[0.5] < ratios[0.9]
        assert all(row.scheme_spec.startswith("uniform") for row in rows)

    def test_duplicate_schemes_evaluated_once(self, plc300, counting_algorithm):
        name, calls = counting_algorithm
        session = Session(plc300, seed=0)
        rows = session.sweep(
            ["uniform(p=0.5)", "uniform(p=0.5)"],
            algorithms=[name],
        )
        assert len(rows) == 2  # both rows reported...
        assert calls["n"] == 2  # ...but 1 baseline + 1 compressed execution

    def test_duplicate_schemes_keep_their_labels(self, plc300):
        session = Session(plc300, seed=0)
        rows = session.sweep(
            ["uniform(p=0.5)", "uniform(0.5)"],
            parameters=["a", "b"],
            algorithms=["cc"],
        )
        assert [row.parameter for row in rows] == ["a", "b"]
        assert [row.scheme_spec for row in rows] == ["uniform(p=0.5)"] * 2

    def test_repeats_validation(self, plc300):
        with pytest.raises(ValueError):
            Session(plc300).sweep(["uniform(p=0.5)"], repeats=0)

    def test_repeat_rows_report_their_winning_cell(self, plc300):
        # Each row's seed and metric come from its best-timed repeat, so
        # its compression ratio must be that repeat's ratio too.
        rows = Session(plc300, seed=3).sweep(["uniform(p=0.5)"], repeats=4)
        for row in rows:
            result = build_scheme(row.scheme_spec).compress(plc300, seed=row.seed)
            assert row.compression_ratio == result.compression_ratio

    def test_sweep_is_a_view_over_grid_cells(self, plc300):
        schemes = ["uniform(p=0.5)", "spanner(k=4)"]
        rows = Session(plc300, seed=2).sweep(schemes, algorithms=["pr", "cc"])
        table = Session(plc300, seed=2).grid(schemes, ["pr", "cc"])
        assert [
            (r.scheme_spec, r.algorithm, r.metric_name, r.metric_value,
             r.compression_ratio, r.seed)
            for r in rows
        ] == [
            (c.scheme, c.algorithm, c.metric, c.value, c.compression_ratio, c.seed)
            for c in table
        ]


class TestCallableAlgorithms:
    def test_bare_callable_runs_and_scores(self, plc300):
        run = Session(plc300, seed=1).compress("uniform(p=0.5)")
        scores = run.run(lambda g: g.num_edges, kind="scalar", name="edges").score()
        assert scores["edges"]["relative_change"] == pytest.approx(-0.5, abs=0.1)

    def test_grids_reject_bare_callables(self, plc300):
        with pytest.raises(ValueError, match="registry algorithms"):
            Session(plc300, seed=0).grid(["uniform(p=0.5)"], [pagerank])
