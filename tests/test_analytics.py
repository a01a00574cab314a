"""Tests for the analytics subsystem: scoring schemes through grids and
sweeps, and report rendering."""

import pytest

from repro.analytics import Session
from repro.analytics.report import format_table, write_csv
from repro.compress.uniform import RandomUniformSampling
from repro.compress.spanner import Spanner


class TestEvaluateScheme:
    def test_default_battery_records(self, plc300):
        rows = Session(plc300, seed=0).sweep([RandomUniformSampling(0.5)])
        names = {r.algorithm for r in rows}
        assert names == {"bfs", "cc", "pr", "tc", "tc_per_vertex"}
        by_name = {r.algorithm: r for r in rows}
        assert by_name["pr"].compression_ratio < 1
        assert by_name["pr"].metric_name == "kl_divergence"
        assert by_name["pr"].metric_value >= 0
        assert by_name["cc"].metric_name == "relative_change"
        assert by_name["tc_per_vertex"].metric_name == "reordered_neighbor_pairs"
        assert by_name["bfs"].metric_name == "critical_edge_preservation"
        assert 0 <= by_name["bfs"].metric_value <= 1.5

    def test_identity_scheme_perfect_metrics(self, plc300):
        class Identity:
            def compress(self, g, *, seed=None):
                from repro.compress.base import CompressionResult

                return CompressionResult(graph=g, original=g, scheme="id", params={})

        table = Session(plc300, seed=0).grid(
            [Identity()], ["pr", "cc", "tc_per_vertex", "bfs"]
        )
        by_name = {c.algorithm: c for c in table}
        assert by_name["pr"].value == pytest.approx(0.0, abs=1e-9)
        assert by_name["cc"].value == 0.0
        assert by_name["tc_per_vertex"].value == 0.0
        assert by_name["bfs"].value == pytest.approx(1.0)

    def test_custom_algorithm_kinds(self, plc300):
        run = Session(plc300, seed=1).compress(RandomUniformSampling(0.5))
        scores = run.run(lambda g: g.num_edges, kind="scalar", name="edges").score()
        assert list(scores) == ["edges"]
        assert scores["relative_change"] == pytest.approx(-0.5, abs=0.1)

    def test_unknown_kind_rejected(self, plc300):
        run = Session(plc300, seed=0).compress(RandomUniformSampling(0.5))
        with pytest.raises(ValueError):
            run.run(lambda g: 0, kind="tensor", name="x")

    def test_vector_padding_after_collapse(self, plc300):
        from repro.compress.triangle_reduction import TriangleReduction

        table = Session(plc300, seed=2).grid(
            [TriangleReduction(0.5, variant="collapse")], ["tc_per_vertex"]
        )
        # Must not raise despite the smaller vertex set.
        assert table.algorithms() == ["tc_per_vertex"]
        assert 0 <= table.rows[0].value <= 1


class TestSweep:
    def test_uniform_sweep_monotone_ratio(self, plc300):
        rows = Session(plc300, seed=0).sweep(
            [RandomUniformSampling(p) for p in (0.2, 0.5, 0.9)],
            parameters=[0.2, 0.5, 0.9],
            algorithms=["cc"],
        )
        ratios = {r.parameter: r.compression_ratio for r in rows}
        assert ratios[0.2] < ratios[0.5] < ratios[0.9]

    def test_spanner_sweep(self, plc300):
        rows = Session(plc300, seed=1).sweep(
            [Spanner(k) for k in (2, 8)], algorithms=["cc"]
        )
        assert [r.parameter for r in rows] == [2, 8]
        assert all(0 < r.compression_ratio <= 1 for r in rows)

    def test_repeats_validation(self, plc300):
        with pytest.raises(ValueError):
            Session(plc300).sweep([RandomUniformSampling(0.5)], repeats=0)


class TestReport:
    def test_format_table(self):
        text = format_table(
            [["s-pok", 0.5, 0.123456], ["v-usa", 1.0, 2.0e-6]],
            ["graph", "p", "kl"],
            title="Table 5",
        )
        assert "Table 5" in text
        assert "s-pok" in text
        assert "kl" in text
        # Small floats rendered in scientific notation.
        assert "2.000e-06" in text

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out" / "rows.csv"
        write_csv([[1, "a"], [2, "b"]], ["id", "name"], path)
        content = path.read_text().strip().splitlines()
        assert content[0] == "id,name"
        assert len(content) == 3
