"""Tests for Session.grid scheme×algorithm×metric sweeps, the SweepTable
transport round trips, and mapping-aware score alignment."""

import numpy as np
import pytest

from repro.algorithms import build_algorithm, register_algorithm, unregister_algorithm
from repro.analytics import Session, SweepTable
from repro.analytics.grid import GridCell
from repro.compress.mappings import vertex_alignment
from repro.metrics.divergences import kl_divergence


@pytest.fixture
def counting_battery():
    """Four temporary registered algorithms that count their executions."""
    calls = {}

    def make(name):
        calls[name] = 0

        def fn(g, *, scale=1):
            calls[name] += 1
            return g.num_edges * scale

        fn.__name__ = name
        return fn

    names = ["tmp_ga", "tmp_gb", "tmp_gc", "tmp_gd"]
    for n in names:
        register_algorithm(n, adapter="scalar")(make(n))
    yield names, calls
    for n in names:
        unregister_algorithm(n)


SCHEMES3 = ["uniform(p=0.2)", "uniform(p=0.5)", "spanner(k=8)"]


class TestGrid:
    def test_baseline_once_across_whole_grid(self, plc300, counting_battery):
        names, calls = counting_battery
        session = Session(plc300, seed=0)
        table = session.grid(SCHEMES3, names)
        # ≥3 schemes × ≥4 algorithms: each original-graph baseline ran
        # exactly once — one cache miss per algorithm, and each counting
        # function executed 1 (baseline) + 3 (schemes) times.
        assert session.baseline_computations == len(names)
        assert all(calls[n] == 1 + len(SCHEMES3) for n in names)
        assert len(table) == len(SCHEMES3) * len(names)
        # A second grid over the same session adds zero baseline work.
        session.grid(SCHEMES3[:2], names)
        assert session.baseline_computations == len(names)

    def test_long_format_axes(self, plc300):
        session = Session(plc300, seed=0)
        table = session.grid(SCHEMES3, ["pr", "cc", "tc", "sssp"])
        assert len(table) == 3 * 4
        assert table.schemes()[:2] == ["uniform(p=0.2)", "uniform(p=0.5)"]
        assert table.schemes()[2].startswith("spanner(k=8")
        assert len(table.algorithms()) == 4
        # Battery short names keep their paper labels; registry-only
        # algorithms are labeled by their canonical bound spec.
        assert {"pr", "cc", "tc", "sssp(source=0)"} == set(table.algorithms())
        cell = table.filter(scheme="uniform(p=0.5)", metric="kl_divergence").rows[0]
        assert cell.algorithm == "pr"
        assert 0 < cell.compression_ratio < 1

    def test_to_dict_round_trip(self, plc300):
        table = Session(plc300, seed=0).grid(SCHEMES3, ["pr", "cc"])
        assert SweepTable.from_dict(table.to_dict()) == table

    def test_to_csv_round_trip(self, plc300, tmp_path):
        table = Session(plc300, seed=0).grid(SCHEMES3, ["pr", "cc"])
        assert SweepTable.from_csv(table.to_csv()) == table
        path = tmp_path / "grids" / "table.csv"
        table.to_csv(path)
        assert SweepTable.from_csv(path) == table

    def test_duplicate_schemes_and_algorithms_run_once(self, plc300, counting_battery):
        names, calls = counting_battery
        session = Session(plc300, seed=0)
        table = session.grid(
            ["uniform(p=0.5)", "uniform(0.5)", "uniform(p=0.5)"],
            [names[0], names[0], build_algorithm(names[0])],
        )
        assert len(table) == 1  # one deduped scheme × one deduped algorithm
        assert calls[names[0]] == 2  # baseline + one compressed run

    def test_metric_selection_and_filtering(self, plc300):
        session = Session(plc300, seed=0)
        table = session.grid(
            ["uniform(p=0.5)"], ["pr", "cc"], ["kl", "l2", "relative_change"]
        )
        by_alg = {a: {c.metric for c in table.filter(algorithm=a)} for a in table.algorithms()}
        assert by_alg["pr"] == {"kl_divergence", "l2_distance"}
        assert by_alg["cc"] == {"relative_change"}

    def test_metric_matching_nothing_rejected(self, plc300):
        session = Session(plc300, seed=0)
        with pytest.raises(ValueError, match="apply to no algorithm"):
            session.grid(["uniform(p=0.5)"], ["cc"], ["kl"])
        with pytest.raises(ValueError, match="unknown metric"):
            session.grid(["uniform(p=0.5)"], ["cc"], ["wasserstein"])

    def test_default_battery_grid(self, plc300):
        session = Session(plc300, seed=0)
        table = session.grid(["uniform(p=0.5)", "spanner(k=4)"])
        # bfs / pr / cc / tc with their §5 default metrics.
        assert set(table.metrics()) == {
            "critical_edge_preservation",
            "kl_divergence",
            "relative_change",
        }
        assert len(table) == 2 * 4

    def test_mixed_legacy_algorithms(self, plc300):
        # A bare callable next to a registry algorithm rejects the whole
        # grid before any cell (or baseline) runs.
        session = Session(plc300, seed=0)
        with pytest.raises(ValueError, match="registry algorithms"):
            session.grid(["uniform(p=0.5)"], [lambda g: g.num_edges, "pr"])
        assert session.baseline_computations == 0

    def test_empty_axes_rejected(self, plc300):
        session = Session(plc300, seed=0)
        with pytest.raises(ValueError, match="at least one scheme"):
            session.grid([], ["pr"])
        with pytest.raises(ValueError, match="at least one algorithm"):
            session.grid(["uniform(p=0.5)"], [])

    def test_from_csv_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            SweepTable.from_csv("no/such/table.csv")

    def test_bound_bfs_honors_its_source(self, plc300):
        # bfs(source=N) through the registry must score critical edges
        # from N, not from the session default root.
        table3 = Session(plc300, seed=0).grid(["uniform(p=0.5)"], ["bfs(source=3)"])
        rooted = Session(plc300, seed=0, bfs_root=3).grid(["uniform(p=0.5)"], ["bfs"])
        assert table3.rows[0].value == rooted.rows[0].value

    def test_bound_traversal_runs_no_baseline(self, plc300):
        session = Session(plc300, seed=0)
        session.grid(["uniform(p=0.5)"], ["bfs(source=0)"])
        assert session.baseline_computations == 0

    def test_battery_and_registry_spellings_share_identity(self, plc300):
        # "pr" (battery short name) and "pagerank" (registry name) bind
        # to the same canonical spec: one grid cell, one baseline.
        session = Session(plc300, seed=0)
        table = session.grid(["uniform(p=0.5)"], ["pr", "pagerank"], ["kl"])
        assert len(table) == 1
        assert session.baseline_computations == 1

    def test_to_markdown_round_trip_safe_floats(self, plc300):
        table = Session(plc300, seed=0).grid(SCHEMES3, ["pr", "cc"])
        md = table.to_markdown(title="grid")
        lines = md.strip().splitlines()
        assert lines[0] == "**grid**"
        assert lines[2].startswith("| scheme |")
        assert set(lines[3].replace("|", "")) <= {"-"}
        # Values printed in markdown parse back to the exact float — the
        # same repr format to_csv uses.
        body = lines[4:]
        assert len(body) == len(table)
        value_col = lines[2].strip("|").split("|").index(" value ")
        for line, cell in zip(body, table):
            printed = line.strip("|").split("|")[value_col].strip()
            assert float(printed) == cell.value
        # to_csv shares the format: the same strings appear there.
        assert repr(table.rows[0].value) in table.to_csv()

    def test_to_markdown_escapes_pipes_and_drops_empty_columns(self, plc300):
        table = Session(plc300, seed=0).grid(
            ["uniform(p=0.9) | spanner(k=4)"], ["cc"]
        )
        md = table.to_markdown()
        # The pipeline scheme's "|" must not break the table grammar.
        assert "uniform(p=0.9) \\| spanner" in md
        header = md.splitlines()[0]
        assert "graph" not in header  # all-empty column dropped
        assert "seed" in header  # seeds are recorded
        with pytest.raises(ValueError, match="unknown columns"):
            table.to_markdown(columns=["scheme", "nope"])
        narrow = table.to_markdown(columns=["scheme", "value"])
        assert narrow.splitlines()[0] == "| scheme | value |"

    def test_cell_fields_serializable(self, plc300):
        cell = Session(plc300, seed=0).grid(["uniform(p=0.5)"], ["cc"]).rows[0]
        assert isinstance(cell, GridCell)
        d = cell.to_dict()
        assert GridCell.from_dict(d) == cell
        assert -1.0 <= cell.relative_runtime_difference <= 1.0 or True


class TestSessionRegistryAlgorithms:
    def test_run_accepts_registry_spec_strings(self, plc300):
        session = Session(plc300, seed=0)
        scores = (
            session.compress("uniform(p=0.5)")
            .run("pagerank(iterations=20)", "sssp")
            .score()
        )
        # Runs are labeled by full spec; bare names resolve unambiguously.
        assert "kl_divergence" in scores["pagerank"]
        assert "reordered_neighbor_pairs" in scores["sssp"]

    def test_two_parameterizations_coexist(self, plc300):
        session = Session(plc300, seed=0)
        run = session.compress("uniform(p=0.5)").run(
            "sssp(source=0)", "sssp(source=5)"
        )
        scores = run.score()
        assert set(scores) == {"sssp(source=0)", "sssp(source=5)"}
        with pytest.raises(ValueError, match="ambiguous"):
            run.outputs("sssp")
        assert run.outputs("sssp(source=5)")[1] is not None

    def test_session_defaults_injected(self, plc300):
        session = Session(plc300, seed=0, bfs_root=3, pr_iterations=17)
        bound = session._bind("pr")
        assert bound.spec.params["max_iterations"] == 17
        assert session._bind("sssp").spec.params["source"] == 3
        assert session._bind("bfs").spec.params["source"] == 3
        # Explicit parameters win over session defaults.
        assert session._bind("bfs(source=5)").spec.params["source"] == 5


class TestMappingAlignment:
    def test_collapse_alignment_uses_mapping(self, plc300):
        session = Session(plc300, seed=0)
        run = session.compress("tr(p=0.9, variant=collapse)")
        assert run.graph.n < plc300.n
        mapping = run.alignment()
        assert mapping is not None and len(mapping) == plc300.n
        assert mapping.max() < run.graph.n
        run.run("pagerank(iterations=30)")
        out0, out1 = run.outputs("pagerank")
        scores = run.score(["kl"])
        # The score must equal KL of the mapping-aligned vectors — i.e.
        # each original vertex reads its supervertex's rank — not the
        # zero-padded tail the legacy path compared against.
        aligned = out1.ranks[mapping]
        expected = kl_divergence(out0.ranks, aligned)
        assert scores["kl_divergence"] == pytest.approx(expected)
        padded = np.zeros(plc300.n)
        padded[: run.graph.n] = out1.ranks
        assert expected != pytest.approx(kl_divergence(out0.ranks, padded))

    def test_vertex_set_scores_translate_compressed_ids(self, plc300):
        # The MIS of a relabeled sample lives in compacted id space; its
        # jaccard score must translate those ids back through the mapping
        # instead of intersecting incompatible id spaces.
        session = Session(plc300, seed=0)
        run = session.compress("vertex_sampling(p=0.5, relabel=true)")
        run.run("mis")
        score = run.score()["mis"]["jaccard_overlap"]
        mapping = run.alignment()
        out0, out1 = run.outputs("mis")
        bound = run._runs["mis"].runner
        a = bound.extract(out0)
        inverse = {int(c): int(v) for v, c in enumerate(mapping) if c >= 0}
        b = frozenset(inverse[int(c)] for c in bound.extract(out1))
        assert score == pytest.approx(len(a & b) / len(a | b))

    def test_relabel_sampling_records_mapping(self, plc300):
        session = Session(plc300, seed=0)
        run = session.compress("vertex_sampling(p=0.6, relabel=true)")
        mapping = run.alignment()
        assert mapping is not None
        dropped = mapping < 0
        assert dropped.sum() == plc300.n - run.graph.n
        survivors = np.sort(mapping[~dropped])
        np.testing.assert_array_equal(survivors, np.arange(run.graph.n))

    def test_chain_alignment_composes_stages(self, plc300):
        session = Session(plc300, seed=0)
        run = session.compress("uniform(p=0.9) | tr(p=0.9, variant=collapse)")
        mapping = run.alignment()
        assert mapping is not None and len(mapping) == plc300.n
        assert mapping.max() < run.graph.n
        # Scoring a per-vertex algorithm through the composed map works.
        scores = run.run("pagerank(iterations=20)").score(["kl"])
        assert np.isfinite(scores["kl_divergence"])

    def test_low_degree_relabel_records_composed_mapping(self):
        from repro.graphs.csr import CSRGraph

        # K4 on {0..3} plus a pendant chain 3-4-5: fixpoint peeling takes
        # two rounds (5 first, then 4), so the mapping must compose.
        g = CSRGraph.from_edges(
            6, [0, 0, 0, 1, 1, 2, 3, 4], [1, 2, 3, 2, 3, 3, 4, 5]
        )
        session = Session(g, seed=0)
        run = session.compress("low_degree(max_degree=1, rounds=none, relabel=true)")
        assert run.graph.n == 4
        assert run.result.extras["rounds"] >= 2
        mapping = run.alignment()
        assert mapping is not None
        # The clique keeps its ids; both peeled chain vertices map to -1.
        np.testing.assert_array_equal(mapping, [0, 1, 2, 3, -1, -1])

    def test_identity_schemes_have_no_mapping(self, plc300):
        run = Session(plc300, seed=0).compress("uniform(p=0.5)")
        assert run.alignment() is None
        assert vertex_alignment(run.result) is None
