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

    def test_from_dict_shares_label_strings(self, plc300):
        import json

        table = Session(plc300, seed=0).grid(SCHEMES3, ["pr"])
        # Two decodings of the same JSON share every label string.
        a, b = (SweepTable.from_dict(json.loads(json.dumps(table.to_dict()))) for _ in "ab")
        assert a == table
        for x, y in zip(a, b):
            assert x.scheme is y.scheme and x.metric is y.metric
            assert x.adapter is y.adapter and x.algorithm is y.algorithm

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


def _untimed(table):
    """Every cell field except the two wall-clock timings."""
    return [
        {k: v for k, v in c.to_dict().items() if not k.endswith("_seconds")}
        for c in table
    ]


class TestStoredBaselines:
    """Original-graph values replayed from the store score cells exactly
    as computed ones do."""

    SCHEMES = ["uniform(p=0.5)", "vertex_sampling(p=0.5)"]

    @pytest.mark.parametrize("algorithm", ["pr", "cc", "mst", "kcore", "sssp", "mis"])
    def test_stored_equals_computed(self, weighted300, tmp_path, algorithm):
        computed = Session(weighted300, seed=4).grid(self.SCHEMES, [algorithm])
        fresh = Session(weighted300, seed=4, store=tmp_path / "fresh")
        assert _untimed(fresh.grid(self.SCHEMES, [algorithm])) == _untimed(computed)
        assert fresh.store.stats.baseline_writes == 1
        # Another seed's grid fills the baseline; this one misses every
        # cell but replays it.
        Session(weighted300, seed=3, store=tmp_path / "filled").grid(
            self.SCHEMES, [algorithm]
        )
        replay = Session(weighted300, seed=4, store=tmp_path / "filled")
        table = replay.grid(self.SCHEMES, [algorithm])
        assert replay.last_grid_perf["cache_misses"] == len(self.SCHEMES)
        assert replay.baseline_computations == 0
        assert replay.store.stats.baseline_hits == 1
        assert _untimed(table) == _untimed(computed)

    def test_replayed_seconds_are_the_stored_run(self, plc300, tmp_path):
        first = Session(plc300, seed=0, store=tmp_path)
        (cell,) = first.grid(["uniform(p=0.5)"], ["cc"])
        (again,) = Session(plc300, seed=1, store=tmp_path).grid(["uniform(p=0.5)"], ["cc"])
        assert again.original_seconds == cell.original_seconds

    def test_session_memo_is_read_before_the_store(self, plc300, tmp_path):
        session = Session(plc300, seed=0, store=tmp_path)
        session.grid(SCHEMES3, ["pr", "cc"])
        session.grid(SCHEMES3, ["pr", "cc"], seed=1)
        stats = session.store.stats
        assert session.baseline_computations == 2
        assert (stats.baseline_misses, stats.baseline_writes) == (2, 2)
        assert stats.baseline_hits == 0
        replay = Session(plc300, seed=2, store=tmp_path)
        replay.grid(SCHEMES3, ["pr", "cc"])
        replay.grid(SCHEMES3, ["pr", "cc"], seed=3)
        assert replay.store.stats.baseline_hits == 2

    def test_session_defaults_split_the_key(self, plc300, tmp_path):
        Session(plc300, seed=0, store=tmp_path).grid(["uniform(p=0.5)"], ["pr", "sssp"])
        other = Session(plc300, seed=1, store=tmp_path, pr_iterations=20, bfs_root=5)
        other.grid(["uniform(p=0.5)"], ["pr", "sssp"])
        assert other.baseline_computations == 2
        assert other.store.stats.baseline_hits == 0

    def test_public_baseline_stays_raw(self, plc300, tmp_path):
        Session(plc300, seed=0, store=tmp_path).grid(["uniform(p=0.5)"], ["pr", "cc"])
        session = Session(plc300, seed=1, store=tmp_path)
        out0, _ = session.baseline("cc")
        assert hasattr(out0, "labels")
        run = session.compress("uniform(p=0.5)").run("pr")
        assert hasattr(run.outputs("pr")[0], "ranks")
        assert session.store.stats.baseline_hits == 0
        # A grid after the raw run reads that run, not the store.
        session.grid(["uniform(p=0.5)"], ["pr"])
        assert session.store.stats.baseline_hits == 0
        assert session.baseline_computations == 2

    def test_failed_put_still_returns_the_grid(self, plc300, tmp_path):
        from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan

        expected = Session(plc300, seed=0).grid(SCHEMES3, ["pr", "cc"])
        install_plan(FaultPlan(faults=(FaultSpec("store.put_baseline", times=100),)))
        try:
            session = Session(plc300, seed=0, store=tmp_path)
            table = session.grid(SCHEMES3, ["pr", "cc"])
        finally:
            clear_plan()
        assert _untimed(table) == _untimed(expected)
        assert session.last_grid_perf["failed_cells"] == []
        assert session.store.stats.baseline_writes == 0
        assert not (tmp_path / "baselines").exists()

    @pytest.mark.parametrize(
        "damage", ["truncate", "schema_version", "foreign_key"]
    )
    def test_damaged_record_is_recomputed_and_rewritten(self, plc300, tmp_path, damage):
        from repro.runner.store import BASELINE_SCHEMA_VERSION
        from tests.conftest import rewrite_baseline_meta

        Session(plc300, seed=0, store=tmp_path).grid(["uniform(p=0.5)"], ["cc"])
        (path,) = (tmp_path / "baselines").glob("*/*.npz")
        if damage == "truncate":
            path.write_bytes(path.read_bytes()[:40])
        elif damage == "schema_version":
            rewrite_baseline_meta(path, schema_version=BASELINE_SCHEMA_VERSION + 1)
        else:
            rewrite_baseline_meta(path, key={"graph": "0" * 64, "algorithm": "{}"})
        session = Session(plc300, seed=1, store=tmp_path)
        session.grid(["uniform(p=0.5)"], ["cc"])
        assert session.baseline_computations == 1
        assert session.store.stats.baseline_misses == 1
        assert session.store.stats.baseline_writes == 1
        again = Session(plc300, seed=2, store=tmp_path)
        again.grid(["uniform(p=0.5)"], ["cc"])
        assert again.baseline_computations == 0

    def test_pooled_workers_replay_stored_baselines(self, plc300, tmp_path):
        Session(plc300, seed=0, store=tmp_path).grid(SCHEMES3, ["pr", "cc", "sssp"])
        inline = Session(plc300, seed=1).grid(SCHEMES3, ["pr", "cc", "sssp"])
        pooled = Session(plc300, seed=1, store=tmp_path, jobs=2)
        table = pooled.grid(SCHEMES3, ["pr", "cc", "sssp"])
        assert _untimed(table) == _untimed(inline)
        workers = pooled.last_grid_perf["workers"]
        assert workers
        assert all(w["baseline_computations"] == 0 for w in workers.values())

    def test_pooled_workers_store_what_they_compute(self, plc300, tmp_path):
        pooled = Session(plc300, seed=1, store=tmp_path, jobs=2)
        pooled.grid(SCHEMES3, ["pr", "cc"])
        workers = pooled.last_grid_perf["workers"]
        assert sum(w["baseline_computations"] for w in workers.values()) >= 2
        assert len(list((tmp_path / "baselines").glob("*/*.npz"))) == 2
        replay = Session(plc300, seed=2, store=tmp_path)
        replay.grid(SCHEMES3, ["pr", "cc"])
        assert replay.baseline_computations == 0

    def test_worker_keys_baselines_without_hashing(self, plc300, tmp_path, monkeypatch):
        import repro.runner.fingerprint
        from repro.runner import parallel
        from repro.runner.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        fingerprint, path = store.add_graph(plc300)
        Session(plc300, seed=0, store=store).grid(["uniform(p=0.5)"], ["cc"])

        def refuse(g):
            raise AssertionError("a worker hashed the graph")

        monkeypatch.setattr(repro.runner.fingerprint, "_compute_fingerprint", refuse)
        monkeypatch.setattr(parallel, "_WORKER", {})
        kwargs = {"seed": 1, "bfs_root": 0, "pr_iterations": 100, "store": str(tmp_path)}
        parallel._init_worker(str(path), kwargs, False, fingerprint)
        task = parallel.CellTask(
            scheme="uniform(p=0.5)", seed=1, algorithm="cc",
            metrics=("relative_change",), scheme_index=0, runner_index=0,
        )
        _, cells, perf = parallel._worker_cell(task.transport())
        assert len(cells) == 1
        assert perf["worker"]["baseline_computations"] == 0
        assert parallel._WORKER["session"].store.stats.baseline_hits == 1
