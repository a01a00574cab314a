"""Tests for the deterministic fuzz driver: case ids, determinism, the
smoke matrix, replayable failure artifacts, and the CLI."""

import dataclasses
import json

import numpy as np
import pytest

from repro.graphs.snapshot import load_snapshot
from repro.verify import fuzz
from repro.verify.fuzz import FAMILIES, FuzzCase, build_cases, build_graph
from repro.verify.oracles import ORACLES, oracle_triangle_count


class TestCaseIds:
    def test_round_trip_every_axis(self):
        for case in build_cases(seeds=(0, 13)):
            assert FuzzCase.from_id(case.case_id) == case

    @pytest.mark.parametrize(
        "bad",
        ["bogus", "rmat.und.unw", "nope.und.unw.s0", "rmat.sideways.unw.s0",
         "rmat.und.unw.x0", "rmat.und.unw.s0.extra", "rmat.und.unw.s-1"],
    )
    def test_malformed_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="malformed case id|unknown family"):
            FuzzCase.from_id(bad)

    def test_negative_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds must be >= 0"):
            build_cases(seeds=(0, -1))

    def test_family_floor(self):
        """The acceptance floor: at least 6 generator families."""
        assert len(FAMILIES) >= 6

    def test_matrix_shape(self):
        cases = build_cases(seeds=(0, 1, 2))
        assert len(cases) == len(FAMILIES) * 2 * 2 * 3
        assert len({c.case_id for c in cases}) == len(cases)


class TestGraphBuilding:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_deterministic_rebuild(self, family):
        case = FuzzCase(family, directed=False, weighted=True, seed=1)
        a, b = build_graph(case), build_graph(case)
        assert np.array_equal(a.edge_src, b.edge_src)
        assert np.array_equal(a.edge_dst, b.edge_dst)
        assert np.array_equal(a.edge_weights, b.edge_weights)

    def test_axes_apply(self):
        und = build_graph(FuzzCase("erdos_renyi", False, False, 0))
        dir_ = build_graph(FuzzCase("erdos_renyi", True, False, 0))
        wtd = build_graph(FuzzCase("erdos_renyi", False, True, 0))
        assert not und.directed and dir_.directed
        # Asymmetric orientation: strictly between one and two arcs per
        # undirected edge, with at least one genuinely one-way edge.
        assert und.num_edges < dir_.num_edges < 2 * und.num_edges
        one_way = [
            (int(u), int(v))
            for u, v in zip(dir_.edge_src[:200], dir_.edge_dst[:200])
            if not dir_.has_edge(int(v), int(u))
        ]
        assert one_way, "directed variant is fully symmetric"
        assert wtd.is_weighted and not und.is_weighted

    def test_directed_variant_has_dangling_vertices(self):
        """PageRank's dangling-mass path must be live in the matrix."""
        for seed in (0, 1, 2):
            g = build_graph(FuzzCase("erdos_renyi", True, False, seed))
            dangling = (g.degrees == 0) & (g.in_degrees > 0)
            if dangling.any():
                return
        raise AssertionError("no dangling vertex in any smoke seed")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_near_cliques_feed_the_shared_budget_walk(self, seed):
        """At the lossy summary setting (ε = 0.4) the encoder emits
        corrections⁻, so the walk spends budget on them before it reaches
        corrections⁺."""
        from repro.compress.summarization import LossySummarization
        from repro.verify.properties import _SUMMARY_SETTINGS

        g = build_graph(FuzzCase("near_cliques", False, False, seed))
        assert 80 <= g.n <= 130
        (eps, threshold, size), = [s for s in _SUMMARY_SETTINGS if s[0] == 0.4]
        kw = dict(threshold=threshold, max_cluster_size=size)
        encoded = LossySummarization(0.0, **kw).summarize(g, seed=seed)
        lossy = LossySummarization(eps, **kw).summarize(g, seed=seed)
        assert len(encoded.corrections_minus) > 0
        assert np.array_equal(encoded.mapping, lossy.mapping)
        assert len(lossy.corrections_minus) < len(encoded.corrections_minus)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown families"):
            build_cases(families=["nope"])


class TestChainClassification:
    def test_weight_preserving_pipeline(self):
        assert fuzz._classify("chain", "uniform(p=0.9) | spanner(k=4)") == (True, True)

    def test_tr_label_stage_resolves(self):
        assert fuzz._classify(
            "chain", "EO-0.5-1-TR | low_degree(max_degree=1)"
        ) == (True, True)

    def test_reweighting_stage_drops_weight_check(self):
        assert fuzz._classify("chain", "spectral(p=0.5) | uniform(p=0.9)") == (True, False)

    def test_non_subgraph_stage_drops_subset_check(self):
        assert fuzz._classify(
            "chain", "uniform(p=0.9) | summarization(epsilon=0.2)"
        ) == (False, False)


class TestRunCase:
    def test_undirected_case_runs_everything(self):
        report = fuzz.run_case(FuzzCase("degenerate", False, False, 0))
        assert report.ok
        assert report.checks > len(ORACLES)  # oracles + scheme invariants

    def test_directed_case_skips_undirected_oracles(self):
        report = fuzz.run_case(
            FuzzCase("degenerate", True, False, 0), schemes=False
        )
        assert report.ok
        directed_entries = [e for e in ORACLES.values() if e.directed_ok]
        assert report.checks == len(directed_entries) + 1  # + snapshot check

    def test_property_crash_becomes_failure(self, monkeypatch):
        """A crashing metamorphic check is recorded, not propagated —
        otherwise the matrix would abort with no replay artifact."""
        from repro.verify import properties

        def boom(*args, **kwargs):
            raise IndexError("kaput")

        monkeypatch.setattr(properties, "fastpath_identity", boom)
        monkeypatch.setattr(properties, "snapshot_roundtrip", boom)
        report = fuzz.run_case(FuzzCase("degenerate", False, False, 0))
        assert not report.ok
        assert any(
            "fastpath_identity: raised IndexError" in m for m in report.failures
        )
        assert any(
            "snapshot_roundtrip: raised IndexError" in m for m in report.failures
        )

    def test_oracle_exception_becomes_failure(self):
        table = {
            "boom": dataclasses.replace(
                ORACLES["cc"], name="boom",
                oracle=lambda g: (_ for _ in ()).throw(RuntimeError("kaput")),
            )
        }
        report = fuzz.run_case(
            FuzzCase("degenerate", False, False, 0),
            oracle_table=table, schemes=False,
        )
        assert not report.ok
        assert "raised RuntimeError" in report.failures[0]


class TestBrokenOracleReplay:
    """The acceptance sanity check: a deliberately-broken oracle must
    produce a failing case with a replayable artifact and command."""

    @pytest.fixture
    def broken_table(self):
        table = dict(ORACLES)
        table["tc"] = dataclasses.replace(
            table["tc"],
            oracle=lambda g: float(oracle_triangle_count(g) + 1),
        )
        return table

    def test_failure_artifact_and_replay_command(self, broken_table, tmp_path):
        cases = build_cases(
            seeds=(0,), families=["powerlaw_cluster"],
            directed=(False,), weighted=(False,),
        )
        summary = fuzz.run_matrix(
            cases, oracle_table=broken_table, schemes=False,
            global_checks=False, artifacts=tmp_path, log=lambda *_: None,
        )
        assert not summary.ok
        (report,) = summary.failing
        case_id = report.case.case_id

        # The replay command is minimal and addresses the exact case.
        assert fuzz.replay_command(report.case) == (
            f"python -m repro.verify replay --case {case_id}"
        )

        # The NPZ artifact is a loadable snapshot of the offending graph.
        snap = load_snapshot(tmp_path / f"{case_id}.npz")
        g = build_graph(report.case)
        assert np.array_equal(snap.edge_src, g.edge_src)

        record = json.loads((tmp_path / f"{case_id}.json").read_text())
        assert record["replay"].endswith(case_id)
        assert record["failures"]

        # The perf record reflects the table that actually ran.
        assert summary.perf()["oracles"] == len(broken_table)

    def test_global_failure_writes_record(self, tmp_path, monkeypatch):
        from repro.verify import properties

        monkeypatch.setattr(
            properties, "store_roundtrip", lambda *a, **k: ["forged failure"]
        )
        monkeypatch.setattr(
            properties, "parallel_grid_equivalence", lambda *a, **k: []
        )
        summary = fuzz.run_matrix(
            [], global_checks=True, artifacts=tmp_path, log=lambda *_: None
        )
        assert not summary.ok
        record = json.loads((tmp_path / "global.json").read_text())
        assert record["failures"] == ["store_roundtrip: forged failure"]

    def test_replay_reproduces_then_clears(self, broken_table):
        case = FuzzCase("powerlaw_cluster", False, False, 0)
        broken = fuzz.run_case(case, oracle_table=broken_table, schemes=False)
        assert not broken.ok
        # The same case id against the real table passes: the failure was
        # the oracle's, not the engine's.
        assert fuzz.run_case(case, schemes=False).ok


class TestCLI:
    def test_list_cases(self, capsys):
        assert fuzz.main(["--list-cases", "--seeds", "0", "--families", "rmat"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "rmat.und.unw.s0" in out and len(out) == 4

    def test_smoke_subset_passes(self, capsys, tmp_path):
        code = fuzz.main(
            ["--seeds", "0", "--families", "degenerate", "--no-global",
             "--artifacts", str(tmp_path)]
        )
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_replay_ok(self, capsys, tmp_path):
        code = fuzz.main(
            ["replay", "--case", "degenerate.und.unw.s0",
             "--artifacts", str(tmp_path)]
        )
        assert code == 0
        assert "ok: degenerate.und.unw.s0" in capsys.readouterr().out

    def test_replay_malformed_id(self, capsys):
        assert fuzz.main(["replay", "--case", "bogus"]) == 2
        assert "malformed case id" in capsys.readouterr().err

    def test_run_bad_inputs_exit_cleanly(self, capsys):
        assert fuzz.main(["--seeds", "-1"]) == 2
        assert "seeds must be >= 0" in capsys.readouterr().err
        assert fuzz.main(["--families", "nope"]) == 2
        assert "unknown families" in capsys.readouterr().err

    def test_perf_record(self, tmp_path, capsys):
        code = fuzz.main(
            ["--seeds", "0", "--families", "grid_2d", "--no-schemes",
             "--no-global", "--out", str(tmp_path)]
        )
        assert code == 0
        record = json.loads((tmp_path / "BENCH_verify.json").read_text())
        assert record["sweep"] == "verify"
        assert record["cases"] == 4
        assert record["failing_cases"] == []
        assert record["oracles"] >= 8
