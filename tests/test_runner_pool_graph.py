"""Pooled workers' graph hand-off: every worker memory-maps one exploded
snapshot — pooled grids equal the in-memory grid (with and without a
store, cold and warm, through a worker kill), the temporary snapshot
never outlives its grid, and mapped workers undercut private copies."""

import multiprocessing
import tempfile

import numpy as np
import pytest

from repro.analytics.session import Session
from repro.graphs import generators as gen
from repro.graphs.snapshot import load_snapshot
from repro.obs.resources import private_bytes
from repro.runner import parallel
from repro.runner.fingerprint import graph_fingerprint

SCHEMES = ["uniform(p=0.5)", "spanner(k=8)"]
ALGS = ["pr", "cc"]


def _comparable(table):
    return sorted(
        (c.scheme, c.algorithm, c.metric, c.value, c.compression_ratio, c.seed)
        for c in table
    )


@pytest.fixture
def weighted_directed():
    from repro.graphs.weights import with_uniform_weights

    return with_uniform_weights(
        gen.rmat(6, 4, seed=3, directed=True), 1.0, 5.0, seed=1
    )


@pytest.fixture
def grid_tmp(tmp_path, monkeypatch):
    """Point the grid's temporary directories at a private, watched root."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


class TestPooledGrid:
    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    @pytest.mark.parametrize(
        "graph_name, algorithms",
        [("plc300", ALGS), ("weighted_directed", ["pr", "sssp"])],
        ids=["plc300", "weighted-directed"],
    )
    def test_pooled_grid_equals_in_memory(
        self, request, tmp_path, graph_name, algorithms, with_store
    ):
        g = request.getfixturevalue(graph_name)
        expected = _comparable(Session(g, seed=1).grid(SCHEMES, algorithms))
        store = tmp_path / "store" if with_store else None
        runs = 2 if with_store else 1  # cold, then warm
        for _ in range(runs):
            session = Session(g, seed=1, jobs=2, store=store)
            assert _comparable(session.grid(SCHEMES, algorithms)) == expected
        perf = session.last_grid_perf
        if with_store:
            # The warm run replays every cell; the cold one wrote the
            # exploded snapshot its workers mapped, keyed by fingerprint.
            assert perf["cache_misses"] == 0
            graphs = sorted(p.name for p in (store / "graphs").iterdir())
            assert graphs == [f"{graph_fingerprint(g)}.snap"]
            return
        assert perf["workers"], "pooled grid reported no worker stats"
        for worker in perf["workers"].values():
            assert worker["load_seconds"] > 0
            assert worker["peak_rss_bytes"] > 0
            assert "private_bytes" in worker

    def test_worker_load_maps_the_snapshot(self, plc300, tmp_path):
        from repro.graphs.snapshot import save_snapshot

        path = save_snapshot(plc300, tmp_path / "g.snap", layout="exploded")
        g = parallel._load_worker_graph(str(path))
        assert graph_fingerprint(g) == graph_fingerprint(plc300)
        for arr in (g.edge_src, g.indptr, g.indices, g.arc_edge_ids):
            assert not arr.flags.writeable
            assert isinstance(arr.base, np.memmap)


class TestTemporarySnapshot:
    def test_removed_after_grid_without_store(self, plc300, grid_tmp):
        session = Session(plc300, seed=1, jobs=2)
        session.grid(SCHEMES, ["pr"], ["kl"])
        assert session.last_grid_perf["workers"]
        assert list(grid_tmp.iterdir()) == []


class TestChaos:
    @pytest.mark.parametrize("with_store", [True, False], ids=["store", "no-store"])
    def test_killed_worker_recovers_value_identical(
        self, plc300, tmp_path, grid_tmp, with_store
    ):
        from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan

        expected = _comparable(Session(plc300, seed=1).grid(SCHEMES, ALGS))
        install_plan(
            FaultPlan(
                faults=(FaultSpec("runner.worker_cell", mode="kill", times=1),),
                token_dir=str(tmp_path / "tok"),
            )
        )
        try:
            session = Session(
                plc300,
                seed=1,
                store=tmp_path / "store" if with_store else None,
                jobs=2,
                retry={"max_attempts": 4, "backoff_base": 0.01, "jitter": 0.0},
            )
            table = session.grid(SCHEMES, ALGS)
        finally:
            clear_plan()
        perf = session.last_grid_perf
        assert _comparable(table) == expected
        assert perf["pool_rebuilds"] >= 1
        assert perf["failed_cells"] == []
        # The rebuilt pool mapped the same snapshot; a temporary one is
        # still removed on the way out.
        assert list(grid_tmp.iterdir()) == []


@pytest.mark.skipif(
    private_bytes() is None,
    reason="USS (smaps_rollup) unavailable on this platform",
)
@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the private-copy baseline patches the workers through fork",
)
class TestWorkerMemory:
    def test_mapped_workers_share_the_graph_pages(self, monkeypatch):
        # Big enough that one CSR copy dominates USS measurement noise:
        # ~400k edges is ~20MB of int64 CSR arrays.
        g = gen.erdos_renyi(40_000, m=400_000, seed=5)
        graph_bytes = sum(
            arr.nbytes
            for arr in (g.edge_src, g.edge_dst, g.indptr, g.indices, g.arc_edge_ids)
        )

        def worker_uss() -> int:
            session = Session(g, seed=0, jobs=2)
            session.grid(["uniform(p=0.5)", "uniform(p=0.9)"], ["cc"])
            workers = session.last_grid_perf["workers"].values()
            vals = [w["private_bytes"] for w in workers if w["private_bytes"]]
            assert vals, "no USS samples"
            return max(vals)

        mapped = worker_uss()
        # Baseline: each worker reads the same snapshot into private memory.
        monkeypatch.setattr(parallel, "_load_worker_graph", load_snapshot)
        private = worker_uss()
        # A private worker holds its own CSR copy; a mapped worker shares
        # page-cache pages instead.  Demand at least 40% of one copy back —
        # far above USS jitter, far below the full copy so
        # compression-allocation noise cannot flake the test.
        saved = private - mapped
        assert saved >= 0.4 * graph_bytes, (
            f"mapped worker USS {mapped/1e6:.1f}MB vs private "
            f"{private/1e6:.1f}MB — saved {saved/1e6:.1f}MB, expected "
            f">= {0.4 * graph_bytes/1e6:.1f}MB (graph is {graph_bytes/1e6:.1f}MB)"
        )
