"""Crash-recovery tests for grid execution: killed/hung workers, flaky
computes, torn and flaky store writes, quarantine after exhausted
retries — every recovered sweep must equal a clean run value-for-value."""

import pytest

from repro.analytics.session import Session
from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan
from repro.runner.parallel import FailedCell, RetryPolicy

SCHEMES = ["uniform(p=0.5)", "spanner(k=4)"]
ALGS = ["pr", "cc"]
FAST_RETRY = {"max_attempts": 4, "backoff_base": 0.01, "jitter": 0.0}


def _comparable(table):
    """The deterministic face of a table (drop wall-clock noise)."""
    return sorted(
        (c.scheme, c.algorithm, c.metric, c.value, c.compression_ratio, c.seed)
        for c in table
    )


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_plan()
    yield
    clear_plan()


@pytest.fixture
def clean_table(plc300):
    return _comparable(Session(plc300, seed=1).grid(SCHEMES, ALGS))


def _faulted_grid(graph, store_dir, faults, *, jobs=2, token_dir=None, retry=None):
    install_plan(FaultPlan(faults=faults, token_dir=token_dir))
    try:
        session = Session(
            graph, seed=1, store=store_dir, jobs=jobs, retry=retry or FAST_RETRY
        )
        table = session.grid(SCHEMES, ALGS)
    finally:
        clear_plan()
    return table, session.last_grid_perf


class TestRetryPolicy:
    def test_of_coerces(self):
        assert RetryPolicy.of(None) == RetryPolicy()
        assert RetryPolicy.of({"max_attempts": 5}).max_attempts == 5
        policy = RetryPolicy(max_attempts=2)
        assert RetryPolicy.of(policy) is policy
        with pytest.raises(TypeError):
            RetryPolicy.of("3 attempts")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0)

    def test_backoff_caps(self):
        import random

        policy = RetryPolicy(backoff_base=1.0, backoff_cap=3.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff(1, rng) == 1.0
        assert policy.backoff(2, rng) == 2.0
        assert policy.backoff(5, rng) == 3.0  # capped


class TestWorkerCrashRecovery:
    def test_killed_worker_mid_sweep_is_bit_identical(
        self, plc300, tmp_path, clean_table
    ):
        faults = (FaultSpec("runner.worker_cell", mode="kill", times=1),)
        table, perf = _faulted_grid(
            plc300, tmp_path / "store", faults, token_dir=str(tmp_path / "tok")
        )
        assert _comparable(table) == clean_table
        assert perf["pool_rebuilds"] >= 1
        assert perf["retries"] >= 1
        assert perf["failed_cells"] == []

    def test_hung_worker_reaped_by_task_timeout(
        self, plc300, tmp_path, clean_table
    ):
        faults = (
            FaultSpec("runner.worker_cell", mode="hang", times=1, delay=20.0),
        )
        retry = {**FAST_RETRY, "task_timeout": 1.0}
        table, perf = _faulted_grid(
            plc300, tmp_path / "store", faults,
            token_dir=str(tmp_path / "tok"), retry=retry,
        )
        assert _comparable(table) == clean_table
        assert perf["pool_rebuilds"] >= 1

    def test_transient_compute_fault_retries_in_pool(
        self, plc300, tmp_path, clean_table
    ):
        faults = (FaultSpec("runner.compute_cell", times=2),)
        table, perf = _faulted_grid(
            plc300, tmp_path / "store", faults, token_dir=str(tmp_path / "tok")
        )
        assert _comparable(table) == clean_table
        assert perf["retries"] == 2

    def test_transient_compute_fault_retries_in_process(
        self, plc300, tmp_path, clean_table
    ):
        faults = (FaultSpec("runner.compute_cell", times=2),)
        table, perf = _faulted_grid(plc300, tmp_path / "store", faults, jobs=1)
        assert _comparable(table) == clean_table
        assert perf["retries"] == 2


class TestStoreFaultRecovery:
    def test_transient_store_write_is_retried(self, plc300, tmp_path, clean_table):
        faults = (FaultSpec("store.put_cells", times=2),)
        table, perf = _faulted_grid(plc300, tmp_path / "store", faults, jobs=1)
        assert _comparable(table) == clean_table
        assert perf["store_write_retries"] == 2
        assert perf["store_write_failures"] == []

    def test_torn_write_is_retried_and_rewritten(
        self, plc300, tmp_path, clean_table
    ):
        # Another seed's grid stores the baselines first, so the first
        # write of the faulted grid is a cell record.
        Session(plc300, seed=0, store=tmp_path / "store").grid(SCHEMES, ALGS)
        faults = (FaultSpec("fileio.atomic_write", mode="torn_write", times=1),)
        table, perf = _faulted_grid(plc300, tmp_path / "store", faults, jobs=1)
        assert _comparable(table) == clean_table
        assert perf["store_write_retries"] >= 1
        # The rewrite replaced the torn record: a warm replay still works.
        warm = Session(plc300, seed=1, store=tmp_path / "store").grid(SCHEMES, ALGS)
        assert _comparable(warm) == clean_table

    def test_torn_baseline_write_is_a_later_miss(
        self, plc300, tmp_path, clean_table
    ):
        # On an empty store the first write is the first baseline record:
        # torn, it costs no cell, and the next session recomputes and
        # rewrites it.
        faults = (FaultSpec("fileio.atomic_write", mode="torn_write", times=1),)
        table, perf = _faulted_grid(plc300, tmp_path / "store", faults, jobs=1)
        assert _comparable(table) == clean_table
        assert perf["store_write_failures"] == []
        session = Session(plc300, seed=2, store=tmp_path / "store")
        session.grid(SCHEMES, ALGS)
        assert session.baseline_computations == 1
        assert session.store.stats.baseline_misses == 1
        assert session.store.stats.baseline_writes == 1
        again = Session(plc300, seed=3, store=tmp_path / "store")
        again.grid(SCHEMES, ALGS)
        assert again.baseline_computations == 0

    def test_exhausted_store_writes_keep_results(self, plc300, tmp_path, clean_table):
        # Every write fails beyond the budget: the sweep must still
        # return full results, with the abandonment on the manifest.
        faults = (FaultSpec("store.put_cells", times=100),)
        table, perf = _faulted_grid(plc300, tmp_path / "store", faults, jobs=1)
        assert _comparable(table) == clean_table
        assert len(perf["store_write_failures"]) > 0
        assert perf["failed_cells"] == []

    def test_read_fault_degrades_to_miss(self, plc300, tmp_path, clean_table):
        store = tmp_path / "store"
        warm_session = Session(plc300, seed=1, store=store)
        warm_session.grid(SCHEMES, ALGS)  # populate
        faults = (FaultSpec("store.get_cells", times=1),)
        install_plan(FaultPlan(faults=faults))
        try:
            session = Session(plc300, seed=1, store=store, retry=FAST_RETRY)
            table = session.grid(SCHEMES, ALGS)
        finally:
            clear_plan()
        assert _comparable(table) == clean_table
        # One hit became a corrupt-miss and was recomputed, not raised.
        assert session.last_grid_perf["cache_misses"] == 1


class TestQuarantine:
    def test_poison_cell_quarantined_not_fatal(self, plc300, tmp_path, clean_table):
        # The first task fails on every attempt (in-process execution is
        # sequential, so invocations 0..2 are all attempts of task 0).
        faults = (FaultSpec("runner.compute_cell", times=3),)
        retry = {"max_attempts": 3, "backoff_base": 0.01, "jitter": 0.0}
        table, perf = _faulted_grid(
            plc300, tmp_path / "store", faults, jobs=1, retry=retry
        )
        assert len(perf["failed_cells"]) == 1
        failed = perf["failed_cells"][0]
        assert failed["attempts"] == 3
        assert "InjectedFault" in failed["error"]
        # Partial results: everything but the quarantined group survived.
        got = _comparable(table)
        assert got  # non-empty
        assert set(got) < set(clean_table)
        # The manifest names the canonical algorithm spelling; the rows
        # use the requested display label — match on the scheme axis and
        # confirm exactly one (scheme, algorithm) group went missing.
        missing = set(clean_table) - set(got)
        assert {row[0] for row in missing} == {failed["scheme"]}
        assert len({(row[0], row[1]) for row in missing}) == 1
        assert failed["algorithm"].startswith("pagerank")

    def test_in_memory_grid_quarantines_like_store_backed(self, plc300, tmp_path):
        # An algorithm that raises on one scheme's graph: the in-memory
        # grid runs through the same executor, so it returns the same
        # partial table and the same failed-cell manifest as a store.
        from repro.algorithms import register_algorithm, unregister_algorithm

        @register_algorithm("tmp_fails_when_sparse", adapter="scalar")
        def tmp_fails_when_sparse(g):
            if g.num_edges < plc300.num_edges // 2:
                raise RuntimeError("too sparse")
            return g.num_edges

        retry = {"max_attempts": 2, "backoff_base": 0.0, "jitter": 0.0}
        schemes = ["uniform(p=0.2)", "uniform(p=0.9)"]
        algorithms = ["cc", "tmp_fails_when_sparse"]
        try:
            in_memory = Session(plc300, seed=1, retry=retry)
            stored = Session(plc300, seed=1, retry=retry, store=tmp_path / "store")
            tables = [s.grid(schemes, algorithms) for s in (in_memory, stored)]
        finally:
            unregister_algorithm("tmp_fails_when_sparse")
        assert _comparable(tables[0]) == _comparable(tables[1])
        assert len(tables[0]) == 3
        failed = in_memory.last_grid_perf["failed_cells"]
        assert failed == stored.last_grid_perf["failed_cells"]
        assert failed == [
            {
                "scheme": "uniform(p=0.2)",
                "seed": 1,
                "algorithm": "tmp_fails_when_sparse",
                "error": "RuntimeError: too sparse",
                "attempts": 2,
            }
        ]

    def test_failed_cell_to_dict(self):
        cell = FailedCell(
            scheme="uniform(p=0.5)", seed=1, algorithm="pr",
            error="InjectedFault: boom", attempts=3,
        )
        data = cell.to_dict()
        assert data["scheme"] == "uniform(p=0.5)" and data["attempts"] == 3


class TestBenchPropagation:
    def test_run_sweep_carries_fault_accounting(self, plc300, tmp_path):
        from repro.runner.harness import SweepSpec, run_sweep

        spec = SweepSpec(
            name="recovery-smoke",
            graphs=("fixture",),
            schemes=("uniform(p=0.5)",),
            algorithms=("pr",),
            seeds=(1,),
        )
        faults = (FaultSpec("runner.compute_cell", times=1),)
        install_plan(FaultPlan(faults=faults))
        try:
            result = run_sweep(
                spec,
                store=tmp_path / "store",
                retry=FAST_RETRY,
                graph_loader=lambda name: plc300,
            )
        finally:
            clear_plan()
        assert result.perf["retries"] == 1
        assert result.perf["failed_cells"] == []
        assert result.perf["metrics"]["repro.runner.task_retries"] == 1
        assert result.perf["metrics"]["repro.runner.failed_cells"] == 0
