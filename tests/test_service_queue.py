"""Tests for the deduplicating job queue: states, in-flight coalescing,
concurrent submission, failure retry, shutdown."""

import threading
import time

import pytest

from repro.graphs import generators as gen
from repro.runner.store import ArtifactStore
from repro.service.jobs import JobResult, JobSpec
from repro.service.queue import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobQueue,
    QueueClosed,
    QueueSaturated,
)


@pytest.fixture
def graph():
    return gen.powerlaw_cluster(120, 4, 0.5, seed=9)


@pytest.fixture
def loader(graph):
    return lambda ref: graph


def _spec(**overrides) -> JobSpec:
    base = dict(
        graph="g",
        schemes=["uniform(p=0.5)", "spanner(k=4)"],
        algorithms=["pr", "cc"],
        seeds=[0],
    )
    base.update(overrides)
    return JobSpec.build(**base)


class _GatedExecutor:
    """Deterministic executor stand-in: blocks until released, counts calls."""

    def __init__(self, fail=False):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self.fail = fail
        self._lock = threading.Lock()

    def __call__(self, spec, *, store=None, jobs=None, graph_loader=None):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.release.wait(30), "gated executor never released"
        if self.fail:
            raise RuntimeError("synthetic job failure")
        from repro.analytics.grid import SweepTable

        return JobResult(spec=spec, table=SweepTable([]), perf={"cache_misses": 1})


class TestLifecycle:
    def test_submit_runs_to_done(self, loader, tmp_path):
        with JobQueue(tmp_path / "store", workers=1, graph_loader=loader) as q:
            record = q.submit(_spec())
            assert record.wait(60) and record.state == DONE
            assert len(record.result.table) == 4
            assert record.error is None and not record.warm
            assert record.seconds > 0

    def test_submit_accepts_transport_dicts(self, loader):
        with JobQueue(workers=1, graph_loader=loader) as q:
            record = q.submit({"graph": "g", "schemes": ["uniform(p=0.5)"]})
            assert record.wait(60) and record.state == DONE

    def test_bad_submissions_rejected_up_front(self, loader):
        with JobQueue(workers=1, graph_loader=loader) as q:
            with pytest.raises(ValueError):
                q.submit({"graph": "g", "schemes": ["no_such_scheme(p=1)"]})
            with pytest.raises(TypeError, match="JobSpec or dict"):
                q.submit("uniform(p=0.5)")
            assert q.stats()["jobs_total"] == 0

    def test_finished_record_drops_its_event(self):
        # A waiter blocked before the finish is woken; the finished
        # record keeps no event, and later waits return at once.
        gate = _GatedExecutor()
        q = JobQueue(workers=1, executor=gate)
        try:
            record = q.submit(_spec())
            assert gate.started.wait(30)
            woken = []
            waiter = threading.Thread(target=lambda: woken.append(record.wait(30)))
            waiter.start()
            gate.release.set()
            waiter.join(30)
            assert not waiter.is_alive() and woken == [True]
            assert record.state == DONE and record._event is None
            assert record.wait(0) is True
        finally:
            gate.release.set()
            q.close()

    def test_store_path_is_coerced(self, loader, tmp_path):
        with JobQueue(tmp_path / "store", workers=1, graph_loader=loader) as q:
            assert isinstance(q.store, ArtifactStore)


class TestDedupe:
    def test_inflight_submissions_coalesce(self):
        gate = _GatedExecutor()
        q = JobQueue(workers=1, executor=gate)
        try:
            first = q.submit(_spec())
            assert gate.started.wait(30)
            # Same computation in any spelling: one record, no new work.
            same = q.submit(_spec(schemes=["uniform(0.5)", "spanner(k=4)"]))
            other = q.submit(_spec(seeds=[1]))
            assert same is first and first.coalesced == 1
            assert other is not first
            gate.release.set()
            assert first.wait(30) and other.wait(30)
            assert gate.calls == 2
        finally:
            gate.release.set()
            q.close()

    def test_done_jobs_do_not_coalesce(self, loader, tmp_path):
        with JobQueue(tmp_path / "store", workers=1, graph_loader=loader) as q:
            first = q.submit(_spec())
            assert first.wait(60) and first.state == DONE
            again = q.submit(_spec())
            assert again is not first
            assert again.wait(60) and again.state == DONE
            # The resubmission replayed from the warm store: no new cells.
            assert again.warm and q.store.stats.writes == _spec().cell_groups()

    def test_concurrent_identical_submissions_compute_once(self, loader, tmp_path):
        """The satellite acceptance: N threads posting one job produce
        exactly one computation (asserted via the store write count)."""
        q = JobQueue(tmp_path / "store", workers=2, graph_loader=loader)
        try:
            n = 8
            barrier = threading.Barrier(n)
            records = [None] * n

            def post(i):
                barrier.wait()
                records[i] = q.submit(_spec())

            threads = [threading.Thread(target=post, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for r in records:
                assert r.wait(60)
            # One cell set written, ever — however the N submissions were
            # interleaved, nothing was computed twice.
            assert q.store.stats.writes == _spec().cell_groups()
            assert sum(r.coalesced for r in set(records)) == n - len(set(records))
        finally:
            q.close()

    def test_failed_job_does_not_poison_dedupe(self, graph, tmp_path):
        """A failure is retryable: the key leaves the in-flight map."""
        attempts = []

        def flaky_loader(ref):
            attempts.append(ref)
            if len(attempts) == 1:
                raise OSError("transient load failure")
            return graph

        with JobQueue(tmp_path / "store", workers=1, graph_loader=flaky_loader) as q:
            failed = q.submit(_spec())
            assert failed.wait(60) and failed.state == FAILED
            assert "transient load failure" in failed.error
            retry = q.submit(_spec())
            assert retry is not failed
            assert retry.wait(60) and retry.state == DONE
            assert q.stats()["states"][FAILED] == 1


class TestObservability:
    def test_stats_counts_states_and_latency(self, loader, tmp_path):
        with JobQueue(tmp_path / "store", workers=1, graph_loader=loader) as q:
            a = q.submit(_spec())
            b = q.submit(_spec(seeds=[1]))
            assert a.wait(60) and b.wait(60)
            warm = q.submit(_spec())
            assert warm.wait(60)
            stats = q.stats()
            assert stats["states"][DONE] == 3
            assert stats["jobs_total"] == 3
            assert stats["queue_depth"] == 0
            assert stats["latency"]["cold"]["count"] == 2
            assert stats["latency"]["warm"]["count"] == 1
            assert stats["latency"]["cold"]["max"] >= stats["latency"]["cold"]["min"] > 0
            assert stats["store"]["hits"] == _spec().cell_groups()

    def test_latency_block_is_the_jobs_recorded_seconds(self, loader, tmp_path):
        """``stats()["latency"]`` summarizes exactly each finished job's
        ``seconds``, labelled cold / warm / failed, in sorted label order."""
        from repro.service.jobs import execute_job

        def flaky(spec, **kwargs):
            if spec.graph == "boom":
                raise RuntimeError("synthetic job failure")
            return execute_job(spec, **kwargs)

        with JobQueue(
            tmp_path / "store", workers=1, graph_loader=loader, executor=flaky
        ) as q:
            records = []
            for spec in (_spec(), _spec(seeds=[1]), _spec(), _spec(graph="boom")):
                records.append(q.submit(spec))
                assert records[-1].wait(60)
            latency = q.stats()["latency"]
        by_label = {}
        for r in records:
            label = "failed" if r.state == FAILED else ("warm" if r.warm else "cold")
            by_label.setdefault(label, []).append(r.seconds)
        assert list(latency) == ["cold", "failed", "warm"]
        for label, seconds in by_label.items():
            assert latency[label] == {
                "count": len(seconds),
                "total": sum(seconds),
                "mean": sum(seconds) / len(seconds),
                "min": min(seconds),
                "max": max(seconds),
            }
        assert [latency[k]["count"] for k in latency] == [2, 1, 1]

    def test_records_newest_first(self, loader):
        with JobQueue(workers=1, graph_loader=loader) as q:
            a = q.submit(_spec())
            a.wait(60)
            b = q.submit(_spec(seeds=[1]))
            b.wait(60)
            assert [r.id for r in q.records()] == [b.id, a.id]

    def test_summary_is_json_safe(self, loader):
        import json

        with JobQueue(workers=1, graph_loader=loader) as q:
            record = q.submit(_spec())
            record.wait(60)
            summary = json.loads(json.dumps(record.summary()))
            assert summary["state"] == DONE
            assert summary["cells"] == 4
            assert summary["cell_groups"] == 4


class TestShutdown:
    def test_close_drains_queued_jobs(self, loader, tmp_path):
        q = JobQueue(tmp_path / "store", workers=1, graph_loader=loader)
        records = [q.submit(_spec(seeds=[s])) for s in range(3)]
        q.close(drain=True)
        assert all(r.state == DONE for r in records)
        with pytest.raises(RuntimeError, match="closed"):
            q.submit(_spec())

    def test_close_without_drain_fails_queued_jobs(self):
        gate = _GatedExecutor()
        q = JobQueue(workers=1, executor=gate)
        running = q.submit(_spec())
        assert gate.started.wait(30)
        queued = q.submit(_spec(seeds=[1]))
        assert queued.state == QUEUED and running.state == RUNNING

        closer = threading.Thread(target=lambda: q.close(drain=False))
        closer.start()
        # The queued job fails immediately; the running one still drains.
        assert queued.wait(30) and queued.state == FAILED
        assert "shutdown" in queued.error
        gate.release.set()
        closer.join(30)
        assert running.state == DONE

    def test_close_is_idempotent(self, loader):
        q = JobQueue(workers=1, graph_loader=loader)
        q.close()
        q.close()


class TestRetryPolicy:
    def test_failed_job_retries_to_success(self, graph, tmp_path):
        attempts = []

        def flaky_loader(ref):
            attempts.append(ref)
            if len(attempts) == 1:
                raise OSError("transient load failure")
            return graph

        with JobQueue(
            tmp_path / "store", workers=1, graph_loader=flaky_loader,
            retry={"max_attempts": 3, "backoff_base": 0.01, "jitter": 0.0},
        ) as q:
            record = q.submit(_spec())
            assert record.wait(60) and record.state == DONE
            assert record.attempts == 2
            assert record.summary()["attempts"] == 2

    def test_attempts_exhausted_fails(self):
        gate = _GatedExecutor(fail=True)
        gate.release.set()
        with JobQueue(
            workers=1, executor=gate,
            retry={"max_attempts": 2, "backoff_base": 0.01, "jitter": 0.0},
        ) as q:
            record = q.submit(_spec())
            assert record.wait(30) and record.state == FAILED
            assert record.attempts == 2 and gate.calls == 2
            assert "synthetic job failure" in record.error

    def test_default_is_single_attempt(self):
        gate = _GatedExecutor(fail=True)
        gate.release.set()
        with JobQueue(workers=1, executor=gate) as q:
            record = q.submit(_spec())
            assert record.wait(30) and record.state == FAILED
            assert record.attempts == 1 and gate.calls == 1

    def test_retry_counter_in_metrics(self):
        gate = _GatedExecutor(fail=True)
        gate.release.set()
        with JobQueue(
            workers=1, executor=gate,
            retry={"max_attempts": 2, "backoff_base": 0.01, "jitter": 0.0},
        ) as q:
            before = q.stats()["metrics"]["repro.queue.retries"]["value"]
            record = q.submit(_spec())
            assert record.wait(30)
            after = q.stats()["metrics"]["repro.queue.retries"]["value"]
            assert after == before + 1

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            JobQueue(retry={"max_attempts": 0})
        with pytest.raises(ValueError, match="job_timeout"):
            JobQueue(job_timeout=0)
        with pytest.raises(ValueError, match="max_queued"):
            JobQueue(max_queued=0)

    def test_one_retry_policy(self, monkeypatch):
        import repro.service.__main__ as cli
        from repro.runner.parallel import RetryPolicy
        from repro.service.queue import QUEUE_RETRY

        # The default keeps failures immediate, with the historical
        # 0.5 s doubling backoff capped at 15 s and no jitter.
        assert JobQueue().retry == RetryPolicy(
            max_attempts=1, backoff_base=0.5, backoff_cap=15.0, jitter=0.0
        )
        assert [QUEUE_RETRY.backoff(n, None) for n in (1, 2, 7)] == [0.5, 1.0, 15.0]
        policy = RetryPolicy(max_attempts=4)
        assert JobQueue(retry=policy).retry is policy

        # The CLI's --max-attempts lands in the same policy.
        class Built(Exception):
            pass

        def capture(*args, **kwargs):
            raise Built(kwargs["retry"])

        monkeypatch.setattr(cli, "JobQueue", capture)
        with pytest.raises(Built) as built:
            cli.main(["--max-attempts", "3"])
        assert built.value.args[0] == RetryPolicy(
            max_attempts=3, backoff_base=0.5, backoff_cap=15.0, jitter=0.0
        )


class TestJobTimeout:
    def test_queued_past_deadline_never_starts(self):
        gate = _GatedExecutor()
        q = JobQueue(workers=1, executor=gate, job_timeout=0.2)
        try:
            running = q.submit(_spec())
            assert gate.started.wait(30)
            stuck = q.submit(_spec(seeds=[1]))
            time.sleep(0.4)  # let the deadline lapse while it waits
            gate.release.set()
            assert stuck.wait(30) and stuck.state == FAILED
            assert "timed out" in stuck.error and stuck.attempts == 0
            assert running.wait(30) and running.state == DONE
        finally:
            gate.release.set()
            q.close()

    def test_failing_job_past_deadline_stops_retrying(self):
        gate = _GatedExecutor(fail=True)
        gate.release.set()
        with JobQueue(
            workers=1, executor=gate, job_timeout=0.2,
            retry={"max_attempts": 10, "backoff_base": 0.3, "jitter": 0.0},
        ) as q:
            record = q.submit(_spec())
            assert record.wait(30) and record.state == FAILED
            assert "timed out" in record.error
            assert "never started" not in record.error
            assert record.attempts < 10


class TestSaturation:
    def test_max_queued_rejects_with_saturated(self):
        gate = _GatedExecutor()
        q = JobQueue(workers=1, executor=gate, max_queued=1)
        try:
            running = q.submit(_spec())
            assert gate.started.wait(30)
            q.submit(_spec(seeds=[1]))  # fills the single waiting slot
            with pytest.raises(QueueSaturated, match="saturated"):
                q.submit(_spec(seeds=[2]))
            # Coalescing onto in-flight work is still allowed when full.
            assert q.submit(_spec()) is running
        finally:
            gate.release.set()
            q.close()

    def test_closed_queue_raises_queue_closed(self, loader):
        q = JobQueue(workers=1, graph_loader=loader)
        q.close()
        with pytest.raises(QueueClosed):
            q.submit(_spec())


class TestCloseDeadline:
    def test_close_returns_true_on_clean_shutdown(self, loader):
        q = JobQueue(workers=2, graph_loader=loader)
        record = q.submit(_spec())
        assert q.close(timeout=30) is True
        assert record.state == DONE

    def test_close_shares_one_deadline_across_workers(self):
        """Four stuck workers + close(timeout=1) must return in ~1s, not
        ~4s — the satellite's whole point — and report the dirt."""
        gate = _GatedExecutor()
        q = JobQueue(workers=4, executor=gate)
        records = [q.submit(_spec(seeds=[s])) for s in range(4)]
        deadline = time.monotonic() + 30
        while gate.calls < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gate.calls == 4
        start = time.monotonic()
        clean = q.close(timeout=1.0)
        elapsed = time.monotonic() - start
        assert clean is False
        assert elapsed < 3.0  # one shared second, not one per worker
        gate.release.set()
        assert q.close(timeout=30) is True  # idempotent re-join, now clean
