"""The deduplicating async job queue behind the service front-ends.

Jobs move ``queued → running → done/failed`` across a bounded pool of
worker *threads* (each job may still fan its grid cells over worker
*processes* via ``pool_jobs``).  The queue's defining behavior is
**in-flight dedupe by job key**: :attr:`~repro.service.jobs.JobSpec.
job_key` is derived from the same canonical spec JSON the artifact
store's cell keys use, so two clients submitting the same graph + grid —
in any spelling — coalesce onto one :class:`JobRecord` and one
computation.  Completed keys leave the dedupe map: a later identical
submission becomes a fresh job whose cells replay from the warm store
with zero recomputation (instant hits, visible in the store stats), and
a *failed* job's key is evicted too, so a retry actually retries instead
of being poisoned by the dead record.

Failure handling is explicit.  A job that raises is retried under the
queue's :class:`~repro.runner.parallel.RetryPolicy` — up to its
``max_attempts`` with its capped exponential backoff (attempt counts
surface in ``/jobs``, ``/metrics`` — ``repro.queue.retries`` — and the
dashboard); a job whose wall-clock age exceeds ``job_timeout`` fails
instead of retrying.  A full queue (``max_queued``) rejects with
:class:`QueueSaturated` and a closed queue with :class:`QueueClosed` —
both ``RuntimeError`` subclasses the HTTP front-end maps to 503 +
``Retry-After``.  With a :class:`~repro.service.ledger.JobLedger`
attached, every transition is appended to a crash-safe WAL *before* the
queue proceeds, and a restarted queue replays it: finished jobs
reappear, interrupted ones resubmit (completing instantly against a
warm store) — ``kill -9`` loses nothing but in-flight wall time.

Latency is sampled per job through :func:`repro.utils.timer.stopwatch`
into per-label sample lists under ``cold`` (computed something) /
``warm`` (pure store replay) / ``failed`` labels;
:meth:`JobQueue.stats` exposes those histograms plus queue depth,
per-state counts, and the store's thread-safe hit/miss counters — the
payload of ``GET /metrics`` and the admin dashboard.
"""

from __future__ import annotations

import itertools
import queue as queue_module
import random
import threading
import time
from typing import Mapping

from repro.faults.plan import fault_point
from repro.obs.metrics import counter, gauge, histogram, snapshot as metrics_snapshot
from repro.obs.spans import span
from repro.runner.parallel import RetryPolicy
from repro.runner.store import ArtifactStore
from repro.service.jobs import JobResult, JobSpec, execute_job
from repro.utils.timer import stopwatch

__all__ = [
    "JobQueue",
    "JobRecord",
    "QueueClosed",
    "QueueSaturated",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "STATES",
    "QUEUE_RETRY",
]

#: The queue's default retry policy: one execution (failures are
#: immediate — opt in to retries), and for retries a 0.5 s backoff
#: doubling up to 15 s, without jitter.
QUEUE_RETRY = RetryPolicy(max_attempts=1, backoff_base=0.5, backoff_cap=15.0, jitter=0.0)

# Process-wide rollups of queue activity; the per-instance latency
# samples stay the queue-local view the legacy JSON keys report.
_jobs_submitted = counter("repro.service.jobs_submitted")
_jobs_coalesced = counter("repro.service.jobs_coalesced")
_queue_depth = gauge("repro.service.queue_depth")
_queue_retries = counter("repro.queue.retries")
_queue_timeouts = counter("repro.queue.timeouts")
_latency = {
    label: histogram(f"repro.service.latency_seconds.{label}")
    for label in ("cold", "warm", "failed")
}

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
STATES = (QUEUED, RUNNING, DONE, FAILED)


class QueueClosed(RuntimeError):
    """Submission rejected: the queue is shutting down (HTTP 503)."""


class QueueSaturated(RuntimeError):
    """Submission rejected: ``max_queued`` jobs already waiting (503)."""


class JobRecord:
    """One submitted job's lifecycle, shared by every coalesced client."""

    __slots__ = (
        "id", "spec", "key", "state", "error", "result", "coalesced",
        "warm", "seconds", "attempts", "submitted_at", "started_at",
        "finished_at", "_event",
    )

    def __init__(self, id: str, spec: JobSpec):
        self.id = id
        self.spec = spec
        self.key = spec.job_key
        self.state = QUEUED
        self.error: str | None = None
        self.result: JobResult | None = None
        #: Submissions served by this record beyond the first.
        self.coalesced = 0
        #: True when the job completed as a pure store replay.
        self.warm = False
        #: Execution wall time (queue wait excluded); 0.0 until finished.
        self.seconds = 0.0
        #: Execution attempts started (1 on a first-try success).
        self.attempts = 0
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._event = threading.Event()

    def __repr__(self) -> str:
        return f"JobRecord({self.id!r}, {self.state}, graph={self.spec.graph!r})"

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; False on timeout."""
        event = self._event
        return event is None or event.wait(timeout)

    def _release(self) -> None:
        """Wake every waiter and drop the event: later waits return at
        once, and the finished records a queue keeps stay small."""
        event, self._event = self._event, None
        if event is not None:
            event.set()

    def summary(self) -> dict:
        """JSON-safe status view (the ``GET /jobs/<id>`` payload)."""
        out = {
            "id": self.id,
            "state": self.state,
            "job_key": self.key,
            "graph": self.spec.graph,
            "cell_groups": self.spec.cell_groups(),
            "coalesced": self.coalesced,
            "warm": self.warm,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["cells"] = len(self.result.table)
        return out


class JobQueue:
    """Bounded-concurrency job execution with in-flight dedupe.

    Parameters
    ----------
    store:
        Shared :class:`~repro.runner.store.ArtifactStore` (or a path to
        one); every worker replays/writes through it, which is what makes
        identical re-submissions free.  ``None`` runs storeless (no
        replay, dedupe still coalesces concurrent identical work).
    workers:
        Worker-thread count — the number of jobs in flight at once.
    pool_jobs:
        Per-job process fan-out handed to ``Session(jobs=...)``;
        ``None``/``1`` keeps each job in its worker thread.
    graph_loader:
        Optional ``ref -> CSRGraph`` override (tests and embedded demos
        pass fixtures; the default resolves dataset names and
        ``fingerprint:`` store references).
    executor:
        The job runner, :func:`~repro.service.jobs.execute_job` unless a
        test injects a stand-in.
    retry:
        Per-job :class:`~repro.runner.parallel.RetryPolicy`, or a dict of
        its fields (via :meth:`RetryPolicy.of`): a failing job is
        requeued up to ``max_attempts`` total executions, waiting
        ``retry.backoff(n)`` seconds first.  ``None`` is
        :data:`QUEUE_RETRY`, which keeps failures immediate.  The
        policy's ``task_timeout`` does not apply here; see
        ``job_timeout``.
    job_timeout:
        Wall-clock budget per job measured from submission; exceeded
        jobs fail (a queued job past deadline never starts, a failing
        job past deadline stops retrying).  ``None`` disables.
    max_queued:
        Waiting-job cap; beyond it :meth:`submit` raises
        :class:`QueueSaturated`.  ``None`` (default) is unbounded.
    ledger:
        :class:`~repro.service.ledger.JobLedger` (or a path to one) —
        the crash-safe WAL.  On construction the queue replays it:
        failed jobs reappear as failed, everything else is resubmitted
        under its original id (instant against a warm store).
    """

    def __init__(
        self,
        store=None,
        *,
        workers: int = 2,
        pool_jobs: int | None = None,
        graph_loader=None,
        executor=execute_job,
        retry=None,
        job_timeout: float | None = None,
        max_queued: int | None = None,
        ledger=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        if max_queued is not None and max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        self.store = ArtifactStore.of(store)
        self.workers = workers
        self.pool_jobs = pool_jobs
        self.graph_loader = graph_loader
        self._execute = executor
        self.retry = QUEUE_RETRY if retry is None else RetryPolicy.of(retry)
        self._retry_rng = random.Random("queue-retry-jitter")
        self.job_timeout = job_timeout
        self.max_queued = max_queued
        if ledger is not None and not hasattr(ledger, "record"):
            from repro.service.ledger import JobLedger

            ledger = JobLedger(ledger)
        self.ledger = ledger
        self._latency_samples: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._tasks: queue_module.Queue = queue_module.Queue()
        self._records: dict[str, JobRecord] = {}
        self._inflight: dict[str, JobRecord] = {}
        self._ids = itertools.count(1)
        self._closed = False
        if self.ledger is not None:
            self._replay_ledger()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-service-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- recovery ----------------------------------------------------------- #

    def _replay_ledger(self) -> None:
        """Restore jobs from the WAL (before worker threads start).

        Failed jobs are restored as failed records — their error is
        history, not work.  Done, queued, and running jobs are
        resubmitted under their original ids: re-execution against the
        same store replays completed cells for free, which is exactly
        how "done jobs serve from the warm store" works after a crash.
        """
        jobs = self.ledger.replay()
        self.ledger.compact(jobs)
        highest = 0
        for job_id in sorted(jobs, key=_numeric_id):
            state = jobs[job_id]
            highest = max(highest, _numeric_id(state["id"]))
            try:
                spec = JobSpec.from_dict(state["spec"] or {})
            except (ValueError, TypeError):
                continue  # a spec this build no longer accepts
            record = JobRecord(state["id"], spec)
            record.submitted_at = state.get("submitted_at", record.submitted_at)
            record.attempts = state.get("attempts", 0)
            if state["state"] == FAILED:
                record.state = FAILED
                record.error = state.get("error", "unknown failure")
                record.finished_at = state.get("submitted_at")
                record._release()
                self._records[record.id] = record
                continue
            record.state = QUEUED
            self._records[record.id] = record
            self._inflight.setdefault(record.key, record)
            self.ledger.record(
                "submitted", record.id, key=record.key, spec=spec.to_dict(),
                submitted_at=record.submitted_at, recovered=True,
            )
            _queue_depth.inc()
            self._tasks.put(record)
        self._ids = itertools.count(highest + 1)

    # -- submission --------------------------------------------------------- #

    def submit(self, spec) -> JobRecord:
        """Enqueue ``spec`` (a :class:`JobSpec` or transport dict).

        An identical job already queued or running is **coalesced**: the
        existing record is returned (its ``coalesced`` counter bumped)
        and no second computation is scheduled.  Jobs that already
        finished do not coalesce — resubmission schedules a fresh job,
        which against a warm store completes as a pure replay.  Raises
        :class:`QueueClosed` after :meth:`close` and
        :class:`QueueSaturated` when ``max_queued`` jobs are waiting.
        """
        if isinstance(spec, Mapping):
            spec = JobSpec.from_dict(spec)
        elif not isinstance(spec, JobSpec):
            raise TypeError(f"cannot submit {type(spec).__name__}; need JobSpec or dict")
        with self._lock:
            if self._closed:
                raise QueueClosed("queue is closed")
            record = self._inflight.get(spec.job_key)
            if record is not None:
                record.coalesced += 1
                _jobs_coalesced.inc()
                return record
            if self.max_queued is not None:
                waiting = sum(
                    1 for r in self._records.values() if r.state == QUEUED
                )
                if waiting >= self.max_queued:
                    raise QueueSaturated(
                        f"queue is saturated ({waiting} jobs waiting, "
                        f"max_queued={self.max_queued})"
                    )
            record = JobRecord(f"j{next(self._ids)}-{spec.job_key[:10]}", spec)
            self._inflight[record.key] = record
            self._records[record.id] = record
        if self.ledger is not None:
            self.ledger.record(
                "submitted", record.id, key=record.key,
                spec=record.spec.to_dict(), submitted_at=record.submitted_at,
            )
        _jobs_submitted.inc()
        _queue_depth.inc()
        self._tasks.put(record)
        return record

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    def records(self, *, newest_first: bool = True) -> list[JobRecord]:
        with self._lock:
            out = list(self._records.values())
        return sorted(out, key=lambda r: r.submitted_at, reverse=newest_first)

    # -- execution ---------------------------------------------------------- #

    def _worker(self) -> None:
        while True:
            record = self._tasks.get()
            if record is None:
                self._tasks.task_done()
                return
            try:
                self._run_one(record)
            finally:
                self._tasks.task_done()

    def _deadline_exceeded(self, record: JobRecord) -> bool:
        return (
            self.job_timeout is not None
            and time.time() - record.submitted_at >= self.job_timeout
        )

    def _fail(self, record: JobRecord, error: str, seconds: float = 0.0) -> None:
        with self._lock:
            record.seconds = seconds
            record.error = error
            record.state = FAILED
            record.finished_at = time.time()
            # Evict so an identical resubmission retries instead of
            # coalescing onto the corpse.
            self._inflight.pop(record.key, None)
            self._latency_samples.setdefault("failed", []).append(seconds)
        if self.ledger is not None:
            self.ledger.record(
                "failed", record.id, error=error, attempts=record.attempts
            )
        _latency["failed"].observe(seconds)
        record._release()

    def _run_one(self, record: JobRecord) -> None:
        with self._lock:
            if record.state != QUEUED:  # failed by a non-draining shutdown
                return
            if self._deadline_exceeded(record):
                expired = True
            else:
                expired = False
                record.state = RUNNING
                record.started_at = time.time()
                record.attempts += 1
        _queue_depth.inc(-1)
        if expired:
            _queue_timeouts.inc()
            # A requeued retry expires here too, after its failed attempts.
            where = (
                f"{record.attempts} failed attempt(s), expired awaiting retry"
                if record.attempts
                else "never started"
            )
            self._fail(record, f"job timed out after {self.job_timeout}s ({where})")
            return
        if self.ledger is not None:
            self.ledger.record("running", record.id, attempts=record.attempts)
        try:
            with stopwatch() as sw, span(
                "service.job", job_id=record.id, graph=record.spec.graph
            ):
                # Chaos hook: a worker thread beginning a job — the queue
                # retry/backoff path in one injectable site.
                fault_point("service.run_job", job=record.id)
                result = self._execute(
                    record.spec,
                    store=self.store,
                    jobs=self.pool_jobs,
                    graph_loader=self.graph_loader,
                )
        except Exception as err:  # noqa: BLE001 — a job failure is data
            error = f"{type(err).__name__}: {err}"
            if self._deadline_exceeded(record):
                _queue_timeouts.inc()
                self._fail(
                    record,
                    f"job timed out after {self.job_timeout}s "
                    f"(attempt {record.attempts} failed: {error})",
                    sw.seconds,
                )
                return
            with self._lock:
                retryable = record.attempts < self.retry.max_attempts and not self._closed
            if not retryable:
                self._fail(record, error, sw.seconds)
                return
            _queue_retries.inc()
            if self.ledger is not None:
                self.ledger.record(
                    "requeued", record.id, attempts=record.attempts, error=error
                )
            time.sleep(self.retry.backoff(record.attempts, self._retry_rng))
            with self._lock:
                # close(drain=False) may have failed it during the sleep.
                if record.state != RUNNING:
                    return
                record.state = QUEUED
            _queue_depth.inc()
            self._tasks.put(record)
        else:
            warm = result.perf.get("cache_misses", 0) == 0
            label = "warm" if warm else "cold"
            with self._lock:
                record.result = result
                record.warm = warm
                record.seconds = sw.seconds
                record.state = DONE
                record.finished_at = time.time()
                # Done work is served by the store from here on; the
                # dedupe map only ever holds in-flight keys.
                self._inflight.pop(record.key, None)
                self._latency_samples.setdefault(label, []).append(sw.seconds)
            if self.ledger is not None:
                self.ledger.record(
                    "done", record.id, seconds=sw.seconds, warm=warm
                )
            _latency[label].observe(sw.seconds)
            record._release()

    # -- observability ------------------------------------------------------ #

    def stats(self) -> dict:
        """Queue/store/latency counters (the ``GET /metrics`` payload).

        The flat legacy keys (``workers``, ``jobs_total``, ``store``,
        ``latency`` …) are kept as back-compat aliases; the ``metrics``
        block is the canonical ``repro.<subsystem>.<name>`` view straight
        from the process-global registry (:mod:`repro.obs.metrics`) — the
        same data ``?format=prometheus`` serializes.
        """
        with self._lock:
            states = dict.fromkeys(STATES, 0)
            coalesced = 0
            attempts = 0
            for record in self._records.values():
                states[record.state] += 1
                coalesced += record.coalesced
                attempts += record.attempts
            total = len(self._records)
            latency = {
                label: _latency_summary(samples)
                for label, samples in sorted(self._latency_samples.items())
            }
        out = {
            "workers": self.workers,
            "queue_depth": states[QUEUED],
            "states": states,
            "jobs_total": total,
            "coalesced": coalesced,
            "attempts": attempts,
            "max_attempts": self.retry.max_attempts,
            "job_timeout": self.job_timeout,
            "max_queued": self.max_queued,
            "ledger": None if self.ledger is None else str(self.ledger.path),
            "latency": latency,
            "metrics": metrics_snapshot(),
        }
        if self.store is not None:
            out["store"] = self.store.stats.snapshot()
        return out

    # -- lifecycle ---------------------------------------------------------- #

    def close(self, *, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop accepting work and shut the workers down.

        ``drain=True`` (the default, and what SIGINT does) lets queued
        jobs run to completion first; ``drain=False`` fails them with a
        ``shutdown`` error immediately.  ``timeout`` bounds the *whole*
        shutdown: every worker join shares one deadline rather than each
        getting its own window, so ``close(timeout=5)`` returns within
        ~5s no matter how many workers exist.  Returns ``True`` when
        every worker exited in time (a clean shutdown), ``False``
        otherwise.  Idempotent — a second call just re-joins.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
        if first:
            if not drain:
                with self._lock:
                    for record in self._records.values():
                        if record.state == QUEUED:
                            record.state = FAILED
                            record.error = "shutdown before execution"
                            record.finished_at = time.time()
                            self._inflight.pop(record.key, None)
                            record._release()
                            _queue_depth.inc(-1)
                            if self.ledger is not None:
                                self.ledger.record(
                                    "failed", record.id,
                                    error="shutdown before execution",
                                    attempts=record.attempts,
                                )
            for _ in self._threads:
                self._tasks.put(None)
        deadline = None if timeout is None else time.monotonic() + timeout
        clean = True
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            if thread.is_alive():
                clean = False
        if clean and self.ledger is not None:
            self.ledger.close()
        return clean

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _numeric_id(job_id: str) -> int:
    """The ``<n>`` in ``j<n>-<key>`` ids (0 for foreign formats)."""
    try:
        return int(job_id.split("-", 1)[0].lstrip("j"))
    except ValueError:
        return 0


def _latency_summary(samples: list[float]) -> dict:
    """Count/total/mean/min/max of one latency label's samples."""
    if not samples:
        return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "count": len(samples),
        "total": sum(samples),
        "mean": sum(samples) / len(samples),
        "min": min(samples),
        "max": max(samples),
    }
