"""Parallel, store-aware, fault-tolerant execution of grid sweeps.

:func:`run_grid` is the engine behind every ``Session.grid`` (and so
every ``Session.sweep``): it takes the session's already-resolved grid
plan (schemes × algorithm runners × metric plans), turns it into one
**task per (scheme, seed, algorithm) cell group**, and executes the tasks

- against the artifact store first — cells already stored are replayed
  with zero recomputation,
- then in-process (``jobs <= 1``) or fanned out over a
  ``ProcessPoolExecutor`` (``jobs > 1``), streaming completed cells back
  as workers finish and writing each straight into the store.

Worker processes never receive the graph over the pipe.  The parent
writes it once as an *exploded* snapshot (:mod:`repro.graphs.snapshot` —
into the store keyed by fingerprint, or a temporary directory removed
when the grid ends) and every worker memory-maps that snapshot read-only
in its initializer: near zero load time, one page-cache copy of the CSR
arrays no matter the pool width, and graphs bigger than RAM page in on
demand.  Pool rebuilds after a
dead worker map the same snapshot again.
Every worker keeps its own
:class:`~repro.analytics.session.Session`, so original-graph baselines
are computed at most once per algorithm per worker and compressions at
most once per (scheme, seed) per worker — the same deduplication the
inline path gets from the parent session, sharded over the pool.  With
a store, a worker's session opens it too and knows the parent's graph
fingerprint, so it replays stored baselines (never hashing the graph to
key them) and stores the ones it computes.

Results are bit-compatible across routes: inline and pooled execution
run the very same ``Session._score_cells`` code on the very same inputs,
and the parent reassembles cells in deterministic plan order, so a
parallel, store-backed grid equals the single-process one on a fixed
seed (metric values, ratios, labels; wall times naturally vary).

**Fault tolerance.**  A sweep over a scheme×algorithm×seed cube runs for
hours; one OOM-killed worker must not lose the night.  The executor
therefore treats every task as retryable under a :class:`RetryPolicy`:

- a task that **raises** in a worker (or in-process) is requeued with
  capped exponential backoff plus deterministic jitter;
- a **dead worker** (``BrokenProcessPool`` — SIGKILL, OOM, segfault)
  rebuilds the pool and requeues every in-flight task;
- a task exceeding the policy's **per-task timeout** has its (hung)
  workers killed, the pool rebuilt, and the task requeued — innocent
  in-flight tasks are requeued without an attempt charge;
- a task still failing after ``max_attempts`` is **quarantined** as a
  :class:`FailedCell` in the perf record's ``failed_cells`` manifest
  instead of aborting the sweep — the grid returns partial results plus
  the manifest, and BENCH records carry both;
- a **store write** failure is retried with the same backoff and, when
  exhausted, logged to ``store_write_failures`` — the computed cells are
  kept, so the sweep's results never depend on store durability.

Because a retried task recomputes from the same snapshot, seed, and
specs, recovery is *correct*, not just survivable: a sweep that rides
through injected faults (:mod:`repro.faults`) produces cells
value-identical to a clean run, which ``python -m repro.faults`` and the
``chaos-smoke`` CI job assert.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import random
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path

from repro.algorithms.spec import AlgorithmSpec
from repro.analytics.grid import GridCell
from repro.faults.plan import fault_point
from repro.graphs.analysis import analysis_cache, stats_delta
from repro.metrics.registry import resolve_metric
from repro.obs.metrics import counter
from repro.obs.resources import peak_rss_bytes, private_bytes
from repro.obs.spans import (
    current_span_id,
    enable_tracing,
    span,
    tracer,
    tracing_enabled,
)
from repro.utils.timer import stopwatch, timed_call

__all__ = [
    "run_grid",
    "CellTask",
    "RetryPolicy",
    "FailedCell",
    "PERF_COUNTERS",
    "new_perf",
    "merge_perf",
    "merge_workers",
]

#: The additive counters of a perf record, each mapped to its registry
#: metric name (``None``: no metric).  Grid, job and sweep records all
#: carry them; a record's counters are the sums of its parts'.
PERF_COUNTERS = {
    "cells_scheduled": "repro.runner.cells_scheduled",
    "cache_hits": "repro.runner.cache_hits",
    "cache_misses": "repro.runner.cache_misses",
    "compress_seconds": None,
    "analysis_hits": "repro.analysis.hits",
    "analysis_misses": "repro.analysis.misses",
    # Fault-tolerance accounting: task re-executions, pool rebuilds after
    # dead/hung workers, and store writes that needed retries.
    "retries": "repro.runner.task_retries",
    "pool_rebuilds": "repro.runner.pool_rebuilds",
    "store_write_retries": "repro.runner.store_write_retries",
}


def new_perf(**fields) -> dict:
    """An empty perf record: zeroed :data:`PERF_COUNTERS` plus ``fields``.

    Besides the counters it holds the structural-analysis cache detail
    (``analysis_cache``), the two manifests — quarantined cell groups
    (``failed_cells``) and abandoned store writes
    (``store_write_failures``) — and pid-keyed per-worker-process stats
    (``workers``; empty for in-process runs).
    """
    perf = {key: 0.0 if key == "compress_seconds" else 0 for key in PERF_COUNTERS}
    perf.update(
        analysis_cache={"hits": 0, "misses": 0, "by_analysis": {}},
        failed_cells=[],
        store_write_failures=[],
        workers={},
    )
    perf.update(fields)
    return perf


def merge_perf(total: dict, part: dict, **tags) -> dict:
    """Fold the perf record ``part`` into ``total`` (a :func:`new_perf`).

    Counters sum; manifest entries are appended with ``tags`` (say
    ``graph=name``) prefixed so merged entries stay
    attributable; worker and analysis-cache stats merge.  Returns
    ``total``.
    """
    for key in PERF_COUNTERS:
        total[key] += part.get(key, 0)
    for key in ("failed_cells", "store_write_failures"):
        total[key].extend({**tags, **entry} for entry in part.get(key, ()))
    merge_workers(total["workers"], part.get("workers"))
    _merge_analysis(total["analysis_cache"], part.get("analysis_cache"))
    return total


def _max(a, b):
    """``max`` where ``None`` means "not measured"."""
    return b if a is None else a if b is None else max(a, b)


def merge_workers(total: dict, workers: dict | None) -> None:
    """Fold pid-keyed worker stats into ``total``.

    Cells sum; peak RSS and private (USS) bytes and the cumulative
    baseline computations take the max (lifetime high-water marks); the
    graph load time is per-process and kept from first sight.
    """
    for pid, stats in (workers or {}).items():
        slot = total.get(pid)
        if slot is None:
            total[pid] = dict(stats)
            continue
        slot["cells"] += stats.get("cells", 0)
        for key in ("peak_rss_bytes", "private_bytes", "baseline_computations"):
            slot[key] = _max(slot.get(key), stats.get(key))


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor responds to task failures.

    ``backoff(attempt)`` grows ``backoff_base * 2**(attempt-1)`` capped
    at ``backoff_cap``, with up to ``jitter`` (a fraction) of extra delay
    drawn from the deterministic per-grid RNG — retries de-synchronize
    without making reruns irreproducible.  ``task_timeout`` (seconds,
    measured from submission to a free worker slot) is enforced only for
    pooled execution; ``None`` disables it.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.jitter < 0:
            raise ValueError("backoff_base, backoff_cap, and jitter must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")

    @classmethod
    def of(cls, value) -> "RetryPolicy":
        """Coerce ``None``/dict/policy to a policy (session convenience)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(f"cannot build a RetryPolicy from {type(value).__name__}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        delay = min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


@dataclass(frozen=True)
class FailedCell:
    """One quarantined cell group: the sweep went on without it."""

    scheme: str
    seed: object
    algorithm: str
    error: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class CellTask:
    """One unit of sweep work: algorithm × (scheme, seed) compression."""

    scheme: str
    seed: object
    algorithm: str
    metrics: tuple[str, ...]
    scheme_index: int
    runner_index: int

    def transport(self) -> dict:
        """Picklable form sent to workers (and echoed back for routing)."""
        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "metrics": self.metrics,
            "scheme_index": self.scheme_index,
            "runner_index": self.runner_index,
        }


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #

#: Per-process state: the reloaded graph's session plus compression cache.
_WORKER: dict = {}


def _load_worker_graph(path: str):
    """Memory-map the parent's exploded snapshot read-only (zero copy)."""
    from repro.graphs.snapshot import load_snapshot

    return load_snapshot(path, mmap=True)


def _init_worker(
    graph_path: str, session_kwargs: dict, trace: bool = False, fingerprint=None
) -> None:
    """Map the snapshot and build this worker's session.

    ``fingerprint`` is the parent's key for the graph; with it the
    session keys stored baselines without hashing the graph.
    """
    from repro.analytics.session import Session

    # Under the fork start method the child inherits the parent tracer's
    # finished spans; drop them or they would ship back as duplicates.
    tracer().clear()
    if trace:
        # The parent traced this sweep; this worker records its own spans
        # and ships them back with each cell result (see _worker_cell).
        enable_tracing()
    with span("worker.load_snapshot", ref=graph_path):
        with stopwatch() as sw:
            graph = _load_worker_graph(graph_path)
    if fingerprint is None:
        _WORKER["session"] = Session(graph, **session_kwargs)
    else:
        _WORKER["session"] = Session._of_stored(
            fingerprint, lambda: graph, **session_kwargs
        )
    _WORKER["runs"] = {}
    _WORKER["load_seconds"] = sw.seconds


def _worker_cell(task: dict) -> tuple[dict, list[dict], dict]:
    # Chaos hook: "kill" here is an OOM-killed worker (BrokenProcessPool
    # in the parent), "raise" a transient in-worker failure, "hang" a
    # wedged worker for the per-task timeout to reap.
    fault_point(
        "runner.worker_cell", scheme=task["scheme"], algorithm=task["algorithm"]
    )
    with span("worker.cell", scheme=task["scheme"], algorithm=task["algorithm"]):
        cells, perf = _compute_cell(_WORKER["session"], _WORKER["runs"], task)
    # Per-worker accounting for BENCH records (always) and the worker's
    # finished spans (only when tracing) — the parent pops both out of the
    # perf dict before cells are written to the store, so stored payloads
    # keep their historical schema.
    perf["worker"] = {
        "pid": os.getpid(),
        "load_seconds": _WORKER.get("load_seconds", 0.0),
        "peak_rss_bytes": peak_rss_bytes(),
        # USS: memory private to this worker.  Mapped snapshot pages
        # inflate peak_rss_bytes in every worker but not this number —
        # it is what proves "aggregate RSS ≈ one copy".
        "private_bytes": private_bytes(),
        # Cumulative per process, so merges keep the largest sighting.
        "baseline_computations": _WORKER["session"].baseline_computations,
    }
    if tracing_enabled():
        perf["spans"] = tracer().drain()
    return task, cells, perf


def _compute_cell(
    session, runs: dict, task: dict, scheme=None
) -> tuple[list[dict], dict]:
    """Execute one task against ``session`` (worker or parent process).

    ``scheme`` is the configured scheme behind ``task["scheme"]`` when the
    caller holds it (inline execution); workers rebuild it from the spec.

    ``runs`` holds the current (scheme, seed) compression so consecutive
    same-key tasks share it; it is evicted whenever the ``(scheme, seed)``
    key changes — a new seed of the same scheme evicts too — bounding
    peak memory to one compressed graph per process.  Tasks are submitted
    scheme-major (seeds grouped within a scheme), so each (scheme, seed)
    compression still runs exactly once per process.  Baselines dedupe
    through the session's own cache and, with a store, its stored
    baselines.
    """
    fault_point(
        "runner.compute_cell", scheme=task["scheme"], algorithm=task["algorithm"]
    )
    analysis_before = analysis_cache().stats()
    run_key = (task["scheme"], task["seed"])
    cached = runs.get(run_key)
    compress_seconds = 0.0
    if cached is None:
        runs.clear()
        cached, compress_seconds = timed_call(
            session.compress,
            task["scheme"] if scheme is None else scheme,
            seed=task["seed"],
        )
        runs[run_key] = cached
    runner = session._as_runner(task["algorithm"])
    plan = [resolve_metric(m) for m in task["metrics"]]
    with stopwatch() as sw:
        cells = session._score_cells(cached, runner, plan, seed=task["seed"])
    perf = {
        "compress_seconds": compress_seconds,
        "cell_seconds": sw.seconds,
        # Structural-analysis cache activity attributable to this cell
        # (in the executing process — a worker's own cache when pooled).
        "analysis": stats_delta(analysis_before, analysis_cache().stats()),
    }
    return [c.to_dict() for c in cells], perf


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #


def _make_tasks(session, built, runners, plans, seed) -> list[CellTask]:
    tasks: list[CellTask] = []
    from repro.analytics.session import _spec_label

    for si, scheme in enumerate(built):
        scheme_str = _spec_label(scheme)
        for ri, (runner, plan) in enumerate(zip(runners, plans)):
            if not plan:
                continue
            if not isinstance(runner.key, AlgorithmSpec):
                raise ValueError(
                    f"grids require registry algorithms; {runner.label!r} "
                    "is a bare callable (register it with "
                    "@register_algorithm)"
                )
            tasks.append(
                CellTask(
                    scheme=scheme_str,
                    seed=seed,
                    algorithm=runner.key.to_string(),
                    metrics=tuple(entry.name for entry in plan),
                    scheme_index=si,
                    runner_index=ri,
                )
            )
    return tasks


def run_grid(session, built, runners, plans, *, seed):
    """Execute a resolved grid plan with store replay and/or a pool.

    Returns ``(cells, perf)`` where ``cells`` is in deterministic
    (scheme-major, then algorithm, then metric) order — minus any
    quarantined cells, which appear in ``perf["failed_cells"]`` instead —
    and ``perf`` is a :func:`new_perf` record for this call (the
    :data:`PERF_COUNTERS` and manifests) plus ``jobs``, ``wall_seconds``
    and, with a store, ``store_stats``.
    Callers total several grids with :func:`merge_perf`.
    """
    store = session.store
    jobs = session.jobs or 1
    retry = RetryPolicy.of(getattr(session, "retry", None))
    rng = random.Random(f"retry-jitter-{seed}")
    with stopwatch() as wall:
        tasks = _make_tasks(session, built, runners, plans, seed)

        fingerprint = session.fingerprint if store is not None else None

        results: dict[tuple[int, int], list[dict]] = {}
        perf = new_perf(jobs=jobs, cells_scheduled=len(tasks))
        pending: list[CellTask] = []
        for task in tasks:
            payload = None
            if store is not None:
                key = store.cell_key(
                    fingerprint, task.scheme, task.seed, task.algorithm, task.metrics
                )
                payload = store.get_cells(key)
            if payload is not None:
                results[(task.scheme_index, task.runner_index)] = payload["cells"]
                perf["cache_hits"] += 1
            else:
                pending.append(task)
                perf["cache_misses"] += 1

        def harvest(task: CellTask, cells: list[dict], cell_perf: dict) -> None:
            results[(task.scheme_index, task.runner_index)] = cells
            perf["compress_seconds"] += cell_perf.get("compress_seconds", 0.0)
            _merge_analysis(perf["analysis_cache"], cell_perf.get("analysis"))
            # Worker-only payloads ride in the perf dict but must not
            # reach the store: stored cell payloads keep the historical
            # schema so warm replays stay byte-identical across runs.
            spans = cell_perf.pop("spans", None)
            worker = cell_perf.pop("worker", None)
            if spans:
                tracer().adopt(spans, parent_id=current_span_id())
            if worker:
                merge_workers(
                    perf["workers"], {str(worker["pid"]): {**worker, "cells": 1}}
                )
            if store is not None:
                key = store.cell_key(
                    fingerprint, task.scheme, task.seed, task.algorithm, task.metrics
                )
                _store_put(store, key, {"cells": cells, "perf": cell_perf}, retry, rng, perf)

        if pending:
            # A lazy session loads its graph here, at the first miss and
            # outside the retry loops, so a snapshot that fails to load
            # fails the grid instead of quarantining its cells.
            graph = session.graph
            if jobs > 1:
                _run_pool(
                    session, graph, store, fingerprint, pending, jobs, harvest,
                    retry, rng, perf,
                )
            else:
                _run_inline(session, built, pending, harvest, retry, rng, perf)

        cells = _assemble(tasks, runners, results)
    # Flat copies of the analysis-cache totals, so they sum like the
    # other counters when grids are merged.
    perf["analysis_hits"] = perf["analysis_cache"]["hits"]
    perf["analysis_misses"] = perf["analysis_cache"]["misses"]
    perf["wall_seconds"] = wall.seconds
    if store is not None:
        perf["store_stats"] = store.stats.snapshot()
    return cells, perf


def _store_put(store, key, payload, retry: RetryPolicy, rng, perf: dict) -> bool:
    """Write one cell record, riding out transient store failures.

    The cells are already harvested — a store that stays broken costs
    future replays, never this sweep's results — so exhaustion logs a
    ``store_write_failures`` entry and moves on instead of raising.
    """
    for attempt in range(1, retry.max_attempts + 1):
        try:
            store.put_cells(key, payload)
            return True
        except Exception as err:  # noqa: BLE001 — flaky disks throw anything
            if attempt >= retry.max_attempts:
                perf["store_write_failures"].append(
                    {
                        "digest": key.digest,
                        "error": f"{type(err).__name__}: {err}",
                        "attempts": attempt,
                    }
                )
                counter("repro.runner.store_write_failures").inc()
                return False
            perf["store_write_retries"] += 1
            counter("repro.runner.store_write_retries").inc()
            time.sleep(retry.backoff(attempt, rng))
    return False


def _quarantine(task: CellTask, err, attempts: int, perf: dict) -> None:
    perf["failed_cells"].append(
        FailedCell(
            scheme=task.scheme,
            seed=task.seed,
            algorithm=task.algorithm,
            error=f"{type(err).__name__}: {err}",
            attempts=attempts,
        ).to_dict()
    )
    counter("repro.runner.failed_cells").inc()


def _run_inline(
    session, built, pending, harvest, retry: RetryPolicy, rng, perf: dict
) -> None:
    """In-process execution with the same retry/quarantine semantics.

    Reuses the parent session so its baseline cache keeps paying off
    across grids, and compresses the session's own configured schemes
    (``built``), so schemes without a registry spec still run inline;
    compressions cached per call.  A failed attempt may leave a partial
    compression in ``runs`` — retries clear it first.
    """
    runs: dict = {}
    for task in pending:
        for attempt in range(1, retry.max_attempts + 1):
            try:
                cells, cell_perf = _compute_cell(
                    session, runs, task.transport(), built[task.scheme_index]
                )
            except Exception as err:  # noqa: BLE001 — any failure is retryable
                runs.clear()
                if attempt >= retry.max_attempts:
                    _quarantine(task, err, attempt, perf)
                    break
                perf["retries"] += 1
                counter("repro.runner.task_retries").inc()
                time.sleep(retry.backoff(attempt, rng))
            else:
                harvest(task, cells, cell_perf)
                break


def _run_pool(
    session, graph, store, fingerprint, pending, jobs, harvest, retry: RetryPolicy,
    rng, perf,
) -> None:
    """Fan ``pending`` tasks over a process pool, streaming results back.

    The pool is treated as a crashable resource: per-future exceptions
    requeue the task with backoff, a broken pool (dead worker) or a
    per-task timeout (hung worker, killed here) rebuilds it and requeues
    the in-flight tasks, and tasks out of attempts are quarantined.
    Workers map the snapshot :func:`_write_snapshot` writes first; a
    temporary one is removed on the way out, crash or not.
    """
    session_kwargs = {
        "seed": session.seed,
        "bfs_root": session.bfs_root,
        "pr_iterations": session.pr_iterations,
    }
    if store is not None:
        session_kwargs["store"] = str(store.root)

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(
                str(snapshot_path), session_kwargs, tracing_enabled(), fingerprint
            ),
        )

    pool: ProcessPoolExecutor | None = None

    def shutdown_pool(*, kill: bool = False) -> None:
        nonlocal pool
        if pool is None:
            return
        if kill:
            # A hung worker never returns; terminate so shutdown's join
            # completes.  ``_processes`` is executor-internal — guard it.
            procs = getattr(pool, "_processes", None) or {}
            for proc in list(procs.values()):
                try:
                    proc.terminate()
                except Exception:  # noqa: BLE001 — already dead is fine
                    pass
        pool.shutdown(wait=True, cancel_futures=True)
        pool = None

    # Ready-queue ordered by (not-before time, submission sequence): fresh
    # tasks keep the deterministic scheme-major order; retries re-enter
    # after their backoff.  ``attempts`` survives requeues.
    seq = itertools.count()
    ready: list[tuple[float, int, CellTask]] = [
        (0.0, next(seq), task) for task in pending
    ]
    heapq.heapify(ready)
    attempts: dict[CellTask, int] = {}
    window: dict = {}  # future -> (task, deadline)

    def fail_or_requeue(task: CellTask, err, *, charge: bool = True) -> None:
        if not charge:
            heapq.heappush(ready, (time.monotonic(), next(seq), task))
            return
        n = attempts[task] = attempts.get(task, 0) + 1
        if n >= retry.max_attempts:
            _quarantine(task, err, n, perf)
            return
        perf["retries"] += 1
        counter("repro.runner.task_retries").inc()
        delay = retry.backoff(n, rng)
        heapq.heappush(ready, (time.monotonic() + delay, next(seq), task))

    def rebuild_after(kind: str) -> None:
        perf["pool_rebuilds"] += 1
        counter("repro.runner.pool_rebuilds").inc()
        shutdown_pool(kill=(kind == "timeout"))

    tmpdir = None if store is not None else tempfile.mkdtemp(prefix="repro-grid-")
    try:
        snapshot_path = _write_snapshot(
            graph, store, fingerprint, tmpdir, retry, rng, perf
        )
        while ready or window:
            now = time.monotonic()
            while ready and len(window) < jobs and ready[0][0] <= now:
                _, _, task = heapq.heappop(ready)
                if pool is None:
                    pool = make_pool()
                try:
                    future = pool.submit(_worker_cell, task.transport())
                except BrokenExecutor as err:
                    # A worker died since the last wait and the pool
                    # refuses work before any in-flight future reports
                    # it: recover as for a broken future, and requeue
                    # this never-started task without an attempt charge.
                    lost = [t for t, _ in window.values()]
                    window.clear()
                    rebuild_after("broken")
                    for casualty in lost:
                        fail_or_requeue(casualty, err)
                    fail_or_requeue(task, None, charge=False)
                    break
                deadline = (
                    math.inf
                    if retry.task_timeout is None
                    else now + retry.task_timeout
                )
                window[future] = (task, deadline)
            if not window:
                # Everything is backing off; sleep until the first is due.
                time.sleep(min(0.5, max(0.0, ready[0][0] - now)) or 0.001)
                continue

            next_deadline = min(deadline for _, deadline in window.values())
            poll = None
            if next_deadline is not math.inf or ready:
                bounds = [0.25]
                if next_deadline is not math.inf:
                    bounds.append(max(0.01, next_deadline - now))
                if ready:
                    bounds.append(max(0.01, ready[0][0] - now))
                poll = min(bounds)
            done, _ = wait(set(window), timeout=poll, return_when=FIRST_COMPLETED)

            for future in done:
                if future not in window:  # window cleared by a pool rebuild
                    continue
                task, _ = window.pop(future)
                try:
                    task_dict, cells, cell_perf = future.result()
                except BrokenExecutor as err:
                    # The pool died under us (SIGKILL/OOM/segfault): every
                    # in-flight future is lost with it.  Requeue them all
                    # (each was interrupted — each attempt is charged),
                    # rebuild lazily on next submission.
                    lost = [task] + [t for t, _ in window.values()]
                    window.clear()
                    rebuild_after("broken")
                    for casualty in lost:
                        fail_or_requeue(casualty, err)
                    break
                except Exception as err:  # noqa: BLE001 — task failure is data
                    fail_or_requeue(task, err)
                else:
                    harvest(task, cells, cell_perf)

            if not done and retry.task_timeout is not None:
                now = time.monotonic()
                expired = [
                    (future, task)
                    for future, (task, deadline) in window.items()
                    if now >= deadline and not future.done()
                ]
                if expired:
                    # Hung worker(s): the executor cannot cancel running
                    # work, so kill the pool and resubmit.  Only the
                    # expired tasks are charged an attempt; co-resident
                    # tasks were innocent.
                    expired_tasks = {task for _, task in expired}
                    survivors = [
                        t for t, _ in window.values() if t not in expired_tasks
                    ]
                    window.clear()
                    rebuild_after("timeout")
                    err = TimeoutError(
                        f"task exceeded the {retry.task_timeout}s per-task timeout"
                    )
                    for task in expired_tasks:
                        fail_or_requeue(task, err)
                    for task in survivors:
                        fail_or_requeue(task, None, charge=False)
    finally:
        shutdown_pool()
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)


def _write_snapshot(graph, store, fingerprint, tmpdir, retry: RetryPolicy, rng, perf):
    """Write the exploded snapshot pool workers map; returns its path.

    With a store it lands there keyed by ``fingerprint`` (reused when
    intact, so warm replays share it), otherwise under
    ``tmpdir``.  It is the one write the grid cannot proceed without, so
    transient failures retry — a torn snapshot is rewritten, since
    :meth:`~repro.runner.store.ArtifactStore.add_graph` reuses only
    intact ones — and exhaustion raises.
    """
    from repro.graphs.snapshot import save_snapshot

    for attempt in range(1, retry.max_attempts + 1):
        try:
            if store is not None:
                return store.add_graph(graph, fingerprint)[1]
            return save_snapshot(
                graph, Path(tmpdir) / "graph.snap", layout="exploded"
            )
        except Exception:  # noqa: BLE001 — flaky disks throw anything
            if attempt >= retry.max_attempts:
                raise
            perf["store_write_retries"] += 1
            counter("repro.runner.store_write_retries").inc()
            time.sleep(retry.backoff(attempt, rng))


def _merge_analysis(total: dict, delta: dict | None) -> None:
    """Accumulate analysis-cache stats (a cell's delta or a grid's
    totals) into ``total``."""
    if not delta:
        return
    total["hits"] += delta.get("hits", 0)
    total["misses"] += delta.get("misses", 0)
    for name, counts in delta.get("by_analysis", {}).items():
        slot = total["by_analysis"].setdefault(name, {"hits": 0, "misses": 0})
        slot["hits"] += counts.get("hits", 0)
        slot["misses"] += counts.get("misses", 0)


def _assemble(tasks, runners, results) -> list[GridCell]:
    """Cells in plan order, labeled with this call's algorithm surfaces.

    Stored payloads carry the canonical bound algorithm label; the session
    may have requested the cell under a battery short name (``"pr"``), so
    the display label is rewritten to this call's surface.  Replayed
    payloads may also carry the *writer's* metric order (store keys are
    metric-order-free), so rows are re-sorted to this call's requested
    order — a warm replay is row-for-row identical to a cold grid no
    matter how the cells were first spelled.  Quarantined tasks have
    no results entry and are skipped — their identity lives in the perf
    record's ``failed_cells`` manifest.
    """
    cells: list[GridCell] = []
    for task in tasks:
        payload = results.get((task.scheme_index, task.runner_index))
        if payload is None:
            continue
        label = runners[task.runner_index].label
        rows = [GridCell.from_dict(data) for data in payload]
        if len(task.metrics) > 1:
            order = {m: i for i, m in enumerate(task.metrics)}
            rows.sort(key=lambda c: order.get(c.metric, len(order)))
        for cell in rows:
            if cell.algorithm != label or cell.seed != task.seed:
                cell = replace(cell, algorithm=label, seed=task.seed)
            cells.append(cell)
    return cells
