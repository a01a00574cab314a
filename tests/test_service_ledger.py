"""Tests for the crash-safe job ledger: WAL append/replay semantics,
torn-line tolerance, compaction, queue recovery after restart, and the
full kill -9 subprocess round-trip through ``python -m repro.service``."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.analytics.grid import SweepTable
from repro.service.jobs import JobResult, JobSpec
from repro.service.ledger import JobLedger
from repro.service.queue import DONE, FAILED, JobQueue


def _spec(**overrides) -> JobSpec:
    base = dict(graph="g", schemes=["uniform(p=0.5)"], algorithms=["pr"], seeds=[0])
    base.update(overrides)
    return JobSpec.build(**base)


class _CountingExecutor:
    """Instant stand-in executor; counts executions per job key."""

    def __init__(self, fail_keys=()):
        self.calls: dict[str, int] = {}
        self.fail_keys = set(fail_keys)
        self._lock = threading.Lock()

    def __call__(self, spec, *, store=None, jobs=None, graph_loader=None):
        with self._lock:
            self.calls[spec.job_key] = self.calls.get(spec.job_key, 0) + 1
        if spec.job_key in self.fail_keys:
            raise RuntimeError("synthetic failure")
        return JobResult(spec=spec, table=SweepTable([]), perf={"cache_misses": 0})


class TestJobLedger:
    def test_record_replay_round_trip(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl", durable=False)
        spec = _spec()
        ledger.record("submitted", "j1-abc", key=spec.job_key,
                      spec=spec.to_dict(), submitted_at=123.0)
        ledger.record("running", "j1-abc", attempts=1)
        ledger.record("done", "j1-abc", seconds=0.5, warm=True)
        jobs = ledger.replay()
        assert jobs["j1-abc"]["state"] == "done"
        assert jobs["j1-abc"]["warm"] is True
        assert jobs["j1-abc"]["spec"] == spec.to_dict()
        assert jobs["j1-abc"]["submitted_at"] == 123.0

    def test_requeued_and_failed_transitions(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl", durable=False)
        ledger.record("submitted", "j1-x", key="k", spec=_spec().to_dict())
        ledger.record("running", "j1-x", attempts=1)
        ledger.record("requeued", "j1-x", attempts=1, error="boom")
        assert ledger.replay()["j1-x"]["state"] == "queued"
        ledger.record("failed", "j1-x", error="boom", attempts=2)
        job = ledger.replay()["j1-x"]
        assert job["state"] == "failed" and job["error"] == "boom"
        assert job["attempts"] == 2

    def test_torn_last_line_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = JobLedger(path, durable=False)
        ledger.record("submitted", "j1-x", key="k", spec=_spec().to_dict())
        ledger.record("done", "j1-x", seconds=0.1, warm=False)
        ledger.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "failed", "id": "j1-x", "err')  # torn append
        jobs = JobLedger(path, durable=False).replay()
        assert jobs["j1-x"]["state"] == "done"  # the tear never happened

    def test_unknown_ids_and_garbage_are_ignored(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"event": "done", "id": "ghost"}\nnot json\n42\n')
        assert JobLedger(path, durable=False).replay() == {}

    def test_compaction_folds_to_snapshots(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = JobLedger(path, durable=False)
        for i in (1, 2):
            jid = f"j{i}-x"
            ledger.record("submitted", jid, key=f"k{i}", spec=_spec().to_dict())
            ledger.record("running", jid, attempts=1)
            ledger.record("done", jid, seconds=0.1, warm=False)
        before = ledger.replay()
        assert ledger.compact() == 2
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["event"] == "snapshot" for line in lines)
        assert ledger.replay() == before
        # The ledger still appends after compaction.
        ledger.record("submitted", "j3-x", key="k3", spec=_spec().to_dict())
        assert len(ledger.replay()) == 3

    def test_missing_file_replays_empty(self, tmp_path):
        ledger = JobLedger(tmp_path / "never-written" / "ledger.jsonl", durable=False)
        os.unlink(ledger.path)
        assert ledger.replay() == {}


class TestQueueRecovery:
    def test_interrupted_jobs_resubmit_on_restart(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        spec = _spec()
        # A dead process's ledger: job accepted and started, never done.
        ledger = JobLedger(path, durable=False)
        ledger.record("submitted", "j1-" + spec.job_key[:10], key=spec.job_key,
                      spec=spec.to_dict(), submitted_at=time.time())
        ledger.record("running", "j1-" + spec.job_key[:10], attempts=1)
        ledger.close()

        executor = _CountingExecutor()
        with JobQueue(workers=1, executor=executor, ledger=path) as q:
            record = q.get("j1-" + spec.job_key[:10])
            assert record is not None
            assert record.wait(30) and record.state == DONE
        assert executor.calls[spec.job_key] == 1

    def test_done_jobs_rerun_and_failed_jobs_rest(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        done_spec, failed_spec = _spec(), _spec(schemes=["spanner(k=4)"])
        ledger = JobLedger(path, durable=False)
        did = "j1-" + done_spec.job_key[:10]
        fid = "j2-" + failed_spec.job_key[:10]
        ledger.record("submitted", did, key=done_spec.job_key,
                      spec=done_spec.to_dict())
        ledger.record("done", did, seconds=0.2, warm=False)
        ledger.record("submitted", fid, key=failed_spec.job_key,
                      spec=failed_spec.to_dict())
        ledger.record("failed", fid, error="poison job", attempts=3)
        ledger.close()

        executor = _CountingExecutor()
        with JobQueue(workers=1, executor=executor, ledger=path) as q:
            done_record = q.get(did)
            assert done_record.wait(30) and done_record.state == DONE
            failed_record = q.get(fid)
            # Restored as history, not re-run.
            assert failed_record.state == FAILED
            assert failed_record.error == "poison job"
            assert failed_record.attempts == 3
            # Fresh ids continue above the replayed ones.
            fresh = q.submit(_spec(schemes=["uniform(p=0.25)"]))
            assert fresh.id.startswith("j3-")
        assert failed_spec.job_key not in executor.calls

    def test_ledger_path_coerced_and_logged(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        executor = _CountingExecutor()
        with JobQueue(workers=1, executor=executor, ledger=path) as q:
            record = q.submit(_spec())
            assert record.wait(30)
            assert q.stats()["ledger"] == str(path)
        events = [json.loads(l)["event"] for l in path.read_text().splitlines()]
        assert events == ["submitted", "running", "done"]

    def test_retry_events_hit_the_ledger(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        spec = _spec()
        executor = _CountingExecutor(fail_keys={spec.job_key})
        with JobQueue(
            workers=1, executor=executor, ledger=path,
            retry={"max_attempts": 2, "backoff_base": 0.01, "jitter": 0.0},
        ) as q:
            record = q.submit(spec)
            assert record.wait(30) and record.state == FAILED
            assert record.attempts == 2
        events = [json.loads(l)["event"] for l in path.read_text().splitlines()]
        assert events == [
            "submitted", "running", "requeued", "running", "failed",
        ]


class TestKillDashNine:
    def test_service_survives_sigkill(self, tmp_path):
        """Boot the real CLI, run a job, SIGKILL the process, restart:
        the finished job must re-serve warm from the store and an
        interrupted one must re-run to completion."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(p) for p in sys.path if p] )}
        args = [
            sys.executable, "-m", "repro.service",
            "--store", str(tmp_path / "store"),
            "--ledger", str(tmp_path / "ledger.jsonl"),
            "--port", "0", "--jobs", "1",
        ]

        def boot():
            proc = subprocess.Popen(
                args, env=env, stdout=subprocess.PIPE, text=True
            )
            line = proc.stdout.readline()
            assert "http://" in line, f"unexpected boot line: {line!r}"
            port = line.split("http://")[1].split("/")[0].split(":")[1]
            return proc, f"http://127.0.0.1:{port}"

        def get(base, path):
            with urllib.request.urlopen(base + path, timeout=30) as resp:
                return json.load(resp)

        def post(base, payload):
            req = urllib.request.Request(
                base + "/jobs", data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=30) as resp:
                return json.load(resp)

        def await_done(base, job_id, timeout=60.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                state = get(base, f"/jobs/{job_id}")
                if state["state"] in ("done", "failed"):
                    return state
                time.sleep(0.2)
            raise AssertionError(f"job {job_id} never finished")

        proc, base = boot()
        try:
            first = post(base, {
                "graph": "s-flx", "schemes": ["spanner(k=4)"],
                "algorithms": ["pr"],
            })
            assert await_done(base, first["id"])["state"] == "done"
            # A second job enters the queue; kill before it can finish.
            second = post(base, {
                "graph": "s-flx", "schemes": ["uniform(p=0.5)"],
                "algorithms": ["cc"],
            })
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(30)

        proc, base = boot()
        try:
            jobs = {j["id"]: j for j in get(base, "/jobs")}
            assert first["id"] in jobs and second["id"] in jobs
            replayed = await_done(base, first["id"])
            assert replayed["state"] == "done"
            # Same computation, served from the warm store this time.
            assert replayed["warm"] is True
            rerun = await_done(base, second["id"])
            assert rerun["state"] == "done"
            result = get(base, f"/jobs/{second['id']}/result")
            assert result["cells"]
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(30)
