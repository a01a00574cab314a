"""Observability wired through the stack: traced parallel grids, BENCH
resource fields, and the Prometheus exposition of a live service."""

import json
import urllib.error
import urllib.request

import pytest

from repro.analytics.session import Session
from repro.obs.spans import disable_tracing, enable_tracing, tracer, validate_trace
from repro.runner.harness import run_sweep, write_bench_record

SCHEMES = ["uniform(p=0.5)", "spanner(k=8)"]
ALGS = ["pr", "cc"]


@pytest.fixture(autouse=True)
def tracing_off_afterwards():
    """enable_tracing() flips the process-global tracer; undo it."""
    yield
    disable_tracing()
    tracer().clear()


class TestTracedParallelGrid:
    def test_trace_spans_two_processes_and_stitches(self, plc300, tmp_path):
        enable_tracing()
        session = Session(plc300, seed=1, store=tmp_path / "store", jobs=2)
        session.grid(SCHEMES, ALGS)
        path = tracer().write_chrome_trace(tmp_path / "trace.json")
        trace = json.loads(path.read_text())
        assert validate_trace(trace) == []

        events = trace["traceEvents"]
        pids = {e["pid"] for e in events}
        # Parent + at least two worker processes on one timeline.
        assert len(pids) >= 3
        names = {e["name"] for e in events}
        assert {"grid", "worker.load_snapshot", "worker.cell", "compress"} <= names

        # Every worker span is reachable from the parent's grid span:
        # stitching re-parented worker roots under the scheduling span.
        by_id = {e["args"]["span_id"]: e for e in events}
        grid_pid = trace["metadata"]["main_pid"]
        for event in events:
            if event["pid"] == grid_pid:
                continue
            node = event
            while node["args"]["parent_id"] is not None:
                node = by_id[node["args"]["parent_id"]]
            assert node["pid"] == grid_pid, (
                f"worker span {event['name']} is not stitched under the parent"
            )

    def test_worker_perf_fields(self, plc300, tmp_path):
        session = Session(plc300, seed=1, store=tmp_path / "store", jobs=2)
        session.grid(SCHEMES, ALGS)
        workers = session.last_grid_perf["workers"]
        assert len(workers) >= 1  # >=1 worker pid (2 unless one grabbed all)
        assert sum(w["cells"] for w in workers.values()) == len(SCHEMES) * len(
            ALGS
        )
        for stats in workers.values():
            assert stats["load_seconds"] > 0.0
            assert stats["peak_rss_bytes"] > 0

    def test_untraced_session_records_nothing(self, plc300):
        tracer().clear()
        session = Session(plc300, seed=1)
        session.compress("uniform(p=0.5)")
        assert len(tracer()) == 0


class TestBenchResourceFields:
    def test_sweep_record_carries_resources(self, tmp_path):
        result = run_sweep("smoke", store=tmp_path / "store")
        record_path = write_bench_record(result, tmp_path / "out")
        record = json.loads(record_path.read_text())
        assert record["peak_rss_bytes"] > 0
        resources = record["resources"]
        assert resources["peak_rss_bytes"] == record["peak_rss_bytes"]
        assert resources["cpu_seconds"] > 0.0
        assert "gc" in resources
        # Canonical registry spellings next to the legacy flat keys.
        metrics = record["metrics"]
        assert metrics["repro.runner.cells_scheduled"] == record["cells_scheduled"]
        assert metrics["repro.store.writes"] == record["store_stats"]["writes"]

    def test_parallel_sweep_records_worker_loads(self, tmp_path):
        result = run_sweep("smoke", store=tmp_path / "store", jobs=2)
        workers = result.perf["workers"]
        assert workers, "parallel sweep must report per-worker stats"
        for stats in workers.values():
            assert stats["load_seconds"] > 0.0
            assert stats["peak_rss_bytes"] > 0
        total_cells = sum(w["cells"] for w in workers.values())
        assert total_cells == result.perf["cells_scheduled"]


class TestServiceExposition:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        from repro.service.http import start_in_thread
        from repro.service.queue import JobQueue

        queue = JobQueue(tmp_path_factory.mktemp("svc") / "store", workers=1)
        server, thread = start_in_thread(queue)
        base = "http://{}:{}".format(*server.server_address[:2])
        yield base, queue
        server.shutdown()
        thread.join(30)
        queue.close()

    def _get(self, base, path, headers=None):
        request = urllib.request.Request(base + path, headers=headers or {})
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read()

    def _run_one_job(self, base, queue):
        import time

        body = json.dumps(
            {
                "graph": "s-flx",
                "schemes": ["uniform(p=0.5)"],
                "algorithms": ["pr"],
                "seeds": [0],
            }
        ).encode()
        request = urllib.request.Request(
            base + "/jobs", data=body, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            job_id = json.loads(resp.read())["id"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, _, raw = self._get(base, f"/jobs/{job_id}")
            if json.loads(raw)["state"] in ("done", "failed"):
                return
            time.sleep(0.05)
        raise AssertionError("job never finished")

    def test_prometheus_exposition(self, service):
        base, queue = service
        self._run_one_job(base, queue)

        status, ctype, body = self._get(base, "/metrics?format=prometheus")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        text = body.decode()
        assert "# TYPE repro_service_jobs_submitted counter" in text
        assert "# TYPE repro_service_latency_seconds_cold histogram" in text
        assert 'repro_service_latency_seconds_cold_bucket{le="+Inf"}' in text
        # The exposition is backed by the same registry the JSON view rolls up.
        _, _, raw = self._get(base, "/metrics")
        stats = json.loads(raw)
        submitted = stats["metrics"]["repro.service.jobs_submitted"]["value"]
        assert f"repro_service_jobs_submitted {submitted}" in text

    def test_accept_header_negotiates_prometheus(self, service):
        base, _ = service
        status, ctype, body = self._get(
            base, "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200 and ctype.startswith("text/plain")
        assert b"# TYPE" in body

    def test_json_view_carries_canonical_metrics_block(self, service):
        base, _ = service
        status, _, raw = self._get(base, "/metrics")
        stats = json.loads(raw)
        assert status == 200
        # Legacy keys intact...
        assert set(stats["states"]) == {"queued", "running", "done", "failed"}
        # ...with the canonical registry names alongside.
        assert "repro.service.jobs_submitted" in stats["metrics"]
        assert any(k.startswith("repro.store.") for k in stats["metrics"])

    def test_unknown_format_is_400(self, service):
        base, _ = service
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(base, "/metrics?format=xml")
        assert err.value.code == 400

    def test_dashboard_renders_sparkline_column(self, service):
        base, _ = service
        status, ctype, body = self._get(base, "/")
        assert status == 200 and ctype.startswith("text/html")
        assert "distribution" in body.decode()
