"""End-to-end tests for the HTTP front-end: submit/poll/result round-trips,
coalescing over the wire, warm-store resubmission, metrics, dashboard."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.graphs import datasets
from repro.service.http import start_in_thread
from repro.service.queue import DONE, JobQueue

GRAPH = "s-flx"
JOB_BODY = {
    "graph": GRAPH,
    "schemes": ["uniform(p=0.5)", "spanner(k=4)"],
    "algorithms": ["pr", "cc"],
    "seeds": [0],
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    queue = JobQueue(tmp_path_factory.mktemp("svc") / "store", workers=2)
    server, thread = start_in_thread(queue)
    base = "http://{}:{}".format(*server.server_address[:2])
    yield base, queue
    server.shutdown()
    thread.join(30)
    queue.close()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.status, resp.headers.get_content_type(), resp.read()


def _get_json(base, path):
    status, _, body = _get(base, path)
    return status, json.loads(body)


def _post(base, payload):
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + "/jobs", data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _await(base, job_id, timeout=120.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, summary = _get_json(base, f"/jobs/{job_id}")
        assert status == 200
        if summary["state"] in ("done", "failed"):
            return summary
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestEndpoints:
    def test_healthz(self, service):
        base, _ = service
        assert _get_json(base, "/healthz") == (200, {"status": "ok"})

    def test_unknown_routes_404(self, service):
        base, _ = service
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/no/such/route")
        assert err.value.code == 404
        assert "no route" in json.loads(err.value.read())["error"]

    def test_unknown_job_404(self, service):
        base, _ = service
        for path in ("/jobs/nope", "/jobs/nope/result"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base, path)
            assert err.value.code == 404

    def test_bad_submissions_400(self, service):
        base, _ = service
        status, payload = _post(base, b"{not json")
        assert status == 400 and "invalid JSON" in payload["error"]
        status, payload = _post(base, {"graph": GRAPH, "schemes": ["bogus(p=1)"]})
        assert status == 400
        status, payload = _post(base, {"schemes": ["uniform(p=0.5)"]})
        assert status == 400 and "graph" in payload["error"]
        # Each malformed field is a 400 naming that field, never a 202 that
        # fails later inside a worker.
        for field, value in [
            ("metrics", ["nope"]),
            ("schemes", "uniform(p=0.5)"),
            ("seeds", [1.5]),
            ("seeds", [True]),
            ("pr_iterations", None),
            ("graph_seed", [1]),
            ("graph", 5),
        ]:
            body = {"graph": GRAPH, "schemes": ["uniform(p=0.5)"], field: value}
            status, payload = _post(base, body)
            assert status == 400, (field, value, payload)
            assert f"job field '{field}'" in payload["error"], payload

    def test_dashboard_serves_html(self, service):
        base, _ = service
        status, ctype, body = _get(base, "/")
        assert status == 200 and ctype == "text/html"
        page = body.decode()
        assert "<!doctype html" in page.lower()
        assert "queue depth" in page.lower()


class TestJobFlow:
    def test_submit_poll_result_matches_in_memory_session(self, service):
        """The acceptance criterion: the table served over HTTP is
        value-identical to an in-memory Session.grid on the same graph."""
        from repro.analytics.grid import SweepTable
        from repro.analytics.session import Session

        base, _ = service
        status, summary = _post(base, JOB_BODY)
        assert status == 202 and summary["state"] in ("queued", "running", "done")
        final = _await(base, summary["id"])
        assert final["state"] == DONE

        status, payload = _get_json(base, f"/jobs/{summary['id']}/result")
        assert status == 200
        served = SweepTable.from_dict(payload["cells"])

        session = Session(datasets.load(GRAPH, seed=0), seed=0)
        expected = session.grid(JOB_BODY["schemes"], JOB_BODY["algorithms"], seed=0)
        key = lambda c: (c.scheme, c.algorithm, c.metric, c.seed, c.value)
        assert [key(c) for c in served] == [key(c) for c in expected]
        assert all(c.graph == GRAPH for c in served)
        assert payload["perf"]["cells_scheduled"] == len(
            JOB_BODY["schemes"]
        ) * len(JOB_BODY["algorithms"])

    def test_result_csv_round_trips(self, service):
        from repro.analytics.grid import SweepTable

        base, _ = service
        _, summary = _post(base, JOB_BODY)
        _await(base, summary["id"])
        status, ctype, body = _get(base, f"/jobs/{summary['id']}/result?format=csv")
        assert status == 200 and ctype == "text/csv"
        table = SweepTable.from_csv(body.decode())
        assert len(table) == 4

        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, f"/jobs/{summary['id']}/result?format=xml")
        assert err.value.code == 400

    def test_jobs_listing_includes_submissions(self, service):
        base, _ = service
        _, summary = _post(base, JOB_BODY)
        _await(base, summary["id"])
        status, listing = _get_json(base, "/jobs")
        assert status == 200
        assert summary["id"] in {entry["id"] for entry in listing}

    def test_failed_job_result_is_500_with_error(self, service):
        base, _ = service
        _, summary = _post(base, {"graph": "no-such-dataset", "schemes": ["uniform(p=0.5)"]})
        final = _await(base, summary["id"])
        assert final["state"] == "failed"
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, f"/jobs/{summary['id']}/result")
        assert err.value.code == 500
        assert json.loads(err.value.read())["job"]["state"] == "failed"


class TestDedupeOverHTTP:
    def test_concurrent_posts_coalesce_to_one_computation(self, service):
        """Two concurrent HTTP submissions of the same graph+grid run one
        computation and both callers read the same finished table."""
        base, queue = service
        body = dict(JOB_BODY, seeds=[7])
        writes_before = queue.store.stats.writes
        n = 4
        barrier = threading.Barrier(n)
        results = [None] * n

        def post(i):
            barrier.wait()
            results[i] = _post(base, body)

        threads = [threading.Thread(target=post, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = {summary["id"] for status, summary in results}
        assert all(status == 202 for status, _ in results)
        tables = set()
        for job_id in ids:
            assert _await(base, job_id)["state"] == DONE
            _, payload = _get_json(base, f"/jobs/{job_id}/result")
            tables.add(json.dumps(payload["cells"], sort_keys=True))
        # Every caller sees one identical table, and the store gained
        # exactly one set of cells no matter how the posts interleaved.
        assert len(tables) == 1
        assert queue.store.stats.writes == writes_before + 4

    def test_warm_resubmit_recomputes_nothing(self, service):
        """A resubmission after completion replays from the artifact store:
        store hits grow, misses (computations) do not."""
        base, queue = service
        body = dict(JOB_BODY, seeds=[11])
        _, first = _post(base, body)
        assert _await(base, first["id"])["state"] == DONE

        before = queue.store.stats.snapshot()
        _, again = _post(base, body)
        final = _await(base, again["id"])
        assert final["state"] == DONE and final["id"] != first["id"]
        assert final["warm"] is True

        after = queue.store.stats.snapshot()
        assert after["misses"] == before["misses"]
        assert after["writes"] == before["writes"]
        assert after["hits"] == before["hits"] + 4

    def test_metrics_reports_queue_and_store(self, service):
        base, queue = service
        # A cold job and its warm resubmit of our own, so the asserts
        # below hold when this test runs alone.
        body = dict(JOB_BODY, seeds=[13])
        for _ in range(2):
            _, summary = _post(base, body)
            assert _await(base, summary["id"])["state"] == DONE
        status, metrics = _get_json(base, "/metrics")
        assert status == 200
        assert metrics["workers"] == 2
        assert metrics["jobs_total"] == queue.stats()["jobs_total"]
        assert set(metrics["states"]) == {"queued", "running", "done", "failed"}
        assert metrics["store"]["hits"] >= 4
        assert metrics["latency"]["cold"]["count"] >= 1
        assert metrics["latency"]["warm"]["count"] >= 1

    def test_cold_job_on_a_new_seed_replays_baselines(self, service):
        """Baselines depend on (graph, algorithm) only: once one job has
        run them, a cold job on another seed reads them from the store."""
        base, queue = service
        _, first = _post(base, dict(JOB_BODY, seeds=[17]))
        assert _await(base, first["id"])["state"] == DONE
        _, before = _get_json(base, "/metrics")
        _, second = _post(base, dict(JOB_BODY, seeds=[19]))
        assert _await(base, second["id"])["warm"] is False
        _, after = _get_json(base, "/metrics")
        _, result = _get_json(base, f"/jobs/{second['id']}/result")
        assert [g["baseline_computations"] for g in result["perf"]["grids"]] == [0]
        algorithms = len(JOB_BODY["algorithms"])
        assert after["store"]["baseline_hits"] == (
            before["store"]["baseline_hits"] + algorithms
        )
        assert after["store"]["baseline_writes"] == before["store"]["baseline_writes"]


def _post_raw(base, data, headers=None):
    """POST raw bytes; (status, parsed body, response headers)."""
    request = urllib.request.Request(
        base + "/jobs", data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), err.headers


class TestBackpressure:
    def test_closed_queue_is_503_with_retry_after(self):
        from repro.service.http import start_in_thread as _start

        queue = JobQueue(workers=1, graph_loader=lambda ref: None)
        server, thread = _start(queue)
        base = "http://{}:{}".format(*server.server_address[:2])
        queue.close()
        try:
            status, payload, headers = _post_raw(
                base, json.dumps(JOB_BODY).encode()
            )
            assert status == 503
            assert headers["Retry-After"] is not None
            assert int(headers["Retry-After"]) > 0
            assert "closed" in payload["error"]
        finally:
            server.shutdown()
            thread.join(30)

    def test_saturated_queue_is_503_with_retry_after(self):
        import threading as _threading

        from repro.service.http import start_in_thread as _start

        release = _threading.Event()

        def stalled_executor(spec, *, store=None, jobs=None, graph_loader=None):
            release.wait(30)
            from repro.analytics.grid import SweepTable
            from repro.service.jobs import JobResult

            return JobResult(spec=spec, table=SweepTable([]), perf={})

        queue = JobQueue(workers=1, executor=stalled_executor, max_queued=1)
        server, thread = _start(queue)
        base = "http://{}:{}".format(*server.server_address[:2])
        try:
            body = dict(JOB_BODY)
            _post_raw(base, json.dumps(body).encode())  # occupies the worker
            body["seeds"] = [1]
            _post_raw(base, json.dumps(body).encode())  # fills the queue
            body["seeds"] = [2]
            status, payload, headers = _post_raw(base, json.dumps(body).encode())
            assert status == 503
            assert int(headers["Retry-After"]) > 0
            assert "saturated" in payload["error"]
        finally:
            release.set()
            server.shutdown()
            thread.join(30)
            queue.close()


class TestMalformedBodies:
    def test_missing_content_length_400(self, service):
        base, _ = service
        status, payload, _ = _post_raw(base, b"")
        assert status == 400
        assert "body" in payload["error"]

    def test_non_numeric_content_length_400(self, service):
        base, _ = service
        import http.client

        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_oversized_body_400(self, service):
        base, _ = service
        blob = b'{"graph": "' + b"x" * (1 << 20) + b'", "schemes": ["u"]}'
        status, payload, _ = _post_raw(base, blob)
        assert status == 400

    def test_oversized_bodies_never_reset(self, service):
        # The server answers before reading the body; it must drain what
        # the client is still sending rather than reset the connection.
        base, _ = service
        blob = b'{"graph": "' + b"x" * (1 << 20) + b'", "schemes": ["u"]}'
        statuses = []
        for _ in range(50):
            status, payload, headers = _post_raw(base, blob)
            statuses.append(status)
        assert statuses == [400] * 50
        assert "exceeds" in payload["error"]
        assert headers["Connection"] == "close"

    def test_invalid_utf8_400(self, service):
        base, _ = service
        status, payload, _ = _post_raw(base, b'{"graph": "\xff\xfe"}')
        assert status == 400
        assert "invalid JSON" in payload["error"]

    def test_json_non_object_400(self, service):
        base, _ = service
        status, payload, _ = _post_raw(base, b'["not", "an", "object"]')
        assert status == 400
