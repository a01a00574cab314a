"""Stdlib-only JSON HTTP front-end over the job queue.

Endpoints (all JSON unless noted):

========================  ====================================================
``POST /jobs``            submit a :class:`~repro.service.jobs.JobSpec` body;
                          202 with the job summary (an identical in-flight
                          job coalesces — same id, no second computation)
``GET /jobs``             summaries of every job, newest first
``GET /jobs/<id>``        one job's summary (state, timings, errors)
``GET /jobs/<id>/result`` the finished SweepTable — JSON rows + perf, or
                          CSV with ``?format=csv``; 409 while unfinished
``GET /metrics``          queue depth, per-state counts, coalesce count,
                          store hit/miss stats, cold/warm latency histograms,
                          plus the canonical ``repro.*`` registry block;
                          ``?format=prometheus`` (or ``Accept: text/plain``)
                          serves Prometheus text exposition instead
``GET /healthz``          liveness probe
``GET /``                 the server-rendered admin dashboard (HTML)
========================  ====================================================

Transport is :class:`http.server.ThreadingHTTPServer` — one thread per
connection, no third-party dependency — which is exactly enough because
the heavy lifting happens in the queue's bounded worker pool, not in
request handlers.  Use :func:`serve` to build a server bound to a
:class:`~repro.service.queue.JobQueue` (port 0 picks a free port) and
:func:`start_in_thread` to run it without blocking (tests, demos).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.queue import DONE, FAILED, JobQueue, QueueClosed, QueueSaturated

__all__ = ["ServiceHandler", "ServiceServer", "serve", "start_in_thread"]

#: Submission bodies above this size are rejected (a job spec is tiny).
MAX_BODY_BYTES = 1 << 20

#: Bounds on draining a rejected body before closing the connection: at
#: most this many bytes, for at most this many seconds.
DRAIN_MAX_BYTES = 8 * MAX_BODY_BYTES
DRAIN_SECONDS = 2.0

#: ``Retry-After`` seconds sent with 503s.  A saturated queue usually
#: drains within a job's runtime; a closing queue never reopens, but the
#: supervisor restarting the process typically has it back by then too.
RETRY_AFTER_SECONDS = 5


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`JobQueue`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def queue(self) -> JobQueue:
        return self.server.queue

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- responses ---------------------------------------------------------- #

    def _send(
        self, status: int, body: bytes, content_type: str, headers: dict | None = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, payload, status: int = 200, headers: dict | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send(status, body, "application/json", headers)

    def _error(self, status: int, message: str, headers: dict | None = None, **extra) -> None:
        self._json({"error": message, **extra}, status=status, headers=headers)

    def _reject_body(self, length: int) -> None:
        """400 for a body that will not be read, then a lingering close.

        Closing a socket with unread request bytes makes the kernel send a
        reset, which a client still writing its body sees as a broken pipe
        instead of this response.  So: answer with ``Connection: close``,
        half-close the write side, and drain what the client is sending,
        within :data:`DRAIN_MAX_BYTES` and :data:`DRAIN_SECONDS`.
        """
        if length > MAX_BODY_BYTES:
            message = f"request body exceeds {MAX_BODY_BYTES} bytes"
        else:
            message = "request needs a JSON body (Content-Length)"
        self._error(400, message, headers={"Connection": "close"})
        try:
            self.wfile.flush()
            self.connection.shutdown(socket.SHUT_WR)
            budget = min(max(length, 0), DRAIN_MAX_BYTES)
            deadline = time.monotonic() + DRAIN_SECONDS
            while budget > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.connection.settimeout(remaining)
                chunk = self.rfile.read1(min(budget, 65536))
                if not chunk:
                    break
                budget -= len(chunk)
        except OSError:  # the client went away first: nothing to linger for
            pass

    def _unavailable(self, message: str) -> None:
        """503 with ``Retry-After`` — the back-pressure/shutdown answer."""
        self._error(
            503, message,
            headers={"Retry-After": RETRY_AFTER_SECONDS},
            retry_after=RETRY_AFTER_SECONDS,
        )

    # -- routing ------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            self._json({"status": "ok"})
        elif url.path == "/metrics":
            self._metrics(parse_qs(url.query))
        elif url.path in ("/", "/dashboard"):
            from repro.service.dashboard import render_dashboard

            self._send(200, render_dashboard(self.queue).encode(), "text/html; charset=utf-8")
        elif parts == ["jobs"]:
            self._json([r.summary() for r in self.queue.records()])
        elif len(parts) == 2 and parts[0] == "jobs":
            record = self.queue.get(parts[1])
            if record is None:
                self._error(404, f"unknown job {parts[1]!r}")
            else:
                self._json(record.summary())
        elif len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "result":
            self._result(parts[1], parse_qs(url.query))
        else:
            self._error(404, f"no route for {url.path!r}")

    def _metrics(self, query: dict) -> None:
        """``GET /metrics`` — JSON stats by default, Prometheus text with
        ``?format=prometheus`` or an ``Accept: text/plain`` header."""
        fmt = (query.get("format") or [None])[0]
        accept = self.headers.get("Accept", "")
        if fmt is None and "text/plain" in accept and "json" not in accept:
            fmt = "prometheus"
        if fmt in (None, "json"):
            self._json(self.queue.stats())
        elif fmt == "prometheus":
            from repro.obs.metrics import prometheus_text

            self._send(
                200,
                prometheus_text().encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._error(400, f"unknown format {fmt!r}; use json or prometheus")

    def _result(self, job_id: str, query: dict) -> None:
        record = self.queue.get(job_id)
        if record is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if record.state == FAILED:
            self._error(500, record.error or "job failed", job=record.summary())
            return
        if record.state != DONE or record.result is None:
            self._error(409, f"job {job_id!r} is {record.state}", job=record.summary())
            return
        fmt = (query.get("format") or ["json"])[0]
        if fmt == "csv":
            self._send(200, record.result.table.to_csv().encode(), "text/csv")
        elif fmt == "json":
            self._json(
                {
                    "job": record.summary(),
                    "perf": record.result.perf,
                    "cells": record.result.table.to_dict(),
                }
            )
        else:
            self._error(400, f"unknown format {fmt!r}; use json or csv")

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        if urlparse(self.path).path != "/jobs":
            self._error(404, f"no POST route for {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if not 0 < length <= MAX_BODY_BYTES:
            self._reject_body(length)
            return
        try:
            spec = json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError) as err:
            self._error(400, f"invalid JSON body: {err}")
            return
        try:
            record = self.queue.submit(spec)
        except (TypeError, ValueError) as err:
            self._error(400, str(err))
            return
        except (QueueClosed, QueueSaturated) as err:
            self._unavailable(str(err))
            return
        except RuntimeError as err:  # foreign queue stand-ins
            self._unavailable(str(err))
            return
        self._json(record.summary(), status=202)


class ServiceServer(ThreadingHTTPServer):
    """One thread per connection; job execution stays in the queue pool."""

    daemon_threads = True
    #: When True, request lines are logged to stderr (CLI --verbose).
    verbose = False

    def __init__(self, address, queue: JobQueue, *, verbose: bool = False):
        super().__init__(address, ServiceHandler)
        self.queue = queue
        self.verbose = verbose


def serve(queue: JobQueue, *, host: str = "127.0.0.1", port: int = 8765) -> ServiceServer:
    """A bound (not yet running) server; ``port=0`` picks a free port."""
    return ServiceServer((host, port), queue)


def start_in_thread(
    queue: JobQueue, *, host: str = "127.0.0.1", port: int = 0
) -> tuple[ServiceServer, threading.Thread]:
    """Boot ``serve_forever`` on a daemon thread; (server, thread).

    The embedded form used by tests and ``examples/service_demo.py`` —
    call ``server.shutdown()`` then ``queue.close()`` to stop.
    """
    server = serve(queue, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread
