"""``python -m repro.service`` — boot the compression service.

Examples::

    python -m repro.service --store .service-store --jobs 2 --port 8765
    python -m repro.service --store .service-store --pool-jobs 4
    curl -s localhost:8765/healthz
    curl -s localhost:8765/jobs -d '{"graph": "s-flx", "schemes": ["spanner(k=4)"]}'
    curl -s localhost:8765/jobs/<id>/result?format=csv
    open http://localhost:8765/        # the admin dashboard

SIGINT (Ctrl-C) shuts down gracefully: the HTTP listener stops, running
jobs drain, and queued jobs either run to completion (default) or are
marked failed (``--no-drain``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.service.http import serve
from repro.service.queue import QUEUE_RETRY, JobQueue


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve compression sweeps over HTTP with a deduplicating "
        "job queue and a content-addressed artifact store.",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        help="artifact store directory (created on first write); identical "
        "re-submissions replay from it with zero recomputation",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker threads — jobs in flight at once (default 2)",
    )
    parser.add_argument(
        "--pool-jobs", type=int, default=None, metavar="N",
        help="worker processes per job's grid (default: in-thread)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8765, help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--no-drain", action="store_true",
        help="on shutdown, fail queued jobs instead of running them",
    )
    parser.add_argument(
        "--ledger", metavar="PATH",
        help="crash-safe job ledger (JSONL WAL); on restart, finished "
        "jobs are restored and interrupted ones resubmitted — survives "
        "kill -9",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=1, metavar="N",
        help="executions per job before it fails (default 1 = no retry)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per job from submission (default: none)",
    )
    parser.add_argument(
        "--max-queued", type=int, default=None, metavar="N",
        help="waiting-job cap; beyond it POST /jobs answers 503 with "
        "Retry-After (default: unbounded)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    queue = JobQueue(
        args.store,
        workers=args.jobs,
        pool_jobs=args.pool_jobs,
        retry=replace(QUEUE_RETRY, max_attempts=args.max_attempts),
        job_timeout=args.job_timeout,
        max_queued=args.max_queued,
        ledger=args.ledger,
    )
    server = serve(queue, host=args.host, port=args.port)
    server.verbose = args.verbose
    host, port = server.server_address[:2]
    print(f"repro service: http://{host}:{port}/ "
          f"(store={args.store or 'none'}, workers={args.jobs})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down: draining jobs...", flush=True)
    finally:
        server.server_close()
        clean = queue.close(drain=not args.no_drain)
    print(
        "repro service: stopped" + ("" if clean else " (workers still busy)"),
        flush=True,
    )
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
