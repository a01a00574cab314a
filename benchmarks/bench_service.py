"""Service end-to-end benchmark: boot ``python -m repro.service`` as a
subprocess, drive it over HTTP, and measure the service-layer costs the
tests only assert qualitatively:

- **cold latency** — submit→complete wall time for a smoke-sized grid
  computed from scratch;
- **warm latency** — the identical resubmission replayed from the
  artifact store (asserted zero recomputation via ``/metrics``);
- **fingerprint jobs** — the same cold/warm pair for a job naming its
  graph as ``fingerprint:<hex>``, a snapshot published into the store
  before boot (the warm one replays without loading the snapshot);
- **baseline replay** — a second cold fingerprint job on a new seed:
  every cell computes, but the original-graph baselines the first jobs
  stored replay (asserted: no baseline computed, one store hit each);
- **coalescing** — N concurrent identical submissions collapsing onto
  one computation (asserted via the store write count);
- **shutdown** — SIGINT drains and exits 0.

Emits ``BENCH_service.json`` through the shared perf-record machinery
(:func:`repro.runner.harness.write_perf_record`).  Shape assertions
follow the benchmark conventions: a warm run that recomputes, a
duplicate that computes twice, or an unclean shutdown **fails**.

Run::

    PYTHONPATH=src python benchmarks/bench_service.py           # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.graphs import datasets
from repro.runner.harness import write_perf_record
from repro.runner.store import ArtifactStore
from repro.service.jobs import FINGERPRINT_PREFIX

#: Concurrent identical submissions in the coalesce section.
DUPLICATES = 6

FULL_JOB = {
    "graph": "s-pok",
    "schemes": ["uniform(p=0.5)", "spanner(k=4)", "EO-0.8-1-TR", "spectral(p=0.5)"],
    "algorithms": ["pr", "cc", "tc"],
    "seeds": [0, 1],
}
SMOKE_JOB = {
    "graph": "s-flx",
    "schemes": ["uniform(p=0.5)", "spanner(k=4)"],
    "algorithms": ["pr", "cc"],
    "seeds": [0],
}


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=60) as resp:
        return json.loads(resp.read())


def _post(base: str, body: dict) -> dict:
    request = urllib.request.Request(base + "/jobs", data=json.dumps(body).encode())
    with urllib.request.urlopen(request, timeout=60) as resp:
        return json.loads(resp.read())


def _wait(base: str, job_id: str, timeout: float = 600.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        summary = _get(base, f"/jobs/{job_id}")
        if summary["state"] in ("done", "failed"):
            assert summary["state"] == "done", summary
            return summary
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


def _boot(store: Path, workers: int) -> tuple[subprocess.Popen, str]:
    """Start ``python -m repro.service`` on a free port; (process, base URL)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--store", str(store), "--jobs", str(workers), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parent.parent,
    )
    banner = process.stdout.readline()
    assert "repro service: http://" in banner, banner
    base = banner.split()[2].rstrip("/")
    # Wait for the listener to answer.
    for _ in range(100):
        try:
            assert _get(base, "/healthz")["status"] == "ok"
            break
        except OSError:
            time.sleep(0.05)
    return process, base


def bench_cold_vs_warm(base: str, job: dict) -> dict:
    start = time.perf_counter()
    cold = _wait(base, _post(base, job)["id"])
    cold_latency = time.perf_counter() - start
    assert not cold["warm"], cold

    before = _get(base, "/metrics")["store"]
    start = time.perf_counter()
    warm = _wait(base, _post(base, job)["id"])
    warm_latency = time.perf_counter() - start
    after = _get(base, "/metrics")["store"]

    # The warm resubmission replayed everything: hits grew by the full
    # grid, misses (computations) and writes did not move.
    assert warm["warm"], warm
    assert after["misses"] == before["misses"], (before, after)
    assert after["writes"] == before["writes"], (before, after)
    assert after["hits"] > before["hits"], (before, after)
    return {
        "warm": warm["warm"],
        "cold_submit_to_complete_seconds": round(cold_latency, 4),
        "warm_submit_to_complete_seconds": round(warm_latency, 4),
        "warm_speedup": round(cold_latency / max(warm_latency, 1e-9), 2),
        "cells": cold["cells"],
        "store_hits_on_warm": after["hits"] - before["hits"],
    }


def publish_graph(store: Path, job: dict) -> dict:
    """Snapshot ``job``'s dataset into the store; the same grid as a
    ``fingerprint:`` job.

    Cells are keyed by graph content, so the named job fills the cells
    of this one; a seed no other section uses keeps its first run cold.
    """
    graph = datasets.load(job["graph"], seed=0)
    fingerprint, _ = ArtifactStore(store).add_graph(graph)
    return dict(
        job, graph=FINGERPRINT_PREFIX + fingerprint, seeds=[max(job["seeds"]) + 2]
    )


def bench_baseline_replay(base: str, job: dict) -> dict:
    """A cold ``job`` on a seed no other section uses, after the earlier
    sections stored its graph's baselines: it computes every cell and
    replays every baseline."""
    job = dict(job, seeds=[max(job["seeds"]) + 1])
    before = _get(base, "/metrics")["store"]
    start = time.perf_counter()
    summary = _wait(base, _post(base, job)["id"])
    latency = time.perf_counter() - start
    after = _get(base, "/metrics")["store"]
    grids = _get(base, f"/jobs/{summary['id']}/result")["perf"]["grids"]
    computations = sum(grid["baseline_computations"] for grid in grids)
    hits = after["baseline_hits"] - before["baseline_hits"]
    assert not summary["warm"], summary
    assert computations == 0, grids
    assert hits == len(job["algorithms"]), (before, after)
    return {
        "seed": job["seeds"][0],
        "cold_submit_to_complete_seconds": round(latency, 4),
        "baseline_computations": computations,
        "baseline_hits": hits,
        "cells": summary["cells"],
    }


def bench_coalesce(base: str, job: dict) -> dict:
    """N concurrent identical submissions → one computation."""
    job = dict(job, seeds=[max(job["seeds"]) + 1])  # a grid the store has not seen
    writes_before = _get(base, "/metrics")["store"]["writes"]
    barrier = threading.Barrier(DUPLICATES)
    summaries = [None] * DUPLICATES

    def post(i):
        barrier.wait()
        summaries[i] = _post(base, job)

    threads = [threading.Thread(target=post, args=(i,)) for i in range(DUPLICATES)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for summary in summaries:
        _wait(base, summary["id"])
    metrics = _get(base, "/metrics")
    new_writes = metrics["store"]["writes"] - writes_before
    cell_groups = len(job["schemes"]) * len(job["algorithms"]) * len(job["seeds"])
    assert new_writes == cell_groups, (new_writes, cell_groups)
    return {
        "duplicate_submissions": DUPLICATES,
        "distinct_jobs": len({s["id"] for s in summaries}),
        "coalesced_total": metrics["coalesced"],
        "cell_groups_written": new_writes,
    }


def bench_shutdown(process: subprocess.Popen) -> dict:
    start = time.perf_counter()
    process.send_signal(signal.SIGINT)
    output = process.communicate(timeout=120)[0]
    assert process.returncode == 0, (process.returncode, output)
    assert "repro service: stopped" in output, output
    return {"sigint_to_exit_seconds": round(time.perf_counter() - start, 4)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized job")
    parser.add_argument("--jobs", type=int, default=2, help="service worker threads")
    parser.add_argument(
        "--out", default="benchmarks/results", help="perf-record directory"
    )
    args = parser.parse_args(argv)
    job = SMOKE_JOB if args.smoke else FULL_JOB

    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-service-"))
    store = workdir / "store"
    try:
        fingerprint_job = publish_graph(store, job)
        process, base = _boot(store, args.jobs)
        print(f"service up at {base} (store: {store})")
        try:
            perf = {
                "mode": "smoke" if args.smoke else "full",
                "workers": args.jobs,
                "job": job,
                "latency": bench_cold_vs_warm(base, job),
                "fingerprint_job": fingerprint_job,
                "fingerprint_latency": bench_cold_vs_warm(base, fingerprint_job),
                "baseline_replay": bench_baseline_replay(base, fingerprint_job),
                "coalesce": bench_coalesce(base, job),
            }
        except BaseException:
            process.kill()
            process.wait()
            raise
        perf["shutdown"] = bench_shutdown(process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    path = write_perf_record("service", perf, args.out)
    latency = perf["latency"]
    by_fingerprint = perf["fingerprint_latency"]
    print(
        f"cold {latency['cold_submit_to_complete_seconds']:.2f}s → warm "
        f"{latency['warm_submit_to_complete_seconds']:.2f}s "
        f"({latency['warm_speedup']}x); by fingerprint "
        f"{by_fingerprint['cold_submit_to_complete_seconds']:.2f}s → "
        f"{by_fingerprint['warm_submit_to_complete_seconds']:.2f}s; "
        f"cold on stored baselines "
        f"{perf['baseline_replay']['cold_submit_to_complete_seconds']:.2f}s; "
        f"{perf['coalesce']['duplicate_submissions']} duplicates → "
        f"{perf['coalesce']['distinct_jobs']} job(s); "
        f"shutdown {perf['shutdown']['sigint_to_exit_seconds']:.2f}s"
    )
    print(f"perf record: {path}")


if __name__ == "__main__":
    main()
