"""Worker graph hand-off benchmark: mapped snapshot vs private npz reload.

The historical parallel runner had every pooled worker re-load the graph
snapshot in its initializer — N workers, N reads, N private CSR copies.
Now the parent writes one exploded snapshot and every worker
memory-maps it read-only.  This benchmark proves the two claims that
route rides on, against that historical baseline:

- **load time** — a worker's graph acquisition drops from a private
  npz read to a header parse plus mappings (target at 1e6 edges:
  >= 10x);
- **memory** — aggregate *private* worker memory (USS, from
  ``/proc/self/smaps_rollup``) stays near one CSR copy total instead of
  one per worker.  Peak RSS is reported too but is not the assertion:
  ``ru_maxrss`` charges shared page-cache pages to every process that
  touches them.

The baseline runs the same pool with ``parallel._load_worker_graph``
patched to read a ``.npz`` snapshot into private memory; under the fork
start method the patch reaches the workers.  Identity is asserted before
speed: both routes must produce identical cell values (the
equality-vs-in-memory guarantee lives in
``tests/test_runner_pool_graph.py``).

Emits ``BENCH_parallel.json`` with per-route wall time and per-worker
``load_seconds`` / ``peak_rss_bytes`` / ``private_bytes``.

Run::

    PYTHONPATH=src python benchmarks/bench_parallel.py           # 1e6 edges
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke   # CI-sized
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import tempfile
from pathlib import Path

from repro.analytics.session import Session
from repro.graphs.generators import erdos_renyi
from repro.graphs.snapshot import load_snapshot, save_snapshot
from repro.runner import parallel
from repro.runner.harness import write_perf_record

#: Full-mode graph size (edges): the 1e6-edge scale the gates target.
FULL_EDGES = 1_000_000
SMOKE_EDGES = 20_000

JOBS = 4
SCHEMES = ["uniform(p=0.5)", "spanner(k=8)"]
ALGORITHMS = ["pr", "cc"]
#: None = each algorithm's default metric plan (pr -> divergences, etc.).
METRICS = None


def _comparable(table):
    return sorted(
        (c.scheme, c.algorithm, c.metric, c.value, c.compression_ratio, c.seed)
        for c in table
    )


def _run(graph) -> dict:
    session = Session(graph, seed=0, jobs=JOBS)
    table = session.grid(SCHEMES, ALGORITHMS, METRICS, seed=0)
    perf = session.last_grid_perf
    workers = list(perf["workers"].values())
    return {
        "wall_seconds": perf["wall_seconds"],
        "workers": workers,
        "cells": _comparable(table),
        "load_seconds": [w["load_seconds"] for w in workers],
        "private_bytes": [w["private_bytes"] for w in workers],
        "peak_rss_bytes": [w["peak_rss_bytes"] for w in workers],
    }


def _run_private_npz(graph) -> dict:
    """The historical route: each worker reads an npz into private memory."""
    real = parallel._load_worker_graph
    with tempfile.TemporaryDirectory(prefix="bench-parallel-") as tmp:
        npz = save_snapshot(graph, Path(tmp) / "graph.npz")
        parallel._load_worker_graph = lambda path: load_snapshot(npz)
        try:
            return _run(graph)
        finally:
            parallel._load_worker_graph = real


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized graph; skips the >=10x load-ratio and USS assertions "
        "(map time and USS are noise-dominated at small sizes)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "results"),
        help="directory for BENCH_parallel.json",
    )
    args = parser.parse_args(argv)
    if multiprocessing.get_start_method() != "fork":
        print("the npz baseline patches pool workers through fork", file=sys.stderr)
        return 2

    edges = SMOKE_EDGES if args.smoke else FULL_EDGES
    print(f"building ER graph with ~{edges:,} edges ...", flush=True)
    graph = erdos_renyi(edges // 10, m=edges, seed=42)
    graph_bytes = sum(
        arr.nbytes
        for arr in (
            graph.edge_src,
            graph.edge_dst,
            graph.indptr,
            graph.indices,
            graph.arc_edge_ids,
        )
    )
    print(f"graph: n={graph.n:,} m={graph.num_edges:,} csr={graph_bytes/1e6:.1f}MB")

    results = {}
    for route, run in (("npz", _run_private_npz), ("mmap", _run)):
        print(f"running grid with {route} workers ...", flush=True)
        results[route] = run(graph)
        loads = results[route]["load_seconds"]
        print(
            f"  wall={results[route]['wall_seconds']:.2f}s  "
            f"worker load_seconds: min={min(loads):.4f} max={max(loads):.4f}"
        )

    # -- identity: same cells from both routes -------------------------- #
    assert results["npz"]["cells"] == results["mmap"]["cells"], (
        "mapped-snapshot grid produced different cell values than npz reload"
    )

    npz_load = max(results["npz"]["load_seconds"])
    mmap_load = max(results["mmap"]["load_seconds"])
    ratio = npz_load / mmap_load if mmap_load > 0 else float("inf")

    uss = {
        route: [b for b in results[route]["private_bytes"] if b is not None]
        for route in results
    }
    summary = {
        "edges": graph.num_edges,
        "n": graph.n,
        "graph_csr_bytes": graph_bytes,
        "jobs": JOBS,
        "smoke": args.smoke,
        "load_seconds_npz_max": npz_load,
        "load_seconds_mmap_max": mmap_load,
        "load_speedup": ratio,
        "aggregate_private_bytes_npz": sum(uss["npz"]) if uss["npz"] else None,
        "aggregate_private_bytes_mmap": sum(uss["mmap"]) if uss["mmap"] else None,
        "routes": {
            route: {k: r[k] for k in ("wall_seconds", "workers")}
            for route, r in results.items()
        },
    }
    print(
        f"\nworker graph load: npz {npz_load:.4f}s vs mmap {mmap_load:.4f}s "
        f"({ratio:.0f}x)"
    )
    if uss["npz"] and uss["mmap"]:
        agg_npz, agg_mmap = sum(uss["npz"]), sum(uss["mmap"])
        print(
            f"aggregate worker USS: npz {agg_npz/1e6:.0f}MB vs "
            f"mmap {agg_mmap/1e6:.0f}MB (graph is {graph_bytes/1e6:.0f}MB)"
        )
        if not args.smoke:
            # One private copy per npz worker vs. shared page-cache pages
            # for mapped workers: the mapped aggregate must undercut npz
            # by at least the graph's weight for all but two workers.
            saved = agg_npz - agg_mmap
            floor = graph_bytes * (JOBS - 2)
            assert saved >= floor, (
                f"mmap saved only {saved/1e6:.0f}MB of aggregate USS; "
                f"expected >= {floor/1e6:.0f}MB "
                f"({JOBS} workers x {graph_bytes/1e6:.0f}MB graph)"
            )
    if not args.smoke:
        assert ratio >= 10, (
            f"mapped load only {ratio:.1f}x faster than npz reload "
            f"(npz {npz_load:.4f}s, mmap {mmap_load:.4f}s); expected >= 10x"
        )

    path = write_perf_record("parallel", summary, args.out)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
