"""``python -m repro.runner`` — run named sweeps from the command line.

Examples::

    python -m repro.runner --list
    python -m repro.runner smoke --store .sweep-store --jobs 2
    python -m repro.runner table5 --store .sweep-store --out benchmarks/results
    python -m repro.runner fig5 --graphs s-pok --seeds 1 2 3 --markdown

Every run emits ``BENCH_<sweep>.json`` (wall time, compression time,
cache hit counts) under ``--out``; with ``--store``, re-running a sweep
replays stored cells — the second identical run reports zero cache
misses and does no recomputation.
"""

from __future__ import annotations

import argparse
import sys

from repro.runner.harness import (
    available_sweeps,
    get_sweep,
    run_sweep,
    write_bench_record,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Run a named scheme x algorithm x metric sweep, "
        "resumably and optionally in parallel.",
    )
    parser.add_argument("sweep", nargs="?", help="sweep name (see --list)")
    parser.add_argument(
        "--list", action="store_true", help="list registered sweeps and exit"
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="artifact store directory; cells already stored are replayed",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes (default 1)"
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", metavar="S", help="override the sweep's seeds"
    )
    parser.add_argument(
        "--graphs", nargs="+", metavar="G", help="override the sweep's graph list"
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default="benchmarks/results",
        help="directory for BENCH_<sweep>.json (default benchmarks/results)",
    )
    parser.add_argument(
        "--csv", action="store_true", help="also write <out>/<sweep>_cells.csv"
    )
    parser.add_argument(
        "--markdown", action="store_true", help="print the cell table as markdown"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record spans (parent and workers) and write a Chrome "
        "trace-event JSON export here (open in chrome://tracing or "
        "https://ui.perfetto.dev; validate with python -m repro.obs)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list:
        for name in available_sweeps():
            spec = get_sweep(name)
            groups = (
                len(spec.graphs)
                * len(spec.schemes)
                * len(spec.algorithms)
                * len(spec.seeds)
            )
            print(f"{name:12s} {groups:5d} cell groups  {spec.description}")
        return 0
    if not args.sweep:
        _build_parser().print_usage()
        print("error: name a sweep or pass --list", file=sys.stderr)
        return 2

    if args.trace:
        from repro.obs.spans import enable_tracing

        enable_tracing()

    result = run_sweep(
        args.sweep,
        store=args.store,
        jobs=args.jobs,
        seeds=args.seeds,
        graphs=args.graphs,
    )
    record_path = write_bench_record(result, args.out)

    if args.trace:
        from repro.obs.spans import tracer

        written = tracer().write_chrome_trace(
            args.trace, metadata={"sweep": result.spec.name}
        )
        print(f"trace: {written} ({len(tracer())} spans)")
    if args.csv:
        result.table.to_csv(f"{args.out}/{result.spec.name}_cells.csv")
    if args.markdown:
        print(result.table.to_markdown(title=f"sweep: {result.spec.name}"))

    perf = result.perf
    print(
        f"sweep {result.spec.name}: {perf['cells']} cells "
        f"({perf['cells_scheduled']} groups) over "
        f"{len(perf['graphs'])} graph(s) x {len(perf['seeds'])} seed(s) "
        f"in {perf['wall_seconds']:.2f}s "
        f"[jobs={perf['jobs']}, cache {perf['cache_hits']} hit / "
        f"{perf['cache_misses']} miss, "
        f"compression {perf['compress_seconds']:.2f}s]"
    )
    print(f"perf record: {record_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
