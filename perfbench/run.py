"""Benchmark driver: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload grid-structural --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up three times (``setup_s`` is the
median), then sends requests in a closed loop for ``--seconds`` seconds,
and at least 100 of them so that ``latency_p90_ms`` has ten samples
beyond it.  It prints every end-to-end metric with its unit.

``--trace 1`` gives the per-layer split.  It first measures untraced
throughput for ``--seconds`` in this process, then runs the same
workload for ``--seconds`` in a child process that rebinds each timed
layer to a span recorder (``perfbench/layers.py``).  Only the child ever
installs the wrappers.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A stamped record of the run goes to ``.perfbench_out/``.  The program is
imported from ``src/`` of the checkout holding this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUPS = 3
MIN_REQUESTS = 100
#: The timed phase stops at this many seconds past ``--seconds`` even if
#: fewer than ``MIN_REQUESTS`` finished, so a run always ends in time.
OVERRUN_LIMIT_S = 60.0
CHILD_TIMEOUT_S = 170.0


def host_probe_ms() -> float:
    """A fixed numpy workload outside the program; tracks host speed."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 19)
    start = time.perf_counter()
    for _ in range(3):
        np.sort(data)
    return 1000.0 * (time.perf_counter() - start)


def stamp(args) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "size": args.size,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def measure(args, *, seconds, setups, min_requests, tracer=None, workdir) -> dict:
    """Set up ``setups`` times, then run the timed closed loop."""
    from repro.graphs.analysis import analysis_cache

    from workloads import WORKLOADS

    setup_times = []
    for k in range(setups):
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](
            args.seed, size=args.size, workdir=workdir / f"setup-{k}", tracer=tracer
        )
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if k < setups - 1:
            workload.close()

    # Free what the discarded setups left behind before timing starts.
    gc.collect()
    latencies: list[float] = []
    failed = 0
    analysis_before = analysis_cache().stats()
    if tracer is not None:
        tracer.recording = True
    start = time.perf_counter()
    while True:
        for request in workload.cycle():
            t0 = time.perf_counter()
            try:
                output = workload.execute(request)
                problems = None
            except Exception:  # noqa: BLE001 - a failed request is data
                problems = [traceback.format_exc()]
            latencies.append(time.perf_counter() - t0)
            if problems is None:
                problems = workload.check(request, output)
            if problems:
                failed += 1
                print(f"request {request} failed:", *problems, sep="\n  ", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(latencies) >= min_requests:
            break
        if elapsed >= seconds + OVERRUN_LIMIT_S:
            break
    if tracer is not None:
        tracer.recording = False
    analysis_after = analysis_cache().stats()
    layer = workload.layer_metrics()
    workload.close()
    hits = analysis_after["hits"] - analysis_before["hits"]
    misses = analysis_after["misses"] - analysis_before["misses"]
    layer["graphs.analysis_hit_ratio"] = hits / max(1, hits + misses)
    return {
        "setup_times": setup_times,
        "latencies": latencies,
        "elapsed": elapsed,
        "failed": failed,
        "layer": layer,
    }


def end_to_end(run: dict) -> dict:
    import numpy as np

    lat_ms = 1000.0 * np.asarray(run["latencies"])
    # A percentile is the first sample at or above it: interpolating
    # between neighbours that belong to different schemes would report a
    # latency no request had.
    return {
        "setup_s": (statistics.median(run["setup_times"]), "s"),
        "items_per_s": (len(lat_ms) / run["elapsed"], "1/s"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50, method="higher")), "ms"),
        "latency_p90_ms": (float(np.percentile(lat_ms, 90, method="higher")), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_child(args, workdir) -> dict:
    """The traced phase of ``--trace 1``; runs in its own process."""
    import layers

    tracer = layers.Tracer()
    layers.install(tracer)
    run = measure(args, seconds=args.seconds, setups=1, min_requests=1, tracer=tracer, workdir=workdir)
    requests = len(run["latencies"])
    tracer.dump(OUT / f"spans-{args.workload}-s{args.seed}.json")
    metrics = tracer.fold(requests)
    metrics.update(run["layer"])
    metrics["trace.unattributed_frac"] = 1.0 - tracer.covered_seconds() / sum(run["latencies"])
    metrics["items_per_s"] = requests / run["elapsed"]
    return {"attempted": requests, "failed": run["failed"], "metrics": metrics}


def per_layer(args, workdir) -> tuple[int, int, dict]:
    """Untraced phase here, traced phase in a child process."""
    import layers

    untraced = measure(args, seconds=args.seconds, setups=1, min_requests=1, workdir=workdir)
    untraced_rate = len(untraced["latencies"]) / untraced["elapsed"]
    child = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "1", "--size", args.size,
            "--traced-child",
        ],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        raise RuntimeError(f"traced run exited with code {child.returncode}")
    traced = json.loads(child.stdout.strip().splitlines()[-1])
    raw = traced["metrics"]
    units = {}
    for layer in layers.TIMED_LAYERS:
        units[layers.time_metric(layer)] = "s/req"
        units[layers.calls_metric(layer)] = "calls/req"
    units.update({
        "graphs.analysis_hit_ratio": "ratio",
        "runner.store_hit_ratio": "ratio",
        "service.queue_wait_ms": "ms",
        "service.warm_ratio": "ratio",
        "trace.unattributed_frac": "ratio",
    })
    metrics = {name: (raw.get(name, 0.0), unit) for name, unit in units.items()}
    metrics["trace.overhead_ratio"] = (untraced_rate / raw["items_per_s"], "ratio")
    attempted = len(untraced["latencies"]) + traced["attempted"]
    return attempted, untraced["failed"] + traced["failed"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for perfbench/selftest.py",
    )
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    record = stamp(args)
    try:
        if args.traced_child:
            print(json.dumps(traced_child(args, workdir)))
            return 0
        probe_before = host_probe_ms()
        if args.trace:
            attempted, failed, metrics = per_layer(args, workdir)
        else:
            run = measure(args, seconds=args.seconds, setups=SETUPS, min_requests=MIN_REQUESTS, workdir=workdir)
            attempted, failed, metrics = len(run["latencies"]), run["failed"], end_to_end(run)
            record["latencies_ms"] = [1000.0 * t for t in run["latencies"]]
        probe_after = host_probe_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics["host.probe_ms"] = ((probe_before + probe_after) / 2.0, "ms")

    record["host_probe_ms"] = [probe_before, probe_after]
    record["error_rate"] = failed / attempted
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'error_rate':40s} {failed / attempted:>16.6g} ratio ({failed}/{attempted} failed)")
    print("stamp:", json.dumps({k: v for k, v in record.items() if k not in ("metrics", "latencies_ms")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
