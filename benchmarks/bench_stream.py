"""Streaming micro-benchmarks: delta application and incremental repair.

The perf claims behind :mod:`repro.stream`, measured and asserted:

- **apply** — :func:`repro.stream.ingest.apply_delta` advancing a CSR
  generation by a small edit batch (masked O(m) delete + searchsorted
  O(m+Δ) insert merge) against a from-scratch ``CSRGraph.from_edges``
  rebuild of the same edited edge set, across graph sizes;
- **incremental** — maintainer repair (:mod:`repro.stream.incremental`)
  against a full batch recompress of the new generation, for every
  scheme with a repairing maintainer (EO triangle reduction), at ~10^5
  edges with <= 1% churn per batch.  A full (non ``--smoke``) run
  **fails** unless repair is at least ``MIN_INCREMENTAL_SPEEDUP``x
  faster — the bar a repair must clear to keep its code, recorded in
  the committed ``BENCH_stream.json``.  Schemes that cannot clear it
  (the spanner, low-degree removal) recompress per generation instead.

Emits ``BENCH_stream.json`` through the shared perf-record machinery so
CI archives it next to the sweep BENCH records.

Run::

    PYTHONPATH=src python benchmarks/bench_stream.py            # full
    PYTHONPATH=src python benchmarks/bench_stream.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from pathlib import Path

import numpy as np

from repro.compress.registry import build_scheme
from repro.graphs import generators as gen
from repro.graphs.analysis import analysis_cache
from repro.graphs.csr import CSRGraph
from repro.runner.harness import write_perf_record
from repro.stream.delta import EdgeDelta
from repro.stream.incremental import maintainer_for
from repro.stream.ingest import GraphStream, apply_delta

#: Edge counts exercised by the apply section.
FULL_SIZES = (100_000, 1_000_000)
SMOKE_SIZES = (5_000, 20_000)

#: Vertex counts for the incremental section (powerlaw_cluster(n, 3, .4)
#: yields m ~= 3n edges, so the full size lands at ~10^5 edges).
FULL_INCREMENTAL_N = 34_000
SMOKE_INCREMENTAL_N = 7_000

#: The acceptance threshold: repair vs. full recompress, every scheme.
MIN_INCREMENTAL_SPEEDUP = 5.0

#: Enabled-tracer overhead budget on the largest apply path (same 2%
#: beyond-the-A/A-noise-floor promise ``benchmarks/bench_core.py``
#: makes for the transform path).
MAX_OBS_OVERHEAD = 1.02

#: Churn per batch as a fraction of m (the criterion says <= 1%).
CHURN = 0.01

#: Schemes whose maintainer repairs instead of recompressing.
INCREMENTAL_SPECS = ("EO-0.8-1-TR",)


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _churn_delta(g: CSRGraph, seed: int, ops: int) -> EdgeDelta:
    """Half deletes of existing edges, half inserts of fresh pairs."""
    rng = np.random.default_rng(seed)
    half = ops // 2
    idx = rng.choice(g.num_edges, size=half, replace=False)
    deletes = list(zip(g.edge_src[idx].tolist(), g.edge_dst[idx].tolist()))
    edges = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
    edges -= set(deletes)
    inserts: list = []
    while len(inserts) < ops - half:
        u = int(rng.integers(g.n))
        v = int(rng.integers(g.n))
        if u == v:
            continue
        p = (min(u, v), max(u, v))
        if p in edges:
            continue
        edges.add(p)
        inserts.append(p)
    return EdgeDelta.build(inserts=inserts, deletes=deletes)


def bench_apply(sizes, repeats: int) -> list[dict]:
    """apply_delta vs. a from-scratch rebuild of the edited edge set."""
    rows = []
    for m in sizes:
        g = gen.erdos_renyi(max(m // 8, 16), m=m, seed=0)
        ops = max(int(g.num_edges * CHURN), 10)
        delta = _churn_delta(g, seed=1, ops=ops)
        head = apply_delta(g, delta)

        applied = _best_of(lambda: apply_delta(g, delta), repeats)
        rebuilt = _best_of(
            lambda: CSRGraph.from_edges(head.n, head.edge_src, head.edge_dst),
            repeats,
        )
        rows.append(
            {
                "n": g.n,
                "m": g.num_edges,
                "delta_ops": delta.size,
                "apply_seconds": applied,
                "rebuild_seconds": rebuilt,
                "apply_speedup": rebuilt / applied if applied > 0 else float("inf"),
            }
        )
        print(
            f"apply m={m:>9,} ops={delta.size:>6,}: "
            f"apply {applied * 1e3:8.2f} ms   "
            f"rebuild {rebuilt * 1e3:8.2f} ms   "
            f"speedup {rows[-1]['apply_speedup']:5.2f}x"
        )
    return rows


def bench_incremental(n: int, repeats: int, batches: int = 3) -> list[dict]:
    """Maintainer repair vs. full recompress on the same generations."""
    base = gen.powerlaw_cluster(n, 3, 0.4, seed=0)
    ops = int(base.num_edges * CHURN)
    rows = []
    for spec in INCREMENTAL_SPECS:
        stream = GraphStream(base)
        maintainer = maintainer_for(spec, seed=0)
        maintainer.attach(base)
        scheme = build_scheme(spec)
        repair_times, full_times = [], []
        for i in range(batches):
            delta = _churn_delta(stream.head, seed=100 + i, ops=ops)
            head = stream.apply(delta)
            start = time.perf_counter()
            maintainer.update(delta, head)
            repair_times.append(time.perf_counter() - start)

            def cold_compress():
                # A streaming competitor recompresses each *new*
                # generation, so its per-graph analyses (the triangle
                # listing above all) never arrive warm: drop them before
                # every timed run.
                analysis_cache().forget(head)
                scheme.compress(head, seed=0)

            full_times.append(_best_of(cold_compress, repeats))
        assert maintainer.stats["full_rebuilds"] == 0, (
            f"{spec}: churn {CHURN:.0%} unexpectedly hit the rebuild "
            f"fallback ({maintainer.stats})"
        )
        repair = min(repair_times)
        full = min(full_times)
        rows.append(
            {
                "spec": spec,
                "n": base.n,
                "m": base.num_edges,
                "churn": CHURN,
                "delta_ops": ops,
                "batches": batches,
                "repair_seconds": repair,
                "full_recompress_seconds": full,
                "speedup": full / repair if repair > 0 else float("inf"),
                "stats": dict(maintainer.stats),
            }
        )
        print(
            f"incremental {spec:<14} m={base.num_edges:>8,}: "
            f"repair {repair * 1e3:8.2f} ms   "
            f"full {full * 1e3:8.2f} ms   "
            f"speedup {rows[-1]['speedup']:5.2f}x"
        )
    return rows


def bench_obs_overhead(m: int, repeats: int) -> dict:
    """Instrumentation cost on delta application, tracer off vs on.

    Rounds of three back-to-back arms — off, on, off again, order
    rotating — yield per-round on/off ratios plus an A/A (off-vs-off)
    control with identical statistics; shared-container jitter on this
    path runs several percent per call, so the full run asserts the
    median on/off ratio against :data:`MAX_OBS_OVERHEAD` *beyond* the
    median A/A spread measured in the same rounds.
    """
    from repro.obs.spans import disable_tracing, enable_tracing, span, tracer

    g = gen.erdos_renyi(max(m // 8, 16), m=m, seed=5)
    ops = max(int(g.num_edges * CHURN), 10)
    delta = _churn_delta(g, seed=9, ops=ops)

    def traced():
        with span("bench.apply", ops=delta.size):
            apply_delta(g, delta)

    def sample() -> float:
        start = time.perf_counter()
        traced()
        return time.perf_counter() - start

    arms = ("off_a", "on", "off_b")
    rounds: list[dict] = []
    disable_tracing()
    tracer().clear()
    traced()  # warmup
    gc.disable()
    try:
        for i in range(repeats * 3):
            vals = {}
            for arm in arms[i % 3 :] + arms[: i % 3]:
                if arm == "on":
                    enable_tracing()
                else:
                    disable_tracing()
                vals[arm] = sample()
            rounds.append(vals)
    finally:
        gc.enable()
        disable_tracing()
        tracer().clear()
    ratio = statistics.median(
        2 * r["on"] / (r["off_a"] + r["off_b"]) for r in rounds
    )
    aa = statistics.median(
        max(r["off_a"], r["off_b"]) / min(r["off_a"], r["off_b"])
        for r in rounds
    )
    row = {
        "m": g.num_edges,
        "delta_ops": delta.size,
        "rounds": len(rounds),
        "tracer_off_seconds": min(
            min(r["off_a"], r["off_b"]) for r in rounds
        ),
        "tracer_on_seconds": min(r["on"] for r in rounds),
        "overhead_ratio": ratio,
        "aa_noise_ratio": aa,
    }
    print(
        f"obs overhead m={g.num_edges:>9,} ops={delta.size:>6,}: "
        f"off {row['tracer_off_seconds'] * 1e3:8.2f} ms   "
        f"on {row['tracer_on_seconds'] * 1e3:8.2f} ms   "
        f"ratio {ratio:.4f}x   A/A noise {aa:.4f}x"
    )
    return row


def run(smoke: bool, repeats: int, out_dir) -> Path:
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    inc_n = SMOKE_INCREMENTAL_N if smoke else FULL_INCREMENTAL_N
    perf = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "apply": bench_apply(sizes, repeats),
        "incremental": bench_incremental(inc_n, repeats),
        "obs_overhead": bench_obs_overhead(sizes[-1], max(repeats, 5)),
    }
    perf["incremental_speedups"] = {
        row["spec"]: row["speedup"] for row in perf["incremental"]
    }
    if not smoke:
        for row in perf["incremental"]:
            assert row["m"] >= 100_000, row
            assert row["speedup"] >= MIN_INCREMENTAL_SPEEDUP, (
                f"{row['spec']}: repair is only {row['speedup']:.2f}x faster "
                f"than a full recompress at m={row['m']:,} with "
                f"{row['churn']:.0%} churn (expected >= "
                f"{MIN_INCREMENTAL_SPEEDUP}x)"
            )
        overhead = perf["obs_overhead"]
        assert overhead["m"] >= 1_000_000, overhead
        budget = MAX_OBS_OVERHEAD * overhead["aa_noise_ratio"]
        assert overhead["overhead_ratio"] <= budget, (
            f"enabled tracing costs {overhead['overhead_ratio']:.4f}x on the "
            f"m={overhead['m']:,} apply path (budget {MAX_OBS_OVERHEAD}x "
            f"beyond the {overhead['aa_noise_ratio']:.4f}x A/A noise floor)"
        )
    path = write_perf_record("stream", perf, out_dir)
    print(f"wrote {path}")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized graphs; skips the >=1e5-edge speedup assertion",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per measurement"
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "results"),
        help="directory for BENCH_stream.json",
    )
    args = parser.parse_args(argv)
    run(smoke=args.smoke, repeats=args.repeats, out_dir=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
