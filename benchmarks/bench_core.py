"""Core micro-benchmarks: transforms, the analysis cache, chain pipelines.

The first datapoints of the perf trajectory for the *inner* machinery the
paper-scale sweeps stand on (everything else in ``benchmarks/`` measures
paper experiments end to end):

- **transforms** — the sort-free O(m) ``keep_edges`` fast path against the
  legacy O(m log m) lexsort rebuild (``CSRGraph._keep_edges_rebuild``),
  across graph sizes up to 10^6+ edges, plus ``remove_vertices``;
- **triangle cache** — cold vs. warm ``list_triangles`` through the
  graph-keyed analysis cache, and a multi-seed TR sweep asserted to list
  the original graph's triangles exactly once;
- **chains** — multi-stage ``|`` pipelines whose per-stage cost is now
  O(m), across graph sizes;
- **algorithms** — the grid hot spots on weighted RMAT graphs: the
  Kruskal reference against the vectorized Borůvka MST, the listing's
  row-block table join as a triangle count against the row-blocked
  sparse ``(L @ L) ∘ L`` count,
  and the heap-Dijkstra LDD (:func:`repro.verify.oracles.oracle_ldd`)
  against the numpy frontier rounds the spanner runs, with outputs
  asserted equal.

Emits ``BENCH_core.json`` through the shared perf-record machinery
(:func:`repro.runner.harness.write_perf_record`), so the record carries
the same schema/naming as the sweep BENCH records and CI can archive it
alongside them.  Shape assertions follow the benchmark conventions: a run
that contradicts the expected qualitative outcome (fast path slower than
the rebuild, a warm cache recomputing) **fails**.

Run::

    PYTHONPATH=src python benchmarks/bench_core.py            # full
    PYTHONPATH=src python benchmarks/bench_core.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from pathlib import Path

import numpy as np

from repro.algorithms.mst import boruvka, kruskal
from repro.algorithms.triangles import (
    _closed_wedges,
    _oriented_arcs,
    _sparse_triangle_count,
)
from repro.analytics.session import Session
from repro.compress.mappings import beta_for_spanner, low_diameter_decomposition
from repro.compress.registry import build_scheme
from repro.graphs import generators as gen
from repro.graphs.analysis import analysis_cache, stats_delta
from repro.graphs.csr import CSRGraph
from repro.graphs.weights import with_uniform_weights
from repro.runner.harness import write_perf_record
from repro.verify.oracles import oracle_ldd

#: Edge counts exercised by the transform/chain sections.
FULL_SIZES = (100_000, 1_000_000)
SMOKE_SIZES = (5_000, 20_000)

#: The acceptance threshold: fast-path keep_edges on the largest graph.
MIN_KEEP_EDGES_SPEEDUP = 3.0

#: Enabled-tracer overhead budget on the largest transform path: the
#: span() calls left on hot paths must cost <= 2% wall time beyond the
#: A/A (off-vs-off) noise floor measured in the same rounds.
MAX_OBS_OVERHEAD = 1.02

CHAIN_SPEC = "low_degree(max_degree=1) | uniform(p=0.5) | spanner(k=4)"


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _transform_graph(m: int, seed: int = 0) -> CSRGraph:
    return gen.erdos_renyi(max(m // 8, 16), m=m, seed=seed)


def bench_transforms(sizes, repeats: int) -> list[dict]:
    """keep_edges / remove_vertices: fast path vs. legacy rebuild."""
    rows = []
    for m in sizes:
        g = _transform_graph(m)
        rng = np.random.default_rng(7)
        mask = rng.random(g.num_edges) < 0.5
        victims = np.flatnonzero(rng.random(g.n) < 0.1)

        fast = _best_of(lambda: g.keep_edges(mask), repeats)
        legacy = _best_of(lambda: g._keep_edges_rebuild(mask), repeats)
        rv_fast = _best_of(lambda: g.remove_vertices(victims), repeats)

        # Correctness spot check alongside the timing claim.
        a, b = g.keep_edges(mask), g._keep_edges_rebuild(mask)
        assert np.array_equal(a.arc_edge_ids, b.arc_edge_ids)
        assert np.array_equal(a.indptr, b.indptr)

        rows.append(
            {
                "n": g.n,
                "m": g.num_edges,
                "keep_edges_fast_seconds": fast,
                "keep_edges_rebuild_seconds": legacy,
                "keep_edges_speedup": legacy / fast if fast > 0 else float("inf"),
                "remove_vertices_seconds": rv_fast,
            }
        )
        print(
            f"transform m={m:>9,}: fast {fast * 1e3:8.2f} ms   "
            f"rebuild {legacy * 1e3:8.2f} ms   "
            f"speedup {rows[-1]['keep_edges_speedup']:5.2f}x"
        )
    return rows


def bench_triangle_cache(smoke: bool, seeds=(0, 1, 2)) -> dict:
    """Cold vs. warm listing, plus the multi-seed TR sweep guarantee."""
    n = 2_000 if smoke else 20_000
    g = gen.powerlaw_cluster(n, 6, 0.6, seed=1)
    cache = analysis_cache()
    cache.forget(g)  # defensive: a truly cold first listing

    from repro.algorithms.triangles import list_triangles

    start = time.perf_counter()
    tl = list_triangles(g)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    warm_tl = list_triangles(g)
    warm = time.perf_counter() - start
    assert warm_tl is tl, "warm listing must be the cached object"

    before = cache.stats()
    session = Session(g, seed=0)
    for seed in seeds:
        session.grid(["EO-0.6-1-TR"], ["tc"], seed=seed)
    delta = stats_delta(before, cache.stats())
    listing = delta["by_analysis"].get("triangle_list", {"hits": 0, "misses": 0})
    assert listing["misses"] == 0, (
        f"TR sweep re-listed triangles {listing['misses']} times on an "
        "already-warm graph"
    )
    assert listing["hits"] >= len(seeds), delta

    out = {
        "n": g.n,
        "m": g.num_edges,
        "triangles": tl.count,
        "cold_list_seconds": cold,
        "warm_list_seconds": warm,
        "warm_speedup": cold / warm if warm > 0 else float("inf"),
        "tr_sweep_seeds": list(seeds),
        "tr_sweep_analysis": delta,
    }
    print(
        f"triangles n={g.n:,} T={tl.count:,}: cold {cold * 1e3:.2f} ms   "
        f"warm {warm * 1e6:.1f} us   sweep listings: "
        f"{listing['misses']} recomputed / {listing['hits']} reused"
    )
    return out


def bench_chains(sizes, repeats: int) -> list[dict]:
    """Multi-stage pipelines: every stage now pays O(m), not O(m log m)."""
    scheme = build_scheme(CHAIN_SPEC)
    rows = []
    for m in sizes:
        g = _transform_graph(m, seed=3)
        seconds = _best_of(lambda: scheme.compress(g, seed=0), repeats)
        result = scheme.compress(g, seed=0)
        rows.append(
            {
                "n": g.n,
                "m": g.num_edges,
                "spec": CHAIN_SPEC,
                "stages": len(scheme.stages),
                "seconds": seconds,
                "compression_ratio": result.compression_ratio,
            }
        )
        print(
            f"chain m={m:>9,}: {seconds * 1e3:8.2f} ms   "
            f"ratio {result.compression_ratio:.3f}"
        )
    return rows


def _rmat_graph(m: int, seed: int = 0) -> CSRGraph:
    """Weighted RMAT graph with at least ``0.9 m`` edges (16+ per vertex);
    the edge factor grows until enough edges survive deduplication."""
    scale = max(int(np.log2(m / 16)), 4)
    factor = m / 2**scale
    g = gen.rmat(scale, int(np.ceil(factor)), seed=seed)
    while g.num_edges < 0.9 * m:
        factor *= 0.95 * m / g.num_edges
        g = gen.rmat(scale, int(np.ceil(factor)), seed=seed)
    return with_uniform_weights(g, 1.0, 10.0, seed=seed)


def bench_algorithms(sizes, repeats: int) -> list[dict]:
    """MST, triangle count and LDD: reference vs. vectorized engine."""
    rows = []
    for m in sizes:
        g = _rmat_graph(m)
        ref, fast = kruskal(g), boruvka(g)
        assert np.array_equal(ref.edge_ids, fast.edge_ids)
        assert ref.total_weight == fast.total_weight
        assert ref.num_trees == fast.num_trees
        optr, onbr, arc_u, _ = _oriented_arcs(g)  # shared by both counts

        def join_count():
            return sum(len(b[0]) for b in _closed_wedges(g.n, optr, onbr, arc_u))

        triangles = join_count()
        assert _sparse_triangle_count(g) == triangles
        beta = beta_for_spanner(g, 4)
        heap_ldd = oracle_ldd(g, beta, seed=0)
        round_ldd = low_diameter_decomposition(g, beta, seed=0)
        for field in ("mapping", "centers", "parent_edge_ids"):
            assert np.array_equal(
                getattr(heap_ldd, field), getattr(round_ldd, field)
            ), field
        assert heap_ldd.num_clusters == round_ldd.num_clusters
        row = {
            "n": g.n,
            "m": g.num_edges,
            "triangles": triangles,
            "mst_kruskal_seconds": _best_of(lambda: kruskal(g), repeats),
            "mst_boruvka_seconds": _best_of(lambda: boruvka(g), repeats),
            "tc_join_seconds": _best_of(join_count, repeats),
            "tc_sparse_seconds": _best_of(
                lambda: _sparse_triangle_count(g), repeats
            ),
            "ldd_clusters": round_ldd.num_clusters,
            "ldd_heap_seconds": _best_of(
                lambda: oracle_ldd(g, beta, seed=0), repeats
            ),
            "ldd_rounds_seconds": _best_of(
                lambda: low_diameter_decomposition(g, beta, seed=0), repeats
            ),
        }
        row["mst_speedup"] = row["mst_kruskal_seconds"] / row["mst_boruvka_seconds"]
        row["tc_speedup"] = row["tc_join_seconds"] / row["tc_sparse_seconds"]
        row["ldd_speedup"] = row["ldd_heap_seconds"] / row["ldd_rounds_seconds"]
        rows.append(row)
        print(
            f"algorithms m={g.num_edges:>9,}: "
            f"mst kruskal {row['mst_kruskal_seconds'] * 1e3:8.2f} ms   "
            f"boruvka {row['mst_boruvka_seconds'] * 1e3:8.2f} ms   "
            f"tc join {row['tc_join_seconds'] * 1e3:8.2f} ms   "
            f"sparse {row['tc_sparse_seconds'] * 1e3:8.2f} ms   "
            f"ldd heap {row['ldd_heap_seconds'] * 1e3:8.2f} ms   "
            f"rounds {row['ldd_rounds_seconds'] * 1e3:8.2f} ms"
        )
    return rows


def bench_obs_overhead(m: int, repeats: int) -> dict:
    """Instrumentation cost: the spanned transform path, tracer off vs on.

    Each round times three back-to-back arms — tracer off, tracer on,
    tracer off again, with the order rotating per round — yielding a
    per-round on/off ratio plus an A/A (off-vs-off) control with
    identical statistics.  Shared-container jitter on this path runs
    several percent per call, larger than the span cost itself, so the
    full run asserts the median on/off ratio stays within
    :data:`MAX_OBS_OVERHEAD` of the median A/A spread: the overhead
    must be invisible beyond the same-config noise floor measured in
    the very same rounds.
    """
    from repro.obs.spans import disable_tracing, enable_tracing, span, tracer

    g = _transform_graph(m, seed=5)
    rng = np.random.default_rng(11)
    mask = rng.random(g.num_edges) < 0.5

    def traced():
        with span("bench.keep_edges", m=g.num_edges):
            g.keep_edges(mask)

    batch = 5

    def sample() -> float:
        # Average a batch per sample: single-call jitter on this path
        # dwarfs the span cost, batching divides it by sqrt(batch).
        start = time.perf_counter()
        for _ in range(batch):
            traced()
        return (time.perf_counter() - start) / batch

    arms = ("off_a", "on", "off_b")
    rounds: list[dict] = []
    disable_tracing()
    tracer().clear()
    traced()  # warmup
    assert len(tracer()) == 0, "disabled tracer must record nothing"
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
        "rounds": len(rounds),
        "calls_per_sample": batch,
        "tracer_off_seconds": min(
            min(r["off_a"], r["off_b"]) for r in rounds
        ),
        "tracer_on_seconds": min(r["on"] for r in rounds),
        "overhead_ratio": ratio,
        "aa_noise_ratio": aa,
    }
    print(
        f"obs overhead m={g.num_edges:>9,}: "
        f"off {row['tracer_off_seconds'] * 1e3:8.2f} ms   "
        f"on {row['tracer_on_seconds'] * 1e3:8.2f} ms   "
        f"ratio {ratio:.4f}x   A/A noise {aa:.4f}x"
    )
    return row


def run(smoke: bool, repeats: int, out_dir) -> Path:
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    perf = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "transforms": bench_transforms(sizes, repeats),
        "triangle_cache": bench_triangle_cache(smoke),
        "chains": bench_chains(sizes, repeats),
        "algorithms": bench_algorithms(sizes, repeats),
        "obs_overhead": bench_obs_overhead(sizes[-1], max(repeats, 5)),
    }
    largest = perf["transforms"][-1]
    perf["keep_edges_speedup_at_largest"] = largest["keep_edges_speedup"]
    if not smoke:
        assert largest["m"] >= 1_000_000, largest
        assert largest["keep_edges_speedup"] >= MIN_KEEP_EDGES_SPEEDUP, (
            f"fast keep_edges is only {largest['keep_edges_speedup']:.2f}x "
            f"faster than the rebuild at m={largest['m']:,} "
            f"(expected >= {MIN_KEEP_EDGES_SPEEDUP}x)"
        )
        overhead = perf["obs_overhead"]
        assert overhead["m"] >= 1_000_000, overhead
        budget = MAX_OBS_OVERHEAD * overhead["aa_noise_ratio"]
        assert overhead["overhead_ratio"] <= budget, (
            f"enabled tracing costs {overhead['overhead_ratio']:.4f}x on the "
            f"m={overhead['m']:,} transform path (budget {MAX_OBS_OVERHEAD}x "
            f"beyond the {overhead['aa_noise_ratio']:.4f}x A/A noise floor)"
        )
    path = write_perf_record("core", perf, out_dir)
    print(f"wrote {path}")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized graphs; skips the >=1e6-edge speedup assertion",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per measurement"
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "results"),
        help="directory for BENCH_core.json",
    )
    args = parser.parse_args(argv)
    run(smoke=args.smoke, repeats=args.repeats, out_dir=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
