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
  asserted equal (each timed Borůvka call sorts: its cached rank order
  is dropped first);
- **algorithms on a sample** — on a ``uniform(p=0.5)`` sample of the
  weighted v-ewk stand-in and, in full mode, of weighted
  ``powerlaw_cluster(2**17, 8, 0.5, seed=3)`` (about 1e6 edges):
  ``pr_transition`` times PageRank's transition matrix built by
  transposing the row-normalized adjacency against the direct build off
  the symmetric CSR, and ``mst_order`` times Borůvka's ``lexsort`` rank
  order against the order derived from the sorted parent's; outputs
  asserted equal, and the full run asserts both reuses faster at 1e6
  edges;
- **triangle listing** — cold ``list_triangles`` and its edge-id bytes
  per triangle on the v-ewk stand-in and, in full mode, on
  ``powerlaw_cluster(2**17, 8, 0.5, seed=3)`` and
  ``powerlaw_cluster(2**19, 2, 0.5, seed=3)`` (about 1e6 edges each),
  then ``tc`` on a ``uniform(p=0.5)`` child of the sparse-counted root:
  the first derived count (the root's listing included), a warm derived
  count, and the child's sparse count, all asserted equal;
- **triangle reduction** — ``compress`` of ``0.5-1-TR``, ``EO-0.8-1-TR``,
  ``0.5-2-TR`` and ``EO-0.8-2-TR`` (median over seeds, triangles already
  listed) on the v-ewk stand-in and, in full mode, on
  ``powerlaw_cluster(2**17, 8, 0.5, seed=3)``: the block-wise slot draws
  and the edge-once first-touch scatter;
- **summarization** — one ε = 0.4 summarization call split into its
  stages (minhash clustering, encoding, the budget walk, decompression)
  and timed whole, on the v-ewk stand-in and, in full mode, on
  ``powerlaw_cluster(2**17, 8, 0.5, seed=3)`` (about 1e6 edges); the
  staged call must decompress to the whole call's graph.

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

from repro.algorithms.mst import (
    _lexsort_order,
    _rank_order,
    _weights_kept,
    boruvka,
    kruskal,
)
from repro.algorithms.pagerank import _direct_transition, _transposed_transition
from repro.algorithms.triangles import (
    _closed_wedges,
    _derived_or_sparse_count,
    _oriented_arcs,
    _sparse_triangle_count,
    count_triangles,
    list_triangles,
)
from repro.analytics.session import Session
from repro.compress.mappings import (
    beta_for_spanner,
    jaccard_minhash_clustering,
    low_diameter_decomposition,
)
from repro.compress.registry import build_scheme
from repro.compress.summarization import LossySummarization
from repro.graphs import datasets
from repro.graphs import generators as gen
from repro.graphs.analysis import analysis_cache, lineage_parent, stats_delta
from repro.graphs.csr import CSRGraph
from repro.graphs.weights import with_uniform_weights
from repro.runner.harness import write_perf_record
from repro.utils.rng import as_generator
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
        arcs = _oriented_arcs(g)  # shared by both counts

        def join_count():
            return sum(len(b[0]) for b in _closed_wedges(g.n, *arcs))

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

        def sorting_boruvka():
            analysis_cache().forget(g, "mst_rank_order")
            return boruvka(g)

        row = {
            "n": g.n,
            "m": g.num_edges,
            "triangles": triangles,
            "mst_kruskal_seconds": _best_of(lambda: kruskal(g), repeats),
            "mst_boruvka_seconds": _best_of(sorting_boruvka, repeats),
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


def bench_sample_algorithms(smoke: bool, repeats: int) -> dict[str, list]:
    """The ``pr_transition`` and ``mst_order`` rows on a ``uniform(p=0.5)``
    sample of a weighted root: the rebuilt structure against the one read
    off what is known."""
    inputs = [("v-ewk", lambda: datasets.load("v-ewk", weighted=True))]
    if not smoke:
        inputs.append(
            (
                "powerlaw_cluster(2**17, 8, 0.5, seed=3)",
                lambda: with_uniform_weights(
                    gen.powerlaw_cluster(2**17, 8, 0.5, seed=3), 1.0, 10.0, seed=3
                ),
            )
        )
    cache = analysis_cache()
    pr_rows, mst_rows = [], []
    for name, build in inputs:
        root = build()
        sample = build_scheme("uniform(p=0.5)").compress(root, seed=0).graph
        shape = {"graph": name, "n": sample.n, "m": sample.num_edges}

        transpose, _ = _transposed_transition(sample, False)
        direct, _ = _direct_transition(sample)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(
                getattr(transpose, field), getattr(direct, field)
            ), field
        pr = dict(shape)
        pr["transpose_seconds"] = _best_of(
            lambda: _transposed_transition(sample, False), repeats
        )
        pr["direct_seconds"] = _best_of(lambda: _direct_transition(sample), repeats)
        pr["speedup"] = pr["transpose_seconds"] / pr["direct_seconds"]
        pr_rows.append(pr)

        _rank_order(root)  # sorted, as a grid's mst baseline leaves it
        parent, mask = lineage_parent(sample, ("mst_rank_order",))
        assert parent is root and _weights_kept(root, mask, sample)

        def derived():
            cache.forget(sample, "mst_rank_order")
            return _rank_order(sample)

        assert np.array_equal(derived(), _lexsort_order(sample))
        order = dict(shape)
        order["lexsort_seconds"] = _best_of(lambda: _lexsort_order(sample), repeats)
        order["derived_seconds"] = _best_of(derived, repeats)
        order["speedup"] = order["lexsort_seconds"] / order["derived_seconds"]
        mst_rows.append(order)
        print(
            f"sample of {name} m={sample.num_edges:,}: "
            f"pr transpose {pr['transpose_seconds'] * 1e3:8.2f} ms   "
            f"direct {pr['direct_seconds'] * 1e3:8.2f} ms   "
            f"mst lexsort {order['lexsort_seconds'] * 1e3:8.2f} ms   "
            f"derived {order['derived_seconds'] * 1e3:8.2f} ms"
        )
    return {"pr_transition": pr_rows, "mst_order": mst_rows}


def bench_triangle_listing(smoke: bool, repeats: int) -> list[dict]:
    """Cold listing and the bytes it keeps, then the first and a warm
    derived ``tc`` of a ``uniform(p=0.5)`` child of the sparse-counted
    root against the child's sparse count."""
    inputs = [("v-ewk", lambda: datasets.load("v-ewk", seed=0))]
    if not smoke:
        inputs += [
            (
                "powerlaw_cluster(2**17, 8, 0.5, seed=3)",
                lambda: gen.powerlaw_cluster(2**17, 8, 0.5, seed=3),
            ),
            (
                "powerlaw_cluster(2**19, 2, 0.5, seed=3)",
                lambda: gen.powerlaw_cluster(2**19, 2, 0.5, seed=3),
            ),
        ]
    cache = analysis_cache()
    rows = []
    for name, build in inputs:
        root = build()

        def cold_list():
            cache.forget(root)
            return list_triangles(root)

        cold = _best_of(cold_list, repeats)
        tl = list_triangles(root)
        cache.forget(root)
        count_triangles(root)  # sparse-counted, as a grid's tc baseline leaves it
        child = build_scheme("uniform(p=0.5)").compress(root, seed=0).graph

        def first_derived():
            cache.forget(root, "triangle_list")
            cache.forget(child, "triangle_count")
            return count_triangles(child)

        sparse = _sparse_triangle_count(child)
        assert first_derived() == _derived_or_sparse_count(child) == sparse
        assert lineage_parent(child, ("triangle_count",))[0] is root
        row = {
            "graph": name,
            "n": root.n,
            "m": root.num_edges,
            "triangles": tl.count,
            "cold_list_seconds": cold,
            "edge_ids_bytes": tl.edge_ids.nbytes,
            "bytes_per_triangle": tl.edge_ids.nbytes / max(tl.count, 1),
            "child_m": child.num_edges,
            "child_triangles": sparse,
            "first_derived_seconds": _best_of(first_derived, repeats),
            "warm_derived_seconds": _best_of(
                lambda: _derived_or_sparse_count(child), repeats
            ),
            "sparse_seconds": _best_of(lambda: _sparse_triangle_count(child), repeats),
        }
        rows.append(row)
        print(
            f"triangle listing {name} T={tl.count:,}: "
            f"cold list {cold * 1e3:8.2f} ms   "
            f"{row['bytes_per_triangle']:.0f} B/triangle   "
            f"tc first derived {row['first_derived_seconds'] * 1e3:8.2f} ms   "
            f"warm {row['warm_derived_seconds'] * 1e3:8.2f} ms   "
            f"sparse {row['sparse_seconds'] * 1e3:8.2f} ms"
        )
    return rows


#: The TR schemes timed by the ``triangle_reduction`` section.
TR_SCHEMES = ("0.5-1-TR", "EO-0.8-1-TR", "0.5-2-TR", "EO-0.8-2-TR")


def bench_triangle_reduction(smoke: bool, repeats: int) -> list[dict]:
    """Median ``compress`` seconds of each TR scheme over seeds
    1..repeats, on a graph whose triangles are already listed."""
    inputs = [("v-ewk", lambda: datasets.load("v-ewk", seed=0))]
    if not smoke:
        inputs.append(
            (
                "powerlaw_cluster(2**17, 8, 0.5, seed=3)",
                lambda: gen.powerlaw_cluster(2**17, 8, 0.5, seed=3),
            )
        )
    seeds = list(range(1, repeats + 1))
    rows = []
    for name, build in inputs:
        g = build()
        triangles = list_triangles(g).count
        for spec in TR_SCHEMES:
            scheme = build_scheme(spec)
            times = []
            for seed in seeds:
                start = time.perf_counter()
                scheme.compress(g, seed=seed)
                times.append(time.perf_counter() - start)
            row = {
                "graph": name,
                "n": g.n,
                "m": g.num_edges,
                "triangles": triangles,
                "scheme": spec,
                "seeds": seeds,
                "compress_seconds": statistics.median(times),
            }
            rows.append(row)
            print(
                f"triangle reduction {name} T={triangles:,} {spec:>12}: "
                f"{row['compress_seconds'] * 1e3:8.2f} ms"
            )
    return rows


#: Summarization stages, in call order.
SUMMARY_STAGES = ("cluster", "encode", "walk", "decompress")


def _summary_stages(scheme: LossySummarization, g: CSRGraph, seed: int) -> dict:
    """Seconds per stage of one ``scheme.compress(g, seed=seed)``, run
    stage by stage with the same draws."""
    rng = as_generator(seed)
    marks = [time.perf_counter()]
    mapping = jaccard_minhash_clustering(
        g,
        threshold=scheme.threshold,
        max_cluster_size=scheme.max_cluster_size,
        num_hashes=scheme.num_hashes,
        seed=rng,
    )
    marks.append(time.perf_counter())
    summary = scheme._encode(g, mapping)
    marks.append(time.perf_counter())
    summary = scheme._drop_corrections(g, summary, rng)
    marks.append(time.perf_counter())
    approx = summary.decompress()
    marks.append(time.perf_counter())
    whole = scheme.compress(g, seed=seed).graph
    for name in ("indptr", "indices", "arc_edge_ids"):
        assert np.array_equal(getattr(approx, name), getattr(whole, name)), name
    return {
        f"{stage}_seconds": end - start
        for stage, start, end in zip(SUMMARY_STAGES, marks, marks[1:])
    }


def bench_summarization(smoke: bool, repeats: int) -> list[dict]:
    """One ε = 0.4 summarization call per seed: stage and whole-call
    medians over seeds 1..repeats (cost varies with the seed)."""
    inputs = [("v-ewk", lambda: datasets.load("v-ewk", seed=0))]
    if not smoke:
        inputs.append(
            (
                "powerlaw_cluster(2**17, 8, 0.5, seed=3)",
                lambda: gen.powerlaw_cluster(2**17, 8, 0.5, seed=3),
            )
        )
    scheme = LossySummarization(0.4)
    seeds = list(range(1, repeats + 1))
    rows = []
    for name, build in inputs:
        g = build()
        staged = [_summary_stages(scheme, g, seed) for seed in seeds]
        whole = []
        for seed in seeds:
            start = time.perf_counter()
            scheme.compress(g, seed=seed)
            whole.append(time.perf_counter() - start)
        row = {"graph": name, "n": g.n, "m": g.num_edges, "epsilon": 0.4, "seeds": seeds}
        for key in staged[0]:
            row[key] = statistics.median(s[key] for s in staged)
        row["whole_seconds"] = statistics.median(whole)
        rows.append(row)
        print(
            f"summarization {name} m={g.num_edges:,}: "
            + "   ".join(
                f"{stage} {row[f'{stage}_seconds'] * 1e3:8.2f} ms"
                for stage in (*SUMMARY_STAGES, "whole")
            )
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
        **bench_sample_algorithms(smoke, repeats),
        "triangle_listing": bench_triangle_listing(smoke, repeats),
        "triangle_reduction": bench_triangle_reduction(smoke, repeats),
        "summarization": bench_summarization(smoke, repeats),
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
        for section in ("pr_transition", "mst_order"):
            row = perf[section][-1]
            assert row["m"] >= 500_000 and row["speedup"] > 1.0, (section, row)
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
