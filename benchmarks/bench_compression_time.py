"""§7.4: relative cost of the compression routines themselves.

The paper's ordering: sampling is the fastest; spectral is "negligibly
slower" (reads endpoint degrees); spanners are >20% slower than the edge
kernels (low-diameter decomposition constants); TR is >50% slower than
spanners (O(m^{3/2}) triangle listing); summarization is >200% slower
than TR (iterations + complex design).

These use plain ``benchmark()`` (multiple rounds) so pytest-benchmark's
own statistics table doubles as the §7.4 artifact, plus one pedantic run
asserting the ordering.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit
from repro.analytics.report import format_table
from repro.compress.registry import build_scheme

GRAPH = "v-ewk"


@pytest.fixture(scope="module")
def graph(graph_cache):
    return graph_cache.load(GRAPH)


def test_time_uniform(benchmark, graph):
    scheme = build_scheme("uniform(p=0.5)")
    benchmark(lambda: scheme.compress(graph, seed=0))


def test_time_spectral(benchmark, graph):
    scheme = build_scheme("spectral(p=0.5)")
    benchmark(lambda: scheme.compress(graph, seed=0))


def test_time_spanner(benchmark, graph):
    scheme = build_scheme("spanner(k=8)")
    benchmark(lambda: scheme.compress(graph, seed=0))


def test_time_triangle_reduction(benchmark, graph):
    scheme = build_scheme("0.5-1-TR")
    benchmark(lambda: scheme.compress(graph, seed=0))


def test_time_summarization(benchmark, graph):
    scheme = build_scheme("summarization(epsilon=0.3)")
    benchmark(lambda: scheme.compress(graph, seed=0))


def run_ordering(graph, results_dir):
    timings = {}
    for label, spec in [
        ("uniform", "uniform(p=0.5)"),
        ("spectral", "spectral(p=0.5)"),
        ("spanner", "spanner(k=8)"),
        ("tr", "0.5-1-TR"),
        ("summarization", "summarization(epsilon=0.3)"),
    ]:
        scheme = build_scheme(spec)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            scheme.compress(graph, seed=0)
            best = min(best, time.perf_counter() - start)
        timings[label] = best
    rows = [[k, v, v / timings["uniform"]] for k, v in timings.items()]
    headers = ["scheme", "seconds", "x uniform"]
    text = format_table(rows, headers, title=f"§7.4 compression time on {GRAPH}")
    emit(results_dir, "compression_time", text, rows, headers)

    # --- shape: the paper's cost ordering ---
    assert timings["uniform"] <= timings["spectral"] * 1.5
    assert timings["spanner"] > timings["uniform"]
    assert timings["tr"] > timings["uniform"]
    assert timings["summarization"] > timings["tr"]
    return rows


def test_compression_time_ordering(benchmark, graph, results_dir):
    rows = benchmark.pedantic(
        run_ordering, args=(graph, results_dir), rounds=1, iterations=1
    )
    assert len(rows) == 5
