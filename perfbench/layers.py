"""Per-layer tracing for the traced benchmark run.

The traced run rebinds each timed public name where its caller looks it
up (a class attribute, or a module global that the caller reads at call
time) to a wrapper that records a span.  Nothing here is imported by an
untraced run, so untraced runs execute the program exactly as shipped.

A span is ``(layer, start, end, self_seconds, thread)``; self time is the
span's duration minus the time its child spans cover.  Stacks are per
thread, because the service workload runs jobs on a queue worker thread
while the client thread waits.  Spans stay in memory until :meth:`fold`
and :meth:`dump` run after the timed phase.
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: Registry algorithm name -> benchmark layer name.
ALGORITHM_LAYERS = {
    "pagerank": "algorithms.pr",
    "count_triangles": "algorithms.tc",
    "sssp": "algorithms.sssp",
    "mst": "algorithms.mst",
    "connected_components": "algorithms.cc",
}

#: Every timed layer: reported as ``<layer>_s`` (self seconds per request,
#: with the ``analytics.grid``/``runner.run_grid`` roots reported as
#: ``..._self_s``) and ``<layer>.calls`` (calls per request).
TIMED_LAYERS = (
    "compress.spanner",
    "compress.spanner.ldd",
    "compress.tr",
    "algorithms.list_triangles",
    "compress.summarization",
    "compress.summarization.cluster",
    "compress.summarization.decompress",
    "compress.chain",
    "compress.sampling",
    "graphs.keep_edges",
    "algorithms.pr",
    "algorithms.tc",
    "algorithms.sssp",
    "algorithms.mst",
    "algorithms.cc",
    "algorithms.bfs",
    "metrics.scoring",
    "analytics.grid",
    "graphs.snapshot_load",
    "runner.store_get",
    "runner.store_put",
    "runner.run_grid",
    "service.execute_job",
)

#: The two orchestration layers mostly wait on their children; their
#: metric names say ``self`` so the figure is not read as the call total.
_SELF_NAMED = {"analytics.grid": "analytics.grid_self_s", "runner.run_grid": "runner.run_grid_self_s"}


def time_metric(layer: str) -> str:
    return _SELF_NAMED.get(layer, f"{layer}_s")


def calls_metric(layer: str) -> str:
    return f"{layer}.calls"


class Tracer:
    """In-memory span recorder; records only while :attr:`recording`."""

    def __init__(self):
        self.recording = False
        self.spans: list[tuple] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn):
        """``fn`` timed as ``layer`` (a name, or ``args -> name``)."""
        tracer = self
        name_of = layer if callable(layer) else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                name = name_of(args) if name_of else layer
                tracer.spans.append(
                    (name, start, end, end - start - child[0], threading.get_ident())
                )

        return timed

    def fold(self, requests: int) -> dict[str, float]:
        """Per-request self seconds and calls for every timed layer."""
        seconds = dict.fromkeys(TIMED_LAYERS, 0.0)
        calls = dict.fromkeys(TIMED_LAYERS, 0)
        for name, _start, _end, self_s, _thread in self.spans:
            seconds[name] = seconds.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for layer in TIMED_LAYERS:
            out[time_metric(layer)] = seconds[layer] / requests
            out[calls_metric(layer)] = calls[layer] / requests
        return out

    def covered_seconds(self) -> float:
        """Wall time under some span: the sum of all self times, since
        spans nest per thread and one request is in flight at a time."""
        return sum(span[3] for span in self.spans)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [
                    {"layer": n, "start": s, "end": e, "self_s": x, "thread": t}
                    for n, s, e, x, t in self.spans
                ],
                fh,
            )


def _rebind(tracer: Tracer, owner, attr: str, layer) -> None:
    setattr(owner, attr, tracer.wrap(layer, getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Rebind every timed name where its caller looks it up."""
    import repro.algorithms.triangles as triangles
    import repro.compress.spanner as spanner
    import repro.compress.summarization as summarization
    import repro.metrics.bfs_quality as bfs_quality
    import repro.runner.parallel as parallel
    from repro.algorithms.registry import BoundAlgorithm
    from repro.analytics.session import Session
    from repro.compress.chain import Chain
    from repro.compress.sampling import RandomVertexSampling
    from repro.compress.spectral import SpectralSparsifier
    from repro.compress.triangle_reduction import TriangleReduction
    from repro.compress.uniform import RandomUniformSampling
    from repro.compress.vertex_filters import LowDegreeVertexRemoval
    from repro.graphs.csr import CSRGraph
    from repro.metrics.registry import registered_metrics
    from repro.runner.store import ArtifactStore

    # Scheme entry points: Session and Chain both call ``scheme.compress``.
    _rebind(tracer, spanner.Spanner, "compress", "compress.spanner")
    _rebind(tracer, TriangleReduction, "compress", "compress.tr")
    _rebind(tracer, summarization.LossySummarization, "compress", "compress.summarization")
    _rebind(tracer, Chain, "compress", "compress.chain")
    for cls in (
        RandomUniformSampling,
        SpectralSparsifier,
        LowDegreeVertexRemoval,
        RandomVertexSampling,
    ):
        _rebind(tracer, cls, "compress", "compress.sampling")
    # Stages inside schemes, looked up as module globals at call time.
    _rebind(tracer, spanner, "low_diameter_decomposition", "compress.spanner.ldd")
    _rebind(tracer, summarization, "jaccard_minhash_clustering", "compress.summarization.cluster")
    _rebind(tracer, summarization.GraphSummary, "decompress", "compress.summarization.decompress")
    _rebind(tracer, triangles, "list_triangles", "algorithms.list_triangles")
    _rebind(tracer, CSRGraph, "keep_edges", "graphs.keep_edges")
    # Algorithms: the session calls the bound algorithm; the BFS metric
    # runs its own paired traversals through ``bfs_quality.bfs``.
    _rebind(
        tracer,
        BoundAlgorithm,
        "__call__",
        lambda args: ALGORITHM_LAYERS.get(args[0].entry.name, "algorithms.other"),
    )
    _rebind(tracer, bfs_quality, "bfs", "algorithms.bfs")
    for entry in registered_metrics().values():
        # Frozen dataclass: the session reads ``entry.fn`` at every call.
        object.__setattr__(entry, "fn", tracer.wrap("metrics.scoring", entry.fn))
    _rebind(tracer, Session, "grid", "analytics.grid")
    # ``Session.grid`` imports ``run_grid`` from the module at call time.
    _rebind(tracer, parallel, "run_grid", "runner.run_grid")
    _rebind(tracer, ArtifactStore, "load_graph", "graphs.snapshot_load")
    _rebind(tracer, ArtifactStore, "get_cells", "runner.store_get")
    _rebind(tracer, ArtifactStore, "put_cells", "runner.store_put")
