"""Incremental recompression: keep compressed outputs in step with deltas.

A maintainer follows a :class:`~repro.stream.ingest.GraphStream`: it is
attached to a base generation, then advanced once per applied delta, and
its output equals a batch compress of the current generation (checked by
:func:`repro.verify.properties.incremental_equivalence`).

Every scheme is maintained by :class:`Recompress`: each generation is
compressed from scratch with the maintainer's seed, so the output is
bit-identical to the batch scheme's.  A repairing maintainer earns its
code only by beating this by ``MIN_INCREMENTAL_SPEEDUP`` in
``benchmarks/bench_stream.py``, and none does.  The spanner (whose LDD
runs as numpy frontier rounds) recompresses a 1e5-edge graph in about
50 ms and low-degree removal is one degree pass.  EO triangle reduction
had a local repair, but with triangle listing as a row-block table join
a 1e5-edge recompress takes about 37 ms, only 3.5x the repair, so the
repair was deleted.
"""

from __future__ import annotations

from repro.compress.base import CompressionResult
from repro.compress.registry import build_scheme
from repro.graphs.csr import CSRGraph
from repro.obs.metrics import counter, histogram
from repro.obs.spans import span
from repro.stream.delta import EdgeDelta
from repro.utils.timer import stopwatch

__all__ = ["Recompress", "maintainer_for"]


class Recompress:
    """Maintain any scheme by compressing every generation from scratch.

    Lifecycle: :meth:`attach` to a base generation (full compress),
    then :meth:`update` once per applied delta with the new generation
    (produced by :func:`repro.stream.ingest.apply_delta`).  The current
    compressed output is :attr:`compressed`; :meth:`result` wraps it as
    a :class:`~repro.compress.base.CompressionResult` against the
    current generation so the batch scheme's contract checks apply
    verbatim.  ``stats`` keeps the ``repairs``/``full_rebuilds`` shape
    of the replay and benchmark records; ``repairs`` stays 0.
    """

    def __init__(self, scheme, *, seed=0):
        self.scheme = scheme
        self.scheme_name = scheme.name
        self.seed = 0 if seed is None else int(seed)
        self.stats = {"repairs": 0, "full_rebuilds": 0}
        self._graph: CSRGraph | None = None
        self._compressed: CSRGraph | None = None

    def attach(self, g: CSRGraph) -> CSRGraph:
        """Adopt ``g`` as the base generation (one full compress)."""
        self.stats = {"repairs": 0, "full_rebuilds": 0}
        self._graph = g
        self._compressed = self.scheme.compress(g, seed=self.seed).graph
        return self._compressed

    def update(self, delta: EdgeDelta, new_graph: CSRGraph) -> CSRGraph:
        """Advance to ``new_graph`` (= the old generation with ``delta``
        applied) by recompressing it."""
        if self._graph is None:
            raise RuntimeError("attach() a base generation before update()")
        with span(
            "stream.update", scheme=self.scheme_name, delta=delta.size
        ), stopwatch() as sw:
            self._compressed = self.scheme.compress(new_graph, seed=self.seed).graph
            self.stats["full_rebuilds"] += 1
        counter("repro.stream.full_rebuilds").inc()
        histogram("repro.stream.rebuild_seconds").observe(sw.seconds)
        self._graph = new_graph
        return self._compressed

    @property
    def graph(self) -> CSRGraph | None:
        """The generation the maintainer is currently synchronized to."""
        return self._graph

    @property
    def compressed(self) -> CSRGraph | None:
        """The maintained compressed output for :attr:`graph`."""
        return self._compressed

    def params(self) -> dict:
        return self.scheme.params()

    def result(self) -> CompressionResult:
        """The maintained output as a contract-checkable result."""
        if self._graph is None:
            raise RuntimeError("attach() a base generation first")
        return CompressionResult(
            graph=self._compressed,
            original=self._graph,
            scheme=self.scheme_name,
            params=self.params(),
            extras={"incremental": True, **self.stats},
        )


def maintainer_for(spec, *, seed=0) -> Recompress:
    """The maintainer for a batch scheme spec.

    ``spec`` is anything :func:`repro.compress.registry.build_scheme`
    accepts (``"spanner(k=4)"``, ``"EO-0.8-1-TR"``, ``"low_degree"``, or
    a scheme instance).
    """
    scheme = build_scheme(spec) if isinstance(spec, str) else spec
    return Recompress(scheme, seed=seed)
