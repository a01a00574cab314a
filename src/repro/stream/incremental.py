"""Incremental recompression: keep compressed outputs in step with deltas.

A maintainer follows a :class:`~repro.stream.ingest.GraphStream`: it is
attached to a base generation, then advanced once per applied delta, and
its output must satisfy the **same** :mod:`repro.theory.bounds`
contracts the batch scheme declares (checked by
:func:`repro.verify.properties.incremental_equivalence`):

- :class:`IncrementalTriangleReduction` (EO p-1-TR) — state is the set
  of *considered* edge pairs (each edge gets one removal lottery,
  §4.3's edge-once rule), the TR-deleted pairs, and for each deleted
  pair the two triangle partners that protect its endpoints'
  connectivity.  Graph-deletes drop state and **restore** any
  TR-deleted edge that loses a protecting partner (without the restore,
  a later graph-delete of a partner could disconnect the output where a
  full recompress of the new generation would not — breaking the
  ``eo_tr_components`` contract).  Inserts discover only the triangles
  containing an inserted edge (sorted-neighbor intersection) and run
  the same lottery on them.  The win is skipping the O(m^{3/2}) full
  triangle listing.
- :class:`Recompress` — every other scheme: each generation is
  compressed from scratch with the maintainer's seed, so the output is
  bit-identical to the batch scheme's.  A repairing maintainer earns its
  code only by beating this by ``MIN_INCREMENTAL_SPEEDUP`` in
  ``benchmarks/bench_stream.py``.  The spanner (whose LDD runs as numpy
  frontier rounds) recompresses a 1e5-edge graph in about 50 ms and
  low-degree removal is one degree pass, so neither has a repair.

Past a churn threshold (default 25% of edges touched per batch) the TR
maintainer falls back to a full recompress — repair state degrades
gracefully into the batch path it specializes.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.compress.base import CompressionResult
from repro.compress.registry import build_scheme
from repro.compress.triangle_reduction import TriangleReduction
from repro.graphs.csr import CSRGraph
from repro.obs.metrics import counter, histogram
from repro.obs.spans import span
from repro.stream.delta import EdgeDelta
from repro.utils.rng import as_generator
from repro.utils.timer import stopwatch

__all__ = [
    "IncrementalMaintainer",
    "IncrementalTriangleReduction",
    "Recompress",
    "maintainer_for",
]


def _delta_seed_int(delta: EdgeDelta) -> int:
    """A 64-bit stream-position-free seed component: the delta's content."""
    return int(delta.delta_id[:16], 16)


def _present_edge_ids(g: CSRGraph, u, v) -> tuple[np.ndarray, np.ndarray]:
    """``(edge_ids, found_mask)`` for endpoint arrays; missing pairs are
    reported in the mask instead of raising (canonical edge arrays are
    key-sorted, so one ``searchsorted`` resolves the whole batch)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if not g.directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    m = g.num_edges
    if not m:
        return np.zeros(len(u), dtype=np.int64), np.zeros(len(u), dtype=bool)
    keys = g.edge_src * np.int64(g.n) + g.edge_dst
    want = u * np.int64(g.n) + v
    pos = np.searchsorted(keys, want)
    found = (pos < m) & (keys[np.minimum(pos, m - 1)] == want)
    return pos, found


class IncrementalMaintainer:
    """Base class: churn-gated repair with a full-recompress fallback.

    Lifecycle: :meth:`attach` to a base generation (full compress),
    then :meth:`update` once per applied delta with the new generation
    (produced by :func:`repro.stream.ingest.apply_delta`).  The current
    compressed output is :attr:`compressed`; :meth:`result` wraps it as
    a :class:`~repro.compress.base.CompressionResult` against the
    current generation so the batch scheme's contract checks apply
    verbatim.
    """

    scheme_name = "scheme"
    #: True when the maintained output is bit-identical to the batch
    #: scheme's output on the same generation (exact-equality checks).
    deterministic = False

    def __init__(self, *, seed=0, churn_threshold: float = 0.25):
        if not 0.0 < churn_threshold:
            raise ValueError("churn_threshold must be > 0")
        self.seed = 0 if seed is None else int(seed)
        self.churn_threshold = float(churn_threshold)
        self.stats = {"repairs": 0, "full_rebuilds": 0}
        self._graph: CSRGraph | None = None
        self._compressed: CSRGraph | None = None

    # -- subclass hooks ------------------------------------------------ #

    def _rebuild(self, g: CSRGraph) -> None:
        """Full recompress of ``g``; resets all repair state."""
        raise NotImplementedError

    def _repair(self, old: CSRGraph, delta: EdgeDelta, g: CSRGraph) -> None:
        """Repair state from ``old`` to ``g`` using only ``delta``."""
        raise NotImplementedError

    def _check_graph(self, g: CSRGraph) -> None:
        pass

    def _needs_rebuild(self, g: CSRGraph) -> bool:
        """True forces a full recompress of the next generation,
        whatever the churn."""
        return False

    # -- lifecycle ----------------------------------------------------- #

    def attach(self, g: CSRGraph) -> CSRGraph:
        """Adopt ``g`` as the base generation (one full compress)."""
        self._check_graph(g)
        self.stats = {"repairs": 0, "full_rebuilds": 0}
        self._graph = g
        self._rebuild(g)
        return self._compressed

    def update(self, delta: EdgeDelta, new_graph: CSRGraph) -> CSRGraph:
        """Advance to ``new_graph`` (= the old generation with ``delta``
        applied); repairs when churn allows, otherwise recompresses."""
        if self._graph is None:
            raise RuntimeError("attach() a base generation before update()")
        old = self._graph
        churn = delta.size / max(old.num_edges, 1)
        rebuild = churn > self.churn_threshold or self._needs_rebuild(old)
        mode = "rebuild" if rebuild else "repair"
        with span(
            "stream.update", scheme=self.scheme_name, mode=mode, delta=delta.size
        ), stopwatch() as sw:
            if rebuild:
                self._rebuild(new_graph)
                self.stats["full_rebuilds"] += 1
            else:
                self._repair(old, delta, new_graph)
                self.stats["repairs"] += 1
        # The repair-vs-rebuild cost split, rolled up process-wide: the
        # stream benchmarks' headline claim as live histograms.
        counter(f"repro.stream.{'full_rebuilds' if rebuild else 'repairs'}").inc()
        histogram(f"repro.stream.{mode}_seconds").observe(sw.seconds)
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
        return {}

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


# --------------------------------------------------------------------- #
# triangle reduction (EO p-1-TR)
# --------------------------------------------------------------------- #


class IncrementalTriangleReduction(IncrementalMaintainer):
    """Maintain EO p-1-TR by local triangle discovery + partner protection."""

    scheme_name = "triangle_reduction"

    def __init__(self, p: float, *, seed=0, churn_threshold: float = 0.25):
        super().__init__(seed=seed, churn_threshold=churn_threshold)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = float(p)
        self._considered: set = set()
        self._deleted: dict[tuple, tuple] = {}  # pair -> (partner, partner)
        self._protectors: dict[tuple, set] = defaultdict(set)
        # Slot-indexed endpoint buffers mirroring _deleted's keys, so
        # _build_output hands numpy arrays straight to the edge lookup
        # instead of re-materializing 10k+ dict keys every update.
        self._del_u = np.empty(0, dtype=np.int64)
        self._del_v = np.empty(0, dtype=np.int64)
        self._del_live = np.empty(0, dtype=bool)
        self._del_top = 0
        self._del_slot: dict[tuple, int] = {}

    def params(self) -> dict:
        return {"p": self.p, "x": 1, "variant": "edge_once"}

    def _check_graph(self, g: CSRGraph) -> None:
        if g.directed:
            raise ValueError(
                "incremental triangle reduction requires an undirected graph"
            )

    def _record_deletion(self, drawn: tuple, others: tuple) -> None:
        self._deleted[drawn] = others
        self._protectors[others[0]].add(drawn)
        self._protectors[others[1]].add(drawn)
        if self._del_top == len(self._del_u):
            cap = max(1024, 2 * len(self._del_u))
            for name in ("_del_u", "_del_v"):
                buf = np.empty(cap, dtype=np.int64)
                buf[: self._del_top] = getattr(self, name)[: self._del_top]
                setattr(self, name, buf)
            live = np.zeros(cap, dtype=bool)
            live[: self._del_top] = self._del_live[: self._del_top]
            self._del_live = live
        s = self._del_top
        self._del_u[s], self._del_v[s] = drawn
        self._del_live[s] = True
        self._del_slot[drawn] = s
        self._del_top = s + 1

    def _drop_deletion(self, pair: tuple) -> None:
        self._del_live[self._del_slot.pop(pair)] = False

    def _rebuild(self, g: CSRGraph) -> None:
        from repro.algorithms.triangles import list_triangles

        self._considered = set()
        self._deleted = {}
        self._protectors = defaultdict(set)
        self._del_live[: self._del_top] = False
        self._del_top = 0
        self._del_slot = {}
        rng = as_generator(self.seed)
        tl = list_triangles(g)
        t = tl.count
        if t:
            # Identical draws to TriangleReduction.compress(variant=
            # "edge_once", x=1) with the same seed, replayed here so the
            # first-touch winners are known *with* their triangle rows.
            sampled = rng.random(t) < self.p
            idx = np.flatnonzero(sampled)
            slots = np.argsort(rng.random((len(idx), 3)), axis=1)[:, :1]
            eids = tl.edge_ids[idx]
            drawn = np.take_along_axis(eids, slots, axis=1)[:, 0]
            num_events = len(idx)
            first_touch = np.full(g.num_edges, num_events, dtype=np.int64)
            event_of = np.repeat(np.arange(num_events, dtype=np.int64), 3)
            np.minimum.at(first_touch, eids.ravel(), event_of)
            wins = first_touch[drawn] == np.arange(num_events)

            def pair(e: int) -> tuple:
                return (int(g.edge_src[e]), int(g.edge_dst[e]))

            for row in eids:  # every edge of a sampled triangle is considered
                for e in row:
                    self._considered.add(pair(int(e)))
            for i in np.flatnonzero(wins):
                d = int(drawn[i])
                others = tuple(pair(int(e)) for e in eids[i] if int(e) != d)
                self._record_deletion(pair(d), others)
        self._compressed = self._build_output(g)

    def _repair(self, old: CSRGraph, delta: EdgeDelta, g: CSRGraph) -> None:
        # 1. Graph deletes invalidate state — and restore any TR-deleted
        #    edge whose protecting triangle partner just disappeared.
        for u, v in zip(delta.delete_src.tolist(), delta.delete_dst.tolist()):
            p = (u, v)
            self._considered.discard(p)
            if p in self._deleted:
                a, b = self._deleted.pop(p)
                self._drop_deletion(p)
                self._protectors[a].discard(p)
                self._protectors[b].discard(p)
            for e in list(self._protectors.pop(p, ())):
                if e in self._deleted:
                    a, b = self._deleted.pop(e)
                    self._drop_deletion(e)
                    other = b if a == p else a
                    self._protectors[other].discard(e)
                    # e's lottery stays spent: it remains considered.

        # 2. New triangles exist only through inserted edges; discover
        #    them by neighbor intersection and run the same EO lottery.
        if delta.num_inserts:
            found: set = set()
            for u, v in zip(
                delta.insert_src.tolist(), delta.insert_dst.tolist()
            ):
                common = np.intersect1d(
                    g.neighbors(u), g.neighbors(v), assume_unique=True
                )
                for w in common.tolist():
                    found.add(tuple(sorted((u, v, w))))
            rng = np.random.default_rng([self.seed, _delta_seed_int(delta)])
            for a, b, c in sorted(found):
                if rng.random() < self.p:
                    pairs3 = ((a, b), (a, c), (b, c))
                    drawn = pairs3[int(rng.integers(3))]
                    if drawn not in self._considered:
                        others = tuple(q for q in pairs3 if q != drawn)
                        self._record_deletion(drawn, others)
                    for q in pairs3:  # protect the survivors (edge-once)
                        self._considered.add(q)
        self._compressed = self._build_output(g)

    def _build_output(self, g: CSRGraph) -> CSRGraph:
        # The output is always g minus the TR-deleted pairs, so deriving
        # it from the *new* generation in one masked pass (no argsort:
        # canonical edge keys are already sorted) beats diff-editing the
        # previous output, and picks up weight updates for free.
        if not self._deleted:
            return g
        live = self._del_live[: self._del_top]
        us = self._del_u[: self._del_top][live]
        vs = self._del_v[: self._del_top][live]
        ids, found = _present_edge_ids(g, us, vs)
        if not found.all():
            bad = int(np.flatnonzero(~found)[0])
            raise KeyError(
                f"TR-deleted pair ({us[bad]}, {vs[bad]}) is not an edge"
            )
        keep = np.ones(g.num_edges, dtype=bool)
        keep[ids] = False
        return g.keep_edges(keep)


# --------------------------------------------------------------------- #
# everything else: recompress per generation
# --------------------------------------------------------------------- #


class Recompress(IncrementalMaintainer):
    """Maintain any scheme by compressing every generation from scratch."""

    deterministic = True

    def __init__(self, scheme, *, seed=0, churn_threshold: float = 0.25):
        super().__init__(seed=seed, churn_threshold=churn_threshold)
        self.scheme = scheme
        self.scheme_name = scheme.name

    def params(self) -> dict:
        return self.scheme.params()

    def _needs_rebuild(self, g: CSRGraph) -> bool:
        return True

    def _rebuild(self, g: CSRGraph) -> None:
        self._compressed = self.scheme.compress(g, seed=self.seed).graph


def maintainer_for(
    spec, *, seed=0, churn_threshold: float = 0.25
) -> IncrementalMaintainer:
    """The maintainer for a batch scheme spec.

    ``spec`` is anything :func:`repro.compress.registry.build_scheme`
    accepts (``"spanner(k=4)"``, ``"EO-0.8-1-TR"``, ``"low_degree"``, or
    a scheme instance).  EO x=1 triangle reduction gets its repairing
    maintainer; every other scheme recompresses per generation.
    """
    scheme = build_scheme(spec) if isinstance(spec, str) else spec
    if (
        isinstance(scheme, TriangleReduction)
        and scheme.variant == "edge_once"
        and scheme.x == 1
    ):
        return IncrementalTriangleReduction(
            p=scheme.p, seed=seed, churn_threshold=churn_threshold
        )
    return Recompress(scheme, seed=seed, churn_threshold=churn_threshold)
