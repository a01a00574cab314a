"""Applying delta batches: immutable CSR generations and their ledger.

:class:`GraphStream` turns a base graph plus a sequence of
:class:`~repro.stream.delta.EdgeDelta` batches into a chain of
**generations** — ordinary immutable :class:`~repro.graphs.csr.CSRGraph`
objects, each produced from its parent by the sort-free fast paths:

- deletes ride :meth:`~repro.graphs.csr.CSRGraph.delete_edges` (the
  masked O(m) ``keep_edges`` path from PR 4);
- weight updates ride :meth:`~repro.graphs.csr.CSRGraph.with_weights`
  (adjacency shared, weights copied);
- inserts ride the O(m + Δ) sorted-merge
  :meth:`~repro.graphs.csr.CSRGraph.insert_edges` — no lexsort over the
  parent's m edges, and bit-identical to a from-scratch rebuild.

Because every generation is a *new object*, the identity-keyed
:class:`~repro.graphs.analysis.AnalysisCache` gives mutation-free
invalidation for free: a triangle listing cached for generation ``i``
can never leak to generation ``i+1``.  The stream additionally
fingerprints each generation (:func:`~repro.runner.fingerprint.
graph_fingerprint`), so the artifact store keys its sweep cells by
content.  The resulting **ledger** is a JSON-safe chain

    ``(index, delta_id, parent_fingerprint) -> fingerprint``

that makes any generation reproducible from the base fingerprint plus
the content-addressed delta ids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.triangles import edge_ids_of_pairs
from repro.faults.plan import fault_point
from repro.graphs.csr import CSRGraph
from repro.obs.metrics import counter, histogram
from repro.obs.spans import span
from repro.runner.fingerprint import graph_fingerprint
from repro.stream.delta import EdgeDelta

__all__ = ["GenerationRecord", "GraphStream", "apply_delta"]


@dataclass(frozen=True)
class GenerationRecord:
    """One ledger row: how a generation came to be."""

    index: int
    delta_id: str | None  # None for the base generation
    fingerprint: str
    parent_fingerprint: str | None
    num_vertices: int
    num_edges: int
    inserts: int = 0
    deletes: int = 0
    updates: int = 0
    apply_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "delta_id": self.delta_id,
            "fingerprint": self.fingerprint,
            "parent_fingerprint": self.parent_fingerprint,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "updates": self.updates,
            "apply_seconds": self.apply_seconds,
        }


def apply_delta(g: CSRGraph, delta: EdgeDelta) -> CSRGraph:
    """One new immutable generation: ``g`` with ``delta`` applied.

    Op order is deletes → weight updates → inserts (the op sets are
    disjoint by :class:`EdgeDelta` construction, so the order is an
    implementation detail, not a semantic one).  Deleting or updating an
    edge that is not present, or updating weights of an unweighted
    graph, raises ``ValueError`` naming the offender.
    """
    if delta.directed != g.directed:
        kind = "directed" if delta.directed else "undirected"
        gkind = "directed" if g.directed else "undirected"
        raise ValueError(f"cannot apply a {kind} delta to a {gkind} graph")

    if delta.num_deletes:
        try:
            ids = edge_ids_of_pairs(g, delta.delete_src, delta.delete_dst)
        except KeyError as err:
            raise ValueError(f"delete of a non-edge: {err.args[0]}") from None
        g = g.delete_edges(ids)

    if delta.num_updates:
        if not g.is_weighted:
            raise ValueError(
                "weight updates require a weighted graph; this graph is "
                "unweighted"
            )
        try:
            ids = edge_ids_of_pairs(g, delta.update_src, delta.update_dst)
        except KeyError as err:
            raise ValueError(f"update of a non-edge: {err.args[0]}") from None
        weights = g.edge_weights.copy()
        weights[ids] = delta.update_weights
        g = g.with_weights(weights)

    if delta.num_inserts or (
        delta.num_vertices is not None and delta.num_vertices > g.n
    ):
        # Growth-only: an explicit num_vertices wins, otherwise the
        # vertex set stretches just enough to cover inserted endpoints.
        n_new = max(g.n, delta.num_vertices or 0)
        if delta.num_inserts:
            n_new = max(
                n_new,
                int(delta.insert_src.max()) + 1,
                int(delta.insert_dst.max()) + 1,
            )
        g = g.insert_edges(
            delta.insert_src,
            delta.insert_dst,
            delta.insert_weights,
            num_vertices=n_new,
        )
    return g


class GraphStream:
    """A temporal graph: a head generation plus the ledger behind it.

    ``base`` may be an existing graph or ``None`` for an empty one (the
    usual shape of a replay, whose first batch builds the base);
    ``weighted`` only matters for the empty base.  The stream holds a
    strong reference to the head generation only — older generations are
    represented by their ledger rows (fingerprint + delta id) and stay
    alive exactly as long as some caller keeps them, which is what lets
    the analysis cache drop their entries with them.
    """

    def __init__(
        self,
        base: CSRGraph | None = None,
        *,
        directed: bool = False,
        weighted: bool = False,
    ) -> None:
        if base is None:
            base = CSRGraph.from_edges(
                0,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64) if weighted else None,
                directed=directed,
            )
        self._head = base
        self._records: list[GenerationRecord] = [
            GenerationRecord(
                index=0,
                delta_id=None,
                fingerprint=graph_fingerprint(base),
                parent_fingerprint=None,
                num_vertices=base.n,
                num_edges=base.num_edges,
            )
        ]

    # ------------------------------------------------------------------ #

    @property
    def head(self) -> CSRGraph:
        """The newest generation."""
        return self._head

    @property
    def generation(self) -> int:
        """Index of the head generation (base = 0)."""
        return len(self._records) - 1

    @property
    def records(self) -> tuple[GenerationRecord, ...]:
        return tuple(self._records)

    @property
    def head_fingerprint(self) -> str:
        return self._records[-1].fingerprint

    def ledger(self) -> list[dict]:
        """The generation chain as JSON-safe rows."""
        return [r.to_dict() for r in self._records]

    # ------------------------------------------------------------------ #

    def apply(self, delta: EdgeDelta) -> CSRGraph:
        """Apply one batch; returns (and makes head) the new generation."""
        parent = self._records[-1]
        start = time.perf_counter()
        with span("stream.apply", generation=parent.index + 1, delta=delta.size):
            # Chaos hook placed *before* any mutation: a faulted apply
            # must leave head and ledger exactly as they were, so the
            # caller can retry the same delta against the same state.
            fault_point(
                "stream.apply", generation=parent.index + 1, delta_id=delta.delta_id
            )
            g = apply_delta(self._head, delta)
        elapsed = time.perf_counter() - start
        counter("repro.stream.deltas_applied").inc()
        histogram("repro.stream.apply_seconds").observe(elapsed)
        self._head = g
        self._records.append(
            GenerationRecord(
                index=parent.index + 1,
                delta_id=delta.delta_id,
                fingerprint=graph_fingerprint(g),
                parent_fingerprint=parent.fingerprint,
                num_vertices=g.n,
                num_edges=g.num_edges,
                inserts=delta.num_inserts,
                deletes=delta.num_deletes,
                updates=delta.num_updates,
                apply_seconds=elapsed,
            )
        )
        return g

    def replay(self, deltas) -> CSRGraph:
        """Apply every batch in order; returns the final head."""
        for delta in deltas:
            self.apply(delta)
        return self._head
