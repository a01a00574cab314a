"""Generations and the ledger: apply semantics, fingerprints, caching.

The streaming contract under test: every applied batch yields a *new*
immutable generation bit-identical to a from-scratch rebuild of the
edited edge set, the ledger chains generations by content fingerprint,
and the identity-keyed analysis cache plus the content-addressed
artifact store key each generation independently — a cached triangle
listing can never leak from generation ``i`` to generation ``i+1``.
"""

import numpy as np
import pytest

from repro.algorithms.triangles import list_triangles
from repro.graphs.analysis import analysis_cache
from repro.graphs.csr import CSRGraph
from repro.graphs.snapshot import load_snapshot, save_snapshot
from repro.runner.fingerprint import graph_fingerprint
from repro.runner.store import ArtifactStore
from repro.stream.delta import EdgeDelta
from repro.stream.ingest import GraphStream, apply_delta


@pytest.fixture
def g5():
    #   0 - 1
    #   | / |
    #   2   3 - 4
    return CSRGraph.from_edges(5, [0, 0, 1, 1, 3], [1, 2, 2, 3, 4])


def assert_buffers_identical(a: CSRGraph, b: CSRGraph) -> None:
    assert a.n == b.n and a.directed == b.directed
    for name in ("edge_src", "edge_dst", "indptr", "indices", "arc_edge_ids"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    if a.edge_weights is None:
        assert b.edge_weights is None
    else:
        assert np.array_equal(a.edge_weights, b.edge_weights)


class TestApplyDelta:
    def test_matches_from_scratch_rebuild(self, g5):
        delta = EdgeDelta.build(
            inserts=[(2, 3), (0, 3)], deletes=[(0, 1), (3, 4)]
        )
        out = apply_delta(g5, delta)
        expected = CSRGraph.from_edges(
            5, [0, 0, 1, 1, 2], [2, 3, 2, 3, 3]
        )
        assert_buffers_identical(out, expected)

    def test_weighted_full_cycle(self, g5):
        wg = g5.with_weights(np.arange(1.0, 6.0))
        delta = EdgeDelta.build(
            inserts=[(2, 4, 9.0)], deletes=[(0, 1)], updates=[(1, 3, 0.5)]
        )
        out = apply_delta(wg, delta)
        pairs = dict(
            zip(
                zip(out.edge_src.tolist(), out.edge_dst.tolist()),
                out.edge_weights.tolist(),
            )
        )
        assert (0, 1) not in pairs
        assert pairs[(2, 4)] == 9.0
        assert pairs[(1, 3)] == 0.5
        assert pairs[(0, 2)] == 2.0  # untouched weight intact

    def test_vertex_growth_covers_inserted_endpoints(self, g5):
        out = apply_delta(g5, EdgeDelta.build(inserts=[(4, 7)]))
        assert out.n == 8

    def test_explicit_num_vertices_grows_isolated(self, g5):
        out = apply_delta(g5, EdgeDelta.empty(num_vertices=9))
        assert out.n == 9
        assert out.num_edges == g5.num_edges

    def test_delete_of_non_edge_named(self, g5):
        with pytest.raises(ValueError, match=r"delete of a non-edge.*\(0, 4\)"):
            apply_delta(g5, EdgeDelta.build(deletes=[(0, 4)]))

    def test_update_of_non_edge_named(self, g5):
        wg = g5.with_weights(np.ones(5))
        with pytest.raises(ValueError, match=r"update of a non-edge"):
            apply_delta(wg, EdgeDelta.build(updates=[(0, 4, 1.0)]))

    def test_update_on_unweighted_rejected(self, g5):
        with pytest.raises(ValueError, match="require a weighted graph"):
            apply_delta(g5, EdgeDelta.build(updates=[(0, 1, 1.0)]))

    def test_directedness_mismatch_rejected(self, g5):
        delta = EdgeDelta.build(inserts=[(0, 3)], directed=True)
        with pytest.raises(ValueError, match="directed delta to a undirected"):
            apply_delta(g5, delta)


class TestGraphStream:
    def deltas(self):
        return [
            EdgeDelta.build(
                inserts=[(0, 1), (0, 2), (1, 2), (2, 3)], num_vertices=5
            ),
            EdgeDelta.build(inserts=[(3, 4)], deletes=[(0, 1)]),
            EdgeDelta.build(inserts=[(1, 4)]),
        ]

    def test_replay_from_empty_matches_rebuild(self):
        stream = GraphStream()
        head = stream.replay(self.deltas())
        expected = CSRGraph.from_edges(
            5, [0, 1, 1, 2, 3], [2, 2, 4, 3, 4]
        )
        assert_buffers_identical(head, expected)
        assert stream.generation == 3

    def test_ledger_chains_fingerprints(self):
        stream = GraphStream()
        deltas = self.deltas()
        stream.replay(deltas)
        records = stream.records
        assert len(records) == 4
        assert records[0].delta_id is None
        for parent, child, delta in zip(records, records[1:], deltas):
            assert child.parent_fingerprint == parent.fingerprint
            assert child.delta_id == delta.delta_id
        assert stream.head_fingerprint == graph_fingerprint(stream.head)
        assert records[-1].num_edges == stream.head.num_edges

    def test_ledger_rows_are_json_safe(self):
        import json

        stream = GraphStream()
        stream.replay(self.deltas())
        rows = stream.ledger()
        assert json.loads(json.dumps(rows)) == rows

    def test_fingerprint_stable_across_snapshot_roundtrip(self, tmp_path):
        stream = GraphStream()
        stream.replay(self.deltas())
        path = save_snapshot(stream.head, tmp_path / "head.npz")
        assert graph_fingerprint(load_snapshot(path)) == stream.head_fingerprint

    def test_same_deltas_same_fingerprints(self):
        a, b = GraphStream(), GraphStream()
        a.replay(self.deltas())
        b.replay(self.deltas())
        assert [r.fingerprint for r in a.records] == [
            r.fingerprint for r in b.records
        ]


class TestGenerationCaching:
    def test_cached_analysis_does_not_leak_across_generations(self):
        stream = GraphStream()
        stream.apply(
            EdgeDelta.build(inserts=[(0, 1), (0, 2), (1, 2)], num_vertices=4)
        )
        g1 = stream.head
        assert len(list_triangles(g1)) == 1
        assert analysis_cache().peek(g1, "triangle_list") is not None

        # Close the square into a second triangle; the new generation
        # must start cold and recount, the old keeps its cached listing.
        stream.apply(EdgeDelta.build(inserts=[(1, 3), (2, 3)]))
        g2 = stream.head
        assert g2 is not g1
        assert analysis_cache().peek(g2, "triangle_list") is None
        assert len(list_triangles(g2)) == 2
        assert len(analysis_cache().peek(g1, "triangle_list")) == 1

    def test_store_keys_cells_per_generation(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        stream = GraphStream()
        stream.apply(EdgeDelta.build(inserts=[(0, 1), (1, 2)], num_vertices=3))
        fp1 = stream.head_fingerprint
        stream.apply(EdgeDelta.build(inserts=[(0, 2)]))
        fp2 = stream.head_fingerprint

        k1 = store.cell_key(fp1, "spanner(k=4)", 0, "pagerank")
        k2 = store.cell_key(fp2, "spanner(k=4)", 0, "pagerank")
        assert k1.digest != k2.digest  # a generation never aliases another

        store.put_cells(k1, {"value": 1})
        store.put_cells(k2, {"value": 2})
        assert store.get_cells(k1)["value"] == 1
        assert store.get_cells(k2)["value"] == 2

        # An equal generation rebuilt elsewhere keys the same cell.
        twin = CSRGraph.from_edges(3, [0, 0, 1], [1, 2, 2])
        k3 = store.cell_key(graph_fingerprint(twin), "spanner(k=4)", 0, "pagerank")
        assert k3.digest == k2.digest


class TestFaultedApply:
    def test_faulted_apply_leaves_stream_unchanged(self, g5):
        from repro.faults import FaultPlan, FaultSpec, InjectedFault, injected_faults

        stream = GraphStream(g5)
        head_before = stream.head
        ledger_before = stream.ledger()
        delta = EdgeDelta.build(inserts=[(2, 4)])
        plan = FaultPlan(faults=(FaultSpec("stream.apply"),))
        with injected_faults(plan):
            with pytest.raises(InjectedFault):
                stream.apply(delta)
        # The fault fired before any mutation: same head object, same
        # ledger — the caller can retry the very same delta.
        assert stream.head is head_before
        assert stream.ledger() == ledger_before
        retried = stream.apply(delta)
        assert retried.num_edges == g5.num_edges + 1
        assert stream.generation == 1
