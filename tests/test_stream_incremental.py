"""Incremental recompression: maintained outputs must equal recompression.

Two maintainers, three contracts:

- attach (and every churn-triggered full rebuild) is *bit-identical* to
  the batch scheme at the same seed — the EO-TR repair path shares the
  batch RNG discipline, not merely its distribution;
- across generations the metamorphic invariant
  ``recompress(apply(G, Δ)) ≡ incremental(G, Δ)`` holds — exactly for
  every scheme maintained by :class:`Recompress`, contract-level
  (subgraph invariants + #CC) for the repairing EO triangle reduction;
- churn above the threshold makes EO-TR fall back to a full rebuild, and
  the stats ledger records which path ran.
"""

import numpy as np
import pytest

from repro.compress.spanner import Spanner
from repro.compress.triangle_reduction import TriangleReduction
from repro.compress.vertex_filters import LowDegreeVertexRemoval
from repro.graphs import generators as gen
from repro.graphs.weights import with_uniform_weights
from repro.stream.delta import EdgeDelta
from repro.stream.incremental import (
    IncrementalTriangleReduction,
    Recompress,
    maintainer_for,
)
from repro.stream.ingest import GraphStream
from repro.verify import properties
from repro.verify.fuzz import DELTA_FAMILIES


@pytest.fixture
def base():
    return gen.powerlaw_cluster(120, 3, 0.4, seed=3)


SPECS = ["spanner(k=4)", "EO-0.8-1-TR", "low_degree"]
BATCH = {
    "spanner(k=4)": lambda: Spanner(4),
    "EO-0.8-1-TR": lambda: TriangleReduction(0.8, x=1, variant="edge_once"),
    "low_degree": lambda: LowDegreeVertexRemoval(),
}


def assert_buffers_identical(a, b):
    assert a.n == b.n and a.directed == b.directed
    for name in ("edge_src", "edge_dst", "indptr", "indices", "arc_edge_ids"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.edge_weights is None) == (b.edge_weights is None)
    if a.edge_weights is not None:
        assert np.array_equal(a.edge_weights, b.edge_weights)


class TestAttachParity:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_attach_is_bit_identical_to_batch(self, base, spec, seed):
        maintainer = maintainer_for(spec, seed=seed)
        maintainer.attach(base)
        batch = BATCH[spec]().compress(base, seed=seed).graph
        assert_buffers_identical(maintainer.compressed, batch)

    def test_result_carries_incremental_extras(self, base):
        m = maintainer_for("low_degree")
        m.attach(base)
        result = m.result()
        assert result.extras["incremental"] is True
        assert {"repairs", "full_rebuilds"} <= set(result.extras)


#: (scheme, base graph) pairs maintained by recompressing per generation.
RECOMPRESSED = {
    "spanner": (Spanner(4), lambda b: b),
    "weighted_spanner": (
        Spanner(4, weighted=True),
        lambda b: with_uniform_weights(b, 1.0, 10.0, seed=1),
    ),
    "directed_spanner": (
        Spanner(3),
        lambda b: gen.rmat(7, 4, seed=0, directed=True),
    ),
    "low_degree": (LowDegreeVertexRemoval(), lambda b: b),
    "basic_tr": (
        TriangleReduction(0.5, x=2, variant="basic"),
        lambda b: b,
    ),
}


class TestMetamorphicEquivalence:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("family", sorted(DELTA_FAMILIES))
    def test_invariant_over_delta_families(self, base, spec, family):
        deltas = DELTA_FAMILIES[family](base, 5)
        assert properties.incremental_equivalence(base, deltas, spec, seed=5) == []

    @pytest.mark.parametrize("name", sorted(RECOMPRESSED))
    def test_recompress_exact_across_generations(self, base, name):
        # After every generation the maintained output equals a fresh
        # batch run of the same scheme and seed.
        scheme, graph = RECOMPRESSED[name]
        g0 = graph(base)
        maintainer = maintainer_for(scheme, seed=3)
        assert isinstance(maintainer, Recompress)
        stream = GraphStream(g0)
        maintainer.attach(g0)
        deltas = DELTA_FAMILIES["churn"](g0, 9)
        for delta in deltas:
            g = stream.apply(delta)
            maintainer.update(delta, g)
            batch = scheme.compress(g, seed=3).graph
            assert_buffers_identical(maintainer.compressed, batch)
        assert maintainer.stats == {"repairs": 0, "full_rebuilds": len(deltas)}


class TestChurnFallback:
    def test_large_delta_forces_full_rebuild(self, base):
        maintainer = IncrementalTriangleReduction(
            0.8, seed=0, churn_threshold=0.01
        )
        stream = GraphStream(base)
        maintainer.attach(base)
        delta = DELTA_FAMILIES["churn"](base, 0)[0]  # 12 ops >> 1% of m
        maintainer.update(delta, stream.apply(delta))
        assert maintainer.stats == {"repairs": 0, "full_rebuilds": 1}
        # ... and the rebuild equals the batch scheme on the new head.
        batch = BATCH["EO-0.8-1-TR"]().compress(stream.head, seed=0).graph
        assert_buffers_identical(maintainer.compressed, batch)

    def test_small_delta_repairs(self, base):
        maintainer = IncrementalTriangleReduction(
            0.8, seed=0, churn_threshold=0.25
        )
        stream = GraphStream(base)
        maintainer.attach(base)
        delta = EdgeDelta.build(deletes=[(int(base.edge_src[0]), int(base.edge_dst[0]))])
        maintainer.update(delta, stream.apply(delta))
        assert maintainer.stats == {"repairs": 1, "full_rebuilds": 0}


class TestDispatchAndGuards:
    def test_maintainer_for_dispatch(self):
        assert isinstance(
            maintainer_for("EO-0.5-1-TR"), IncrementalTriangleReduction
        )
        for spec in ("spanner(k=3)", "low_degree", "uniform(p=0.5)"):
            m = maintainer_for(spec)
            assert isinstance(m, Recompress)
            assert m.deterministic and m.scheme_name == spec.split("(")[0]

    def test_other_variants_recompress(self):
        for scheme in (
            TriangleReduction(0.5, x=2, variant="basic"),
            Spanner(4, weighted=True),
            LowDegreeVertexRemoval(relabel=True),
        ):
            m = maintainer_for(scheme)
            assert isinstance(m, Recompress) and m.scheme is scheme
            assert m.params() == scheme.params()

    def test_directed_graphs_rejected(self):
        g = gen.rmat(5, 4, seed=0, directed=True)
        with pytest.raises(ValueError, match="undirected"):
            maintainer_for("EO-0.8-1-TR").attach(g)

    def test_update_before_attach_rejected(self):
        m = maintainer_for("low_degree")
        with pytest.raises(RuntimeError, match="attach"):
            m.result()
