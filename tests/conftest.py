"""Shared fixtures: small deterministic graphs spanning the structural
regimes the paper's evaluation varies (triangle-rich, power-law, grid/road,
random)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.weights import with_uniform_weights


@pytest.fixture
def tiny() -> CSRGraph:
    """The 5-vertex example graph used in hand-checked assertions.

        0 - 1
        | / |      triangle (0,1,2), square side (1,3), pendant (3,4)
        2   3 - 4
    """
    return CSRGraph.from_edges(5, [0, 0, 1, 1, 3], [1, 2, 2, 3, 4])


@pytest.fixture
def er300() -> CSRGraph:
    return gen.erdos_renyi(300, m=900, seed=11)


@pytest.fixture
def plc300() -> CSRGraph:
    """Triangle-rich power-law cluster graph (the s-cds regime)."""
    return gen.powerlaw_cluster(300, 5, 0.7, seed=7)


@pytest.fixture
def grid10() -> CSRGraph:
    """Triangle-free grid (the road-network regime)."""
    return gen.grid_2d(10, 10)


@pytest.fixture
def weighted300(er300) -> CSRGraph:
    return with_uniform_weights(er300, 1.0, 10.0, seed=5)


@pytest.fixture
def star20() -> CSRGraph:
    return gen.star_graph(20)


def to_networkx(g: CSRGraph):
    import networkx as nx

    nxg = nx.DiGraph() if g.directed else nx.Graph()
    nxg.add_nodes_from(range(g.n))
    if g.is_weighted:
        nxg.add_weighted_edges_from(
            zip(g.edge_src.tolist(), g.edge_dst.tolist(), g.edge_weights.tolist())
        )
    else:
        nxg.add_edges_from(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
    return nxg


@pytest.fixture
def nx_of():
    return to_networkx


def rewrite_baseline_meta(path, **changes) -> None:
    """Rewrite fields of a stored baseline record's ``meta`` in place,
    keeping its value (``key=`` replaces the whole key)."""
    import json

    with np.load(path) as data:
        value, meta = data["value"], json.loads(str(data["meta"]))
    meta.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, value=value, meta=np.array(json.dumps(meta)))
