"""Property-based tests of CSR structural invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.csr import MAX_KEYED_VERTICES, CSRGraph


@st.composite
def raw_edge_lists(draw, max_n=30, max_m=120):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, src, dst


@given(raw_edge_lists())
@settings(max_examples=80, deadline=None)
def test_from_edges_invariants(data):
    n, src, dst = data
    g = CSRGraph.from_edges(n, src, dst)
    g.validate()
    # No duplicates, no self-loops, canonical orientation.
    assert np.all(g.edge_src < g.edge_dst)
    keys = g.edge_src * np.int64(n) + g.edge_dst
    assert len(np.unique(keys)) == g.num_edges
    # Degree sum = 2m.
    assert int(g.degrees.sum()) == 2 * g.num_edges
    # Every input non-loop pair is present.
    for u, v in zip(src, dst):
        if u != v:
            assert g.has_edge(u, v)


@given(raw_edge_lists(), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_keep_edges_is_subgraph(data, seed):
    n, src, dst = data
    g = CSRGraph.from_edges(n, src, dst)
    rng = np.random.default_rng(seed)
    mask = rng.random(g.num_edges) < 0.5
    sub = g.keep_edges(mask)
    sub.validate()
    assert sub.n == g.n
    assert sub.num_edges == int(mask.sum())
    # Subgraph property: every kept edge exists in the original.
    for u, v in zip(sub.edge_src, sub.edge_dst):
        assert g.has_edge(int(u), int(v))
    # Degrees can only drop.
    assert np.all(sub.degrees <= g.degrees)


@given(raw_edge_lists())
@settings(max_examples=50, deadline=None)
def test_edge_id_cross_reference(data):
    n, src, dst = data
    g = CSRGraph.from_edges(n, src, dst)
    for v in range(min(g.n, 10)):
        for u, e in zip(g.neighbors(v), g.incident_edge_ids(v)):
            assert {int(g.edge_src[e]), int(g.edge_dst[e])} == {v, int(u)}


@given(raw_edge_lists(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_remove_vertices_consistency(data, seed):
    n, src, dst = data
    g = CSRGraph.from_edges(n, src, dst)
    rng = np.random.default_rng(seed)
    victims = np.flatnonzero(rng.random(n) < 0.3)
    kept_ids = g.remove_vertices(victims)
    relabeled = g.remove_vertices(victims, relabel=True)
    assert kept_ids.num_edges == relabeled.num_edges
    assert kept_ids.n == g.n
    assert relabeled.n == g.n - len(victims)
    # No surviving edge touches a victim.
    gone = set(victims.tolist())
    for u, v in zip(kept_ids.edge_src, kept_ids.edge_dst):
        assert int(u) not in gone and int(v) not in gone


@given(raw_edge_lists())
@settings(max_examples=40, deadline=None)
def test_scipy_roundtrip_degrees(data):
    n, src, dst = data
    g = CSRGraph.from_edges(n, src, dst)
    mat = g.to_scipy()
    row_nnz = np.diff(mat.indptr)
    assert np.array_equal(row_nnz, g.degrees)


# --------------------------------------------------------------------- #
# from_edges builds its adjacency from the sorted, deduplicated edges.
# --------------------------------------------------------------------- #

_BUFFERS = ("indptr", "indices", "arc_edge_ids", "edge_src", "edge_dst")


def _cleaned_reference(src, dst, weights, directed, dedup):
    """Self-loops dropped, endpoints canonicalized, duplicates merged in
    input order, edges sorted by (src, dst): plain Python."""
    merged: dict[tuple[int, int], float] = {}
    for i, (u, v) in enumerate(zip(src, dst)):
        if u == v:
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        w = 1.0 if weights is None else float(weights[i])
        if key not in merged:
            merged[key] = w
        elif dedup == "sum":
            merged[key] += w
        elif dedup == "min":
            merged[key] = min(merged[key], w)
        elif dedup == "max":
            merged[key] = max(merged[key], w)
    keys = sorted(merged)
    return (
        np.array([u for u, _ in keys], dtype=np.int64),
        np.array([v for _, v in keys], dtype=np.int64),
        None if weights is None else np.array([merged[k] for k in keys]),
    )


def _assert_from_edges_identity(n, src, dst, weights=None, *, directed, dedup="first"):
    g = CSRGraph.from_edges(n, src, dst, weights, directed=directed, dedup=dedup)
    ref_src, ref_dst, ref_w = _cleaned_reference(src, dst, weights, directed, dedup)
    ref = CSRGraph(n, ref_src, ref_dst, ref_w, directed=directed)
    for name in _BUFFERS:
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    if ref_w is None:
        assert g.edge_weights is None
    else:
        assert g.edge_weights.dtype == np.float64
        assert np.array_equal(g.edge_weights, ref_w)
    assert g.n == ref.n and g.directed == ref.directed
    g.validate()


class TestFromEdgesIdentity:
    """``from_edges`` is buffer-identical to the constructor's lexsort
    build of the same cleaned edges."""

    @given(raw_edge_lists(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_unweighted(self, data, directed):
        n, src, dst = data
        _assert_from_edges_identity(n, src, dst, directed=directed)

    @pytest.mark.parametrize("dedup", ["first", "sum", "min", "max"])
    @given(data=raw_edge_lists(), directed=st.booleans(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weighted_every_dedup(self, dedup, data, directed, seed):
        n, src, dst = data
        weights = np.random.default_rng(seed).random(len(src)) * 10
        _assert_from_edges_identity(
            n, src, dst, weights, directed=directed, dedup=dedup
        )

    @pytest.mark.parametrize("directed", [False, True])
    def test_duplicates_and_self_loops(self, directed):
        src = [3, 1, 1, 2, 2, 0, 3, 1, 4]
        dst = [1, 3, 3, 2, 0, 2, 1, 1, 0]
        weights = [0.5, 1.25, 2.0, 9.0, 0.1, 0.2, 3.0, 7.0, 1.0]
        for dedup in ("first", "sum", "min", "max"):
            _assert_from_edges_identity(
                5, src, dst, weights, directed=directed, dedup=dedup
            )
        _assert_from_edges_identity(5, src, dst, directed=directed)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_edgeless(self, n, directed):
        _assert_from_edges_identity(n, [], [], directed=directed)
        _assert_from_edges_identity(n, [], [], [], directed=directed)
        if n:
            # Only self-loops: all dropped.
            _assert_from_edges_identity(n, [0, 0], [0, 0], directed=directed)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize(
        "src, dst", [([0, 5], [1, 2]), ([0, 1], [1, 5]), ([-1, 0], [2, 1])]
    )
    def test_out_of_range_endpoints_raise(self, src, dst, directed):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges(5, src, dst, directed=directed)

    def test_negative_num_vertices_raises(self):
        with pytest.raises(ValueError, match="num_vertices must be >= 0"):
            CSRGraph.from_edges(-1, [], [])

    @pytest.mark.parametrize("directed", [False, True])
    def test_key_overflow_bound_names_num_vertices(self, directed):
        big = MAX_KEYED_VERTICES + 1
        assert (big - 1) * big + (big - 1) > 2**63 - 1
        assert (MAX_KEYED_VERTICES - 1) * MAX_KEYED_VERTICES + MAX_KEYED_VERTICES - 1 <= 2**63 - 1
        with pytest.raises(ValueError, match=f"num_vertices={big}"):
            CSRGraph.from_edges(big, [0], [1], directed=directed)
