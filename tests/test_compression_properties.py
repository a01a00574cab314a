"""Hypothesis property tests over the compression schemes.

Invariants checked for randomized inputs:

- every edge-deleting scheme returns a *subgraph* on the same vertex set;
- same seed ⇒ bit-identical output (full determinism);
- the edge-once delete mask equals the sequential reference semantics;
- lossless summarization round-trips arbitrary graphs;
- compression ratios live in [0, 1] and respect parameter monotonicity.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compress.spanner import Spanner
from repro.compress.spectral import SpectralSparsifier
from repro.compress.summarization import LossySummarization
from repro.compress.triangle_reduction import TriangleReduction, _edge_once_delete_mask
from repro.compress.uniform import RandomUniformSampling
from repro.graphs.csr import CSRGraph


@st.composite
def small_graphs(draw, max_n=40, max_m=150):
    n = draw(st.integers(min_value=4, max_value=max_n))
    m = draw(st.integers(min_value=3, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return CSRGraph.from_edges(n, src, dst)


SCHEMES = [
    lambda p: RandomUniformSampling(p),
    lambda p: SpectralSparsifier(p),
    lambda p: TriangleReduction(p),
    lambda p: TriangleReduction(p, variant="edge_once"),
    lambda p: Spanner(1 + 7 * p),
]


@given(small_graphs(), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_schemes_return_subgraphs(g, p, seed, which):
    scheme = SCHEMES[which](p)
    sub = scheme.compress(g, seed=seed).graph
    sub.validate()
    assert sub.n == g.n
    assert sub.num_edges <= g.num_edges
    keys = set((g.edge_src * np.int64(g.n) + g.edge_dst).tolist())
    for u, v in zip(sub.edge_src, sub.edge_dst):
        assert int(u) * g.n + int(v) in keys


@given(small_graphs(), st.floats(0.05, 0.95), st.integers(0, 2**31 - 1), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_schemes_deterministic(g, p, seed, which):
    scheme = SCHEMES[which](p)
    a = scheme.compress(g, seed=seed).graph
    b = scheme.compress(g, seed=seed).graph
    assert np.array_equal(a.edge_src, b.edge_src)
    assert np.array_equal(a.edge_dst, b.edge_dst)


@given(
    st.integers(1, 25),
    st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24)),
             max_size=40),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_edge_once_mask_matches_sequential(num_edges, events, seed):
    """The vectorized first-touch fixpoint == the sequential EO loop."""
    touched = np.array([list(e) for e in events], dtype=np.int64).reshape(-1, 3)
    touched = touched % num_edges
    rng = np.random.default_rng(seed)
    draw_slots = rng.integers(0, 3, size=(len(touched), 1))
    drawn = np.take_along_axis(touched, draw_slots, axis=1)

    considered = np.zeros(num_edges, dtype=bool)
    expected = np.zeros(num_edges, dtype=bool)
    for i in range(len(touched)):
        for e in drawn[i]:
            if not considered[e]:
                expected[e] = True
        considered[touched[i]] = True
    events = np.arange(len(touched))
    actual = _edge_once_delete_mask(num_edges, touched, events, drawn)
    assert np.array_equal(expected, actual)


@given(small_graphs(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_lossless_summary_roundtrip(g, seed):
    res = LossySummarization(0.0).compress(g, seed=seed)
    assert res.graph.num_edges == g.num_edges
    assert np.array_equal(res.graph.edge_src, g.edge_src)
    assert np.array_equal(res.graph.edge_dst, g.edge_dst)


@given(small_graphs(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_lossy_summary_respects_budgets(g, seed):
    eps = 0.5
    res = LossySummarization(eps).compress(g, seed=seed)
    # Per-vertex neighborhood error bounded by eps * degree.
    for v in range(g.n):
        sym = len(np.setxor1d(g.neighbors(v), res.graph.neighbors(v)))
        assert sym <= eps * g.degree(v) + 1e-9


@given(small_graphs(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_uniform_ratio_monotone_in_p(g, seed):
    sizes = [
        RandomUniformSampling(p).compress(g, seed=seed).graph.num_edges
        for p in (0.1, 0.5, 0.9)
    ]
    assert sizes[0] <= sizes[1] <= sizes[2]


@given(small_graphs(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_eo_tr_caps_at_one_third_plus_slack(g, seed):
    """§6.3: EO can eliminate at most ~a third of the edges."""
    res = TriangleReduction(1.0, variant="edge_once").compress(g, seed=seed)
    # Strict 1/3 holds in expectation; allow the worst-case overlap slack.
    assert res.edges_removed <= np.ceil(g.num_edges / 2) + 1
