"""Synthetic graph generators.

The paper evaluates on SNAP/KONECT/DIMACS/WebGraph datasets that are not
redistributable here (no network access), so every experiment runs on
synthetic stand-ins produced by this module.  The generators are chosen to
span the structural axes the paper's evaluation varies deliberately:

- **degree law** — RMAT/Kronecker for power-law social and web graphs
  (Figs. 7, 8),
- **triangle density** — Holme–Kim power-law-cluster graphs with a tunable
  triangle-formation probability, matching the paper's selection of graphs
  by triangles-per-vertex T/n (1052 / 80 / 20 in Fig. 5),
- **sparsity / regularity** — 2-D grids for road networks (v-usa; TR gives
  ~no compression there, §7.1), Watts–Strogatz for locally clustered
  graphs, Erdős–Rényi as the triangle-poor control.

All generators are fully deterministic given ``seed`` and return undirected
:class:`~repro.graphs.csr.CSRGraph` objects unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_integer,
    check_nonnegative,
    check_positive,
    check_probability,
)

__all__ = [
    "erdos_renyi",
    "rmat",
    "powerlaw_cluster",
    "watts_strogatz",
    "grid_2d",
    "road_network",
    "complete_graph",
    "star_graph",
    "path_graph",
    "cycle_graph",
    "balanced_tree",
    "triangle_strip",
    "disjoint_union",
]


def erdos_renyi(n: int, *, p: float | None = None, m: int | None = None, seed=None) -> CSRGraph:
    """G(n, p) or G(n, m) random graph.

    Exactly one of ``p``/``m`` must be given.  G(n, m) draws ``m`` distinct
    edges uniformly; G(n, p) uses the same routine with ``m ~ Binomial``,
    which is indistinguishable in distribution and avoids materializing all
    n² pairs.
    """
    check_positive(n, "n")
    rng = as_generator(seed)
    if (p is None) == (m is None):
        raise ValueError("specify exactly one of p or m (p and m are mutually exclusive)")
    total_pairs = n * (n - 1) // 2
    if p is not None:
        check_probability(p, "p")
        m = int(rng.binomial(total_pairs, p)) if total_pairs else 0
    else:
        check_integer(m, "m")
        check_nonnegative(m, "m")
    if m > total_pairs:
        raise ValueError(f"m={m} exceeds the number of vertex pairs {total_pairs}")
    # Sample distinct pair ranks without replacement, decode to (u, v).
    if m == 0:
        return CSRGraph.empty(n)
    ranks = rng.choice(total_pairs, size=m, replace=False)
    u, v = _decode_pair_ranks(np.sort(ranks), n)
    return CSRGraph(n, u, v)


def _decode_pair_ranks(ranks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map lexicographic ranks of pairs (u < v) back to endpoints.

    Rank of (u, v) is u*n - u*(u+1)/2 + (v - u - 1).  Invert with the
    quadratic formula, vectorized.
    """
    r = ranks.astype(np.float64)
    # Rows have sizes n-1, n-2, ...; rank of (u, u+1) is
    # row_start(u) = u*(n-1) - u*(u-1)/2.  Invert via the quadratic formula,
    # then repair float rounding at row boundaries in both directions.
    u = np.floor(((2 * n - 1) - np.sqrt((2 * n - 1) ** 2 - 8 * r)) / 2).astype(np.int64)
    u = np.clip(u, 0, n - 2)

    def row_start(x):
        return x * (n - 1) - x * (x - 1) // 2

    for _ in range(2):
        u[row_start(u) > ranks] -= 1
        u[row_start(u + 1) <= ranks] += 1
    v = (ranks - row_start(u)) + u + 1
    return u, v.astype(np.int64)


def rmat(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=None,
    directed: bool = False,
) -> CSRGraph:
    """Recursive-MATrix (Kronecker) power-law graph; Graph500 parameters.

    ``n = 2**scale`` vertices and ``edge_factor * n`` generated arcs (the
    final edge count is lower after dedup/self-loop removal, as in Graph500).
    The skewed quadrant probabilities produce the heavy-tailed degree
    distributions of the paper's web/social datasets.
    """
    for value, name in ((scale, "scale"), (edge_factor, "edge_factor")):
        check_integer(value, name)
        check_positive(value, name)
    d = 1.0 - a - b - c
    if d < -1e-9 or min(a, b, c) < 0:
        raise ValueError(
            "RMAT probabilities a, b, c must be nonnegative and sum to <= 1, "
            f"got a={a}, b={b}, c={c}"
        )
    rng = as_generator(seed)
    n = 1 << scale
    m = edge_factor * n
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(m)
        src <<= 1
        dst <<= 1
        # Quadrants: a=(0,0), b=(0,1), c=(1,0), d=(1,1).
        go_b = (r >= a) & (r < a + b)
        go_c = (r >= a + b) & (r < a + b + c)
        go_d = r >= a + b + c
        dst += (go_b | go_d).astype(np.int64)
        src += (go_c | go_d).astype(np.int64)
    # Permute vertex labels so degree is not correlated with id.
    perm = rng.permutation(n)
    return CSRGraph.from_edges(n, perm[src], perm[dst], directed=directed)


def powerlaw_cluster(n: int, m_attach: int, triangle_p: float, *, seed=None) -> CSRGraph:
    """Holme–Kim power-law graph with tunable triangle density.

    Like Barabási–Albert, but after each preferential attachment a triangle
    is closed with probability ``triangle_p`` by also linking to a random
    neighbor of the chosen target.  Sweeping ``triangle_p`` reproduces the
    paper's axis of triangles-per-vertex (T/n), which drives how much
    Triangle Reduction can compress.
    """
    check_positive(n, "n")
    check_positive(m_attach, "m_attach")
    check_probability(triangle_p, "triangle_p")
    if m_attach >= n:
        raise ValueError(f"m_attach must be < n, got m_attach={m_attach} with n={n}")
    rng = as_generator(seed)
    src: list[int] = []
    dst: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    repeated: list[int] = []

    def connect(v: int, t: int) -> None:
        src.append(v)
        dst.append(t)
        adj[v].append(t)
        adj[t].append(v)
        repeated.append(v)
        repeated.append(t)

    for t in range(m_attach):
        connect(m_attach, t)
    for v in range(m_attach + 1, n):
        added = 0
        mine = set()
        while added < m_attach:
            t = repeated[rng.integers(0, len(repeated))]
            if t == v or t in mine:
                continue
            connect(v, t)
            mine.add(t)
            added += 1
            # Triangle-formation step.
            if added < m_attach and adj[t] and rng.random() < triangle_p:
                w = adj[t][rng.integers(0, len(adj[t]))]
                if w != v and w not in mine:
                    connect(v, w)
                    mine.add(w)
                    added += 1
    return CSRGraph.from_edges(n, np.array(src), np.array(dst))


def watts_strogatz(n: int, k: int, beta: float, *, seed=None) -> CSRGraph:
    """Small-world ring lattice with rewiring probability ``beta``.

    High clustering at low ``beta``; used as a locally-dense, low-degree
    contrast to power-law graphs.
    """
    check_positive(n, "n")
    if k <= 0 or k >= n:
        raise ValueError(f"k must satisfy 0 < k < n, got k={k} with n={n}")
    if k % 2:
        raise ValueError(f"k must be even (each vertex links k/2 hops each way), got k={k}")
    check_probability(beta, "beta")
    rng = as_generator(seed)
    base = np.arange(n, dtype=np.int64)
    src_parts, dst_parts = [], []
    for hop in range(1, k // 2 + 1):
        src_parts.append(base)
        dst_parts.append((base + hop) % n)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    rewire = rng.random(len(src)) < beta
    dst = dst.copy()
    dst[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    return CSRGraph.from_edges(n, src, dst)


def grid_2d(rows: int, cols: int, *, diagonals: bool = False) -> CSRGraph:
    """Rectangular grid; the road-network stand-in (v-usa) skeleton.

    Grids are triangle-free unless ``diagonals=True``, reproducing the
    paper's observation that TR cannot compress very sparse road networks.
    """
    check_positive(rows, "rows")
    check_positive(cols, "cols")
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    parts = [right, down]
    if diagonals:
        parts.append(np.stack([idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()]))
    src = np.concatenate([p[0] for p in parts])
    dst = np.concatenate([p[1] for p in parts])
    return CSRGraph.from_edges(rows * cols, src, dst)


def road_network(rows: int, cols: int, *, drop_p: float = 0.05, seed=None) -> CSRGraph:
    """Weighted grid with random dropouts — a v-usa-style road network.

    Edge weights are drawn uniformly from [1, 10] as segment lengths; a few
    edges are removed so the graph is not perfectly regular.
    """
    check_probability(drop_p, "drop_p")
    rng = as_generator(seed)
    g = grid_2d(rows, cols)
    keep = rng.random(g.num_edges) >= drop_p
    g = g.keep_edges(keep)
    w = rng.uniform(1.0, 10.0, size=g.num_edges)
    return g.with_weights(w)


def complete_graph(n: int) -> CSRGraph:
    """K_n: every triangle-rich bound-check's favourite worst case."""
    check_positive(n, "n")
    u, v = np.triu_indices(n, k=1)
    return CSRGraph(n, u.astype(np.int64), v.astype(np.int64))


def star_graph(n: int) -> CSRGraph:
    """K_{1,n-1}: hub vertex 0.  All leaves are degree-1 (vertex kernels)."""
    check_positive(n, "n")
    if n == 1:
        return CSRGraph.empty(1)
    centers = np.zeros(n - 1, dtype=np.int64)
    leaves = np.arange(1, n, dtype=np.int64)
    return CSRGraph(n, centers, leaves)


def path_graph(n: int) -> CSRGraph:
    check_positive(n, "n")
    base = np.arange(n - 1, dtype=np.int64)
    return CSRGraph(n, base, base + 1)


def cycle_graph(n: int) -> CSRGraph:
    if n < 3:
        raise ValueError(f"n must be >= 3 for a cycle, got n={n}")
    base = np.arange(n, dtype=np.int64)
    return CSRGraph.from_edges(n, base, (base + 1) % n)


def balanced_tree(branching: int, height: int) -> CSRGraph:
    """Complete ``branching``-ary tree of the given height."""
    check_positive(branching, "branching")
    if height < 0:
        raise ValueError(f"height must be >= 0, got height={height}")
    n = (branching ** (height + 1) - 1) // (branching - 1) if branching > 1 else height + 1
    child = np.arange(1, n, dtype=np.int64)
    parent = (child - 1) // branching
    return CSRGraph(n, np.minimum(parent, child), np.maximum(parent, child))


def triangle_strip(num_triangles: int) -> CSRGraph:
    """A strip of edge-disjoint-ish triangles sharing consecutive vertices.

    Vertices 0..num_triangles+1; triangle i = (i, i+1, i+2).  Handy for
    exact TR bound checks (every edge is in at most 2 triangles).
    """
    check_positive(num_triangles, "num_triangles")
    n = num_triangles + 2
    base = np.arange(num_triangles, dtype=np.int64)
    src = np.concatenate([base, base + 1, base])
    dst = np.concatenate([base + 1, base + 2, base + 2])
    return CSRGraph.from_edges(n, src, dst)


def disjoint_union(*graphs: CSRGraph) -> CSRGraph:
    """Disjoint union with vertex ids shifted; preserves weights."""
    if not graphs:
        return CSRGraph.empty(0)
    directed = graphs[0].directed
    if any(g.directed != directed for g in graphs):
        raise ValueError("cannot union directed with undirected graphs")
    offsets = np.cumsum([0] + [g.n for g in graphs])
    src = np.concatenate([g.edge_src + off for g, off in zip(graphs, offsets)])
    dst = np.concatenate([g.edge_dst + off for g, off in zip(graphs, offsets)])
    weighted = any(g.is_weighted for g in graphs)
    w = None
    if weighted:
        w = np.concatenate(
            [
                g.edge_weights if g.is_weighted else np.ones(g.num_edges)
                for g in graphs
            ]
        )
    return CSRGraph(int(offsets[-1]), src, dst, w, directed=directed)
