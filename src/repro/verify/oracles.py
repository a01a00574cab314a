"""Naive reference implementations — the differential oracles.

Every function here recomputes one of the registered algorithms in the
most obviously-correct way available: plain dict/set adjacency, explicit
Python loops, no numpy vectorization tricks, no shared code with the
engine implementations under :mod:`repro.algorithms`.  Slowness is the
point — an oracle that shares clever index arithmetic with the engine
would inherit the engine's bugs.

The :data:`ORACLES` table pairs each oracle with its engine counterpart
*as run through the algorithm registry*, so the engine side of every
comparison passes through the same :mod:`repro.algorithms.adapters`
canonicalization the evaluation harness uses (scalar → ``float``,
ordering/distribution → 1-D ``float64``, traversal → raw result +
Graph500 validator).  The fuzz driver (:mod:`repro.verify.fuzz`) sweeps
this table over the generator matrix; the table is a plain dict precisely
so tests can swap in a deliberately-broken oracle and assert the harness
catches it.

Comparators return a list of human-readable mismatch strings (empty =
agreement), mirroring :func:`repro.algorithms.bfs.validate_bfs_tree`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.algorithms.bfs import bfs, validate_bfs_tree
from repro.algorithms.components import connected_components
from repro.algorithms.registry import build_algorithm
from repro.algorithms.triangles import TriangleList
from repro.compress.mappings import LDDResult, jaccard_similarity
from repro.compress.summarization import GraphSummary
from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_generator

__all__ = [
    "OracleEntry",
    "ORACLES",
    "adjacency",
    "undirected_neighbor_sets",
    "oracle_bfs_levels",
    "oracle_sssp_distances",
    "oracle_pagerank",
    "oracle_component_labels",
    "oracle_triangle_count",
    "oracle_triangles_per_vertex",
    "oracle_clustering_coefficients",
    "oracle_mst_weight",
    "oracle_core_numbers",
    "oracle_degree_counts",
    "oracle_ldd",
    "oracle_triangle_list",
    "oracle_summary",
    "oracle_decompress",
]


# --------------------------------------------------------------------- #
# dict/set adjacency — the substrate every oracle reasons over
# --------------------------------------------------------------------- #


def adjacency(g: CSRGraph) -> dict[int, list[tuple[int, float]]]:
    """Out-neighbor ``(neighbor, weight)`` lists, built edge by edge.

    Undirected graphs contribute both directions; unweighted edges read
    as weight 1.0.  This is deliberately the dumbest possible build: one
    Python loop over the canonical edge arrays.
    """
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in range(g.n)}
    weights = (
        g.edge_weights.tolist() if g.is_weighted else [1.0] * g.num_edges
    )
    for u, v, w in zip(g.edge_src.tolist(), g.edge_dst.tolist(), weights):
        adj[u].append((v, w))
        if not g.directed:
            adj[v].append((u, w))
    return adj


def undirected_neighbor_sets(g: CSRGraph) -> dict[int, set[int]]:
    """Neighbor sets ignoring direction and weights (for CC/triangles)."""
    nbr: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


# --------------------------------------------------------------------- #
# the oracles
# --------------------------------------------------------------------- #


def oracle_bfs_levels(g: CSRGraph, source: int = 0) -> list[int]:
    """BFS levels by textbook queue expansion (-1 = unreached)."""
    adj = adjacency(g)
    level = [-1] * g.n
    level[source] = 0
    queue = [source]
    while queue:
        next_queue = []
        for u in queue:
            for v, _ in adj[u]:
                if level[v] == -1:
                    level[v] = level[u] + 1
                    next_queue.append(v)
        queue = next_queue
    return level


def oracle_sssp_distances(g: CSRGraph, source: int = 0) -> list[float]:
    """Shortest-path distances by Bellman–Ford relaxation to a fixpoint.

    Deliberately *not* Dijkstra (the engine's exact reference is), so the
    oracle shares no algorithmic structure with either engine method.
    O(n·m) and obviously correct for nonnegative weights.
    """
    adj = adjacency(g)
    dist = [math.inf] * g.n
    dist[source] = 0.0
    for _ in range(g.n):
        changed = False
        for u in range(g.n):
            du = dist[u]
            if math.isinf(du):
                continue
            for v, w in adj[u]:
                if du + w < dist[v]:
                    dist[v] = du + w
                    changed = True
        if not changed:
            break
    return dist


def oracle_pagerank(
    g: CSRGraph,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 200,
) -> list[float]:
    """Power-iteration PageRank with explicit per-vertex loops.

    Replicates the engine's semantics — uniform spread over out-neighbors
    (weights ignored), dangling mass redistributed uniformly, L1
    convergence test — but through dict adjacency and Python sums.
    """
    n = g.n
    if n == 0:
        return []
    adj = adjacency(g)
    out_degree = {u: len(adj[u]) for u in range(n)}
    in_nbrs: dict[int, list[int]] = {v: [] for v in range(n)}
    for u in range(n):
        for v, _ in adj[u]:
            in_nbrs[v].append(u)
    ranks = [1.0 / n] * n
    base = (1.0 - damping) / n
    for _ in range(max_iterations):
        dangling = sum(ranks[u] for u in range(n) if out_degree[u] == 0)
        dangling_mass = damping * dangling / n
        new = [
            base
            + dangling_mass
            + damping * sum(ranks[u] / out_degree[u] for u in in_nbrs[v])
            for v in range(n)
        ]
        delta = sum(abs(a - b) for a, b in zip(new, ranks))
        ranks = new
        if delta < tol:
            break
    return ranks


def oracle_component_labels(g: CSRGraph) -> list[int]:
    """Weak-component labels (minimum vertex id) by flood fill."""
    nbr = undirected_neighbor_sets(g)
    label = [-1] * g.n
    for start in range(g.n):
        if label[start] != -1:
            continue
        stack = [start]
        members = []
        label[start] = start
        while stack:
            u = stack.pop()
            members.append(u)
            for v in nbr[u]:
                if label[v] == -1:
                    label[v] = start
                    stack.append(v)
        # Engine convention: the label is the minimum member id, which is
        # `start` by construction (vertices are visited in id order).
    return label


def oracle_triangle_count(g: CSRGraph) -> int:
    """Global triangle count: per-edge neighbor-set intersections / 3."""
    nbr = undirected_neighbor_sets(g)
    total = 0
    for u, v in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
        total += len(nbr[u] & nbr[v])
    return total // 3


def oracle_triangles_per_vertex(g: CSRGraph) -> list[int]:
    """Triangles through each vertex by ordered wedge enumeration."""
    nbr = undirected_neighbor_sets(g)
    counts = [0] * g.n
    for u in range(g.n):
        higher = {v for v in nbr[u] if v > u}
        for v in higher:
            for w in nbr[v] & higher:
                if w > v:
                    counts[u] += 1
                    counts[v] += 1
                    counts[w] += 1
    return counts


def oracle_triangle_list(g: CSRGraph) -> TriangleList:
    """Every triangle by a sorted-key wedge join with edge-id searches.

    The reference for :func:`repro.algorithms.triangles.list_triangles`:
    the same (degree, id) orientation, every wedge u→v→w materialized and
    tested against the sorted ``u·n+w`` keys of the oriented arcs, and
    each edge id found by a binary search over the canonical edge keys.
    Wedges run in arc order, so triangles come out by u, then rank v,
    then rank w — the order TR's draws index.
    """
    if g.directed:
        raise ValueError("triangle listing expects an undirected graph")
    n = np.int64(g.n)
    rank = np.argsort(np.argsort(g.degrees * n + np.arange(g.n), kind="stable"))
    forward = rank[g.indices] > rank[g.arc_heads]
    heads, tails = g.arc_heads[forward], g.indices[forward]
    order = np.lexsort((rank[tails], heads))
    arc_u, arc_v = heads[order], tails[order]
    optr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(arc_u, minlength=g.n), out=optr[1:])
    arc_keys = np.sort(arc_u * n + arc_v)
    blocks = []
    for lo in range(0, len(arc_v), 4096):
        u_blk, v_blk = arc_u[lo : lo + 4096], arc_v[lo : lo + 4096]
        counts = optr[v_blk + 1] - optr[v_blk]
        total = int(counts.sum())
        rep_starts = np.repeat(optr[v_blk], counts)
        rep_bases = np.repeat(np.cumsum(counts) - counts, counts)
        ws = arc_v[rep_starts + (np.arange(total) - rep_bases)]
        us, vs = np.repeat(u_blk, counts), np.repeat(v_blk, counts)
        want = us * n + ws
        pos = np.minimum(np.searchsorted(arc_keys, want), len(arc_keys) - 1)
        closed = arc_keys[pos] == want
        blocks.append(np.stack([us[closed], vs[closed], ws[closed]], axis=1))
    tri = np.concatenate(blocks) if blocks else np.empty((0, 3), dtype=np.int64)
    edge_keys = g.edge_src * n + g.edge_dst
    by_key = np.argsort(edge_keys)

    def edge_ids(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        want = np.minimum(a, b) * n + np.maximum(a, b)
        return by_key[np.searchsorted(edge_keys[by_key], want)]

    eids = np.stack(
        [
            edge_ids(tri[:, 0], tri[:, 1]),
            edge_ids(tri[:, 0], tri[:, 2]),
            edge_ids(tri[:, 1], tri[:, 2]),
        ],
        axis=1,
    )
    return TriangleList(vertices=tri, edge_ids=eids)


def oracle_clustering_coefficients(g: CSRGraph) -> list[float]:
    """Local clustering coefficient 2·T(v) / d(v)(d(v)−1) per vertex."""
    nbr = undirected_neighbor_sets(g)
    triangles = oracle_triangles_per_vertex(g)
    out = []
    for v in range(g.n):
        d = len(nbr[v])
        out.append(2.0 * triangles[v] / (d * (d - 1)) if d >= 2 else 0.0)
    return out


def oracle_mst_weight(g: CSRGraph) -> float:
    """Minimum-spanning-forest weight: sorted edges + dict union-find."""
    parent = {v: v for v in range(g.n)}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    weights = (
        g.edge_weights.tolist() if g.is_weighted else [1.0] * g.num_edges
    )
    edges = sorted(
        zip(weights, g.edge_src.tolist(), g.edge_dst.tolist())
    )
    total = 0.0
    for w, u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    return total


def oracle_core_numbers(g: CSRGraph) -> list[int]:
    """k-core numbers by literal repeated peeling.

    Round by round, remove every vertex whose residual degree is ≤ the
    current k; a vertex's core number is the k at which it fell.
    """
    nbr = {v: set(s) for v, s in undirected_neighbor_sets(g).items()}
    core = [0] * g.n
    remaining = set(range(g.n))
    k = 0
    while remaining:
        k = max(k, min(len(nbr[v]) for v in remaining))
        peel = [v for v in remaining if len(nbr[v]) <= k]
        while peel:
            v = peel.pop()
            if v not in remaining:
                continue
            remaining.discard(v)
            core[v] = k
            for u in nbr[v]:
                nbr[u].discard(v)
                if u in remaining and len(nbr[u]) <= k:
                    peel.append(u)
    return core


def oracle_degree_counts(g: CSRGraph) -> dict[int, int]:
    """Degree distribution as a ``{degree: vertex count}`` dict.

    Out-degrees for directed graphs, matching ``CSRGraph.degrees``.
    """
    adj = adjacency(g)
    counts: dict[int, int] = {}
    for v in range(g.n):
        d = len(adj[v])
        counts[d] = counts.get(d, 0) + 1
    return counts


def oracle_ldd(
    g: CSRGraph, beta: float, *, seed=None, weighted: bool = False
) -> LDDResult:
    """Exponential-shift LDD as one heap Dijkstra from a virtual source.

    The reference for :func:`repro.compress.mappings.
    low_diameter_decomposition`: same shift draw, and the heap's
    ``(d, v, center, edge)`` tuple order is the tie order the frontier
    rounds must reproduce bit for bit.  One push and pop per arc.
    """
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    rng = as_generator(seed)
    n = g.n
    use_weights = weighted and g.is_weighted
    scale = (
        float(g.edge_weights.mean()) if use_weights and g.num_edges else 1.0
    )
    shifts = rng.exponential(scale / beta, size=n)
    start = shifts.max() - shifts if n else shifts
    mapping = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    heap: list[tuple[float, int, int, int]] = []
    for v in range(n):
        heapq.heappush(heap, (float(start[v]), v, v, -1))
    while heap:
        d, v, center, via_edge = heapq.heappop(heap)
        if mapping[v] != -1:
            continue
        mapping[v] = center
        parent_edge[v] = via_edge
        dist[v] = d
        row = g.neighbors(v)
        eids = g.incident_edge_ids(v)
        if use_weights:
            wts = g.edge_weights[eids]
        for i, (u, e) in enumerate(zip(row, eids)):
            if mapping[u] == -1:
                step = float(wts[i]) if use_weights else 1.0
                heapq.heappush(heap, (d + step, int(u), center, int(e)))
    # Centers are vertices whose own wave claimed them.
    centers_mask = mapping == np.arange(n)
    parent_edge[centers_mask] = -1
    # Compact cluster ids.
    uniq, compact = np.unique(mapping, return_inverse=True)
    return LDDResult(
        mapping=compact.astype(np.int64),
        centers=uniq,
        parent_edge_ids=parent_edge,
        num_clusters=len(uniq),
    )


def oracle_summary(
    g: CSRGraph,
    *,
    epsilon: float,
    threshold: float = 0.3,
    max_cluster_size: int = 32,
    num_hashes: int = 2,
    seed=None,
) -> GraphSummary:
    """ε-summary by per-pair Jaccard calls and per-block set scans.

    The reference for :meth:`repro.compress.summarization.
    LossySummarization.summarize`: the same RNG draws in the same order
    (minhash permutations, then one permutation per non-empty correction
    list), so the engine's mapping, superedges and both correction lists
    must match this one element for element.
    """
    rng = as_generator(seed)
    mapping = _oracle_minhash_clustering(
        g,
        threshold=threshold,
        max_cluster_size=max_cluster_size,
        num_hashes=num_hashes,
        rng=rng,
    )
    summary = _oracle_encode(g, mapping)
    if epsilon == 0.0:
        return summary
    budget = np.floor(epsilon * g.degrees).astype(np.int64)

    def filter_pairs(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        if not pairs:
            return pairs
        kept = []
        order = rng.permutation(len(pairs))
        for i in order:
            u, v = pairs[i]
            if budget[u] > 0 and budget[v] > 0:
                budget[u] -= 1
                budget[v] -= 1
            else:
                kept.append((u, v))
        return kept

    summary.corrections_minus = filter_pairs(summary.corrections_minus)
    summary.corrections_plus = filter_pairs(summary.corrections_plus)
    return summary


def _oracle_minhash_clustering(
    g: CSRGraph, *, threshold, max_cluster_size, num_hashes, rng
) -> np.ndarray:
    n = g.n
    cluster = np.arange(n, dtype=np.int64)
    if n == 0:
        return cluster
    perms = [rng.permutation(n) for _ in range(num_hashes)]
    sig_parts = np.empty((num_hashes, n), dtype=np.int64)
    heads = np.repeat(np.arange(n), np.diff(g.indptr))
    for h, perm in enumerate(perms):
        sig = perm.copy()
        has_nbr = g.degrees > 0
        sig[has_nbr] = np.iinfo(np.int64).max
        np.minimum.at(sig, heads, perm[g.indices])
        sig_parts[h] = sig
    signature = sig_parts[0]
    for h in range(1, num_hashes):
        signature = signature * np.int64(n) + sig_parts[h]
    order = np.argsort(signature, kind="stable")
    sig_sorted = signature[order]
    boundaries = np.flatnonzero(np.diff(sig_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [n]])
    for s, e in zip(starts, ends):
        group = order[s:e]
        if len(group) < 2:
            continue
        seeds: list[int] = []
        sizes: dict[int, int] = {}
        for v in group:
            v = int(v)
            joined = False
            for sd in seeds:
                if sizes[sd] >= max_cluster_size:
                    continue
                if jaccard_similarity(g, sd, v) >= threshold:
                    cluster[v] = sd
                    sizes[sd] += 1
                    joined = True
                    break
            if not joined:
                seeds.append(v)
                sizes[v] = 1
    uniq, compact = np.unique(cluster, return_inverse=True)
    return compact.astype(np.int64)


def _oracle_members(mapping: np.ndarray) -> list[np.ndarray]:
    order = np.argsort(mapping, kind="stable")
    svs = mapping[order]
    bounds = np.flatnonzero(np.diff(svs)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(order)]])
    num_supervertices = int(mapping.max()) + 1 if len(mapping) else 0
    out = [np.empty(0, dtype=np.int64)] * num_supervertices
    for s, e in zip(starts, ends):
        out[int(svs[s])] = order[s:e]
    return out


def _oracle_encode(g: CSRGraph, mapping: np.ndarray) -> GraphSummary:
    summary = GraphSummary(num_vertices=g.n, mapping=mapping)
    sizes = np.bincount(mapping, minlength=int(mapping.max()) + 1 if len(mapping) else 0)
    cs, cd = mapping[g.edge_src], mapping[g.edge_dst]
    lo = np.minimum(cs, cd)
    hi = np.maximum(cs, cd)
    C = np.int64(len(sizes))
    keys = lo * C + hi
    order = np.argsort(keys, kind="stable")
    members = _oracle_members(mapping)
    boundaries = np.flatnonzero(np.diff(keys[order])) + 1
    starts = np.concatenate([[0], boundaries]) if len(order) else []
    ends = np.concatenate([boundaries, [len(order)]]) if len(order) else []
    for s, e in zip(starts, ends):
        eids = order[s:e]
        a = int(lo[eids[0]])
        b = int(hi[eids[0]])
        if a == b:
            possible = int(sizes[a]) * (int(sizes[a]) - 1) // 2
        else:
            possible = int(sizes[a]) * int(sizes[b])
        present_count = len(eids)
        if possible and present_count > (possible + 1) // 2 + 1:
            summary.superedges.append((a, b))
            present = set(
                zip(g.edge_src[eids].tolist(), g.edge_dst[eids].tolist())
            )
            ma, mb = members[a], members[b]
            if a == b:
                iu, iv = np.triu_indices(len(ma), k=1)
                cand_u, cand_v = ma[iu], ma[iv]
            else:
                cand_u = np.repeat(ma, len(mb))
                cand_v = np.tile(mb, len(ma))
            for u, v in zip(cand_u.tolist(), cand_v.tolist()):
                pair = (u, v) if u < v else (v, u)
                if pair not in present:
                    summary.corrections_minus.append(pair)
        else:
            summary.corrections_plus.extend(
                zip(g.edge_src[eids].tolist(), g.edge_dst[eids].tolist())
            )
    return summary


def oracle_decompress(summary: GraphSummary) -> CSRGraph:
    """Expand a summary one superedge at a time: the reference for
    :meth:`repro.compress.summarization.GraphSummary.decompress`."""
    members = _oracle_members(summary.mapping)
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    for a, b in summary.superedges:
        ma, mb = members[a], members[b]
        if a == b:
            if len(ma) >= 2:
                iu, iv = np.triu_indices(len(ma), k=1)
                src_parts.append(ma[iu])
                dst_parts.append(ma[iv])
        else:
            src_parts.append(np.repeat(ma, len(mb)))
            dst_parts.append(np.tile(mb, len(ma)))
    if summary.corrections_plus:
        cp = np.array(summary.corrections_plus, dtype=np.int64)
        src_parts.append(cp[:, 0])
        dst_parts.append(cp[:, 1])
    if not src_parts:
        return CSRGraph.empty(summary.num_vertices)
    g = CSRGraph.from_edges(
        summary.num_vertices, np.concatenate(src_parts), np.concatenate(dst_parts)
    )
    if summary.corrections_minus:
        cm = np.array(summary.corrections_minus, dtype=np.int64)
        lo = np.minimum(cm[:, 0], cm[:, 1])
        hi = np.maximum(cm[:, 0], cm[:, 1])
        keys = g.edge_src * np.int64(summary.num_vertices) + g.edge_dst
        drop_keys = lo * np.int64(summary.num_vertices) + hi
        g = g.keep_edges(~np.isin(keys, drop_keys))
    return g


# --------------------------------------------------------------------- #
# comparators (adapter-shaped)
# --------------------------------------------------------------------- #


def compare_scalar(engine: float, oracle: float, *, exact: bool = False) -> list[str]:
    """Scalar-adapter comparison: exact for counts, isclose for weights."""
    if exact:
        ok = engine == oracle
    else:
        ok = math.isclose(float(engine), float(oracle), rel_tol=1e-9, abs_tol=1e-9)
    return [] if ok else [f"engine={engine!r} oracle={oracle!r}"]


def compare_vector(engine, oracle, *, atol: float = 0.0, label: str = "value") -> list[str]:
    """Ordering/distribution-adapter comparison: positionwise, inf-aware."""
    a = np.asarray(engine, dtype=np.float64)
    b = np.asarray(oracle, dtype=np.float64)
    if a.shape != b.shape:
        return [f"shape mismatch: engine {a.shape} vs oracle {b.shape}"]
    both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    mismatch = ~both_inf & ~np.isclose(a, b, rtol=1e-9, atol=atol)
    if not mismatch.any():
        return []
    idx = int(np.flatnonzero(mismatch)[0])
    return [
        f"{int(mismatch.sum())} {label} mismatches; first at vertex {idx}: "
        f"engine={a[idx]!r} oracle={b[idx]!r}"
    ]


def compare_exact_ints(engine, oracle, *, label: str = "value") -> list[str]:
    a = np.asarray(engine, dtype=np.int64)
    b = np.asarray(oracle, dtype=np.int64)
    if a.shape != b.shape:
        return [f"shape mismatch: engine {a.shape} vs oracle {b.shape}"]
    mismatch = a != b
    if not mismatch.any():
        return []
    idx = int(np.flatnonzero(mismatch)[0])
    return [
        f"{int(mismatch.sum())} {label} mismatches; first at vertex {idx}: "
        f"engine={int(a[idx])} oracle={int(b[idx])}"
    ]


# --------------------------------------------------------------------- #
# the oracle table
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class OracleEntry:
    """One differential check: engine surface + oracle + comparator.

    ``engine`` receives the graph and returns the adapter-canonical value
    (registry entries run through :func:`build_algorithm(...).compute`);
    ``oracle`` recomputes it naively; ``compare(engine_value,
    oracle_value)`` returns mismatch strings.  ``directed_ok`` gates the
    entry out of directed scenarios (triangles/MST/k-core are undirected
    concepts in this library).
    """

    name: str
    adapter: str
    engine: Callable[[CSRGraph], Any]
    oracle: Callable[[CSRGraph], Any]
    compare: Callable[[Any, Any], list[str]]
    directed_ok: bool = True
    summary: str = ""


def _registry_engine(spec: str):
    """Engine runner: the registry algorithm, adapter-canonicalized."""

    def run(g: CSRGraph):
        return build_algorithm(spec).compute(g)

    return run


def _engine_bfs(g: CSRGraph):
    """BFS engine surface: the raw traversal plus its Graph500 validation.

    The traversal adapter scores BFS on the graphs rather than the output,
    so the differential check compares the *level* map (unique, unlike
    parents) and additionally demands the engine's parent vector pass the
    Graph500-style validator on its own graph.
    """
    result = bfs(g, 0)
    violations = validate_bfs_tree(g, result)
    return result.level, violations


def _compare_bfs(engine_value, oracle_levels) -> list[str]:
    levels, validator_errors = engine_value
    out = [f"validator: {msg}" for msg in validator_errors]
    out.extend(compare_exact_ints(levels, oracle_levels, label="level"))
    return out


def _engine_clustering(g: CSRGraph):
    """Local clustering from the engine's per-vertex triangle counts."""
    triangles = build_algorithm("tc_per_vertex").compute(g)
    d = g.degrees.astype(np.float64)
    denom = d * (d - 1.0)
    out = np.zeros(g.n)
    mask = denom > 0
    out[mask] = 2.0 * triangles[mask] / denom[mask]
    return out


def _engine_degree_counts(g: CSRGraph) -> dict[int, int]:
    values, counts = np.unique(g.degrees, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def _compare_degree_counts(engine, oracle) -> list[str]:
    if engine == oracle:
        return []
    diff = {
        d: (engine.get(d, 0), oracle.get(d, 0))
        for d in sorted(set(engine) | set(oracle))
        if engine.get(d, 0) != oracle.get(d, 0)
    }
    return [f"degree histogram differs: {diff}"]


#: The standing differential battery.  Keys are stable case-report labels;
#: tests may copy this dict and break an entry to prove the harness bites.
ORACLES: dict[str, OracleEntry] = {
    entry.name: entry
    for entry in (
        OracleEntry(
            name="bfs",
            adapter="traversal",
            engine=_engine_bfs,
            oracle=lambda g: oracle_bfs_levels(g, 0),
            compare=_compare_bfs,
            summary="level map equality + Graph500 parent validation",
        ),
        OracleEntry(
            name="sssp_dijkstra",
            adapter="ordering",
            engine=_registry_engine("sssp(source=0, method=dijkstra)"),
            oracle=lambda g: oracle_sssp_distances(g, 0),
            compare=lambda a, b: compare_vector(a, b, atol=1e-9, label="distance"),
            summary="Dijkstra distances vs Bellman–Ford fixpoint",
        ),
        OracleEntry(
            name="sssp_delta",
            adapter="ordering",
            engine=_registry_engine("sssp(source=0, method=delta)"),
            oracle=lambda g: oracle_sssp_distances(g, 0),
            compare=lambda a, b: compare_vector(a, b, atol=1e-9, label="distance"),
            summary="Δ-stepping distances vs Bellman–Ford fixpoint",
        ),
        OracleEntry(
            name="pagerank",
            adapter="distribution",
            engine=_registry_engine("pagerank(iterations=200)"),
            oracle=lambda g: oracle_pagerank(g),
            compare=lambda a, b: compare_vector(a, b, atol=1e-8, label="rank"),
            summary="power iteration vs per-vertex Python loops",
        ),
        OracleEntry(
            name="cc",
            adapter="scalar",
            engine=lambda g: (
                build_algorithm("cc").compute(g),
                connected_components(g).labels,
            ),
            oracle=lambda g: oracle_component_labels(g),
            compare=lambda a, b: (
                compare_scalar(a[0], float(len(set(b))), exact=True)
                + compare_exact_ints(a[1], b, label="label")
            ),
            summary="component count and min-id labels vs flood fill",
        ),
        OracleEntry(
            name="tc",
            adapter="scalar",
            engine=_registry_engine("tc"),
            oracle=lambda g: float(oracle_triangle_count(g)),
            compare=lambda a, b: compare_scalar(a, b, exact=True),
            directed_ok=False,
            summary="sparse (L @ L) ∘ L count vs set intersections",
        ),
        OracleEntry(
            name="clustering",
            adapter="ordering",
            engine=_engine_clustering,
            oracle=lambda g: oracle_clustering_coefficients(g),
            compare=lambda a, b: compare_vector(a, b, atol=1e-12, label="coefficient"),
            directed_ok=False,
            summary="clustering distribution from engine vs oracle triangle counts",
        ),
        OracleEntry(
            name="mst_kruskal",
            adapter="scalar",
            engine=_registry_engine("mst(method=kruskal)"),
            oracle=lambda g: oracle_mst_weight(g),
            compare=compare_scalar,
            directed_ok=False,
            summary="Kruskal forest weight vs sorted-edge dict union-find",
        ),
        OracleEntry(
            name="mst_boruvka",
            adapter="scalar",
            engine=_registry_engine("mst(method=boruvka)"),
            oracle=lambda g: oracle_mst_weight(g),
            compare=compare_scalar,
            directed_ok=False,
            summary="vectorized Borůvka forest weight vs sorted-edge dict union-find",
        ),
        OracleEntry(
            name="kcore",
            adapter="ordering",
            engine=_registry_engine("kcore"),
            oracle=lambda g: oracle_core_numbers(g),
            compare=lambda a, b: compare_exact_ints(a, b, label="core number"),
            directed_ok=False,
            summary="bucket peeling vs literal round-based peeling",
        ),
        OracleEntry(
            name="degrees",
            adapter="distribution",
            engine=_engine_degree_counts,
            oracle=oracle_degree_counts,
            compare=_compare_degree_counts,
            summary="degree histogram vs edge-by-edge counting",
        ),
    )
}
