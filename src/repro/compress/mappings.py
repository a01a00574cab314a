"""Vertex→subgraph mappings (§4.5.2).

Subgraph compression schemes first decompose the graph into disjoint
clusters; the paper singles out two mappings:

- :func:`low_diameter_decomposition` — Miller–Peng–Xu exponential-shift
  decomposition, run as numpy frontier rounds: every vertex draws a
  shift δ_v ~ Exp(β) and joins the cluster of the center u minimizing
  dist(u, v) − δ_u.
  Cluster (strong) diameter is O(log n / β) w.h.p. and only a β fraction of
  edges cross clusters in expectation.  Used for spanners: β = ln(n)/k
  gives the O(k)-spanner of §4.5.3.
- :func:`jaccard_minhash_clustering` — SWeG-style grouping: vertices with
  equal minhash signatures of their neighborhoods are candidates, then
  groups are refined with exact generalized-Jaccard similarity.  Used for
  lossy summarization (§4.5.4).

Both return an ``int64`` array of cluster ids, compacted to ``0..C-1``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_generator

__all__ = [
    "low_diameter_decomposition",
    "jaccard_minhash_clustering",
    "LDDResult",
    "jaccard_similarity",
    "relabel_mapping",
    "vertex_alignment",
]

from dataclasses import dataclass


@dataclass(frozen=True)
class LDDResult:
    """Clusters plus the shortest-path-tree edges that realize them.

    ``parent_edge_ids`` holds, for every non-center vertex, the canonical
    edge id linking it to its BFS parent inside the cluster — exactly the
    intra-cluster spanning trees the spanner kernel needs.
    """

    mapping: np.ndarray
    centers: np.ndarray
    parent_edge_ids: np.ndarray  # -1 for centers / isolated vertices
    num_clusters: int


def low_diameter_decomposition(
    g: CSRGraph, beta: float, *, seed=None, weighted: bool = False
) -> LDDResult:
    """Exponential-shift LDD (Miller, Peng, Xu [111]).

    Every vertex v starts a wave at time ``δ_max − δ_v``; the first wave
    to reach a vertex claims it, which realizes argmin_u (dist(u, v) −
    δ_u) without n BFS runs.  The waves advance in the parallel rounds of
    Miller–Peng–Xu, one numpy pass each.  With ``t`` the smallest pending
    distance, a pending candidate ``(d, v, center, edge)`` is final once
    ``d < t + slack[v]``, where ``slack[v]`` is the lightest arc into v
    (1 when unweighted, +inf with no in-arcs): every later candidate for
    v is at least ``t + slack[v]``.  The lexicographically smallest
    pending tuple always settles, and each target keeps its minimum
    ``(d, center, edge)``, so the clusters and trees are bit-identical
    to one heap Dijkstra from a virtual source
    (:func:`repro.verify.oracles.oracle_ldd`).  A non-positive weight
    sets every slack to -inf, which settles one tuple per round.

    ``weighted=True`` grows the waves along edge *weights* instead of hop
    counts; the per-cluster trees then become weighted shortest-path
    trees, which is what lets spanners preserve weighted SSSP lengths
    (§7.2's "spanners best preserve lengths of shortest paths").  The
    shift scale is multiplied by the mean edge weight so β keeps its
    hop-space meaning; non-finite weights raise ``ValueError``.
    """
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    rng = as_generator(seed)
    n = g.n
    use_weights = weighted and g.is_weighted
    if use_weights:
        bad = np.flatnonzero(~np.isfinite(g.edge_weights))
        if len(bad):
            e = int(bad[0])
            raise ValueError(
                f"weighted LDD needs finite edge weights; {len(bad)} are "
                f"not, e.g. edge {e} ({int(g.edge_src[e])}, "
                f"{int(g.edge_dst[e])}) has weight {g.edge_weights[e]}"
            )
    scale = (
        float(g.edge_weights.mean()) if use_weights and g.num_edges else 1.0
    )
    shifts = rng.exponential(scale / beta, size=n)
    start = shifts.max() - shifts if n else shifts
    mapping = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    dist = np.zeros(n)
    arc_w = g.edge_weights[g.arc_edge_ids] if use_weights else None
    if not use_weights:
        slack = np.where(g.in_degrees > 0, 1.0, np.inf)
    elif len(arc_w) and arc_w.min() <= 0:
        slack = np.full(n, -np.inf)
    else:
        slack = np.full(n, np.inf)
        np.minimum.at(slack, g.indices, arc_w)
    # Pending candidates (distance, target, center, edge): the self-starts.
    pd = start.astype(np.float64)
    pv = np.arange(n, dtype=np.int64)
    pc = pv.copy()
    pe = np.full(n, -1, dtype=np.int64)
    # Per-target minima of the final candidates' keys; a round resets
    # only the entries of its own targets.
    best_d = np.empty(n)
    best_c = np.empty(n, dtype=np.int64)
    best_e = np.empty(n, dtype=np.int64)
    while len(pd):
        t = pd.min()
        final = pd < t + slack[pv]
        at_t = np.flatnonzero(pd == t)
        final[at_t[np.lexsort((pe[at_t], pc[at_t], pv[at_t]))[0]]] = True
        f = np.flatnonzero(final)
        # Each target's winner is its least (d, center, edge): one
        # min-scatter per key over the candidates still tied.  A (target,
        # edge) pair is pending at most once, so one candidate is left
        # per target; the winners are then put in vertex order.
        for key, best in ((pd, best_d), (pc, best_c), (pe, best_e)):
            fv, fk = pv[f], key[f]
            best[fv] = fk
            np.minimum.at(best, fv, fk)
            f = f[fk == best[fv]]
        v = pv[f]
        order = np.argsort(v)
        win, v = f[order], v[order]
        mapping[v] = pc[win]
        parent_edge[v] = pe[win]
        dist[v] = pd[win]
        live = mapping[pv] == -1
        # Expand the settled vertices into unclaimed ones.
        lo = g.indptr[v]
        cnt = g.indptr[v + 1] - lo
        arcs = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
        src = np.repeat(v, cnt)
        u = g.indices[arcs]
        open_ = mapping[u] == -1
        arcs, src, u = arcs[open_], src[open_], u[open_]
        step = arc_w[arcs] if use_weights else 1.0
        pd = np.concatenate([pd[live], dist[src] + step])
        pv = np.concatenate([pv[live], u])
        pc = np.concatenate([pc[live], mapping[src]])
        pe = np.concatenate([pe[live], g.arc_edge_ids[arcs]])
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


def beta_for_spanner(g: CSRGraph, k: float) -> float:
    """The β that turns LDD into the O(k)-spanner of §4.5.3: β = ln(n)/k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.log(max(g.n, 2)) / k


def relabel_mapping(n: int, dropped) -> np.ndarray:
    """Original id → compacted survivor id (-1 for dropped vertices).

    The provenance record a vertex-dropping scheme stores in
    ``extras["mapping"]`` so :func:`vertex_alignment` can align
    per-vertex outputs after compaction.
    """
    gone = np.zeros(n, dtype=bool)
    gone[np.asarray(dropped, dtype=np.int64)] = True
    mapping = np.cumsum(~gone, dtype=np.int64) - 1
    mapping[gone] = -1
    return mapping


def vertex_alignment(result) -> np.ndarray | None:
    """Original-vertex → compressed-vertex index map of a compression.

    When a scheme genuinely changes the vertex set (triangle collapse,
    relabeled sampling), per-vertex algorithm outputs on the compressed
    graph are not positionally comparable with the original's; the
    accuracy metrics must read each original vertex's value at the
    compressed vertex that *carries* it.  This function recovers that map
    from a :class:`~repro.compress.base.CompressionResult`'s provenance:

    - ``None`` means the vertex set is preserved (identity alignment) —
      the common case, since schemes keep removed vertices as isolated
      ids by default;
    - otherwise an ``int64`` array of length ``original.n`` whose entry v
      is the compressed vertex holding original vertex v, or ``-1`` when
      v was dropped with no surviving counterpart.

    Chains compose their per-stage ``extras["mapping"]`` records stage by
    stage.  If any vertex-changing stage recorded no mapping, ``None`` is
    returned and callers fall back to positional padding (the legacy —
    and score-skewing — behavior this map exists to avoid).
    """
    n0, n1 = result.original.n, result.graph.n
    if n1 == n0:
        return None
    stage_extras = result.extras.get("stage_extras")
    if stage_extras is None:
        stage_extras = [result.extras]
    records = list(result.lineage)
    if len(records) != len(stage_extras):
        records = [None] * len(stage_extras)
    current = np.arange(n0, dtype=np.int64)
    for record, extras in zip(records, stage_extras):
        if record is not None and record.vertices_out == record.vertices_in:
            continue
        stage_map = extras.get("mapping")
        if stage_map is None:
            return None
        stage_map = np.asarray(stage_map, dtype=np.int64)
        if record is not None and len(stage_map) != record.vertices_in:
            return None
        if current.size and current.max() >= len(stage_map):
            return None
        alive = current >= 0
        nxt = np.full(n0, -1, dtype=np.int64)
        nxt[alive] = stage_map[current[alive]]
        current = nxt
    if current.size and current.max() >= n1:
        return None
    return current


#: Cap on one batch of the clustering's in-group pair work: intersection
#: matrix cells or generated incidence pairs, whichever is larger.
_PAIR_BATCH = 1 << 18


def jaccard_similarity(g: CSRGraph, u: int, v: int) -> float:
    """Jaccard similarity of the closed neighborhoods of u and v.

    Closed (vertex included) so that adjacent similar vertices — the
    common case in communities — score high, as in SWeG's generalized
    Jaccard.
    """
    nu = np.union1d(g.neighbors(u), [u])
    nv = np.union1d(g.neighbors(v), [v])
    inter = len(np.intersect1d(nu, nv, assume_unique=True))
    union = len(nu) + len(nv) - inter
    return inter / union if union else 1.0


def jaccard_minhash_clustering(
    g: CSRGraph,
    *,
    threshold: float = 0.3,
    max_cluster_size: int = 32,
    num_hashes: int = 2,
    seed=None,
) -> np.ndarray:
    """SWeG-style clustering: minhash candidate groups + exact refinement.

    1. Each vertex gets a signature: the minimum of ``num_hashes`` random
       permutations over its closed neighborhood (shingle step of SWeG).
    2. Vertices sharing a signature form a candidate group.
    3. Inside each group, vertices greedily join a supervertex if their
       Jaccard similarity to the supervertex's seed is ≥ ``threshold``
       and the supervertex stays under ``max_cluster_size``.

    The similarities of all in-group pairs come from one pass over the
    closed-neighborhood incidences, sorted once by the pair key
    ``group·n + neighbor`` with ties in walk order (a two-key
    ``lexsort``), so a group of L vertices costs O(L²) memory; only the
    greedy walk over them runs in Python.

    Returns compact cluster ids; unmerged vertices are singleton clusters.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    rng = as_generator(seed)
    n = g.n
    cluster = np.arange(n, dtype=np.int64)
    if n == 0:
        return cluster
    perms = [rng.permutation(n) for _ in range(num_hashes)]
    sig_parts = np.empty((num_hashes, n), dtype=np.int64)
    heads = np.repeat(np.arange(n), np.diff(g.indptr))
    for h, perm in enumerate(perms):
        # Open-neighborhood minhash (SWeG's shingle): vertices with equal
        # neighborhoods — twins — get equal signatures by construction.
        # Isolated vertices fall back to their own value.
        sig = perm.copy()
        has_nbr = g.degrees > 0
        sig[has_nbr] = np.iinfo(np.int64).max
        np.minimum.at(sig, heads, perm[g.indices])
        sig_parts[h] = sig
    # Combine hash parts into one group key.
    signature = sig_parts[0]
    for h in range(1, num_hashes):
        signature = signature * np.int64(n) + sig_parts[h]
    order = np.argsort(signature, kind="stable")
    sig_sorted = signature[order]
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = sig_sorted[1:] != sig_sorted[:-1]
    run_id = np.cumsum(run_start) - 1
    grouped = np.bincount(run_id)[run_id] >= 2
    # Candidate groups: runs of ≥ 2 equal signatures, members ascending.
    members = order[grouped]
    if not len(members):
        return cluster
    gid = np.cumsum(run_start[grouped]) - 1
    group_size = np.bincount(gid)
    group_start = np.cumsum(group_size) - group_size
    pos = np.arange(len(members)) - group_start[gid]
    gid_of = np.full(n, -1, dtype=np.int64)
    gid_of[members] = gid
    pos_of = np.zeros(n, dtype=np.int64)
    pos_of[members] = pos
    # Closed neighborhoods as (vertex, neighbor) incidences: drop
    # self-loops and repeated arcs, then add the vertex itself.
    arc = g.indices != heads
    arc[1:] &= (g.indices[1:] != g.indices[:-1]) | (heads[1:] != heads[:-1])
    closed_deg = np.bincount(heads[arc], minlength=n) + 1
    arc &= gid_of[heads] >= 0
    inc_vertex = np.concatenate([heads[arc], members])
    inc_nbr = np.concatenate([g.indices[arc], members])
    inc_gid = gid_of[inc_vertex]
    inc_pos = pos_of[inc_vertex]
    # Runs of equal (group, neighbor), members in walk order: every pair
    # inside a run shares that neighbor, and no pair crosses groups.  The
    # pair is one key below n² (n ≤ MAX_KEYED_VERTICES keeps it in int64).
    srt = np.lexsort((inc_pos, inc_gid * np.int64(n) + inc_nbr))
    inc_gid, inc_nbr, inc_pos = inc_gid[srt], inc_nbr[srt], inc_pos[srt]
    new_run = np.ones(len(srt), dtype=bool)
    new_run[1:] = (inc_gid[1:] != inc_gid[:-1]) | (inc_nbr[1:] != inc_nbr[:-1])
    inc_run = np.cumsum(new_run) - 1
    run_len = np.bincount(inc_run)
    run_first = np.flatnonzero(new_run)
    later = run_len[inc_run] - (np.arange(len(srt)) - run_first[inc_run]) - 1
    # Groups are processed in contiguous batches whose intersection
    # matrices (one L×L block per group) and pair lists stay bounded.
    cells = group_size * group_size
    pairs = np.bincount(inc_gid, weights=later, minlength=len(group_size))
    cost = np.maximum(cells, pairs.astype(np.int64))
    batch = (np.cumsum(cost) - cost) // _PAIR_BATCH
    batch_edges = np.flatnonzero(np.diff(batch)) + 1
    group_lo = np.concatenate([[0], batch_edges])
    group_hi = np.concatenate([batch_edges, [len(group_size)]])
    inc_lo = np.searchsorted(inc_gid, group_lo)
    inc_hi = np.searchsorted(inc_gid, group_hi)
    member_list = members.tolist()
    deg = closed_deg[members]
    joined: list[int] = []
    joined_to: list[int] = []
    for g0, g1, e0, e1 in zip(group_lo, group_hi, inc_lo, inc_hi):
        cell_off = np.cumsum(cells[g0:g1]) - cells[g0:g1]
        # Intersections |N[a] ∩ N[b]| for a before b, by pairing each
        # incidence with the later ones of its run.
        cnt = later[e0:e1].astype(np.int64)
        first = np.repeat(np.arange(e0, e1), cnt)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        local_g = inc_gid[first] - g0
        flat = cell_off[local_g] + inc_pos[first] * group_size[inc_gid[first]] + inc_pos[second]
        inter = np.bincount(flat, minlength=int(cells[g0:g1].sum()))
        cell_g = np.repeat(np.arange(g0, g1), cells[g0:g1])
        local = np.arange(len(inter)) - cell_off[cell_g - g0]
        row = group_start[cell_g] + local // group_size[cell_g]
        col = group_start[cell_g] + local % group_size[cell_g]
        union = deg[row] + deg[col] - inter
        similar = (inter / union >= threshold).tolist()
        # Greedy seed walk: a vertex joins the first seed, in seed order,
        # that still has room and is similar enough.  Full seeds never
        # reopen, so they leave the scan.
        for grp, off in zip(range(g0, g1), cell_off.tolist()):
            size = int(group_size[grp])
            base = int(group_start[grp])
            open_seeds: list[int] = []
            sizes: dict[int, int] = {}
            for j in range(size):
                for sd in open_seeds:
                    if similar[off + sd * size + j]:
                        joined.append(member_list[base + j])
                        joined_to.append(member_list[base + sd])
                        sizes[sd] += 1
                        if sizes[sd] >= max_cluster_size:
                            open_seeds.remove(sd)
                        break
                else:
                    sizes[j] = 1
                    if 1 < max_cluster_size:
                        open_seeds.append(j)
    cluster[np.array(joined, dtype=np.int64)] = np.array(joined_to, dtype=np.int64)
    uniq, compact = np.unique(cluster, return_inverse=True)
    return compact.astype(np.int64)
