"""Metamorphic invariants of the compression pipeline.

Where :mod:`repro.verify.oracles` checks "the engine computes the right
number", this module checks "the *relationships* the paper guarantees
hold between related runs": subgraph schemes return edge-subsets with
consistent vertex alignment, EO-Triangle-Reduction preserves
connectivity (§6.1), spanners bound distance stretch, chain lineages
compose stage by stage, the sort-free transform fast paths are
buffer-identical to the legacy rebuild, summarization and triangle
listing match their references, triangle counts and MST rank orders
derived along a sampling lineage match the direct ones, snapshot/store
round trips are fingerprint-stable, grids scored against stored
baselines equal computed ones, and parallel grids equal in-memory
grids.

Every check returns a list of human-readable violation strings (empty =
pass), the same contract as the oracle comparators, so the fuzz driver
can aggregate them uniformly.  The quantitative bounds are *not*
restated here — they are evaluated through the Table 3 predicates in
:mod:`repro.theory.bounds`, so a future bound change propagates into the
fuzz harness automatically.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.components import connected_components
from repro.compress.base import CompressionResult
from repro.compress.mappings import vertex_alignment
from repro.compress.registry import build_scheme
from repro.graphs.csr import CSRGraph
from repro.theory import bounds

__all__ = [
    "SUBGRAPH_SCHEMES",
    "WEIGHT_PRESERVING_SCHEMES",
    "subgraph_invariants",
    "lineage_composes",
    "tr_preserves_components",
    "spanner_invariants",
    "fastpath_identity",
    "summary_identity",
    "incremental_equivalence",
    "snapshot_roundtrip",
    "store_roundtrip",
    "baseline_replay_identity",
    "parallel_grid_equivalence",
]

#: Registered schemes whose output is structurally a subgraph of the
#: input (Table 3's footnote family): every compressed edge exists in the
#: original, so the monotonicity predicates apply deterministically.
SUBGRAPH_SCHEMES = frozenset(
    {
        "uniform",
        "spectral",
        "spanner",
        "triangle_reduction",
        "vertex_sampling",
        "random_walk_sampling",
        "low_degree",
        "cut_sparsifier",
    }
)

#: Subgraph schemes that also keep the surviving edges' weights verbatim
#: (spectral sparsifiers and cut sparsifiers reweight by inverse
#: sampling probability, so they are endpoint-subsets only).
WEIGHT_PRESERVING_SCHEMES = frozenset(
    {
        "uniform",
        "spanner",
        "triangle_reduction",
        "vertex_sampling",
        "random_walk_sampling",
        "low_degree",
    }
)


def _edge_pair_set(g: CSRGraph) -> set[tuple[int, int]]:
    return set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))


def _failed(check: bounds.BoundCheck) -> list[str]:
    if check.holds:
        return []
    return [
        f"bound violated: {check.name} "
        f"(observed {check.observed}, bound {check.bound})"
    ]


def subgraph_invariants(
    result: CompressionResult, *, weights_preserved: bool = True
) -> list[str]:
    """The Table 3 footnote contract of every subgraph scheme.

    Checks (on a :class:`CompressionResult`):

    1. directedness is preserved;
    2. vertex alignment is consistent — identity when the vertex count is
       unchanged, otherwise :func:`~repro.compress.mappings.
       vertex_alignment` must recover an in-range original→compressed
       map from the recorded provenance;
    3. when the vertex set is preserved, every compressed edge is an
       original edge (``weights_preserved`` additionally demands the
       surviving weights match verbatim);
    4. the deterministic monotone bounds: m never increases, max degree
       never increases, #CC never decreases, T never increases.
    """
    orig, comp = result.original, result.graph
    out: list[str] = []
    if comp.directed != orig.directed:
        out.append(
            f"directedness changed: {orig.directed} -> {comp.directed}"
        )
        return out

    alignment = vertex_alignment(result)
    if comp.n != orig.n:
        if alignment is None:
            out.append(
                f"vertex count changed ({orig.n} -> {comp.n}) but no "
                "alignment is recoverable from the result's provenance"
            )
        else:
            if len(alignment) != orig.n:
                out.append(
                    f"alignment length {len(alignment)} != original n {orig.n}"
                )
            alive = alignment[alignment >= 0]
            if alive.size and int(alive.max()) >= comp.n:
                out.append(
                    f"alignment points at vertex {int(alive.max())} outside "
                    f"the compressed graph (n={comp.n})"
                )
        # The count-only monotone bounds hold for vertex-removing subgraph
        # schemes even after relabeling (removal cannot add edges,
        # degrees, or triangles).  #CC monotonicity is the exception —
        # dropping a whole component removes it from the count — and the
        # per-edge subset checks need a shared vertex id space.
        out += _failed(bounds.subgraph_monotone_edges(orig.num_edges, comp.num_edges))
        d0 = int(orig.degrees.max()) if orig.n and orig.num_edges else 0
        d1 = int(comp.degrees.max()) if comp.n and comp.num_edges else 0
        out += _failed(bounds.subgraph_monotone_max_degree(d0, d1))
        if not orig.directed:
            from repro.algorithms.triangles import count_triangles

            out += _failed(
                bounds.subgraph_monotone_triangles(
                    count_triangles(orig), count_triangles(comp)
                )
            )
        return out

    pairs_orig = _edge_pair_set(orig)
    pairs_comp = _edge_pair_set(comp)
    foreign = pairs_comp - pairs_orig
    if foreign:
        u, v = sorted(foreign)[0]
        out.append(
            f"{len(foreign)} compressed edges do not exist in the "
            f"original; first: ({u}, {v})"
        )
    if weights_preserved:
        if orig.is_weighted != comp.is_weighted:
            out.append(
                f"weightedness changed: {orig.is_weighted} -> {comp.is_weighted}"
            )
        elif orig.is_weighted and not foreign:
            w_orig = {
                (u, v): w
                for u, v, w in zip(
                    orig.edge_src.tolist(),
                    orig.edge_dst.tolist(),
                    orig.edge_weights.tolist(),
                )
            }
            for u, v, w in zip(
                comp.edge_src.tolist(),
                comp.edge_dst.tolist(),
                comp.edge_weights.tolist(),
            ):
                if w != w_orig[(u, v)]:
                    out.append(
                        f"weight of surviving edge ({u}, {v}) changed: "
                        f"{w_orig[(u, v)]} -> {w}"
                    )
                    break

    out += _failed(bounds.subgraph_monotone_edges(orig.num_edges, comp.num_edges))
    d0 = int(orig.degrees.max()) if orig.n else 0
    d1 = int(comp.degrees.max()) if comp.n else 0
    out += _failed(bounds.subgraph_monotone_max_degree(d0, d1))
    c0 = connected_components(orig).num_components
    c1 = connected_components(comp).num_components
    out += _failed(bounds.subgraph_monotone_components(c0, c1))
    if not orig.directed:
        from repro.algorithms.triangles import count_triangles

        out += _failed(
            bounds.subgraph_monotone_triangles(
                count_triangles(orig), count_triangles(comp)
            )
        )
    return out


def lineage_composes(result: CompressionResult) -> list[str]:
    """Stage records must chain: out-counts feed the next stage's in-counts,
    and the endpoints match the result's original/compressed graphs."""
    records = result.lineage
    out: list[str] = []
    if not records:
        return ["result has no lineage records"]
    if records[0].vertices_in != result.original.n:
        out.append(
            f"lineage starts at n={records[0].vertices_in}, "
            f"original has n={result.original.n}"
        )
    if records[0].edges_in != result.original.num_edges:
        out.append(
            f"lineage starts at m={records[0].edges_in}, "
            f"original has m={result.original.num_edges}"
        )
    for i, (a, b) in enumerate(zip(records, records[1:])):
        if a.vertices_out != b.vertices_in:
            out.append(
                f"stage {i} ({a.scheme}) ends at n={a.vertices_out} but "
                f"stage {i + 1} ({b.scheme}) starts at n={b.vertices_in}"
            )
        if a.edges_out != b.edges_in:
            out.append(
                f"stage {i} ({a.scheme}) ends at m={a.edges_out} but "
                f"stage {i + 1} ({b.scheme}) starts at m={b.edges_in}"
            )
    if records[-1].vertices_out != result.graph.n:
        out.append(
            f"lineage ends at n={records[-1].vertices_out}, "
            f"compressed has n={result.graph.n}"
        )
    if records[-1].edges_out != result.graph.num_edges:
        out.append(
            f"lineage ends at m={records[-1].edges_out}, "
            f"compressed has m={result.graph.num_edges}"
        )
    return out


def tr_preserves_components(
    g: CSRGraph, *, p: float = 0.8, seed=0
) -> list[str]:
    """§6.1: Edge-Once TR deletes at most one edge per triangle cycle, so
    the component structure survives (checked via the Table 3 predicate)."""
    result = build_scheme(f"EO-{p}-1-TR").compress(g, seed=seed)
    c0 = connected_components(g).num_components
    c1 = connected_components(result.graph).num_components
    return _failed(bounds.eo_tr_components(c0, c1))


def spanner_invariants(
    g: CSRGraph, *, k: int = 4, seed=0, num_sources: int = 3
) -> list[str]:
    """Spanners preserve connectivity and bound distance stretch.

    Connectivity is the deterministic Table 3 cell; stretch is checked
    pairwise from sampled sources through
    :func:`repro.theory.bounds.spanner_distance_stretch` (the classic
    greedy construction gives 2k−1; the LDD construction here is O(k)
    w.h.p., which is what the predicate encodes).
    """
    result = build_scheme(f"spanner(k={k})").compress(g, seed=seed)
    comp = result.graph
    out = _failed(
        bounds.spanner_components(
            connected_components(g).num_components,
            connected_components(comp).num_components,
        )
    )

    def distances(graph: CSRGraph, source: int) -> np.ndarray:
        # Hop distances: the default (hop-grown) spanner's guarantee is
        # stretch in hop space; Spanner(weighted=True) trades that for
        # weighted-SSSP stretch and has its own dedicated tests.
        level = bfs(graph, source).level.astype(np.float64)
        level[level < 0] = np.inf
        return level

    sources = [v for v in range(g.n) if g.degree(v) > 0][:num_sources]
    for s in sources:
        d0 = distances(g, s)
        d1 = distances(comp, s)
        for v in np.flatnonzero(np.isfinite(d0)):
            check = bounds.spanner_distance_stretch(
                float(d0[v]), float(d1[v]), k
            )
            if not check.holds:
                out.append(
                    f"stretch violated for pair ({s}, {int(v)}): "
                    f"original {d0[v]}, spanner {d1[v]}, bound {check.bound}"
                )
                return out
    return out


def incremental_equivalence(
    g: CSRGraph,
    deltas,
    spec: str,
    *,
    seed=0,
) -> list[str]:
    """The streaming metamorphic invariant:
    ``recompress(apply(G, Δ)) ≡ incremental(G, Δ)``.

    A maintainer for ``spec`` is attached to ``g`` and advanced through
    ``deltas`` alongside a :class:`~repro.stream.ingest.GraphStream`.
    After every generation the maintained output must pass the batch
    scheme's subgraph invariants against that generation and be
    bit-identical to a full recompress of it.

    Spanner stretch is a property of the batch output, checked by
    :func:`spanner_invariants`; a recompressed spanner stream is that
    output, generation by generation.

    Returns violation strings (empty = pass); stops at the first failing
    generation so the messages point at the earliest divergence.
    """
    from repro.stream.incremental import maintainer_for
    from repro.stream.ingest import GraphStream

    maintainer = maintainer_for(spec, seed=seed)
    stream = GraphStream(g)
    maintainer.attach(g)
    out: list[str] = []
    for i, delta in enumerate(deltas):
        generation = stream.apply(delta)
        maintainer.update(delta, generation)
        ctx = f"generation {i + 1} of {spec}"
        out += [f"{ctx}: {m}" for m in subgraph_invariants(maintainer.result())]
        batch = build_scheme(spec).compress(generation, seed=seed).graph
        out += _compare_buffers(
            maintainer.compressed, batch, f"({ctx} vs full recompress)"
        )
        if out:
            return out
    return out


#: Every array slot of a CSRGraph that a bit-identity comparison covers.
_CSR_BUFFERS = ("edge_src", "edge_dst", "indptr", "indices", "arc_edge_ids")


def _compare_buffers(a: CSRGraph, b: CSRGraph, context: str) -> list[str]:
    """Bit-identity of two graphs' buffers (shared by the fast-path and
    snapshot checks, so a new CSR buffer only needs adding once)."""
    out: list[str] = []
    for attr in _CSR_BUFFERS:
        if not np.array_equal(getattr(a, attr), getattr(b, attr)):
            out.append(f"buffer {attr} differs {context}")
    if (a.edge_weights is None) != (b.edge_weights is None):
        out.append(f"weight presence differs {context}")
    elif a.edge_weights is not None and not np.array_equal(
        a.edge_weights, b.edge_weights
    ):
        out.append(f"edge_weights differ {context}")
    return out


def fastpath_identity(g: CSRGraph, keep_mask: np.ndarray) -> list[str]:
    """The sort-free ``keep_edges`` fast path must be bit-identical to the
    legacy lexsort rebuild — every buffer, not just the edge lists."""
    fast = g.keep_edges(keep_mask)
    slow = g._keep_edges_rebuild(keep_mask)
    out = _compare_buffers(fast, slow, "between fast path and rebuild")
    try:
        fast.validate()
    except AssertionError as err:
        out.append(f"fast-path graph fails validate(): {err}")
    return out


#: (epsilon, threshold, max_cluster_size) settings the fuzz matrix runs
#: through :func:`summary_identity`: a lossless summary at the default
#: clustering, and a lossy one whose small clusters fill up.
_SUMMARY_SETTINGS = ((0.0, 0.3, 32), (0.4, 0.6, 4))


def summary_identity(g: CSRGraph, *, seed=0) -> list[str]:
    """ε-summarization must reproduce the loop reference exactly: the same
    mapping, superedges and both correction lists in the same order, and
    the same decompressed buffers."""
    from repro.compress.summarization import LossySummarization
    from repro.verify.oracles import oracle_decompress, oracle_summary

    out: list[str] = []
    for eps, threshold, size in _SUMMARY_SETTINGS:
        ctx = f"(epsilon={eps}, threshold={threshold}, max_cluster_size={size})"
        got = LossySummarization(
            eps, threshold=threshold, max_cluster_size=size
        ).summarize(g, seed=seed)
        ref = oracle_summary(
            g, epsilon=eps, threshold=threshold, max_cluster_size=size, seed=seed
        )
        if not np.array_equal(got.mapping, ref.mapping):
            out.append(f"mapping differs from the reference {ctx}")
        for name in ("superedges", "corrections_plus", "corrections_minus"):
            if not np.array_equal(getattr(got, name), getattr(ref, name)):
                out.append(f"{name} differ from the reference {ctx}")
        out += _compare_buffers(
            got.decompress(), oracle_decompress(ref), f"after decompress {ctx}"
        )
    return out


def triangle_list_identity(g: CSRGraph) -> list[str]:
    """Triangle listing must reproduce the sorted-key join reference
    exactly: the same vertices and edge ids in the same order (TR's draws
    index triangles in list order)."""
    from repro.algorithms.triangles import list_triangles
    from repro.verify.oracles import oracle_triangle_list

    got = list_triangles(g)
    vertices, edge_ids = oracle_triangle_list(g)
    return [
        f"triangle {name} differ from the reference "
        f"({len(got)} vs {len(want)} triangles)"
        for name, want in (("vertices", vertices), ("edge_ids", edge_ids))
        if not np.array_equal(getattr(got, name), want)
    ]


#: The seeded chain :func:`triangle_derive_identity` and
#: :func:`mst_derive_identity` sample: each stage is an edge subgraph of
#: the one before (the spectral stage reweighted).
_DERIVE_CHAIN = ("uniform(p=0.7)", "low_degree(max_degree=2)", "spectral(p=0.6)")


def triangle_derive_identity(g: CSRGraph, *, seed=0) -> list[str]:
    """A triangle count derived from a counted lineage parent must equal
    the sparse count at every stage of a seeded sampling chain over
    ``g``; the stages are counted in order, so each derives from the
    stage before it."""
    from repro.algorithms import triangles
    from repro.graphs.analysis import lineage_parent

    triangles.count_triangles(g)  # the counted parent of the first stage
    out: list[str] = []
    parent = g
    for i, spec in enumerate(_DERIVE_CHAIN):
        child = build_scheme(spec).compress(parent, seed=seed + i).graph
        if child is not parent and lineage_parent(child, triangles._DERIVATION_SOURCES) is None:
            out.append(f"after {spec}: no counted parent to derive from")
        if triangles.count_triangles(child) != triangles._sparse_triangle_count(child):
            out.append(f"after {spec}: derived count differs from the sparse one")
        parent = child
    return out


def mst_derive_identity(g: CSRGraph, *, seed=0) -> list[str]:
    """Borůvka on every stage of the seeded sampling chain over ``g``
    must return exactly what Kruskal does, and its rank order, derived
    from the sorted stage before where the weights allow, must equal the
    ``lexsort`` order.  The stages are sorted in order, so each can
    derive from the one before it."""
    from repro.algorithms import mst
    from repro.graphs.analysis import lineage_parent

    mst.boruvka(g)  # the sorted parent of the first stage
    out: list[str] = []
    parent = g
    for i, spec in enumerate(_DERIVE_CHAIN):
        child = build_scheme(spec).compress(parent, seed=seed + i).graph
        if child is not parent and lineage_parent(child, ("mst_rank_order",)) is None:
            out.append(f"after {spec}: no sorted parent to derive from")
        got, ref = mst.boruvka(child), mst.kruskal(child)
        if not (
            np.array_equal(got.edge_ids, ref.edge_ids)
            and got.total_weight == ref.total_weight
            and got.num_trees == ref.num_trees
        ):
            out.append(f"after {spec}: boruvka differs from kruskal")
        if not np.array_equal(mst._rank_order(child), mst._lexsort_order(child)):
            out.append(f"after {spec}: derived rank order differs from the lexsort one")
        parent = child
    return out


def snapshot_roundtrip(g: CSRGraph, directory) -> list[str]:
    """Binary snapshot save/load must reproduce every buffer and keep the
    content fingerprint stable (the artifact store's keying contract).

    Covers the single-file ``.npz`` export and the exploded layout the
    store and pooled workers use, the latter both read and mapped."""
    from pathlib import Path

    from repro.graphs.snapshot import load_snapshot, save_snapshot
    from repro.runner.fingerprint import graph_fingerprint

    directory = Path(directory)
    npz = save_snapshot(g, directory / "roundtrip.npz")
    exploded = save_snapshot(g, directory / "roundtrip.snap", layout="exploded")
    routes = {
        "npz": lambda: load_snapshot(npz),
        "exploded": lambda: load_snapshot(exploded),
        "exploded mmap": lambda: load_snapshot(exploded, mmap=True),
    }
    fp0 = graph_fingerprint(g)
    out: list[str] = []
    for name, load in routes.items():
        loaded = load()
        if loaded.n != g.n or loaded.directed != g.directed:
            out.append(f"{name} snapshot changed n or directedness")
        out += _compare_buffers(loaded, g, f"after {name} snapshot round trip")
        fp1 = graph_fingerprint(loaded)
        if fp1 != fp0:
            out.append(
                f"fingerprint changed across {name} snapshot: {fp0} -> {fp1}"
            )
    return out


_GRID_SCHEMES = ("uniform(p=0.5)", "spanner(k=4)")
_GRID_ALGORITHMS = ("pr", "cc")


def _comparable(table):
    """A grid table's deterministic face (drop wall-clock noise)."""
    return [
        (c.scheme, c.algorithm, c.metric, c.value, c.compression_ratio, c.seed)
        for c in table
    ]


def store_roundtrip(
    g: CSRGraph,
    directory,
    *,
    schemes=_GRID_SCHEMES,
    algorithms=_GRID_ALGORITHMS,
    seed=0,
) -> list[str]:
    """A warm artifact store must replay a grid value-identically with
    zero recomputation (cells key on the graph's content fingerprint)."""
    from pathlib import Path

    from repro.analytics.session import Session
    from repro.runner.store import ArtifactStore

    root = Path(directory) / "store"
    cold = Session(g, seed=seed, store=ArtifactStore(root))
    expected = cold.grid(schemes, algorithms)
    warm = Session(g, seed=seed, store=ArtifactStore(root))
    got = warm.grid(schemes, algorithms)
    out: list[str] = []
    if _comparable(got) != _comparable(expected):
        out.append("warm store replay differs from the cold run")
    if warm.last_grid_perf.get("cache_misses"):
        out.append(
            f"warm store recomputed "
            f"{warm.last_grid_perf['cache_misses']} cells (expected 0)"
        )
    if warm.baseline_computations:
        out.append(
            f"warm store ran {warm.baseline_computations} baselines (expected 0)"
        )
    return out


#: One algorithm per executed result adapter: distribution, scalar,
#: ordering, vertex set.
_REPLAY_ALGORITHMS = ("pr", "cc", "sssp", "mis")


def baseline_replay_identity(
    g: CSRGraph,
    directory,
    *,
    schemes=("uniform(p=0.5)", "vertex_sampling(p=0.5)"),
    algorithms=_REPLAY_ALGORITHMS,
    seed=0,
) -> list[str]:
    """Cells scored against a stored baseline must equal computed ones.

    Three routes grid ``g`` under ``seed``: a session over a fresh store
    (computes every baseline and stores it), one over a store another
    seed's grid already filled with the baselines (replays them), and a
    store-less session.  Every cell field but the two timings must match
    (by ``repr``, so NaN equals NaN), and the replaying route must
    compute no baseline.
    """
    from pathlib import Path

    from repro.analytics.session import Session

    def untimed(table) -> str:
        return repr([
            {k: v for k, v in c.to_dict().items() if not k.endswith("_seconds")}
            for c in table
        ])

    root = Path(directory)
    Session(g, seed=seed + 1, store=root / "filled").grid(schemes, algorithms)
    sessions = {
        "fresh": Session(g, seed=seed, store=root / "fresh"),
        "replay": Session(g, seed=seed, store=root / "filled"),
        "plain": Session(g, seed=seed),
    }
    tables = {
        name: untimed(session.grid(schemes, algorithms))
        for name, session in sessions.items()
    }
    out: list[str] = []
    for name, session in sessions.items():
        if tables[name] != tables["plain"]:
            out.append(f"{name}-store cells differ from the store-less grid")
        failed = session.last_grid_perf["failed_cells"]
        if failed:
            out.append(f"{name} grid quarantined {len(failed)} cell group(s)")
    computed = sessions["replay"].baseline_computations
    if computed:
        out.append(f"replaying store ran {computed} baselines (expected 0)")
    return out


def parallel_grid_equivalence(
    g: CSRGraph,
    *,
    schemes=_GRID_SCHEMES,
    algorithms=_GRID_ALGORITHMS,
    seed=0,
    jobs: int = 2,
) -> list[str]:
    """A process-pool grid must be value-identical to the in-memory grid."""
    from repro.analytics.session import Session

    expected = Session(g, seed=seed).grid(schemes, algorithms)
    got = Session(g, seed=seed, jobs=jobs).grid(schemes, algorithms)
    if _comparable(got) != _comparable(expected):
        return [f"parallel grid (jobs={jobs}) differs from in-memory grid"]
    return []
