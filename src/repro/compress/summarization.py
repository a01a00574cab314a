"""Lossy ε-summarization in the SWeG style (§4.5.4).

A summary consists of

- **supervertices** — clusters of Jaccard-similar vertices (the §4.5.2
  minhash mapping),
- **superedges** — a superedge (A, B) encodes *all* pairs between the
  member sets of A and B (a clique for A = B),
- **corrections⁺** — real edges not covered by any superedge (must be
  added back on decompression),
- **corrections⁻** — non-edges covered by a superedge (must be removed on
  decompression).

The encoder creates a superedge exactly when it shrinks the encoding
(|present pairs| > 1 + |missing pairs|, the SWeG/MDL rule), so the
*lossless* summary decompresses to the input graph exactly — a property
the test suite checks.  The **lossy** step then drops corrections under a
per-vertex error budget of ε·d(v) (each dropped correction charges both
endpoints), which yields SWeG's guarantee that every decompressed
neighborhood differs from the original by at most ε·d(v) — and Table 3's
"m ± 2εm" row, since Σ_v ε·d(v) = 2εm.  Dropping a ⁺ correction loses a
real edge; dropping a ⁻ correction *inserts a fake edge* — summarization
is the one scheme that can add edges and disconnect anything (§6.3).

Everything from the encoder to decompression runs on ``(k, 2)`` int64
pair arrays.  The budget walk is greedy b-matching in a random order:
visit the pairs in one ``rng.permutation`` order and drop a pair while
both endpoints have budget left.  :func:`_budget_walk` runs it in rounds
(random-order greedy settles in few dependency rounds; Blelloch, Fineman
& Shun, SPAA 2012) and returns exactly what the sequential loop returns.
A pair's outcome depends only on the dropped pairs before it at its two
endpoints.  With ``d`` the pairs already dropped before it at an endpoint
and ``u`` the undecided ones, the final count lies in ``[d, d + u]``, so
the pair surely drops when ``d + u`` is under the budget at both
endpoints and is surely kept when ``d`` reaches it at either.  The
earliest undecided pair has ``u = 0`` at both endpoints, so every round
decides at least one pair.  The loop itself is the reference,
:func:`repro.verify.oracles.oracle_budget_walk`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compress.base import CompressionResult, CompressionScheme
from repro.compress.registry import register_scheme
from repro.compress.mappings import jaccard_minhash_clustering
from repro.core.kernels import SubgraphKernel
from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

__all__ = ["LossySummarization", "GraphSummary", "DeriveSummaryKernel", "save_summary", "load_summary"]


def _no_pairs() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


@dataclass
class GraphSummary:
    """The summary representation S = (P, C⁺, C⁻) over supervertices.

    ``superedges`` (supervertex pairs), ``corrections_plus`` and
    ``corrections_minus`` (vertex pairs) are ``(k, 2)`` int64 arrays whose
    row order is the encoder's (then the budget walk's) order.
    """

    num_vertices: int
    mapping: np.ndarray  # vertex -> supervertex id
    superedges: np.ndarray = field(default_factory=_no_pairs)
    corrections_plus: np.ndarray = field(default_factory=_no_pairs)
    corrections_minus: np.ndarray = field(default_factory=_no_pairs)

    @property
    def num_supervertices(self) -> int:
        return int(self.mapping.max()) + 1 if len(self.mapping) else 0

    def storage_edges(self) -> int:
        """Summary size in edge-equivalents: |P| + |C⁺| + |C⁻|.

        The quantity SWeG minimizes; the compression ratio of a summary is
        storage_edges / m.
        """
        return len(self.superedges) + len(self.corrections_plus) + len(self.corrections_minus)

    def _grouped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vertices ordered by supervertex, plus each supervertex's
        start offset and member count in that order."""
        order = np.argsort(self.mapping, kind="stable")
        counts = np.bincount(self.mapping, minlength=self.num_supervertices)
        return order, np.cumsum(counts) - counts, counts

    def members(self) -> list[np.ndarray]:
        """Member vertex arrays per supervertex."""
        order, starts, counts = self._grouped()
        return [order[s : s + c] for s, c in zip(starts.tolist(), counts.tolist())]

    def _covered_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every member pair the superedges cover, superedge by superedge.

        Superedge (A, B) covers the |A|×|B| grid of member pairs in
        row-major order; a self-superedge covers the grid's strict upper
        triangle.
        """
        order, starts, counts = self._grouped()
        se = self.superedges
        a, b = se[:, 0], se[:, 1]
        cols = counts[b]
        cells = counts[a] * cols
        blk = np.repeat(np.arange(len(se)), cells)
        local = np.arange(int(cells.sum())) - np.repeat(np.cumsum(cells) - cells, cells)
        i, j = np.divmod(local, cols[blk])
        keep = (a[blk] != b[blk]) | (i < j)
        return order[starts[a[blk]] + i][keep], order[starts[b[blk]] + j][keep]

    def decompress(self) -> CSRGraph:
        """Expand superedges, add C⁺, remove C⁻."""
        u, v = self._covered_pairs()
        cp = self.corrections_plus
        g = CSRGraph.from_edges(
            self.num_vertices, np.concatenate([u, cp[:, 0]]), np.concatenate([v, cp[:, 1]])
        )
        if len(self.corrections_minus):
            cm = self.corrections_minus
            lo = np.minimum(cm[:, 0], cm[:, 1])
            hi = np.maximum(cm[:, 0], cm[:, 1])
            keys = g.edge_src * np.int64(self.num_vertices) + g.edge_dst
            drop_keys = lo * np.int64(self.num_vertices) + hi
            keep = ~np.isin(keys, drop_keys)
            g = g.keep_edges(keep)
        return g


class DeriveSummaryKernel(SubgraphKernel):
    """Listing 1, lines 35–48: per-cluster supervertex + superedges.

    Each kernel instance owns one cluster: it registers the supervertex,
    encodes intra-cluster pairs (self-superedge vs corrections⁺), and —
    for each *higher-id* neighbor cluster, so every pair is encoded by
    exactly one instance — decides superedge vs corrections.
    """

    name = "derive_summary"

    def __call__(self, subgraph, sg) -> None:
        g = subgraph.graph
        mine = subgraph.vertices
        sv = int(mine.min()) if len(mine) else -1
        sg.summary_insert_supervertex(sv)
        # --- intra-cluster encoding.
        intra = subgraph.internal_edge_ids()
        pairs_total = len(mine) * (len(mine) - 1) // 2
        if pairs_total and len(intra) > (pairs_total + 1) // 2 + 1:
            sg.summary_insert_superedge(subgraph.id, subgraph.id)
            present = {
                (min(int(g.edge_src[e]), int(g.edge_dst[e])),
                 max(int(g.edge_src[e]), int(g.edge_dst[e])))
                for e in intra
            }
            for i in range(len(mine)):
                for j in range(i + 1, len(mine)):
                    pair = (min(int(mine[i]), int(mine[j])), max(int(mine[i]), int(mine[j])))
                    if pair not in present:
                        sg.add_corrections_minus([pair])
        else:
            sg.add_corrections_plus(
                (int(g.edge_src[e]), int(g.edge_dst[e])) for e in intra
            )
        # --- inter-cluster encoding (only toward higher cluster ids).
        out_eids, neighbor_clusters = subgraph.out_edges()
        mapping = subgraph.mapping
        for c in np.unique(neighbor_clusters):
            if c <= subgraph.id:
                continue
            eids = out_eids[neighbor_clusters == c]
            other = np.flatnonzero(mapping == c)
            possible = len(mine) * len(other)
            if len(eids) > (possible + 1) // 2 + 1:
                sg.summary_insert_superedge(subgraph.id, int(c))
                present = {
                    (min(int(g.edge_src[e]), int(g.edge_dst[e])),
                     max(int(g.edge_src[e]), int(g.edge_dst[e])))
                    for e in eids
                }
                for u in mine:
                    for v in other:
                        pair = (min(int(u), int(v)), max(int(u), int(v)))
                        if pair not in present:
                            sg.add_corrections_minus([pair])
            else:
                sg.add_corrections_plus(
                    (int(g.edge_src[e]), int(g.edge_dst[e])) for e in eids
                )
        sg.update_convergence(True)


@register_scheme(
    "summarization",
    positional="epsilon",
    summary="SWeG-style ε-summarization: supervertices + correction sets (§4.5.4)",
    example="summarization(epsilon=0.3)",
)
class LossySummarization(CompressionScheme):
    """SWeG-style ε-summarization.

    Parameters
    ----------
    epsilon:
        Per-vertex error budget: the decompressed neighborhood of v may
        differ from the original by at most ε·d(v) edges.  ε = 0 is a
        lossless summary.
    threshold, max_cluster_size, num_hashes:
        Forwarded to the Jaccard/minhash clustering (§4.5.2).
    """

    def __init__(
        self,
        epsilon: float,
        *,
        threshold: float = 0.3,
        max_cluster_size: int = 32,
        num_hashes: int = 2,
    ):
        self.epsilon = check_probability(epsilon, "epsilon")
        self.threshold = threshold
        self.max_cluster_size = max_cluster_size
        self.num_hashes = num_hashes

    def params(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "threshold": self.threshold,
            "max_cluster_size": self.max_cluster_size,
            "num_hashes": self.num_hashes,
        }

    # -- encoding (vectorized over supervertex-pair blocks) ---------------- #

    def _encode(self, g: CSRGraph, mapping: np.ndarray) -> GraphSummary:
        summary = GraphSummary(num_vertices=g.n, mapping=mapping)
        sizes = np.bincount(mapping, minlength=summary.num_supervertices)
        cs, cd = mapping[g.edge_src], mapping[g.edge_dst]
        lo = np.minimum(cs, cd)
        hi = np.maximum(cs, cd)
        keys = lo * np.int64(len(sizes)) + hi
        # Blocks: the edges between one supervertex pair, in key order,
        # each block's edges in edge-id order.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        new_block = np.ones(len(order), dtype=bool)
        new_block[1:] = sorted_keys[1:] != sorted_keys[:-1]
        block_of = np.cumsum(new_block) - 1
        a = lo[order[new_block]]
        b = hi[order[new_block]]
        present = np.bincount(block_of, minlength=len(a))
        possible = np.where(a == b, sizes[a] * (sizes[a] - 1) // 2, sizes[a] * sizes[b])
        # MDL rule: a superedge pays off when the block is dense enough.
        dense = (possible > 0) & (present > (possible + 1) // 2 + 1)
        plus = order[~dense[block_of]]
        summary.corrections_plus = np.column_stack([g.edge_src[plus], g.edge_dst[plus]])
        summary.superedges = np.column_stack([a[dense], b[dense]])
        # Corrections⁻: every covered member pair that is not an edge, in
        # superedge-then-grid order.  A covered pair can only match an
        # edge of its own block, so one membership test serves all blocks.
        u, v = summary._covered_pairs()
        pair_lo, pair_hi = np.minimum(u, v), np.maximum(u, v)
        n = np.int64(g.n)
        covered = order[dense[block_of]]
        edge_keys = g.edge_src[covered] * n + g.edge_dst[covered]
        missing = ~np.isin(pair_lo * n + pair_hi, edge_keys)
        summary.corrections_minus = np.column_stack([pair_lo[missing], pair_hi[missing]])
        return summary

    def _drop_corrections(self, g: CSRGraph, summary: GraphSummary, rng) -> GraphSummary:
        """Lossy step: drop corrections within per-vertex ε·d(v) budgets,
        corrections⁻ first; both walks draw on one shared budget."""
        if self.epsilon == 0.0:
            return summary
        budget = np.floor(self.epsilon * g.degrees).astype(np.int64)
        summary.corrections_minus = _budget_walk(summary.corrections_minus, budget, rng)
        summary.corrections_plus = _budget_walk(summary.corrections_plus, budget, rng)
        return summary

    def summarize(self, g: CSRGraph, *, seed=None) -> GraphSummary:
        """Produce the (lossy) summary object itself."""
        rng = as_generator(seed)
        mapping = jaccard_minhash_clustering(
            g,
            threshold=self.threshold,
            max_cluster_size=self.max_cluster_size,
            num_hashes=self.num_hashes,
            seed=rng,
        )
        summary = self._encode(g, mapping)
        return self._drop_corrections(g, summary, rng)

    def compress(self, g: CSRGraph, *, seed=None) -> CompressionResult:
        """Summarize then decompress: the graph algorithms of the paper's
        evaluation run on the decompressed approximation."""
        if g.directed:
            raise ValueError("summarization expects an undirected graph")
        summary = self.summarize(g, seed=seed)
        approx = summary.decompress()
        return CompressionResult(
            graph=approx,
            original=g,
            scheme=self.name,
            params=self.params(),
            extras={
                "summary": summary,
                "storage_edges": summary.storage_edges(),
                "storage_ratio": summary.storage_edges() / g.num_edges if g.num_edges else 1.0,
            },
        )

    # -- kernel path ------------------------------------------------------ #

    def make_kernel(self):
        return DeriveSummaryKernel()

    def mapping_fn(self):
        scheme = self

        def build(g: CSRGraph, sg, rng) -> np.ndarray:
            return jaccard_minhash_clustering(
                g,
                threshold=scheme.threshold,
                max_cluster_size=scheme.max_cluster_size,
                num_hashes=scheme.num_hashes,
                seed=rng,
            )

        return build

    def compress_via_kernels(self, g: CSRGraph, *, seed=None, backend="serial", num_chunks=None):
        """Kernel-path summarization: run the subgraph kernel, assemble the
        summary from SG's containers, then decompress."""
        from repro.core.runtime import SlimGraphRuntime

        rng = as_generator(seed)
        runtime = SlimGraphRuntime(
            self.make_kernel(),
            mapping_fn=self.mapping_fn(),
            params=self.kernel_params(),
            backend=backend,
            num_chunks=num_chunks,
            max_rounds=1,
        )
        result = runtime.run(g, seed=rng)
        sg = result.sg

        def pairs(rows) -> np.ndarray:
            return np.array(rows, dtype=np.int64).reshape(-1, 2)

        summary = GraphSummary(
            num_vertices=g.n,
            mapping=sg.mapping,
            # Kernel superedges are cluster-id pairs already.
            superedges=pairs([(a, b) for a, b, _ in sg.summary_edges]),
            corrections_plus=pairs(sg.corrections_plus),
            corrections_minus=pairs(sg.corrections_minus),
        )
        summary = self._drop_corrections(g, summary, rng)
        return CompressionResult(
            graph=summary.decompress(),
            original=g,
            scheme=self.name + "+kernels",
            params=self.params(),
            extras={"summary": summary, "storage_edges": summary.storage_edges()},
        )


def _budget_walk(pairs: np.ndarray, budget: np.ndarray, rng) -> np.ndarray:
    """Greedy budget walk over ``pairs`` in one ``rng.permutation`` order,
    run in exact rounds (see the module docstring).

    A pair drops when both endpoints still have budget; each drop spends
    one unit at both, and ``budget`` is updated in place.  Returns the
    kept pairs in walk order.  Pairs must have distinct endpoints (every
    correction does).  No permutation is drawn for an empty list.
    """
    k = len(pairs)
    if k == 0:
        return pairs
    walk = np.take(pairs, rng.permutation(k), axis=0)
    ends = walk.ravel()  # incidences 2i and 2i + 1 are pair i's endpoints
    # Incidences sorted by (vertex, walk position): one unique key < n·k.
    inc = np.argsort(ends * np.int64(k) + (np.arange(2 * k, dtype=np.int64) >> 1))
    vert = ends[inc]
    slot = np.empty(2 * k, dtype=np.int64)
    slot[inc] = np.arange(2 * k)
    partner = slot[inc ^ 1]  # slot of the pair's other incidence
    room = budget[vert]  # budget left after the dropped pairs before it
    dropped = np.zeros(k, dtype=bool)
    while len(inc):
        size = len(inc)
        first = np.ones(size, dtype=bool)
        first[1:] = vert[1:] != vert[:-1]
        starts = np.flatnonzero(first)
        seg = np.repeat(starts, np.diff(starts, append=size))
        fits = np.arange(size) - seg < room  # d + u < budget
        drop = fits & fits[partner]
        dropped[inc[drop] >> 1] = True
        before = np.cumsum(drop.astype(np.int64)) - drop
        room -= before - before[seg]
        spent = room <= 0  # d >= budget, counting this round's drops
        live = np.flatnonzero(~(drop | spent | spent[partner]))
        renumber = np.empty(size, dtype=np.int64)
        renumber[live] = np.arange(len(live))
        partner = renumber[partner[live]]
        inc, vert, room = inc[live], vert[live], room[live]
    budget -= np.bincount(walk[dropped].ravel(), minlength=len(budget))
    return np.take(walk, np.flatnonzero(~dropped), axis=0)


def save_summary(summary: GraphSummary, path) -> None:
    """Persist a summary to ``.npz`` — the *storage* use case of the title.

    The on-disk size is proportional to ``storage_edges()`` + n (the
    supervertex mapping), which is how lossy summarization turns into
    storage reduction.
    """
    from pathlib import Path

    np.savez_compressed(
        Path(path),
        num_vertices=np.array([summary.num_vertices], dtype=np.int64),
        mapping=summary.mapping,
        superedges=np.ascontiguousarray(summary.superedges, dtype=np.int64),
        corrections_plus=np.ascontiguousarray(summary.corrections_plus, dtype=np.int64),
        corrections_minus=np.ascontiguousarray(summary.corrections_minus, dtype=np.int64),
    )


def load_summary(path) -> GraphSummary:
    """Load a summary written by :func:`save_summary`.

    The file is untrusted input: a missing array, a pair array not shaped
    ``(k, 2)``, a ``mapping`` whose length is not ``num_vertices``, or a
    negative or out-of-range vertex or supervertex id raises
    ``ValueError`` naming the field.
    """
    from pathlib import Path

    with np.load(Path(path)) as z:
        fields = {}
        for name in _SUMMARY_FIELDS:
            if name not in z.files:
                raise ValueError(f"summary file has no {name!r} array")
            fields[name] = z[name]
    for name, arr in fields.items():
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    num_vertices = fields["num_vertices"]
    if num_vertices.shape != (1,) or num_vertices[0] < 0:
        raise ValueError("num_vertices must be one non-negative integer")
    n = int(num_vertices[0])
    mapping = fields["mapping"]
    if mapping.shape != (n,):
        raise ValueError(
            f"mapping must have num_vertices={n} entries, got shape {mapping.shape}"
        )
    _check_ids("mapping", mapping, n, "supervertex")
    num_supervertices = int(mapping.max()) + 1 if n else 0
    pairs = {}
    for name, bound, kind in (
        ("superedges", num_supervertices, "supervertex"),
        ("corrections_plus", n, "vertex"),
        ("corrections_minus", n, "vertex"),
    ):
        arr = fields[name]
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"{name} must have shape (k, 2), got {arr.shape}")
        _check_ids(name, arr, bound, kind)
        pairs[name] = arr.astype(np.int64, copy=False)
    return GraphSummary(
        num_vertices=n, mapping=mapping.astype(np.int64, copy=False), **pairs
    )


_SUMMARY_FIELDS = (
    "num_vertices",
    "mapping",
    "superedges",
    "corrections_plus",
    "corrections_minus",
)


def _check_ids(name: str, arr: np.ndarray, bound: int, kind: str) -> None:
    if arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise ValueError(
            f"{name} holds {kind} ids outside [0, {bound}): "
            f"min {arr.min()}, max {arr.max()}"
        )
