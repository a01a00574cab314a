"""Out-of-core sweeps: cut a graph into mmap-able CSR shards, sweep each.

A pooled grid already shares one copy of its graph: workers memory-map
the exploded snapshot the parent writes (:mod:`repro.runner.parallel`).
A graph too big to hold even *once* needs the disk as backing store for
the parent too, and that is this module: :func:`shard_graph` cuts the
edge set into contiguous (or degree-balanced) ranges with
:class:`repro.distributed.partition.EdgePartition`, materializes each
range as a vertex-preserving subgraph (``CSRGraph.keep_edges`` —
bit-identical to a full rebuild), and writes every shard in the
*exploded* (v2) snapshot layout that ``load_snapshot(..., mmap=True)``
can memory-map.  A ``manifest.json``
(written last, atomically — the same write-sidecars-then-commit
discipline as the exploded snapshot itself) makes the shard set
self-describing and damage detectable.

:func:`sweep_shards` then drives a normal grid over every shard: the
parent touches each shard through a read-only mapping (pages the kernel
can drop under pressure) and pooled workers map a snapshot of it — at
no point does the full graph, or even one full private shard copy per
worker, have to be resident.  Cells are labeled
``graph="shard:<i>"`` so per-shard results stay attributable and the
merged table is a plain :class:`~repro.analytics.grid.SweepTable`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analytics.grid import SweepTable
from repro.distributed.partition import EdgePartition
from repro.graphs.csr import CSRGraph
from repro.graphs.snapshot import SnapshotError, load_snapshot, save_snapshot
from repro.obs.spans import span
from repro.utils.fileio import atomic_write
from repro.utils.timer import stopwatch

__all__ = ["Shard", "ShardSet", "shard_graph", "sweep_shards", "SHARD_MANIFEST_VERSION"]

#: Version of ``manifest.json``; bump on layout changes.
SHARD_MANIFEST_VERSION = 1

#: Manifest file name inside a shard-set directory.
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class Shard:
    """One edge-range shard of a parent graph (metadata only)."""

    index: int
    path: str
    edge_lo: int
    edge_hi: int
    num_edges: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "path": self.path,
            "edge_lo": self.edge_lo,
            "edge_hi": self.edge_hi,
            "num_edges": self.num_edges,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Shard":
        return cls(
            index=int(data["index"]),
            path=str(data["path"]),
            edge_lo=int(data["edge_lo"]),
            edge_hi=int(data["edge_hi"]),
            num_edges=int(data["num_edges"]),
        )


class ShardSet:
    """A directory of exploded shard snapshots plus its manifest.

    Construct with :func:`shard_graph` or reopen with :meth:`open`.
    Iterating yields ``(shard, graph)`` pairs with the graph memory-mapped
    read-only — materialize at most one shard's *pages* at a time, and
    only the ones actually touched.
    """

    def __init__(self, root: Path, manifest: dict):
        self.root = Path(root)
        self.manifest = manifest
        self.shards = tuple(Shard.from_dict(s) for s in manifest["shards"])

    @classmethod
    def open(cls, root) -> "ShardSet":
        root = Path(root)
        try:
            manifest = json.loads((root / MANIFEST_NAME).read_text())
        except FileNotFoundError:
            raise SnapshotError(
                f"no shard manifest at {root / MANIFEST_NAME} — not a shard "
                "set, or the cut crashed before commit"
            ) from None
        except (OSError, ValueError) as err:
            raise SnapshotError(f"unreadable shard manifest at {root}: {err}") from err
        if manifest.get("version") != SHARD_MANIFEST_VERSION:
            raise SnapshotError(
                f"unsupported shard manifest version {manifest.get('version')!r} "
                f"at {root} (this build reads {SHARD_MANIFEST_VERSION})"
            )
        return cls(root, manifest)

    def __len__(self) -> int:
        return len(self.shards)

    def load(self, index: int, *, mmap: bool = True) -> CSRGraph:
        """Load one shard's graph (memory-mapped by default)."""
        shard = self.shards[index]
        return load_snapshot(self.root / shard.path, mmap=mmap)

    def __iter__(self):
        for shard in self.shards:
            yield shard, load_snapshot(self.root / shard.path, mmap=True)

    def __repr__(self) -> str:
        return (
            f"ShardSet({str(self.root)!r}, shards={len(self.shards)}, "
            f"n={self.manifest['n']}, edges={self.manifest['num_edges']})"
        )


def shard_graph(
    g: CSRGraph,
    root,
    *,
    num_shards: int,
    policy: str = "contiguous",
    fingerprint: str | None = None,
) -> ShardSet:
    """Cut ``g`` into ``num_shards`` edge-range shards under ``root``.

    ``policy`` selects the edge partition: ``"contiguous"`` (equal edge
    counts) or ``"balanced"`` (endpoint-degree-balanced ranges — better
    for power-law graphs whose hub edges dominate work).  Every shard
    keeps the full vertex set (compression never renumbers vertices), so
    per-shard metric outputs stay positionally comparable.

    Shards are written in the exploded (v2) snapshot layout; the
    manifest commits last, so a crash mid-cut leaves a directory
    :meth:`ShardSet.open` refuses rather than a silently short set.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if policy == "contiguous":
        part = EdgePartition.contiguous(g, num_shards)
    elif policy == "balanced":
        part = EdgePartition.balanced(g, num_shards)
    else:
        raise ValueError(
            f"unknown shard policy {policy!r}; use 'contiguous' or 'balanced'"
        )
    if fingerprint is None:
        from repro.runner.fingerprint import graph_fingerprint

        fingerprint = graph_fingerprint(g)

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    shards: list[Shard] = []
    with span("shards.cut", shards=len(part.ranges), policy=policy):
        for i, (lo, hi) in enumerate(part.ranges):
            mask = np.zeros(g.num_edges, dtype=bool)
            mask[lo:hi] = True
            sub = g.keep_edges(mask)
            rel = f"shard-{i:04d}.snap"
            save_snapshot(sub, root / rel, layout="exploded")
            shards.append(
                Shard(
                    index=i,
                    path=rel,
                    edge_lo=int(lo),
                    edge_hi=int(hi),
                    num_edges=int(hi - lo),
                )
            )
    manifest = {
        "version": SHARD_MANIFEST_VERSION,
        "fingerprint": fingerprint,
        "n": g.n,
        "directed": g.directed,
        "num_edges": g.num_edges,
        "policy": policy,
        "shards": [s.to_dict() for s in shards],
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True)
    atomic_write(root / MANIFEST_NAME, lambda fh: fh.write(payload.encode()))
    return ShardSet(root, manifest)


def sweep_shards(
    shard_set,
    schemes,
    algorithms,
    metrics=None,
    *,
    seed=0,
    jobs: int | None = None,
    store=None,
    retry=None,
    session_kwargs: dict | None = None,
):
    """Run one grid per shard over memory-mapped inputs; merged results.

    ``shard_set`` is a :class:`ShardSet` or a path to one.  Each shard
    gets its own :class:`~repro.analytics.session.Session` over the
    shard's mapped graph; pooled workers map an exploded snapshot of it
    instead of holding private copies, so peak residency is bounded by
    one shard's touched pages, not the whole graph.

    Returns ``(table, perf)``: a :class:`SweepTable` whose cells carry
    ``graph="shard:<i>"`` labels, and the per-shard grid records folded
    with :func:`~repro.runner.parallel.merge_perf` (manifest entries
    tagged ``shard``), plus each shard's own record under ``"shards"``.
    """
    from dataclasses import replace as _replace

    from repro.analytics.session import Session
    from repro.runner.parallel import merge_perf, new_perf

    if not isinstance(shard_set, ShardSet):
        shard_set = ShardSet.open(shard_set)
    cells = []
    shard_perf = []
    perf = new_perf(
        num_shards=len(shard_set), fingerprint=shard_set.manifest.get("fingerprint")
    )
    with stopwatch() as wall, span("shards.sweep", shards=len(shard_set)):
        for shard in shard_set.shards:
            graph = shard_set.load(shard.index, mmap=True)
            session = Session(
                graph,
                seed=seed,
                jobs=jobs,
                store=store,
                retry=retry,
                **(session_kwargs or {}),
            )
            table = session.grid(schemes, algorithms, metrics, seed=seed)
            label = f"shard:{shard.index}"
            cells.extend(_replace(c, graph=label) for c in table)
            grid_perf = dict(session.last_grid_perf)
            grid_perf.pop("store_stats", None)
            merge_perf(perf, grid_perf, shard=shard.index)
            shard_perf.append(
                {"shard": shard.index, "edges": shard.num_edges, **grid_perf}
            )
            # Drop the session and mapped graph before the next shard so
            # at most one shard's mapping is live at a time.
            del session, table, graph
    perf.update(shards=shard_perf, wall_seconds=wall.seconds, cells=len(cells))
    return SweepTable(cells), perf
