"""``python -m repro.stream`` — replay and synthesize edge streams.

Two subcommands:

``replay <stream-file>``
    Read a text stream file (:func:`repro.stream.delta.read_stream`),
    apply every batch through a :class:`~repro.stream.ingest.
    GraphStream`, and — with ``--maintain`` — keep compressed outputs
    synchronized per generation.  Prints one line per
    generation; ``--out`` writes a JSON replay record (the generation
    ledger plus maintainer stats).

``synth``
    Write a deterministic synthetic stream file (base graph as the
    first batch, then churn batches of mixed inserts/deletes), the
    input CI's stream-smoke job and the docs quickstart replay.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.stream.delta import EdgeDelta, read_stream, write_stream
from repro.stream.incremental import maintainer_for
from repro.stream.ingest import GraphStream

__all__ = ["main", "synthesize_stream"]


def synthesize_stream(
    *,
    num_vertices: int = 200,
    batches: int = 5,
    churn: int = 20,
    seed: int = 0,
    weighted: bool = False,
) -> list[EdgeDelta]:
    """A deterministic stream: one base batch plus churn batches.

    The base is a powerlaw-cluster graph (triangle-rich, so TR has work
    to do); every later batch deletes ``churn/2`` random edges and
    inserts ``churn/2`` fresh ones (weighted streams also re-weight a
    few surviving edges).
    """
    from repro.graphs.generators import powerlaw_cluster

    rng = np.random.default_rng(seed)
    g = powerlaw_cluster(num_vertices, 3, 0.4, seed=int(rng.integers(2**31)))
    weights = (
        rng.uniform(0.5, 2.0, size=g.num_edges).round(3) if weighted else None
    )
    edges = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
    if weighted:
        inserts = [
            (u, v, float(w))
            for (u, v), w in zip(sorted(edges), weights)
        ]
    else:
        inserts = sorted(edges)
    deltas = [EdgeDelta.build(inserts=inserts, num_vertices=g.n)]

    for _ in range(batches - 1):
        pool = sorted(edges)
        half = max(churn // 2, 1)
        gone_idx = rng.choice(len(pool), size=min(half, len(pool)), replace=False)
        deletes = [pool[i] for i in sorted(gone_idx.tolist())]
        for p in deletes:
            edges.discard(p)
        new_edges: list = []
        tries = 0
        while len(new_edges) < half and tries < 50 * half:
            tries += 1
            u = int(rng.integers(num_vertices))
            v = int(rng.integers(num_vertices))
            if u == v:
                continue
            p = (min(u, v), max(u, v))
            if p in edges or p in deletes or p in {e[:2] for e in new_edges}:
                continue
            new_edges.append(
                (*p, round(float(rng.uniform(0.5, 2.0)), 3)) if weighted else p
            )
        edges.update(e[:2] if weighted else e for e in new_edges)
        updates = None
        if weighted and edges:
            survivors = sorted(edges - {e[:2] for e in new_edges})
            take = min(3, len(survivors))
            upd_idx = rng.choice(len(survivors), size=take, replace=False)
            updates = [
                (*survivors[i], round(float(rng.uniform(0.5, 2.0)), 3))
                for i in sorted(upd_idx.tolist())
            ]
        deltas.append(
            EdgeDelta.build(inserts=new_edges, deletes=deletes, updates=updates)
        )
    return deltas


def _cmd_synth(args) -> int:
    deltas = synthesize_stream(
        num_vertices=args.n,
        batches=args.batches,
        churn=args.churn,
        seed=args.seed,
        weighted=args.weighted,
    )
    path = write_stream(deltas, args.out)
    total = sum(d.size for d in deltas)
    print(f"wrote {len(deltas)} batches ({total} ops) to {path}")
    return 0


def _cmd_replay(args) -> int:
    deltas = read_stream(args.stream_file, directed=args.directed)
    if not deltas:
        print(f"{args.stream_file}: empty stream")
        return 1
    directed = deltas[0].directed
    weighted = deltas[0].insert_weights is not None
    stream = GraphStream(directed=directed, weighted=weighted)
    maintainers = [
        maintainer_for(spec, seed=args.seed, churn_threshold=args.churn_threshold)
        for spec in args.maintain
    ]
    base = stream.head
    for m in maintainers:
        m.attach(base)
    for delta in deltas:
        g = stream.apply(delta)
        parts = [
            f"gen {stream.generation}: n={g.n} m={g.num_edges} "
            f"(+{delta.num_inserts} -{delta.num_deletes} ={delta.num_updates})"
        ]
        for m in maintainers:
            m.update(delta, g)
            parts.append(f"{m.scheme_name}→{m.compressed.num_edges}")
        print("  ".join(parts))
    record = {
        "stream_file": str(args.stream_file),
        "generations": stream.generation,
        "head_fingerprint": stream.head_fingerprint,
        "ledger": stream.ledger(),
        "maintainers": [
            {
                "scheme": m.scheme_name,
                "params": m.params(),
                "edges_kept": m.compressed.num_edges,
                **m.stats,
            }
            for m in maintainers
        ],
    }
    print(
        f"replayed {stream.generation} generation(s); head "
        f"n={stream.head.n} m={stream.head.num_edges} "
        f"fingerprint={stream.head_fingerprint[:12]}"
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=2, default=str) + "\n")
        print(f"wrote replay record to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Replay and synthesize edge-delta streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="replay a stream file")
    replay.add_argument("stream_file", help="text stream file to replay")
    replay.add_argument(
        "--maintain",
        action="append",
        default=[],
        metavar="SPEC",
        help="scheme spec to keep compressed per generation (repeatable), "
        "e.g. 'spanner(k=4)' (recompressed) or 'EO-0.8-1-TR' (repaired)",
    )
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument(
        "--churn-threshold",
        type=float,
        default=0.25,
        help="delta size / m above which maintainers fully recompress",
    )
    replay.add_argument(
        "--directed",
        action="store_true",
        default=None,
        help="force directed interpretation (default: stream header)",
    )
    replay.add_argument("--out", help="write a JSON replay record here")
    replay.set_defaults(fn=_cmd_replay)

    synth = sub.add_parser("synth", help="write a synthetic stream file")
    synth.add_argument("--out", required=True, help="stream file to write")
    synth.add_argument("--n", type=int, default=200, help="vertex count")
    synth.add_argument("--batches", type=int, default=5)
    synth.add_argument("--churn", type=int, default=20, help="ops per batch")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--weighted", action="store_true")
    synth.set_defaults(fn=_cmd_synth)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
