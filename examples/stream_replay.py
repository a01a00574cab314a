#!/usr/bin/env python
"""Streaming replay: edge deltas, CSR generations, incremental repair.

The evolving-graph tour of :mod:`repro.stream`:

1. start from a synthetic social-network snapshot,
2. synthesize a few churn batches (inserts + deletes), write them to the
   line-oriented stream format, and read them back — the on-disk replay
   loop a subscription service would run,
3. advance a :class:`GraphStream` generation by generation while two
   maintainers keep compressed outputs in step: the §4.5.3 spanner is
   recompressed per generation (its LDD runs as numpy frontier rounds),
   EO triangle reduction is repaired in the delta-touched neighborhood,
4. cross-check both against a from-scratch batch recompress of the
   final head, and print the fingerprint-linked generation ledger.

Run:  python examples/stream_replay.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.compress.registry import build_scheme
from repro.graphs import generators as gen
from repro.stream import EdgeDelta, GraphStream, maintainer_for, read_stream, write_stream

BATCHES = 4
CHURN_OPS = 24
SPECS = ("spanner(k=4)", "EO-0.8-1-TR")


def churn_delta(g, seed: int, ops: int) -> EdgeDelta:
    """Half deletes of existing edges, half inserts of fresh pairs."""
    rng = np.random.default_rng(seed)
    half = ops // 2
    idx = rng.choice(g.num_edges, size=half, replace=False)
    deletes = list(zip(g.edge_src[idx].tolist(), g.edge_dst[idx].tolist()))
    present = set(zip(g.edge_src.tolist(), g.edge_dst.tolist())) - set(deletes)
    inserts = []
    while len(inserts) < ops - half:
        u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
        pair = (min(u, v), max(u, v))
        if u != v and pair not in present:
            present.add(pair)
            inserts.append(pair)
    return EdgeDelta.build(inserts=inserts, deletes=deletes)


def main() -> None:
    base = gen.powerlaw_cluster(400, 3, 0.4, seed=0)
    print(f"base generation: {base}")

    # Synthesize the stream, round-trip it through the text format.
    stream = GraphStream(base)
    deltas, head = [], base
    for i in range(BATCHES):
        delta = churn_delta(head, seed=10 + i, ops=CHURN_OPS)
        deltas.append(delta)
        head = stream.apply(delta)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "social.stream"
        write_stream(deltas, path)
        replayed = read_stream(path)
    assert [d.delta_id for d in replayed] == [d.delta_id for d in deltas]
    print(f"stream file round-trips: {len(replayed)} batches, ids preserved\n")

    # Replay against fresh maintainers, one repair per generation.
    stream = GraphStream(base)
    maintainers = {spec: maintainer_for(spec, seed=0) for spec in SPECS}
    for m in maintainers.values():
        m.attach(base)
    for gen_id, delta in enumerate(replayed, start=1):
        g = stream.apply(delta)
        cells = []
        for spec, m in maintainers.items():
            m.update(delta, g)
            cells.append(f"{spec}→{m.compressed.num_edges:>5} edges")
        print(
            f"gen {gen_id}: n={g.n} m={g.num_edges} "
            f"(+{delta.num_inserts} -{delta.num_deletes})   " + "   ".join(cells)
        )

    # The spanner recompressed every generation, so it *is* the batch
    # spanner of the final head; EO-TR was only ever repaired.
    spanner = maintainers["spanner(k=4)"]
    batch = build_scheme("spanner(k=4)").compress(stream.head, seed=0).graph
    assert np.array_equal(spanner.compressed.edge_src, batch.edge_src)
    assert np.array_equal(spanner.compressed.edge_dst, batch.edge_dst)
    tr_stats = maintainers["EO-0.8-1-TR"].stats
    assert tr_stats == {"repairs": BATCHES, "full_rebuilds": 0}, tr_stats
    print()
    for spec, m in maintainers.items():
        stats = m.stats
        print(f"{spec}: {stats['repairs']} repairs, {stats['full_rebuilds']} rebuilds")

    # The repaired EO-TR output is contract-equal, not bit-equal, to a
    # from-scratch recompress (the lottery history differs): compare the
    # shapes.
    full = build_scheme("EO-0.8-1-TR").compress(stream.head, seed=0).graph
    kept = maintainers["EO-0.8-1-TR"].compressed
    print(
        f"spanner(k=4) on final head: maintained = batch ({batch.num_edges} edges)\n"
        f"EO-0.8-1-TR on final head: incremental kept {kept.num_edges} edges, "
        f"batch recompress kept {full.num_edges}"
    )

    print("\ngeneration ledger (fingerprint-linked):")
    for row in stream.ledger():
        print(
            f"  gen {row['index']}: m={row['num_edges']:>5} "
            f"fingerprint {row['fingerprint'][:12]}… "
            f"delta {(row['delta_id'] or 'base')[:12]}"
        )


if __name__ == "__main__":
    main()
