#!/usr/bin/env python
"""Distributed lossy compression — the §7.3 / Fig. 8 pipeline.

The paper compressed the 128-billion-edge Web Data Commons crawl on 100
Cray nodes with MPI-RMA edge kernels.  This example runs the simulated
pipeline on the scaled-down stand-in: the graph's canonical edges are
partitioned across ranks, every rank executes the uniform-sampling edge
kernel over its partition, and the per-rank keep masks land in a shared
RMA window.

Two properties worth seeing with your own eyes:

- the result is bit-identical for any rank count and for the real
  multi-process backend (determinism by construction — a global coin
  sequence sliced per rank);
- sampling "removes the clutter" from the degree distribution (Fig. 8's
  observation), which we quantify as the number of distinct points in the
  (degree, fraction) cloud.

Run:  python examples/distributed_compression.py
(exits 1 if the runs are not bit-identical)
"""

import numpy as np

from repro import datasets
from repro.distributed import distributed_uniform_sampling
from repro.metrics.distributions import degree_histogram


def main() -> int:
    crawl = datasets.load("h-duk", seed=0)  # directed web-crawl stand-in
    print(f"web crawl: {crawl}")
    print(f"paper original: n=787M, m=47.6B (scaled-down stand-in)\n")

    p = 0.4
    runs = {
        "1 rank (inprocess)": distributed_uniform_sampling(
            crawl, p, num_ranks=1, seed=7
        ),
        "6 ranks (inprocess)": distributed_uniform_sampling(
            crawl, p, num_ranks=6, seed=7
        ),
        "4 ranks (processes)": distributed_uniform_sampling(
            crawl, p, num_ranks=4, seed=7, backend="process"
        ),
    }

    graphs = [r.result.graph for r in runs.values()]
    for label, run in runs.items():
        g = run.result.graph
        print(
            f"{label:22s} m={g.num_edges:8d}"
            f"  per-rank deletions={list(run.deleted_per_rank)}"
        )
    identical = all(
        np.array_equal(graphs[0].edge_src, g.edge_src)
        and np.array_equal(graphs[0].edge_dst, g.edge_dst)
        for g in graphs[1:]
    )
    print(f"\nall runs bit-identical : {identical}")

    pts0 = len(degree_histogram(crawl)[0])
    pts1 = len(degree_histogram(graphs[0])[0])
    print(f"degree-cloud points    : {pts0} -> {pts1} (clutter removed, Fig. 8)")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
