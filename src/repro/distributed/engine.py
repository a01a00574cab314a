"""Distributed compression of large graphs (§7.3, Fig. 8).

Each simulated rank owns a contiguous edge partition and runs an *edge
compression kernel* over it, writing its slice of the global keep mask
into an RMA window — the exact dataflow of the paper's MPI-RMA pipeline.
Randomness is a single *global coin sequence* derived from the seed;
rank r consumes exactly its slice (the counter-based-RNG pattern a real
MPI deployment would use to regenerate slices locally), so the compressed
graph is **bit-identical for any rank count, for both backends, and to
the single-node scheme with the same seed**:

- ``backend="inprocess"`` — ranks execute sequentially in this process
  against a plain window (deterministic reference; used in tests);
- ``backend="process"`` — ranks are real OS processes attached to a
  ``multiprocessing.shared_memory`` window.

Only the uniform sampling kernel is supported, matching the paper
("Currently, we use a distributed-memory implementation of edge
compression kernels").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compress.base import CompressionResult
from repro.distributed.partition import EdgePartition
from repro.distributed.rma import Window
from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

__all__ = ["DistributedCompressionResult", "distributed_uniform_sampling"]


@dataclass(frozen=True)
class DistributedCompressionResult:
    """Compression output plus per-rank accounting."""

    result: CompressionResult
    num_ranks: int
    edges_per_rank: tuple[int, ...]
    deleted_per_rank: tuple[int, ...]


def _rank_keep_mask(p: float, coins_slice: np.ndarray) -> np.ndarray:
    """One rank's kernel sweep: keep edge e iff coin_e <= p."""
    return (coins_slice <= p).astype(np.uint8)


def _process_worker(args) -> tuple[int, int]:
    """Worker entry: attach to the shared window, compress own partition."""
    window_name, total, lo, hi, p, coins_slice = args
    win = Window(total, dtype="uint8", shared=True, name=window_name)
    try:
        mask = _rank_keep_mask(p, coins_slice)
        win.lock(rank=lo)  # any unique token; asserts exclusive access
        win.put(lo, mask)
        win.unlock(rank=lo)
        return hi - lo, int((mask == 0).sum())
    finally:
        win._shm.close()  # attach-only close; creator unlinks


def distributed_uniform_sampling(
    g: CSRGraph,
    p: float,
    *,
    num_ranks: int = 4,
    seed=None,
    backend: str = "inprocess",
) -> DistributedCompressionResult:
    """Fig. 8's experiment: uniform sampling over edge partitions."""
    check_probability(p, "p")
    partition = EdgePartition.contiguous(g, num_ranks)
    partition.validate(g.num_edges)
    m = g.num_edges
    # The global coin sequence: rank r reads its slice.  A real MPI rank
    # regenerates its slice with a counter-based RNG instead of shipping it.
    coins = as_generator(seed).random(m)

    if backend == "inprocess":
        window = Window(m, dtype="uint8")
        window.fence()
        stats = []
        for lo, hi in partition.ranges:
            mask = _rank_keep_mask(p, coins[lo:hi])
            window.put(lo, mask)
            stats.append((hi - lo, int((mask == 0).sum())))
        window.fence()
        keep = window.buffer.astype(bool)
    elif backend == "process":
        import multiprocessing as mp

        with Window(m, dtype="uint8", shared=True) as window:
            jobs = [
                (window.name, m, lo, hi, p, coins[lo:hi].copy())
                for lo, hi in partition.ranges
            ]
            stats = []
            if jobs:  # an edgeless graph has no partitions and needs no pool
                ctx = mp.get_context("fork")
                with ctx.Pool(processes=min(len(jobs), 4)) as pool:
                    stats = pool.map(_process_worker, jobs)
            keep = window.buffer.astype(bool).copy()
    else:
        raise ValueError(f"unknown backend {backend!r}")

    result = CompressionResult(
        graph=g.keep_edges(keep),
        original=g,
        scheme="distributed_uniform",
        params={"p": p, "num_ranks": num_ranks},
    )
    return DistributedCompressionResult(
        result=result,
        num_ranks=len(partition.ranges),
        edges_per_rank=tuple(s[0] for s in stats),
        deleted_per_rank=tuple(s[1] for s in stats),
    )
