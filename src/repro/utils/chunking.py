"""Work partitioning helpers for the kernel execution engine.

The engine runs one kernel instance per graph element (vertex, edge,
triangle, subgraph).  Elements are split into contiguous chunks so each
worker processes a dense range — contiguous access patterns are much faster
on CSR arrays than scattered ones (cache effects; see the optimization
guide), and contiguity also lets the engine hand each chunk an independent
RNG stream.
"""

from __future__ import annotations


def chunk_ranges(total: int, num_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``num_chunks`` contiguous ranges.

    Sizes differ by at most one element.  Empty ranges are never returned.

    >>> chunk_ranges(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if num_chunks <= 0:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    num_chunks = min(num_chunks, total) or (1 if total == 0 else num_chunks)
    if total == 0:
        return []
    base, extra = divmod(total, num_chunks)
    out = []
    start = 0
    for i in range(num_chunks):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out
