"""PageRank by power iteration.

PageRank is the paper's canonical "output is a probability distribution"
algorithm: Table 5 compares PageRank distributions on original vs
compressed graphs with the Kullback-Leibler divergence.  The returned rank
vector always sums to 1 (dangling mass is redistributed uniformly), so it
can be fed to :mod:`repro.metrics.divergences` directly.

The iteration is one sparse matvec per round (scipy CSR), i.e. Θ(m) work
per iteration — the same scaling as the paper's substrate.  The matvec
runs on the transposed, row-normalized transition matrix ``P_T``.  An
undirected graph run unweighted (the default, and every grid's ``pr``)
is symmetric, so ``P_T`` is read straight off its CSR arrays: row ``v``
lists ``v``'s neighbours ``u`` with value ``1 / deg(u)``, the same
``indptr``, ``indices`` and ``data`` the transpose would give, so the
ranks are bitwise the same.  Directed graphs and ``weighted=True`` build
the row-normalized adjacency and transpose it once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.graphs.csr import CSRGraph

__all__ = ["PageRankResult", "pagerank"]


@dataclass(frozen=True)
class PageRankResult:
    ranks: np.ndarray
    iterations: int
    converged: bool

    def top(self, k: int = 10) -> np.ndarray:
        """Vertex ids of the k highest-ranked vertices (descending)."""
        order = np.argsort(-self.ranks, kind="stable")
        return order[:k]


def _inverse(out_strength: np.ndarray) -> np.ndarray:
    """``1 / out_strength``, with 0 for dangling vertices."""
    live = out_strength != 0
    inv_out = np.zeros(len(out_strength))
    inv_out[live] = 1.0 / out_strength[live]
    return inv_out


def _transposed_transition(g: CSRGraph, weighted: bool):
    """``(P_T, out_strength)`` for any graph: the row-normalized
    adjacency, transposed once for a fast matvec."""
    adj = g.to_scipy()
    if not weighted and g.is_weighted:
        adj = adj.copy()
        adj.data[:] = 1.0
    out_strength = np.asarray(adj.sum(axis=1)).ravel()
    inv_out = _inverse(out_strength)
    return adj.multiply(inv_out[:, None]).tocsc().T.tocsr(), out_strength


def _direct_transition(g: CSRGraph):
    """``(P_T, out_strength)`` of an undirected graph run unweighted, read
    off its symmetric CSR: entry ``(v, u)`` is ``1 / deg(u)``."""
    from scipy.sparse import csr_matrix

    out_strength = np.diff(g.indptr).astype(np.float64)
    inv_out = _inverse(out_strength)
    P_T = csr_matrix((inv_out[g.indices], g.indices, g.indptr), shape=(g.n, g.n))
    return P_T, out_strength


@register_algorithm(
    "pagerank",
    adapter="distribution",
    aliases=("pr",),
    extract=lambda res: res.ranks,
    param_aliases={"iterations": "max_iterations"},
    summary="power-iteration PageRank; ranks form a probability distribution",
    example="pagerank(iterations=50)",
)
def pagerank(
    g: CSRGraph,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 200,
    weighted: bool = False,
) -> PageRankResult:
    """Power-iteration PageRank.

    Parameters
    ----------
    damping:
        Teleport parameter α (paper/Brin-Page default 0.85).
    tol:
        L1 convergence threshold between successive rank vectors (> 0).
    max_iterations:
        Cap on power-iteration rounds (a positive integer).
    weighted:
        Distribute rank proportionally to edge weights instead of uniformly
        over out-neighbors.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if (
        isinstance(max_iterations, bool)
        or not isinstance(max_iterations, numbers.Integral)
        or max_iterations < 1
    ):
        raise ValueError(
            f"max_iterations must be a positive integer, got {max_iterations!r}"
        )
    n = g.n
    if n == 0:
        return PageRankResult(ranks=np.empty(0), iterations=0, converged=True)

    if g.directed or weighted:
        P_T, out_strength = _transposed_transition(g, weighted)
    else:
        P_T, out_strength = _direct_transition(g)
    dangling = np.flatnonzero(out_strength == 0)

    r = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for it in range(1, max_iterations + 1):
        dangling_mass = damping * r[dangling].sum() / n
        new = base + dangling_mass + damping * P_T.dot(r)
        delta = np.abs(new - r).sum()
        r = new
        if delta < tol:
            return PageRankResult(ranks=r, iterations=it, converged=True)
    return PageRankResult(ranks=r, iterations=max_iterations, converged=False)
