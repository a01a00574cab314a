"""Graph-keyed memoization of expensive structural analyses.

Slim Graph's evaluation loop applies many schemes × seeds × algorithms to
the *same* input graph (§5), and several of those steps need the same
expensive derived structure: Triangle Reduction lists the graph's
triangles once per seed, the ``tc`` baseline counts them again,
``summarize``/Table 3 checks count them a third time.  Each of those is
O(m^{3/2}) from scratch.  :class:`AnalysisCache` memoizes such derived
structures **per graph object**:

- **identity-keyed, weakly held** — the key is the graph's object
  identity in a ``WeakKeyDictionary``.  :class:`~repro.graphs.csr.
  CSRGraph` is immutable and every transform returns a *new* object, so
  identity keying gives mutation-free invalidation for free: a derived
  graph can never observe its parent's cached triangles, and cached
  entries die with the graph instead of pinning it in memory.
- **observable** — per-analysis hit/miss counters surface in
  ``Session.last_grid_perf`` and the runner's ``BENCH_*.json`` records
  (see :func:`stats_delta`), so cache effectiveness is part of the perf
  trajectory and the test suite can assert, e.g., that a multi-seed TR
  sweep lists triangles exactly once.

Analyses register with the :func:`cached_analysis` decorator; only the
bare one-argument form ``fn(graph)`` is memoized — parameterized calls
pass straight through.

Identity keying means a child never *reads* its parent's entries, but
the cache can still say how a child relates to its parent.
:meth:`~repro.graphs.csr.CSRGraph.keep_edges` records a **lineage** link
``(weakref(parent), keep mask)`` on the child (:func:`record_lineage`),
and :func:`lineage_parent` returns that parent with the mask while the
parent is alive and has been counted.  An edge subgraph's triangles are
exactly its parent's triangles whose three edges survive, so the
triangle count of a sampled graph is derived from the parent's cached
triangle edge ids (:mod:`repro.algorithms.triangles`) instead of being
recounted.  Links hold the parent weakly — a child never pins its
parent — and a dead parent means no derivation.
"""

from __future__ import annotations

import functools
import weakref
from collections import defaultdict

from repro.obs.metrics import counter as _counter

__all__ = [
    "AnalysisCache",
    "analysis_cache",
    "cached_analysis",
    "inherit_lineage",
    "lineage_parent",
    "record_lineage",
    "stats_delta",
]

# Process-wide rollups of the per-instance hit/miss dicts below; the
# canonical names fixing the historical analysis_hits-vs-hits drift.
_metric_hits = _counter("repro.analysis.hits")
_metric_misses = _counter("repro.analysis.misses")


class AnalysisCache:
    """A weak, graph-keyed memo for derived structural analyses."""

    def __init__(self) -> None:
        self._entries: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._hits: dict[str, int] = defaultdict(int)
        self._misses: dict[str, int] = defaultdict(int)

    # -- core lookup -------------------------------------------------------- #

    def lookup(self, graph, name: str, build):
        """The cached ``name`` analysis of ``graph``, computing via
        ``build(graph)`` on a miss.  Counts a hit or a miss either way."""
        entry = self._entry(graph)
        if entry is None:  # graph cannot be weakly referenced / hashed
            return build(graph)
        if name in entry:
            self._hits[name] += 1
            _metric_hits.inc()
            return entry[name]
        self._misses[name] += 1
        _metric_misses.inc()
        value = build(graph)
        entry[name] = value
        return value

    def peek(self, graph, name: str, default=None):
        """The cached value if present; never computes.

        A found value counts as a hit (it is a successful cache use — e.g.
        ``count_triangles`` reading an already-listed triangle set); an
        absent one counts nothing, because peeking is how callers probe
        for *optional* reuse without committing to the computation.
        """
        try:
            entry = self._entries.get(graph)
        except TypeError:
            return default
        if entry is None or name not in entry:
            return default
        self._hits[name] += 1
        _metric_hits.inc()
        return entry[name]

    def put(self, graph, name: str, value) -> None:
        """Install a value computed elsewhere (no hit/miss accounting)."""
        entry = self._entry(graph)
        if entry is not None:
            entry[name] = value

    def _peek_silently(self, graph, name: str):
        """The cached value or None, counting nothing (bookkeeping reads
        such as lineage links are not analysis reuse)."""
        try:
            entry = self._entries.get(graph)
        except TypeError:
            return None
        return None if entry is None else entry.get(name)

    def _entry(self, graph) -> dict | None:
        try:
            entry = self._entries.get(graph)
            if entry is None:
                entry = {}
                self._entries[graph] = entry
            return entry
        except TypeError:
            return None

    # -- maintenance & observability ---------------------------------------- #

    def forget(self, graph, name: str | None = None) -> None:
        """Drop every cached analysis of ``graph``, or only ``name``."""
        try:
            if name is None:
                self._entries.pop(graph, None)
            else:
                self._entries.get(graph, {}).pop(name, None)
        except TypeError:
            pass

    def clear(self) -> None:
        """Drop all cached entries (stats persist)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        self._hits.clear()
        self._misses.clear()

    def stats(self) -> dict:
        """JSON-safe snapshot: total hits/misses plus per-analysis detail."""
        names = sorted(set(self._hits) | set(self._misses))
        return {
            "hits": sum(self._hits.values()),
            "misses": sum(self._misses.values()),
            "by_analysis": {
                name: {"hits": self._hits[name], "misses": self._misses[name]}
                for name in names
            },
            "live_graphs": len(self._entries),
        }


#: The process-wide cache every analysis routes through by default.  Worker
#: processes each get their own (module state is per process), just as
#: each pool worker keeps its own session of baselines.
_CACHE = AnalysisCache()


def analysis_cache() -> AnalysisCache:
    """The process-wide :class:`AnalysisCache`."""
    return _CACHE


def cached_analysis(name: str):
    """Decorator memoizing a one-argument ``fn(graph)`` analysis.

    Calls with extra arguments bypass the cache (they parameterize the
    analysis, so the graph alone no longer determines the result).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(graph, *args, **kwargs):
            if args or kwargs:
                return fn(graph, *args, **kwargs)
            return _CACHE.lookup(graph, name, fn)

        wrapper.analysis_name = name
        return wrapper

    return decorate


_LINEAGE = "lineage"


def record_lineage(child, parent, keep_mask) -> None:
    """Note that ``child`` is ``parent`` restricted to the edges where the
    boolean ``keep_mask`` (one entry per parent edge) is True.

    Stores ``(weakref(parent), frozen copy of keep_mask)`` — no
    composition with the parent's own link, so the cost is one small
    copy per derived graph.
    """
    mask = keep_mask.copy()
    mask.flags.writeable = False
    _CACHE.put(child, _LINEAGE, (weakref.ref(parent), mask))


def inherit_lineage(child, source) -> None:
    """Give ``child`` the lineage link of ``source``, a graph with the same
    edges and edge ids (for example the same edges reweighted)."""
    link = _CACHE._peek_silently(source, _LINEAGE)
    if link is not None:
        _CACHE.put(child, _LINEAGE, link)


def lineage_parent(graph, names):
    """``(parent, mask)`` when the lineage parent of ``graph`` is alive and
    already caches one of the analyses ``names``; else ``None``.

    ``mask`` marks, among the parent's edges, the ones ``graph`` keeps
    (its edges in parent edge-id order).  A graph without a link, or
    whose parent has died, has no parent to derive from.
    """
    link = _CACHE._peek_silently(graph, _LINEAGE)
    parent = None if link is None else link[0]()
    if parent is None or all(_CACHE._peek_silently(parent, n) is None for n in names):
        return None
    return parent, link[1]


def stats_delta(before: dict, after: dict) -> dict:
    """What happened between two :meth:`AnalysisCache.stats` snapshots.

    Returns the same shape (hits/misses totals plus per-analysis detail,
    zero-activity analyses dropped) — the form perf records embed.
    """
    by: dict[str, dict[str, int]] = {}
    names = set(after.get("by_analysis", {})) | set(before.get("by_analysis", {}))
    for name in sorted(names):
        b = before.get("by_analysis", {}).get(name, {})
        a = after.get("by_analysis", {}).get(name, {})
        hits = a.get("hits", 0) - b.get("hits", 0)
        misses = a.get("misses", 0) - b.get("misses", 0)
        if hits or misses:
            by[name] = {"hits": hits, "misses": misses}
    return {
        "hits": after.get("hits", 0) - before.get("hits", 0),
        "misses": after.get("misses", 0) - before.get("misses", 0),
        "by_analysis": by,
    }
