"""The fluent evaluation session — the paper's §5–§6 workflow as one API.

The core Slim Graph loop is "pick a scheme → run an algorithm on original
vs. compressed → score with accuracy metrics".  :class:`Session` holds
everything that loop shares across schemes — the graph, the seed policy,
the store and worker pool, and most importantly a **baseline cache** so the
original-graph run of each algorithm is computed once per session no
matter how many schemes are scored against it (and, with a store, once
per graph: grids replay the stored value)::

    from repro import Session, pagerank

    session = Session(g, seed=0)
    scores = (
        session.compress("spanner(k=8)")
        .run(pagerank)
        .score(["kl"])
    )
    table = session.grid(            # every scheme reuses the baselines
        ["uniform(p=0.5)", "spanner(k=8)", "EO-0.8-1-TR"],
        ["pr", "cc", "tc", "sssp"],
    )

All three axes are declarative and registry-driven: ``compress`` accepts
anything the scheme registry can build (spec strings, TR labels, ``|``
pipelines, :class:`~repro.compress.spec.SchemeSpec` objects, configured
schemes); ``run``/``grid`` accept algorithm registry names and
:class:`~repro.algorithms.spec.AlgorithmSpec` strings
(``"pagerank(iterations=50)"``); metric names resolve through the metric
registry (:mod:`repro.metrics.registry`), with each algorithm's **result
adapter** selecting the compatible set and the §5 default.

When a scheme changes the vertex set (triangle collapse, relabeled
sampling), per-vertex outputs are aligned through the compression's
vertex mapping (:func:`repro.compress.mappings.vertex_alignment`) before
scoring, so KL / reordered-pair numbers compare each original vertex with
the compressed vertex that carries it instead of zero-padding the tail.

Every :meth:`Session.grid` (and every :meth:`Session.sweep`, a view over
grid cells) runs through :func:`repro.runner.parallel.run_grid` — inline
for ``jobs <= 1``, on a process pool otherwise, with or without a store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.utils.timer import timed_call

from repro.obs.metrics import counter
from repro.obs.spans import span as _span

from repro.algorithms.adapters import get_adapter
from repro.algorithms.registry import DEFAULT_BATTERY, BoundAlgorithm, build_algorithm
from repro.algorithms.spec import AlgorithmSpec
from repro.analytics.grid import GridCell, SweepTable
from repro.compress.base import CompressionResult, CompressionScheme
from repro.compress.mappings import vertex_alignment
from repro.compress.registry import build_scheme, get_entry
from repro.graphs.csr import CSRGraph
from repro.metrics.registry import (
    MetricContext,
    MetricEntry,
    compatible_names,
    resolve_metric,
)

__all__ = ["Session", "CompressedRun", "ScoreReport", "SweepRow", "SweepTable"]

_UNSET = object()

#: The §5 battery as the session binds it: the grid default plus the
#: per-vertex triangle vector that :meth:`Session.sweep` also scores.
_BATTERY = (*DEFAULT_BATTERY, "tc_per_vertex")


def _spec_label(scheme) -> str:
    """Spec string of a scheme; repr fallback for duck-typed objects."""
    if hasattr(scheme, "spec"):
        return scheme.spec().to_string()
    return repr(scheme)


class _Runner:
    """Uniform execution wrapper over the two algorithm surfaces.

    Normalizes a bare callable (``.run(pagerank)``) or a registry-bound
    :class:`BoundAlgorithm` into the one shape the session needs: a cache
    key, display labels, a callable, a result adapter, and the output
    canonicalizer.
    """

    __slots__ = ("key", "name", "label", "fn", "adapter", "extract", "execute", "root")

    def __init__(self, key, name, label, fn, adapter, extract, execute=True, root=None):
        self.key = key
        self.name = name
        self.label = label
        self.fn = fn
        self.adapter = adapter
        self.extract = extract
        self.execute = execute
        #: Traversal root override (``bfs(source=N)``); None = session root.
        self.root = root

    @classmethod
    def of_bound(cls, bound: BoundAlgorithm) -> "_Runner":
        traversal = bound.adapter.name == "traversal"
        return cls(
            key=bound.spec,
            name=bound.spec.name,
            label=bound.spec.to_string(),
            fn=bound,
            adapter=bound.adapter,
            extract=bound.extract,
            # Traversal outputs are never read — the metric runs its own
            # paired traversals — so skip the redundant executions (and
            # the baseline cache entry).
            execute=not traversal,
            root=bound.spec.params.get("source") if traversal else None,
        )


class ScoreReport(Mapping):
    """Scores as ``{algorithm: {metric: value}}`` with a flat shortcut.

    When exactly one algorithm was scored, ``report["kl_divergence"]``
    resolves directly; with several, index by algorithm first.  Metric
    aliases (``"kl"``, ``"critical_edges"``) resolve through the metric
    registry.
    """

    def __init__(self, scores: dict[str, dict[str, float]]):
        self._scores = scores

    def __getitem__(self, key: str):
        if key in self._scores:
            return self._scores[key]
        # Runs are keyed by full spec label ("sssp(source=0)"); a bare
        # algorithm name resolves when it is unambiguous.
        matches = [k for k in self._scores if k.split("(", 1)[0] == key]
        if len(matches) == 1:
            return self._scores[matches[0]]
        try:
            key = resolve_metric(key).name
        except ValueError:
            pass
        if len(self._scores) == 1:
            return next(iter(self._scores.values()))[key]
        raise KeyError(key)

    def __iter__(self):
        return iter(self._scores)

    def __len__(self) -> int:
        return len(self._scores)

    def __repr__(self) -> str:
        return f"ScoreReport({self._scores!r})"


class _AlgorithmRun:
    """One algorithm executed on (original, compressed)."""

    __slots__ = ("runner", "out0", "t0", "out1", "t1")

    def __init__(self, runner, out0, t0, out1, t1):
        self.runner = runner
        self.out0 = out0
        self.t0 = t0
        self.out1 = out1
        self.t1 = t1


class CompressedRun:
    """A compressed graph bound to its session; the fluent handle.

    ``seed`` records the compression seed this run was produced with (the
    session default unless :meth:`Session.compress` overrode it), so
    results derived from the run are auditable.
    """

    def __init__(
        self,
        session: "Session",
        scheme: CompressionScheme,
        result: CompressionResult,
        *,
        seed=None,
    ):
        self.session = session
        self.scheme = scheme
        self.result = result
        self.seed = seed
        self._runs: dict[str, _AlgorithmRun] = {}
        self._mapping = _UNSET

    # -- views ------------------------------------------------------------- #

    @property
    def graph(self) -> CSRGraph:
        return self.result.graph

    @property
    def compression_ratio(self) -> float:
        return self.result.compression_ratio

    @property
    def lineage(self):
        return self.result.lineage

    def __repr__(self) -> str:
        return f"CompressedRun({_spec_label(self.scheme)!r}, ratio={self.compression_ratio:.3f})"

    def alignment(self):
        """Original→compressed vertex map (None = identity), cached."""
        if self._mapping is _UNSET:
            self._mapping = vertex_alignment(self.result)
        return self._mapping

    def _context(self) -> MetricContext:
        return MetricContext(
            original=self.session.graph,
            compressed=self.graph,
            bfs_root=self.session.bfs_root,
        )

    def _metric_value(
        self, entry: MetricEntry, runner: _Runner, a, b, ctx: MetricContext
    ) -> float:
        """Score canonical original/compressed values ``a``/``b``."""
        adapter = runner.adapter
        if adapter.name == "traversal":
            if runner.root is not None and runner.root != ctx.bfs_root:
                ctx = MetricContext(ctx.original, ctx.compressed, runner.root)
            return float(entry.fn(ctx, None, None))
        a, b = adapter.align(a, b, self.alignment())
        return float(entry.fn(ctx, a, b))

    # -- running algorithms ------------------------------------------------ #

    def run(self, algorithm, *more, kind: str | None = None, name: str | None = None) -> "CompressedRun":
        """Execute ``algorithm`` on the compressed graph (and, via the
        session's baseline cache, on the original).  Returns ``self``.

        ``algorithm`` may be a callable (``pagerank``), a registry name or
        spec string (``"pr"``, ``"pagerank(iterations=50)"``,
        ``"sssp(source=0)"``), an :class:`~repro.algorithms.spec.
        AlgorithmSpec`, or a :class:`~repro.algorithms.registry.
        BoundAlgorithm`; a callable's output is read as ``kind`` (a result
        adapter name, default ``"distribution"``) and labeled ``name``.
        Extra positional algorithms queue in one call:
        ``.run(pagerank, "cc")``.
        """
        for alg in (algorithm, *more):
            runner = self.session._as_runner(alg, kind=kind, name=name)
            # Keyed by the full spec label so two parameterizations of one
            # algorithm ("sssp(source=0)", "sssp(source=5)") coexist.
            if not runner.execute:
                self._runs[runner.label] = _AlgorithmRun(runner, None, 0.0, None, 0.0)
                continue
            out0, t0 = self.session.baseline(runner)
            out1, t1 = timed_call(runner.fn, self.graph)
            self._runs[runner.label] = _AlgorithmRun(runner, out0, t0, out1, t1)
        return self

    def outputs(self, algorithm_name: str):
        """(original_output, compressed_output) of a ``.run()`` algorithm.

        The original-graph output comes from the session's baseline cache;
        use this instead of re-running the algorithm for custom metrics.
        """
        run = self._runs.get(algorithm_name)
        if run is None:
            # Bare algorithm name: unambiguous label-prefix match.
            matches = [
                r for r in self._runs.values() if r.runner.name == algorithm_name
            ]
            if len(matches) == 1:
                run = matches[0]
            elif len(matches) > 1:
                raise ValueError(
                    f"algorithm {algorithm_name!r} is ambiguous; "
                    f"use a full label from: {sorted(self._runs)}"
                )
        if run is None:
            raise ValueError(
                f"algorithm {algorithm_name!r} has not been run; "
                f"known: {sorted(self._runs)}"
            )
        return run.out0, run.out1

    # -- scoring ----------------------------------------------------------- #

    def score(self, metrics: Sequence[str] | None = None) -> ScoreReport:
        """Score every run so far; terminal step of the fluent chain.

        ``metrics`` names resolve through the metric registry (``"kl"``,
        ``"reordered_pairs"``, ``"relative_change"``,
        ``"critical_edges"``, or their canonical long forms) and apply to
        every run; ``None`` picks each run's default metric from its
        result adapter (§5 routing).  A metric incompatible with a run's
        adapter is an error naming the compatible set.
        """
        if not self._runs:
            raise ValueError("no algorithms run yet; call .run(...) first")
        ctx = self._context()
        scores: dict[str, dict[str, float]] = {}
        for alg_name, run in self._runs.items():
            runner = run.runner
            adapter = runner.adapter
            a = b = None
            if runner.execute:
                a, b = runner.extract(run.out0), runner.extract(run.out1)
            if metrics is None:
                chosen = [adapter.default_metric]
            else:
                chosen = list(metrics)
            out: dict[str, float] = {}
            for metric in chosen:
                entry = resolve_metric(metric)
                if adapter.name not in entry.adapters:
                    raise ValueError(
                        f"metric {metric!r} does not apply to {alg_name!r} "
                        f"({adapter.name} output); compatible: "
                        f"{', '.join(compatible_names(adapter.name))}"
                    )
                out[entry.name] = self._metric_value(entry, runner, a, b, ctx)
            scores[alg_name] = out
        return ScoreReport(scores)


@dataclass(frozen=True)
class SweepRow:
    """One tradeoff data point (a Fig. 5 cell), labeled with the
    generating ``scheme_spec``."""

    parameter: float
    algorithm: str
    compression_ratio: float
    relative_runtime_difference: float
    metric_name: str
    metric_value: float
    scheme_spec: str = ""
    #: The compression seed this row's cell actually ran with (recorded,
    #: not just applied, so cached and fresh sweeps are auditable).
    seed: object = None


class Session:
    """Shared state for evaluating many schemes against one graph.

    Parameters
    ----------
    graph:
        The original graph every scheme is applied to and compared against.
    seed:
        Default compression seed (overridable per :meth:`compress` call).
    bfs_root, pr_iterations:
        Session defaults injected into registry algorithms that omit them
        (``bfs``/``sssp`` without ``source``, ``pagerank`` without
        ``iterations``) and into the default §5 battery.
    store:
        A :class:`repro.runner.store.ArtifactStore` (or a path to create
        one at) making :meth:`grid`/:meth:`sweep` persistent: cells
        already in the store are replayed instead of recomputed, and
        fresh cells are written back; so are the original-graph
        baselines grids score against.
    jobs:
        Worker-process count for :meth:`grid`/:meth:`sweep`; ``jobs > 1``
        fans grid cells out over a process pool
        (:mod:`repro.runner.parallel`).  ``None``/``0``/``1`` stay
        in-process.

    Span tracing (:mod:`repro.obs.spans`) is process-global: turn it on
    with :func:`~repro.obs.spans.enable_tracing` and export with
    ``tracer().write_chrome_trace(path)``.  Worker processes spawned by
    parallel grids record their own spans and the grid stitches them
    under its scheduling span, so one export covers every process.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        seed=0,
        bfs_root: int = 0,
        pr_iterations: int = 100,
        store=None,
        jobs: int | None = None,
        retry=None,
    ):
        self._graph = graph
        #: Set only on a session built by :meth:`_of_stored`: the known
        #: content fingerprint and the loader not yet called.
        self._fingerprint: str | None = None
        self._load = None
        self.seed = seed
        self.bfs_root = bfs_root
        self.pr_iterations = pr_iterations
        from repro.runner.store import ArtifactStore

        self.store = ArtifactStore.of(store)
        self.jobs = jobs
        #: Retry/backoff/timeout policy for grid execution — a
        #: :class:`repro.runner.parallel.RetryPolicy`, a dict of its
        #: fields, or None for the defaults (3 attempts, capped
        #: exponential backoff, no per-task timeout).
        if retry is not None:
            from repro.runner.parallel import RetryPolicy

            retry = RetryPolicy.of(retry)
        self.retry = retry
        #: Execution statistics of the most recent :meth:`grid` call
        #: ({} until one runs): the :func:`repro.runner.parallel.run_grid`
        #: perf record — the :data:`~repro.runner.parallel.PERF_COUNTERS`,
        #: manifests and ``analysis_cache`` detail; fold several with
        #: :func:`~repro.runner.parallel.merge_perf`.
        self.last_grid_perf: dict = {}
        self._battery_runner_cache: list[_Runner] | None = None
        self._baselines: dict = {}
        #: Canonical baseline values replayed from the store, by key.
        self._stored_baselines: dict = {}
        #: Number of original-graph algorithm executions (cache misses);
        #: the baseline-reuse guarantee is observable through this counter.
        self.baseline_computations = 0

    @classmethod
    def _of_stored(cls, fingerprint: str, load, **options) -> "Session":
        """A session over a stored graph that loads only on first use.

        ``load()`` returns the graph whose content fingerprint is
        ``fingerprint``.  Grids probe the store under the known
        fingerprint, so a grid whose every cell is stored never calls
        it; the first compression or baseline of a missed cell (or a
        pool's snapshot write) does.
        """
        session = cls(None, **options)
        session._fingerprint = fingerprint
        session._load = load
        return session

    @property
    def graph(self) -> CSRGraph:
        """The original graph, loaded here on first use when lazy."""
        if self._load is not None:
            self._graph, self._load = self._load(), None
        return self._graph

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of :attr:`graph`, the store's graph key.

        A lazy session knows it without loading the graph; any other
        session hashes the graph once.
        """
        if self._fingerprint is None:
            from repro.runner.fingerprint import graph_fingerprint

            self._fingerprint = graph_fingerprint(self.graph)
        return self._fingerprint

    def __repr__(self) -> str:
        if self._load is not None:
            graph = f"<not loaded: fingerprint {self._fingerprint[:12]}>"
        else:
            graph = repr(self._graph)
        return (
            f"Session(graph={graph}, seed={self.seed!r}, "
            f"cached_baselines={len(self._baselines)})"
        )

    # -- algorithm resolution ---------------------------------------------- #

    def _bind(self, spec_like) -> BoundAlgorithm:
        """Build a registry algorithm, injecting session defaults."""
        bound = build_algorithm(spec_like)
        overrides = {}
        if bound.entry.name == "pagerank" and "max_iterations" not in bound.spec.params:
            overrides["max_iterations"] = self.pr_iterations
        if bound.entry.positional == "source" and "source" not in bound.spec.params:
            overrides["source"] = self.bfs_root
        return build_algorithm(bound, **overrides) if overrides else bound

    def _as_runner(self, algorithm, *, kind: str | None = None, name: str | None = None) -> _Runner:
        if isinstance(algorithm, _Runner):
            return algorithm
        if isinstance(algorithm, BoundAlgorithm):
            return _Runner.of_bound(algorithm)
        if isinstance(algorithm, AlgorithmSpec):
            return _Runner.of_bound(self._bind(algorithm))
        if isinstance(algorithm, str):
            for runner in self._battery_runners():
                if runner.label == algorithm:
                    return runner
            try:
                return _Runner.of_bound(self._bind(algorithm))
            except ValueError as err:
                raise ValueError(
                    f"unknown algorithm {algorithm!r}: {err}"
                ) from None
        if callable(algorithm):
            label = name or getattr(algorithm, "__name__", "algorithm")
            adapter = get_adapter(kind or "distribution")
            return _Runner(
                key=(label, adapter.name),
                name=label,
                label=label,
                fn=algorithm,
                adapter=adapter,
                extract=adapter.canonicalize,
                execute=adapter.name != "traversal",
            )
        raise TypeError(f"cannot interpret algorithm {algorithm!r}")

    # -- baseline cache ---------------------------------------------------- #

    def _battery_runners(self) -> list[_Runner]:
        """The §5 battery bound through the registry, under the paper's
        short labels.

        Because each runner's cache key is its canonical bound spec, a
        battery entry and the equivalent registry spelling (``"pr"`` vs
        ``"pagerank"``) share one baseline cache slot and deduplicate in
        grids.
        """
        if self._battery_runner_cache is None:
            runners = []
            for short in _BATTERY:
                runner = _Runner.of_bound(self._bind(short))
                runner.name = short
                runner.label = short
                runners.append(runner)
            self._battery_runner_cache = runners
        return self._battery_runner_cache

    def baseline(self, spec):
        """(output, seconds) of an algorithm on the original graph, cached.

        ``spec`` may be a :class:`BoundAlgorithm` / spec string (keyed by
        its canonical declarative spec), a bare callable (keyed by
        ``(name, adapter)``), or an internal runner.
        """
        runner = self._as_runner(spec)
        cached = self._baselines.get(runner.key)
        if cached is None:
            self.baseline_computations += 1
            with _span("baseline", algorithm=runner.label):
                cached = timed_call(runner.fn, self.graph)
            self._baselines[runner.key] = cached
        return cached

    def _baseline_value(self, runner: _Runner) -> tuple:
        """(canonical value, seconds) of ``runner`` on the original graph.

        One lookup: the session's own memo, then the store (keyed by the
        graph fingerprint and the canonical spec), then compute — and
        put, so the next session over this graph replays the value.  A
        failed put costs a later recomputation, never this grid.  A
        store-less session reads only its raw-result memo
        (:meth:`baseline`).
        """
        store = self.store if isinstance(runner.key, AlgorithmSpec) else None
        if store is None or runner.key in self._baselines:
            out0, t0 = self.baseline(runner)
            return runner.extract(out0), t0
        stored = self._stored_baselines.get(runner.key)
        if stored is not None:
            return stored
        key = store.baseline_key(self.fingerprint, runner.key)
        stored = store.get_baseline(key)
        if stored is not None:
            self._stored_baselines[runner.key] = stored
            return stored
        out0, t0 = self.baseline(runner)
        value = runner.extract(out0)
        try:
            store.put_baseline(key, value, t0, adapter=runner.adapter.name)
        except Exception:  # noqa: BLE001 — flaky disks throw anything
            counter("repro.store.baseline_write_failures").inc()
        return value, t0

    # -- compression ------------------------------------------------------- #

    def compress(self, scheme, *, seed=_UNSET) -> CompressedRun:
        """Compress the session graph; returns the fluent handle.

        ``scheme`` is anything :func:`repro.compress.registry.build_scheme`
        accepts.  A scheme's compression-kernel program runs through
        ``scheme.compress_via_kernels(graph, seed=, backend=, num_chunks=)``.
        """
        scheme = build_scheme(scheme)
        seed = self.seed if seed is _UNSET else seed
        with _span("compress", scheme=_spec_label(scheme), seed=seed) as sp:
            result = scheme.compress(self.graph, seed=seed)
            sp.set(compression_ratio=result.compression_ratio)
        return CompressedRun(self, scheme, result, seed=seed)

    # -- battery + sweeps -------------------------------------------------- #

    def grid(
        self,
        schemes: Iterable,
        algorithms: Iterable | None = None,
        metrics: Sequence[str] | None = None,
        *,
        seed=_UNSET,
    ) -> SweepTable:
        """Evaluate the full scheme × algorithm × metric grid.

        Every scheme is compressed once, every algorithm's original-graph
        baseline is computed once for the whole grid (the session cache)
        or replayed from the session's store, and every (scheme, algorithm) execution is scored with each
        selected metric — one tidy long-format row per triple.  Cells run
        through :func:`repro.runner.parallel.run_grid`: replayed from the
        session's store when present, then computed inline (``jobs <= 1``)
        or on a process pool.  A cell group that keeps failing under the
        session's retry policy is left out of the table and listed in
        ``last_grid_perf["failed_cells"]``.

        Parameters
        ----------
        schemes:
            Scheme spec surfaces (strings, TR labels, ``|`` pipelines,
            :class:`~repro.compress.spec.SchemeSpec`, configured schemes);
            duplicates (by scheme equality) are evaluated once.
        algorithms:
            Registry algorithm surfaces (names/aliases, spec strings,
            :class:`~repro.algorithms.spec.AlgorithmSpec`,
            :class:`~repro.algorithms.registry.BoundAlgorithm`);
            duplicates are executed once.  ``None`` runs the paper battery
            :data:`~repro.algorithms.registry.DEFAULT_BATTERY`.
        metrics:
            Metric names applied to every algorithm they are compatible
            with (by result adapter); ``None`` scores each algorithm with
            its adapter's §5 default.  A requested metric compatible with
            no algorithm in the grid is an error.

        Returns
        -------
        SweepTable
            Long-format rows; ``.to_csv()`` / ``.to_dict()`` round-trip.
        """
        from repro.runner.parallel import run_grid

        built, runners, plans = self._grid_plan(schemes, algorithms, metrics)
        seed = self.seed if seed is _UNSET else seed
        with _span(
            "grid",
            schemes=len(built),
            algorithms=len(runners),
            jobs=self.jobs or 1,
            seed=seed,
        ):
            cells, perf = run_grid(self, built, runners, plans, seed=seed)
        self.last_grid_perf = perf
        return SweepTable(cells)

    def _grid_plan(self, schemes, algorithms, metrics):
        """Resolve and deduplicate the three grid axes.

        Returns ``(built_schemes, runners, plans)`` where ``plans[i]`` is
        the (possibly empty) metric list for ``runners[i]``, the plan
        :func:`repro.runner.parallel.run_grid` executes.
        """
        built: list[CompressionScheme] = []
        for s in schemes:
            scheme = build_scheme(s)
            if scheme not in built:
                built.append(scheme)
        if not built:
            raise ValueError("grid needs at least one scheme")

        runners: list[_Runner] = []
        seen_keys: set = set()
        for alg in algorithms if algorithms is not None else DEFAULT_BATTERY:
            runner = self._as_runner(alg)
            if runner.key in seen_keys:
                continue
            seen_keys.add(runner.key)
            runners.append(runner)
        if not runners:
            raise ValueError("grid needs at least one algorithm")

        requested = None
        if metrics is not None:
            # Dedupe by canonical entry ("kl" and "kl_divergence" are one
            # metric), keeping first-occurrence order for the cell rows.
            requested = []
            for m in metrics:
                entry = resolve_metric(m)
                if entry not in requested:
                    requested.append(entry)
        plans: list[list[MetricEntry]] = []
        for runner in runners:
            if requested is None:
                plans.append([resolve_metric(runner.adapter.default_metric)])
            else:
                plans.append(
                    [e for e in requested if runner.adapter.name in e.adapters]
                )
        if requested is not None:
            unmatched = [
                e.name
                for e in requested
                if not any(e in plan for plan in plans)
            ]
            if unmatched:
                raise ValueError(
                    f"metrics {unmatched} apply to no algorithm in this grid"
                )
        return built, runners, plans

    def _score_cells(
        self, run: CompressedRun, runner: _Runner, plan, *, seed=None
    ) -> list[GridCell]:
        """One grid row group: execute ``runner`` on ``run``, score ``plan``."""
        if not plan:
            return []
        ctx = run._context()
        scheme_label = _spec_label(run.scheme)
        with _span("algorithm", algorithm=runner.label, scheme=scheme_label) as sp:
            if runner.execute:
                a, t0 = self._baseline_value(runner)
                out1, t1 = timed_call(runner.fn, run.graph)
                b = runner.extract(out1)
            else:
                a = b = None
                t0 = t1 = 0.0
            cells = [
                GridCell(
                    scheme=scheme_label,
                    algorithm=runner.label,
                    metric=entry.name,
                    value=run._metric_value(entry, runner, a, b, ctx),
                    compression_ratio=run.compression_ratio,
                    original_seconds=t0,
                    compressed_seconds=t1,
                    adapter=runner.adapter.name,
                    seed=seed,
                )
                for entry in plan
            ]
            sp.inc("cells", len(cells))
        return cells

    def sweep(
        self,
        schemes: Iterable,
        *,
        parameters: Sequence | None = None,
        algorithms: list | None = None,
        seed=_UNSET,
        repeats: int = 1,
    ) -> list[SweepRow]:
        """Run the battery for every scheme in ``schemes``; a view over
        :meth:`grid` cells.

        ``schemes`` may mix spec strings, :class:`SchemeSpec` objects, and
        configured schemes; duplicates (by scheme equality) are evaluated
        once.  ``parameters`` labels the rows; when omitted, each scheme's
        registered positional parameter is used (falling back to the list
        index).  ``algorithms`` takes registry surfaces (default: the §5
        battery).  Each repeat is one grid under seed ``seed + r``; per
        (scheme, algorithm) the best (minimum) compressed timing wins,
        damping scheduler noise, and the row reports that winning cell's
        seed, metric, and compression ratio — so a warm store replays it
        byte-identically.
        """
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        built = [build_scheme(s) for s in schemes]
        if parameters is not None:
            parameters = list(parameters)
            if len(parameters) != len(built):
                raise ValueError("parameters must align with schemes")
        else:
            parameters = [
                self._default_parameter(scheme, index)
                for index, scheme in enumerate(built)
            ]
        base_seed = self.seed if seed is _UNSET else seed
        unique: list[CompressionScheme] = []
        for scheme in built:
            if scheme not in unique:
                unique.append(scheme)
        surfaces = (
            list(algorithms) if algorithms is not None else list(_BATTERY)
        )
        by_label = {_spec_label(s): s for s in unique}
        best: dict[CompressionScheme, dict[str, GridCell]] = {s: {} for s in unique}
        for r in range(repeats):
            cell_seed = base_seed + r if isinstance(base_seed, int) else base_seed
            for cell in self.grid(unique, surfaces, seed=cell_seed):
                scheme = by_label[cell.scheme]
                prev = best[scheme].get(cell.algorithm)
                if prev is None or cell.compressed_seconds < prev.compressed_seconds:
                    best[scheme][cell.algorithm] = cell
        return [
            SweepRow(
                parameter=parameter,
                algorithm=cell.algorithm,
                compression_ratio=cell.compression_ratio,
                relative_runtime_difference=cell.relative_runtime_difference,
                metric_name=cell.metric,
                metric_value=cell.value,
                scheme_spec=_spec_label(scheme),
                seed=cell.seed,
            )
            for scheme, parameter in zip(built, parameters)
            for cell in best[scheme].values()
        ]

    @staticmethod
    def _default_parameter(scheme, index: int):
        name = getattr(scheme, "name", None)
        if not isinstance(name, str):
            return float(index)
        try:
            entry = get_entry(name)
        except ValueError:
            return float(index)
        if entry.positional:
            value = scheme.params().get(entry.positional)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return value
        return float(index)
