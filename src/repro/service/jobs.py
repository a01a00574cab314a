"""The transport-neutral job model every front-end schedules through.

A :class:`JobSpec` describes one unit of service work — *one* graph, a
scheme × algorithm × metric grid, a seed list — in a form that survives
any transport: the in-process CLI harness (:func:`repro.runner.harness.
run_sweep` builds one JobSpec per graph), the process pool (which already
speaks per-cell tasks underneath), and the HTTP front-end
(:mod:`repro.service.http` parses request bodies straight into JobSpecs).

Identity is content, not spelling.  :meth:`JobSpec.canonical_dict` reuses
the artifact store's spec canonicalization — schemes through
:class:`~repro.compress.spec.SchemeSpec`, algorithms through
:class:`~repro.algorithms.spec.AlgorithmSpec`, metrics resolved to sorted
canonical registry names, seeds deduplicated and sorted — so
``{"schemes": ["uniform(0.5)"]}`` and ``{"schemes": ["uniform(p=0.5)"]}``
hash to the same :attr:`JobSpec.job_key`.  That key is what the service
queue dedupes in-flight work by: it names the same computation the store
cells underneath it are keyed by.

:func:`execute_job` is the one scheduler.  It builds a
:class:`~repro.analytics.session.Session` over the job's graph (a dataset
name, or a ``fingerprint:<hex>`` reference into a store snapshot) and
sweeps the grid seed by seed — store replay and process-pool fan-out
included — returning the :class:`~repro.analytics.grid.SweepTable` plus
the same perf counters the BENCH records carry.  A dataset name is
loaded up front; a ``fingerprint:`` reference already is the store's
cell key, so its snapshot is loaded only when a cell misses, and a fully
warm job never reads it.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping

from repro.algorithms.registry import DEFAULT_BATTERY
from repro.analytics.grid import SweepTable
from repro.obs.spans import span
from repro.runner.parallel import merge_perf, new_perf
from repro.runner.store import (
    ArtifactStore,
    _algorithm_json,
    _canonical_metrics,
    _scheme_json,
)
from repro.utils.timer import stopwatch

__all__ = [
    "FINGERPRINT_PREFIX",
    "JobSpec",
    "JobResult",
    "execute_job",
    "load_job_graph",
]

#: Graph references of this form resolve to a store snapshot instead of a
#: named dataset stand-in.
FINGERPRINT_PREFIX = "fingerprint:"


def _as_list(values, field: str) -> list:
    """``values`` as a non-empty list; a bare string (which would iterate
    per character) or a non-list is an error naming ``field``."""
    if isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable):
        raise ValueError(f"job field {field!r} must be a list, got {values!r}")
    out = list(values)
    if not out:
        raise ValueError(f"job needs at least one {field[:-1]}")
    return out


def _as_names(values, field: str, check) -> tuple[str, ...]:
    """``values`` as strings that ``check`` (a registry lookup) accepts;
    anything else is an error naming ``field``."""
    out = _as_list(values, field)
    for value in out:
        if not isinstance(value, str):
            raise ValueError(f"job field {field!r} must hold strings, got {value!r}")
        try:
            check(value)
        except (TypeError, ValueError) as err:
            raise ValueError(f"job field {field!r}: {err}") from None
    return tuple(out)


def _as_int(value, field: str) -> int:
    """Any integral value but ``bool``; else an error naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"job field {field!r} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of service work: a grid over one graph.

    Fields keep the *submitted* spellings (so result tables label rows
    the way the caller asked for them); equality of computation is the
    canonical form underneath (:meth:`canonical_dict` / :attr:`job_key`).
    """

    graph: str
    schemes: tuple[str, ...]
    algorithms: tuple[str, ...] = DEFAULT_BATTERY
    metrics: tuple[str, ...] | None = None
    seeds: tuple[int, ...] = (0,)
    #: Seed for building dataset stand-ins (not the compression seeds).
    graph_seed: int = 0
    bfs_root: int = 0
    pr_iterations: int = 100

    @classmethod
    def build(
        cls,
        graph: str,
        schemes: Iterable,
        algorithms: Iterable | None = None,
        metrics: Iterable | None = None,
        seeds: Iterable = (0,),
        *,
        graph_seed: int = 0,
        bfs_root: int = 0,
        pr_iterations: int = 100,
    ) -> "JobSpec":
        """Validated constructor normalizing every axis to tuples.

        Metric names are resolved and **sorted** here (satisfying the
        canonical-JSON contract at the transport boundary); scheme,
        algorithm and metric spellings are validated through their
        registries, so a bad spec fails at submission — an HTTP 400
        whose error names the field — not inside a worker.
        """
        from repro.algorithms.registry import build_algorithm
        from repro.compress.registry import build_scheme
        from repro.metrics.registry import resolve_metric

        if not isinstance(graph, str) or not graph:
            raise ValueError(
                f"job field 'graph' must be a non-empty string, got {graph!r}"
            )
        schemes = _as_names(schemes, "schemes", build_scheme)
        if algorithms is None:
            algorithms = DEFAULT_BATTERY
        else:
            algorithms = _as_names(algorithms, "algorithms", build_algorithm)
        if metrics is not None:
            metrics = _canonical_metrics(
                _as_names(metrics, "metrics", resolve_metric)
            )
        seeds = tuple(_as_int(s, "seeds") for s in _as_list(seeds, "seeds"))
        return cls(
            graph=graph,
            schemes=schemes,
            algorithms=algorithms,
            metrics=metrics,
            seeds=seeds,
            graph_seed=_as_int(graph_seed, "graph_seed"),
            bfs_root=_as_int(bfs_root, "bfs_root"),
            pr_iterations=_as_int(pr_iterations, "pr_iterations"),
        )

    @classmethod
    def from_sweep(cls, spec, graph: str) -> "JobSpec":
        """The job a :class:`~repro.runner.harness.SweepSpec` runs on one
        of its graphs — how the CLI harness rides the shared scheduler."""
        return cls.build(
            graph,
            spec.schemes,
            spec.algorithms,
            spec.metrics,
            spec.seeds,
            graph_seed=spec.graph_seed,
            bfs_root=spec.bfs_root,
            pr_iterations=spec.pr_iterations,
        )

    # -- transport ---------------------------------------------------------- #

    def to_dict(self) -> dict:
        """JSON-safe lossless form; inverse of :meth:`from_dict`."""
        return {
            "graph": self.graph,
            "schemes": list(self.schemes),
            "algorithms": list(self.algorithms),
            "metrics": None if self.metrics is None else list(self.metrics),
            "seeds": list(self.seeds),
            "graph_seed": self.graph_seed,
            "bfs_root": self.bfs_root,
            "pr_iterations": self.pr_iterations,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobSpec":
        """Parse a transport dict (HTTP body, stored record) tolerantly.

        Unknown keys are an error naming the offenders — a mistyped field
        in a request should 400, not silently run the default grid.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"job spec must be a JSON object, got {type(data).__name__}")
        known = {
            "graph", "schemes", "algorithms", "metrics", "seeds",
            "graph_seed", "bfs_root", "pr_iterations",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown job fields {unknown}; known: {sorted(known)}")
        if "graph" not in data or "schemes" not in data:
            raise ValueError("job spec needs at least 'graph' and 'schemes'")
        return cls.build(
            data["graph"],
            data["schemes"],
            data.get("algorithms"),
            data.get("metrics"),
            data.get("seeds", (0,)),
            graph_seed=data.get("graph_seed", 0),
            bfs_root=data.get("bfs_root", 0),
            pr_iterations=data.get("pr_iterations", 100),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls.from_dict(json.loads(text))

    # -- identity ----------------------------------------------------------- #

    def canonical_dict(self) -> dict:
        """The spelling-free identity of this job's computation.

        Schemes and algorithms become their canonical spec dicts (the
        store's cell-key normal form), metrics are already sorted
        canonical names, and seeds are deduplicated and sorted — two
        submissions that would populate the same store cells canonicalize
        identically.
        """
        return {
            "graph": self.graph,
            "graph_seed": self.graph_seed,
            "schemes": sorted(_scheme_json(s) for s in self.schemes),
            "algorithms": sorted(
                json.dumps(
                    _resolved_algorithm_dict(a, self), sort_keys=True,
                    separators=(",", ":"),
                )
                for a in self.algorithms
            ),
            "metrics": None if self.metrics is None else list(self.metrics),
            "seeds": sorted(set(self.seeds)),
        }

    @cached_property
    def job_key(self) -> str:
        """Hex SHA-256 of the canonical JSON; the queue's dedupe key.

        Computed once per spec: submission, dedupe and the job's perf
        record all read it.
        """
        return hashlib.sha256(
            json.dumps(
                self.canonical_dict(), sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest()

    def cell_groups(self) -> int:
        """Scheduled (scheme, seed, algorithm) groups — the work estimate."""
        return len(self.schemes) * len(self.algorithms) * len(set(self.seeds))


def _resolved_algorithm_dict(algorithm: str, job: "JobSpec") -> dict:
    """Canonical algorithm dict with the job's session defaults injected.

    The session injects ``bfs_root``/``pr_iterations`` into algorithms
    that omit them, so two jobs differing only in those fields *are*
    different computations — folding the defaults into the canonical form
    keeps the job key honest about it.
    """
    from repro.algorithms.registry import algorithm_positional

    data = json.loads(_algorithm_json(algorithm))
    params = data.setdefault("params", {})
    if data.get("name") == "pagerank" and "max_iterations" not in params:
        params["max_iterations"] = job.pr_iterations
    if algorithm_positional(data.get("name")) == "source" and "source" not in params:
        params["source"] = job.bfs_root
    return data


@dataclass
class JobResult:
    """Everything one :func:`execute_job` call produced."""

    spec: JobSpec
    table: SweepTable
    perf: dict = field(default_factory=dict)


def load_job_graph(job: JobSpec, *, store=None, graph_loader=None):
    """Resolve a job's graph reference to a :class:`CSRGraph`.

    ``graph_loader`` (a ``ref -> CSRGraph`` callable) wins when given;
    ``fingerprint:<hex>`` references load the store's binary snapshot;
    anything else is a named dataset stand-in
    (:func:`repro.graphs.datasets.load`).
    """
    if graph_loader is not None:
        return graph_loader(job.graph)
    if job.graph.startswith(FINGERPRINT_PREFIX):
        fingerprint = job.graph[len(FINGERPRINT_PREFIX):]
        if store is None:
            raise ValueError(
                f"graph reference {job.graph!r} needs a store to resolve"
            )
        graph = store.load_graph(fingerprint)
        if graph is None:
            raise _no_snapshot(job, store)
        return graph
    from repro.graphs import datasets

    return datasets.load(job.graph, seed=job.graph_seed)


def _no_snapshot(job: JobSpec, store) -> ValueError:
    return ValueError(f"no snapshot for {job.graph!r} in store {store.root}")


def execute_job(
    job: JobSpec, *, store=None, jobs: int | None = None, graph_loader=None,
    retry=None,
) -> JobResult:
    """Run one job to completion — the scheduler all front-ends share.

    ``store``/``jobs`` select replay and process-pool fan-out exactly as
    :class:`~repro.analytics.session.Session` does; cells already stored
    replay with zero recomputation.  ``retry`` (a
    :class:`~repro.runner.parallel.RetryPolicy` or dict) sets the grid's
    fault-tolerance policy.  The returned perf dict is the
    per-seed grid records folded with
    :func:`~repro.runner.parallel.merge_perf` (so it carries every
    :data:`~repro.runner.parallel.PERF_COUNTERS` counter and both
    manifests), plus ``job_key``, ``graph``, ``seeds``, ``cells``,
    ``wall_seconds`` and one ``grids`` entry per seed.

    A ``fingerprint:<hex>`` job run against a store (and no
    ``graph_loader``) loads its snapshot only when a cell misses: the
    store keys cells by that fingerprint, so a fully warm job never
    reads the snapshot, and succeeds even over a damaged one.  A job
    that has to compute over a damaged snapshot fails with "no snapshot"
    at its first miss; a store without the snapshot fails it up front.
    Dataset names and ``graph_loader`` jobs load their graph first.
    """
    from repro.analytics.session import Session

    store = ArtifactStore.of(store)
    options = dict(
        seed=job.seeds[0],
        bfs_root=job.bfs_root,
        pr_iterations=job.pr_iterations,
        store=store,
        jobs=jobs,
        retry=retry,
    )
    if (
        graph_loader is None
        and store is not None
        and job.graph.startswith(FINGERPRINT_PREFIX)
    ):
        fingerprint = job.graph[len(FINGERPRINT_PREFIX):]
        if store.graph_path(fingerprint) is None:
            raise _no_snapshot(job, store)
        session = Session._of_stored(
            fingerprint, lambda: load_job_graph(job, store=store), **options
        )
    else:
        graph = load_job_graph(job, store=store, graph_loader=graph_loader)
        session = Session(graph, **options)
    cells = []
    grids = []
    perf = new_perf(job_key=job.job_key, graph=job.graph, seeds=list(job.seeds))
    with stopwatch() as wall, span(
        "job", graph=job.graph, seeds=len(job.seeds), schemes=len(job.schemes)
    ):
        for seed in job.seeds:
            table = session.grid(job.schemes, job.algorithms, job.metrics, seed=seed)
            cells.extend(replace(c, graph=job.graph) for c in table)
            grid_perf = dict(session.last_grid_perf)
            grid_perf.pop("store_stats", None)
            # Cumulative per session: stays at one per algorithm no
            # matter how many schemes/seeds scored against it.
            grid_perf["baseline_computations"] = session.baseline_computations
            merge_perf(perf, grid_perf)
            grids.append({"graph": job.graph, "seed": seed, **grid_perf})
    table = SweepTable(cells)
    perf.update(cells=len(table), wall_seconds=wall.seconds, grids=grids)
    return JobResult(spec=job, table=table, perf=perf)
