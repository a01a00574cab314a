"""Named, resumable sweeps + the ``BENCH_*.json`` perf trajectory.

A :class:`SweepSpec` is a declarative description of one paper-style
experiment: which dataset stand-ins, which scheme specs, which algorithms
and metrics, which seeds.  :func:`run_sweep` executes it through
:class:`~repro.analytics.session.Session` — and therefore through the
artifact store and process pool when asked — returning every cell as one
multi-graph :class:`~repro.analytics.grid.SweepTable` plus a perf record
(wall time, compression time, cache hit counts) that
:func:`write_bench_record` emits as ``BENCH_<name>.json``.

Resumability falls out of the store: a sweep interrupted (or re-run)
against a warm store replays stored cells with **zero recomputation** —
the CI ``bench-smoke`` job asserts exactly that by running the ``smoke``
sweep twice and checking the second record's ``cache_misses == 0``.

Execution is delegated to the transport-neutral job model
(:mod:`repro.service.jobs`): each sweep graph becomes one
:class:`~repro.service.jobs.JobSpec` run through
:func:`~repro.service.jobs.execute_job` — the very scheduler the
compression service's queue and HTTP front-end use — so CLI sweeps,
pooled sweeps, and HTTP submissions of the same grid populate (and
replay) identical store cells.

The registry ships the paper's headline experiments (``fig5``,
``table5``) plus the tiny ``smoke`` sweep; benchmark scripts and external
callers add their own with :func:`register_sweep`.  The CLI
(``python -m repro.runner``) is a thin veneer over this module.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.algorithms.registry import DEFAULT_BATTERY
from repro.analytics.grid import SweepTable
from repro.obs.resources import sample_resources
from repro.obs.spans import span
from repro.runner.parallel import PERF_COUNTERS, merge_perf, new_perf
from repro.runner.store import ArtifactStore
from repro.service.jobs import JobSpec, execute_job
from repro.utils.timer import stopwatch

__all__ = [
    "SweepSpec",
    "SweepResult",
    "register_sweep",
    "get_sweep",
    "available_sweeps",
    "run_sweep",
    "write_bench_record",
    "write_perf_record",
    "BENCH_SCHEMA_VERSION",
]

#: Version of the BENCH_*.json record layout.
BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepSpec:
    """One named experiment: the full grid it runs and its defaults."""

    name: str
    graphs: tuple[str, ...]
    schemes: tuple[str, ...]
    algorithms: tuple[str, ...] = DEFAULT_BATTERY
    metrics: tuple[str, ...] | None = None
    seeds: tuple[int, ...] = (0,)
    #: Seed handed to :func:`repro.graphs.datasets.load` when building
    #: the dataset stand-ins (distinct from the compression seeds).
    graph_seed: int = 0
    bfs_root: int = 0
    pr_iterations: int = 100
    description: str = ""


@dataclass
class SweepResult:
    """Everything one :func:`run_sweep` call produced."""

    spec: SweepSpec
    table: SweepTable
    perf: dict = field(default_factory=dict)


_SWEEPS: dict[str, SweepSpec] = {}


def register_sweep(spec: SweepSpec, *, replace_existing: bool = False) -> SweepSpec:
    """Add a named sweep; duplicates are rejected unless replacing."""
    key = spec.name.lower()
    if key in _SWEEPS and not replace_existing:
        raise ValueError(f"sweep {spec.name!r} is already registered")
    _SWEEPS[key] = spec
    return spec


def get_sweep(name: str) -> SweepSpec:
    try:
        return _SWEEPS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown sweep {name!r}; available: {', '.join(available_sweeps())}"
        ) from None


def available_sweeps() -> list[str]:
    return sorted(_SWEEPS)


def _load_dataset(name: str, *, seed: int):
    from repro.graphs import datasets

    return datasets.load(name, seed=seed)


def run_sweep(
    sweep,
    *,
    store=None,
    jobs: int | None = None,
    retry=None,
    seeds=None,
    graphs=None,
    graph_loader=None,
) -> SweepResult:
    """Execute a sweep (by name or :class:`SweepSpec`), resumably.

    Parameters
    ----------
    store:
        :class:`~repro.runner.store.ArtifactStore` or a path to one;
        cells already stored are replayed instead of recomputed, fresh
        cells are written back — interrupt and re-run at will.
    jobs:
        Worker processes per grid (``> 1`` enables the pool).
    retry:
        Fault-tolerance policy for grid execution — a
        :class:`~repro.runner.parallel.RetryPolicy` or a dict of its
        fields (``max_attempts``, ``backoff_base``, ``backoff_cap``,
        ``jitter``, ``task_timeout``).  Default: 3 attempts, capped
        exponential backoff, no per-task timeout.
    seeds, graphs:
        Optional overrides of the spec's axes (e.g. CLI flags).
    graph_loader:
        ``name -> CSRGraph`` override replacing the default
        :func:`repro.graphs.datasets.load` (benchmark fixtures pass their
        session-scoped cache here).

    Returns a :class:`SweepResult` whose table spans every (graph, seed)
    grid, with each cell's ``graph`` column filled in.  Its perf record is
    the per-graph job records folded with
    :func:`~repro.runner.parallel.merge_perf` (manifest entries tagged
    ``graph``), with a ``metrics`` block naming each
    :data:`~repro.runner.parallel.PERF_COUNTERS` counter by its registry
    metric, plus the sweep's axes, wall time, resources and per-grid
    ``grids`` entries.
    """
    spec = get_sweep(sweep) if isinstance(sweep, str) else sweep
    if seeds is not None:
        spec = replace(spec, seeds=tuple(seeds))
    if graphs is not None:
        spec = replace(spec, graphs=tuple(graphs))
    store = ArtifactStore.of(store)
    loader = graph_loader or (lambda name: _load_dataset(name, seed=spec.graph_seed))

    cells = []
    grids = []
    perf = new_perf(
        jobs=jobs or 1,
        store=None if store is None else str(store.root),
        graphs=list(spec.graphs),
        seeds=list(spec.seeds),
    )
    with stopwatch() as wall, span(
        "sweep", name=spec.name, graphs=len(spec.graphs), jobs=jobs or 1
    ):
        for graph_name in spec.graphs:
            job = JobSpec.from_sweep(spec, graph_name)
            result = execute_job(
                job, store=store, jobs=jobs, graph_loader=loader, retry=retry
            )
            cells.extend(result.table)
            grids.extend(result.perf["grids"])
            merge_perf(perf, result.perf, graph=graph_name)

    table = SweepTable(cells)
    resources = sample_resources()
    # Registry spellings of the flat counters; the flat keys stay as
    # aliases so existing consumers keep working.
    metrics = {name: perf[key] for key, name in PERF_COUNTERS.items() if name}
    metrics["repro.runner.failed_cells"] = len(perf["failed_cells"])
    perf.update(
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        cells=len(table),
        metrics=metrics,
        algorithm_seconds=sum(c.original_seconds + c.compressed_seconds for c in table),
        seconds_per_cell_group=(
            wall.seconds / perf["cells_scheduled"] if perf["cells_scheduled"] else 0.0
        ),
        wall_seconds=wall.seconds,
        # The parent process's sample; pool workers report under ``workers``.
        resources=resources,
        peak_rss_bytes=resources["peak_rss_bytes"],
        grids=grids,
    )
    if store is not None:
        store_stats = store.stats.snapshot()
        perf["store_stats"] = store_stats
        metrics.update({f"repro.store.{k}": v for k, v in store_stats.items()})
    return SweepResult(spec=spec, table=table, perf=perf)


def write_perf_record(name: str, perf: dict, out_dir) -> Path:
    """Emit a ``BENCH_<name>.json`` perf record under ``out_dir``.

    The shared exit point of the perf trajectory: sweep results
    (:func:`write_bench_record`) and the micro-benchmark suite
    (``benchmarks/bench_core.py``) both land here, so every record
    carries the same ``schema_version`` and naming convention.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    record = {"schema_version": BENCH_SCHEMA_VERSION, "sweep": name, **perf}
    # Every BENCH record carries a resource footprint, sampled at write
    # time unless the producer already attached one (run_sweep does).
    if "resources" not in record:
        record["resources"] = sample_resources()
    record.setdefault("peak_rss_bytes", record["resources"]["peak_rss_bytes"])
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def write_bench_record(result: SweepResult, out_dir) -> Path:
    """Emit ``BENCH_<sweep>.json`` under ``out_dir``; returns the path."""
    return write_perf_record(result.spec.name, result.perf, out_dir)


# ---------------------------------------------------------------------- #
# built-in sweeps
# ---------------------------------------------------------------------- #

#: Fig. 5's sixteen scheme configurations, panel by panel.
FIG5_PANELS: dict[str, tuple[tuple[str, float, str], ...]] = {
    "uniform": tuple(("p", p, f"uniform(p={p})") for p in (0.1, 0.5, 0.9)),
    "spectral": tuple(("p", p, f"spectral(p={p})") for p in (0.005, 0.05, 0.5)),
    "tr": tuple(("p", p, f"{p}-1-TR") for p in (0.1, 0.5, 0.9)),
    "spanner": tuple(("k", k, f"spanner(k={k})") for k in (2, 8, 32, 128)),
    "summarization": tuple(
        ("epsilon", e, f"summarization(epsilon={e})") for e in (0.1, 0.4, 0.7)
    ),
}

#: Table 5's seven scheme configurations with their paper column labels.
TABLE5_SCHEMES: tuple[tuple[str, str], ...] = (
    ("EO-0.8-1-TR", "EO-0.8-1-TR"),
    ("EO-1.0-1-TR", "EO-1.0-1-TR"),
    ("uniform(p=0.8)", "Uniform p=0.2"),
    ("uniform(p=0.5)", "Uniform p=0.5"),
    ("spanner(k=2)", "Spanner k=2"),
    ("spanner(k=16)", "Spanner k=16"),
    ("spanner(k=128)", "Spanner k=128"),
)

register_sweep(
    SweepSpec(
        name="smoke",
        graphs=("s-flx",),
        schemes=("uniform(p=0.5)", "spanner(k=4)"),
        algorithms=("pr", "cc"),
        seeds=(0, 1),
        description="tiny 2x2x2-cell sweep for CI and store smoke tests",
    )
)

register_sweep(
    SweepSpec(
        name="fig5",
        graphs=("s-cds", "s-pok", "v-ewk"),
        schemes=tuple(
            spec for entries in FIG5_PANELS.values() for _, _, spec in entries
        ),
        # The scalar BFS surface, so the BFS column carries real timings
        # (the traversal surface delegates its work to the metric and
        # would report a constant 0 runtime difference).
        algorithms=("bfs_reach(source=0)", "pr", "cc", "tc"),
        seeds=(1,),
        pr_iterations=50,
        description="Fig. 5 storage/performance tradeoffs (16 schemes x 4 algorithms x 3 graphs)",
    )
)

register_sweep(
    SweepSpec(
        name="table5",
        graphs=("s-you", "h-hud", "l-dbl", "v-skt", "v-usa"),
        schemes=tuple(spec for spec, _ in TABLE5_SCHEMES),
        algorithms=("pr",),
        metrics=("kl",),
        seeds=(3,),
        pr_iterations=100,
        description="Table 5 KL divergence of PageRank distributions (7 schemes x 5 graphs)",
    )
)
