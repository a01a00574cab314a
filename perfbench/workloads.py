"""The benchmark's three workloads.

Each workload is one client with one request in flight (a closed loop).
The graphs are the shipped stand-ins (dataset seed 0).  Every other input
is derived from the run's seed when the workload object is built, so
building it again with the same seed gives the same inputs; only the
request order is drawn while the run proceeds.  The graphs stay fixed
because summarization cost moves by about 30% between stand-in seeds,
which no number of compression seeds per run averages away.

A workload exposes:

* ``setup()`` - everything before the first timed request: inputs,
  baselines or the filled store, and one warm-up pass over the request
  mix, whose outputs become the reference the timed requests must match;
* ``cycle()`` - one pass over the request mix, in seeded order;
* ``execute(request)`` - the timed call;
* ``check(request, output)`` - the list of problems (empty when correct);
* ``layer_metrics()`` - layer figures the workload can read off the
  program's own records (store and queue counters);
* ``close()``.

See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import math
import shutil

import numpy as np

from repro import JobQueue, JobSpec, Session, datasets, execute_job, generators
from repro.graphs.weights import with_uniform_weights
from repro.runner.store import ArtifactStore
from repro.service.jobs import FINGERPRINT_PREFIX
from repro.service.queue import DONE

_SEED_LIMIT = 2**31 - 1


def load_graph(name: str, *, size: str, weighted: bool = False):
    """The shipped paper stand-in at ``size="full"``; a small RMAT at
    ``"tiny"`` (the self-test size)."""
    if size == "full":
        return datasets.load(name, weighted=weighted)
    g = generators.rmat(9, 8, seed=0)
    return with_uniform_weights(g, 1.0, 10.0, seed=1) if weighted else g


def cell_values(table) -> list[tuple]:
    """The deterministic part of each cell (timings excluded)."""
    return [
        (c.scheme, c.algorithm, c.metric, c.seed, c.value, c.compression_ratio)
        for c in table
    ]


def _cell_problems(cells, planned: int, reference=None) -> list[str]:
    problems = []
    if len(cells) != planned:
        problems.append(f"{len(cells)} cells, planned {planned}")
    for cell in cells:
        if not (math.isfinite(cell[4]) and math.isfinite(cell[5])):
            problems.append(f"non-finite cell {cell}")
    if reference is not None and cells != reference:
        for got, want in zip(cells, reference):
            if got != want:
                problems.append(f"cell {got[:4]}: got {got[4:]}, expected {want[4:]}")
    return problems


class GridWorkload:
    """A request is one in-memory ``Session.grid([scheme], algorithms,
    seed=s)`` call; each cycle makes one request per entry of ``schemes``
    (an entry may repeat).

    An entry keeps one seeded compression seed for the whole run, so its
    timed requests repeat its warm-up request and must reproduce its
    cells exactly.  An entry whose scheme is in ``FRESH``, whose cost
    swings with the seed, instead draws a fresh seed for every request,
    so that a run averages over many seeds; it is checked like a cold
    job, for the planned number of finite cells.
    """

    FRESH: tuple[str, ...] = ()
    dataset = "v-ewk"
    weighted = False
    schemes: tuple[str, ...] = ()
    algorithms: tuple[str, ...] = ()

    def __init__(self, seed: int, *, size: str = "full", workdir=None, tracer=None):
        rng = np.random.default_rng([seed, 0])
        self.size = size
        self.entries = [(scheme, int(rng.integers(_SEED_LIMIT))) for scheme in self.schemes]
        self._fresh = np.random.default_rng([seed, 2])
        self._order = np.random.default_rng([seed, 1])
        self.session = None
        self.reference: dict = {}

    def setup(self) -> None:
        graph = load_graph(self.dataset, size=self.size, weighted=self.weighted)
        self.session = Session(graph)
        for algorithm in self.algorithms:
            self.session.baseline(algorithm)
        for request in self.entries:
            cells = cell_values(self.execute(request))
            problems = _cell_problems(cells, len(self.algorithms))
            if problems:
                raise RuntimeError(f"warm-up request {request}: {problems}")
            self.reference[request] = cells

    def cycle(self) -> list:
        mix = [
            (s, int(self._fresh.integers(_SEED_LIMIT)) if s in self.FRESH else seed)
            for s, seed in self.entries
        ]
        return [mix[i] for i in self._order.permutation(len(mix))]

    def execute(self, request):
        scheme, seed = request
        return self.session.grid([scheme], self.algorithms, seed=seed)

    def check(self, request, table) -> list[str]:
        return _cell_problems(
            cell_values(table), len(self.algorithms), self.reference.get(request)
        )

    def layer_metrics(self) -> dict:
        return {}

    def close(self) -> None:
        self.session = None


class GridStructural(GridWorkload):
    """Structural schemes: compression is almost all of a request."""

    name = "grid-structural"
    # Spanner, chain and summarization costs depend on the seed (the
    # spanner's decomposition; summarization is heavy-tailed, 0.4 s to
    # 1.2 s on v-ewk), so they draw fresh seeds.  0.5-1-TR runs twice per
    # cycle: with seven requests a cycle, p50 falls inside the chain band
    # and p90 inside the summarization band, instead of p50 sitting on
    # the edge between the chain and the spanners.
    FRESH = (
        "spanner(k=2)",
        "spanner(k=8)",
        "summarization(epsilon=0.4)",
        "low_degree(max_degree=1) | uniform(p=0.5) | spanner(k=4)",
    )
    schemes = (
        "spanner(k=2)",
        "spanner(k=8)",
        "0.5-1-TR",
        "0.5-1-TR",
        "EO-0.8-1-TR",
        "summarization(epsilon=0.4)",
        "low_degree(max_degree=1) | uniform(p=0.5) | spanner(k=4)",
    )
    algorithms = ("cc", "bfs")


class GridSampling(GridWorkload):
    """Cheap sampling schemes on a weighted graph: algorithms and metric
    scoring are almost all of a request."""

    name = "grid-sampling"
    weighted = True
    schemes = (
        "uniform(p=0.5)",
        "uniform(p=0.8)",
        "spectral(p=0.5)",
        "low_degree(max_degree=1)",
        "vertex_sampling(p=0.5)",
    )
    algorithms = ("pr", "tc", "sssp", "mst", "cc")


class ServiceWarm:
    """A ``JobQueue(workers=1)`` over a filled ``ArtifactStore``.

    Four of every five jobs replay a job that setup computed (store
    reads only); the fifth is ``uniform(p=0.5)`` x ``cc``,``pr`` under a
    seed never used before, so it computes and writes cells.
    """

    name = "service-warm"
    graphs = ("v-ewk", "s-pok")
    warm_schemes = ("uniform(p=0.5)", "spectral(p=0.5)")
    cold_scheme = "uniform(p=0.5)"
    algorithms = ("cc", "pr")
    #: Seconds a client waits for one job before counting it failed.
    job_timeout = 120.0

    def __init__(self, seed: int, *, size: str = "full", workdir=None, tracer=None):
        if workdir is None:
            raise ValueError("service-warm needs a work directory for its store")
        rng = np.random.default_rng([seed, 0])
        self.size = size
        self.workdir = workdir
        # Catalogue seeds lie below 2**20 and cold seeds above it, so a
        # cold job never replays a stored one.
        self.catalogue = [
            (graph, scheme, int(rng.integers(2**20)))
            for graph in self.graphs
            for scheme in self.warm_schemes
        ]
        self.cold_base = int(rng.integers(2**20, 2**30))
        self.cold_jobs = 0
        self._order = np.random.default_rng([seed, 1])
        self.executor = (
            execute_job if tracer is None else tracer.wrap("service.execute_job", execute_job)
        )
        self.store = None
        self.queue = None
        self.refs: dict[str, str] = {}
        self.warm_jobs: list[JobSpec] = []
        self.reference: dict = {}
        self.records: list = []
        self._store_before: dict = {}

    def setup(self) -> None:
        self.store = ArtifactStore(self.workdir / "store")
        for name in self.graphs:
            graph = load_graph(name, size=self.size)
            fingerprint, _ = self.store.add_graph(graph)
            self.refs[name] = FINGERPRINT_PREFIX + fingerprint
        self.queue = JobQueue(self.store, workers=1, executor=self.executor)
        for graph, scheme, seed in self.catalogue:
            job = JobSpec.build(self.refs[graph], [scheme], self.algorithms, seeds=[seed])
            record = self.execute(("fill", job))
            problems = self.check(("fill", job), record)
            if problems:
                raise RuntimeError(f"filling the store with {job}: {problems}")
            self.warm_jobs.append(job)
            self.reference[job] = cell_values(record.result.table)
        for request in self.cycle():
            problems = self.check(request, self.execute(request))
            if problems:
                raise RuntimeError(f"warm-up request {request}: {problems}")
        self.records.clear()
        self._store_before = self.store.stats.snapshot()

    def _fresh_job(self) -> JobSpec:
        graph = self.graphs[self.cold_jobs % len(self.graphs)]
        seed = self.cold_base + self.cold_jobs
        self.cold_jobs += 1
        return JobSpec.build(self.refs[graph], [self.cold_scheme], self.algorithms, seeds=[seed])

    def cycle(self) -> list:
        mix = [("warm", self.warm_jobs[i]) for i in self._order.permutation(len(self.warm_jobs))]
        mix.insert(int(self._order.integers(len(mix) + 1)), ("cold", self._fresh_job()))
        return mix

    def execute(self, request):
        record = self.queue.submit(request[1])
        record.wait(self.job_timeout)
        self.records.append(record)
        return record

    def check(self, request, record) -> list[str]:
        if record.state != DONE:
            return [f"job {record.id} ended {record.state}: {record.error}"]
        planned = len(record.spec.schemes) * len(record.spec.algorithms)
        # Only warm replays have a reference; fill and cold jobs do not.
        return _cell_problems(
            cell_values(record.result.table), planned, self.reference.get(request[1])
        )

    def layer_metrics(self) -> dict:
        after = self.store.stats.snapshot()
        hits = after["hits"] - self._store_before["hits"]
        misses = after["misses"] - self._store_before["misses"]
        waits = [r.started_at - r.submitted_at for r in self.records if r.started_at]
        return {
            "runner.store_hit_ratio": hits / max(1, hits + misses),
            "service.queue_wait_ms": 1000.0 * float(np.mean(waits)) if waits else 0.0,
            "service.warm_ratio": sum(r.warm for r in self.records) / max(1, len(self.records)),
        }

    def close(self) -> None:
        if self.queue is not None:
            self.queue.close(drain=True, timeout=self.job_timeout)
            self.queue = None
        self.store = None
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (GridStructural, GridSampling, ServiceWarm)}
