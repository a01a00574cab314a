"""Deterministic fuzz harness: the scenario matrix, the driver, replay.

The matrix is the cross product

    generator family x directed/undirected x weighted/unweighted x seed

where every axis is encoded into a stable **case id**
(``powerlaw_cluster.und.wtd.s2``), so any failing scenario reproduces
from its id alone — the harness never needs to ship random state.  Each
case builds its graph deterministically, runs the full differential
battery (:mod:`repro.verify.oracles`) against the engine, and — on
undirected cases — sweeps the registered compression schemes through the
metamorphic invariants (:mod:`repro.verify.properties`).

On failure the driver emits, per failing case:

- ``<artifacts>/<case_id>.npz`` — a binary CSR snapshot of the offending
  graph (loadable with :func:`repro.graphs.snapshot.load_snapshot`);
- ``<artifacts>/<case_id>.json`` — the failure messages;
- a minimal reproduction command::

      python -m repro.verify replay --case <case_id>

``python -m repro.verify --smoke`` runs the CI budget (3 seeds, every
family, both directedness and weight axes, scheme invariants, one
store/parallel equivalence pass); the default budget is the same matrix
over more seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.compress.registry import registered_schemes
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.weights import with_uniform_weights
from repro.utils.rng import as_generator
from repro.utils.timer import stopwatch
from repro.verify import properties
from repro.verify.oracles import ORACLES

__all__ = [
    "FuzzCase",
    "CaseReport",
    "MatrixSummary",
    "FAMILIES",
    "DELTA_FAMILIES",
    "scheme_matrix",
    "SMOKE_SEEDS",
    "DEFAULT_SEEDS",
    "build_cases",
    "build_graph",
    "run_case",
    "run_matrix",
    "replay_command",
    "main",
]

SMOKE_SEEDS = (0, 1, 2)
DEFAULT_SEEDS = (0, 1, 2, 3, 4, 5, 6)


def _near_cliques(seed: int) -> CSRGraph:
    """Nine disjoint cliques of 8–14 vertices (about 100 in all) with a
    seeded ~10% of their edges removed, plus six random cross edges.

    Dense blocks with holes: their summaries carry corrections⁻, so the
    lossy walk spends budget on corrections⁻ before corrections⁺.
    """
    rng = as_generator(seed + 60013)
    cliques = gen.disjoint_union(
        *(gen.complete_graph(int(size)) for size in rng.integers(8, 15, size=9))
    )
    keep = rng.random(cliques.num_edges) >= 0.1
    cross = rng.integers(0, cliques.n, size=(2, 6))
    return CSRGraph.from_edges(
        cliques.n,
        np.concatenate([cliques.edge_src[keep], cross[0]]),
        np.concatenate([cliques.edge_dst[keep], cross[1]]),
    )


#: family name -> deterministic builder of the undirected, unweighted
#: base graph for one seed.  Sizes are chosen so the pure-Python oracles
#: stay comfortably inside the CI budget while still exercising the
#: regimes the paper varies (power law, small world, grid, random,
#: degenerate shapes, and near-cliques whose summaries need corrections⁻).
FAMILIES = {
    "rmat": lambda seed: gen.rmat(6, 4, seed=seed),
    "powerlaw_cluster": lambda seed: gen.powerlaw_cluster(90, 3, 0.5, seed=seed),
    "watts_strogatz": lambda seed: gen.watts_strogatz(80, 4, 0.2, seed=seed),
    # The deterministic families take no RNG; the seed varies their shape
    # instead.  The (seed % 7, seed // 7) grid split and the seed-linear
    # path length keep every seed a distinct graph at any realistic
    # budget, while component sizes stay bounded.
    "grid_2d": lambda seed: gen.grid_2d(
        5 + seed % 7, 7 + seed // 7, diagonals=bool(seed % 2)
    ),
    "erdos_renyi": lambda seed: gen.erdos_renyi(80, m=200, seed=seed),
    "degenerate": lambda seed: gen.disjoint_union(
        gen.star_graph(10 + seed % 4),
        gen.path_graph(5 + seed),
        gen.cycle_graph(5 + seed % 4),
        gen.complete_graph(4 + seed % 3),
        gen.balanced_tree(2, 2 + seed % 2),
        gen.triangle_strip(4 + seed % 3),
    ),
    "near_cliques": _near_cliques,
}

def _delta_batches(
    g: CSRGraph,
    seed: int,
    *,
    batches: int = 3,
    ops: int = 12,
    insert_frac: float = 0.5,
    grow_vertices: int = 0,
):
    """Deterministic, sequentially valid delta batches for ``g``.

    ``insert_frac`` splits each batch's ``ops`` between inserts and
    deletes; ``grow_vertices`` stretches the vertex set per batch (the
    growth path of :meth:`CSRGraph.insert_edges`).  Weighted graphs get
    weighted inserts plus a couple of weight updates per batch.  Fully
    determined by ``(g, seed)``, so a case id replays its delta stream.
    """
    from repro.stream.delta import EdgeDelta

    rng = as_generator((seed + 1) * 86243)
    edges = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
    weighted = g.is_weighted
    n = g.n
    deltas = []
    for _ in range(batches):
        num_ins = int(round(ops * insert_frac))
        num_del = ops - num_ins
        pool = sorted(edges)
        deletes: list[tuple[int, int]] = []
        take = min(num_del, len(pool))
        if take:
            idx = rng.choice(len(pool), size=take, replace=False)
            deletes = [pool[i] for i in sorted(idx.tolist())]
            edges.difference_update(deletes)
        n += grow_vertices
        inserts: list = []
        fresh: set = set()
        tries = 0
        while len(fresh) < num_ins and tries < 60 * max(num_ins, 1):
            tries += 1
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            if u == v:
                continue
            p = (min(u, v), max(u, v))
            if p in edges or p in fresh or p in deletes:
                continue
            fresh.add(p)
            inserts.append(
                (*p, round(float(rng.uniform(0.5, 2.0)), 3)) if weighted else p
            )
        edges.update(fresh)
        updates = None
        if weighted:
            survivors = sorted(edges - fresh)
            take_u = min(2, len(survivors))
            if take_u:
                idx = rng.choice(len(survivors), size=take_u, replace=False)
                updates = [
                    (*survivors[i], round(float(rng.uniform(0.5, 2.0)), 3))
                    for i in sorted(idx.tolist())
                ]
        deltas.append(
            EdgeDelta.build(
                inserts=inserts,
                deletes=deletes,
                updates=updates,
                directed=g.directed,
                num_vertices=n,
            )
        )
    return deltas


#: delta family name -> deterministic builder ``fn(g, seed) ->
#: list[EdgeDelta]``.  Same replayability contract as :data:`FAMILIES`:
#: a case id pins the base graph *and* (via the seed) its delta stream,
#: so a failing incremental check replays exactly.
DELTA_FAMILIES = {
    # balanced insert/delete churn — the steady-state streaming regime
    "churn": lambda g, seed: _delta_batches(g, seed, insert_frac=0.5),
    # insert-heavy with vertex growth — exercises mapping/degree growth
    "grow": lambda g, seed: _delta_batches(
        g, seed, insert_frac=0.8, grow_vertices=2
    ),
    # delete-heavy — exercises recompression of shrinking generations
    "shrink": lambda g, seed: _delta_batches(g, seed, insert_frac=0.2),
}

_DIR_TOKENS = {False: "und", True: "dir"}
_WEIGHT_TOKENS = {False: "unw", True: "wtd"}


@dataclass(frozen=True)
class FuzzCase:
    """One scenario of the matrix; fully determined by its four axes."""

    family: str
    directed: bool
    weighted: bool
    seed: int

    @property
    def case_id(self) -> str:
        return (
            f"{self.family}.{_DIR_TOKENS[self.directed]}."
            f"{_WEIGHT_TOKENS[self.weighted]}.s{self.seed}"
        )

    @classmethod
    def from_id(cls, case_id: str) -> "FuzzCase":
        try:
            family, dir_tok, w_tok, seed_tok = case_id.split(".")
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}")
            directed = {v: k for k, v in _DIR_TOKENS.items()}[dir_tok]
            weighted = {v: k for k, v in _WEIGHT_TOKENS.items()}[w_tok]
            if not seed_tok.startswith("s"):
                raise ValueError("seed token must look like s<int>")
            seed = int(seed_tok[1:])
            if seed < 0:
                raise ValueError("seed must be >= 0")
            return cls(family, directed, weighted, seed)
        except (KeyError, ValueError) as err:
            raise ValueError(
                f"malformed case id {case_id!r} "
                f"(expected <family>.<und|dir>.<unw|wtd>.s<seed>): {err}"
            ) from None


def build_graph(case: FuzzCase) -> CSRGraph:
    """Deterministically rebuild a case's graph from its axes alone."""
    base = FAMILIES[case.family](case.seed)
    g = base
    if case.directed:
        # Asymmetric orientation: each undirected edge becomes the
        # forward arc, the reverse arc, or both (seeded draw).  This
        # produces genuinely directed structure — one-way reachability
        # and dangling vertices (in-arcs but no out-arcs) — so the
        # directed axis exercises e.g. PageRank's dangling-mass
        # redistribution rather than a symmetric digraph's dead path.
        rng = as_generator(case.seed + 104729)
        choice = rng.integers(0, 3, size=base.num_edges)
        fwd = choice != 1  # u -> v kept for draws 0 and 2
        rev = choice != 0  # v -> u kept for draws 1 and 2
        src = np.concatenate([base.edge_src[fwd], base.edge_dst[rev]])
        dst = np.concatenate([base.edge_dst[fwd], base.edge_src[rev]])
        g = CSRGraph.from_edges(base.n, src, dst, directed=True)
    if case.weighted:
        g = with_uniform_weights(g, seed=case.seed + 7919)
    return g


def build_cases(
    *,
    seeds=SMOKE_SEEDS,
    families=None,
    directed=(False, True),
    weighted=(False, True),
) -> list[FuzzCase]:
    names = list(families) if families else list(FAMILIES)
    unknown = [f for f in names if f not in FAMILIES]
    if unknown:
        raise ValueError(
            f"unknown families {unknown}; available: {sorted(FAMILIES)}"
        )
    bad_seeds = [s for s in seeds if int(s) < 0]
    if bad_seeds:
        raise ValueError(f"seeds must be >= 0, got {bad_seeds}")
    return [
        FuzzCase(family, d, w, int(seed))
        for family in names
        for d in directed
        for w in weighted
        for seed in seeds
    ]


# --------------------------------------------------------------------- #
# the per-scheme metamorphic matrix
# --------------------------------------------------------------------- #


def scheme_matrix() -> list[tuple[str, str]]:
    """(canonical scheme name, default spec) for every registered scheme.

    Uses each registry entry's documented ``example`` spec so newly
    registered schemes join the fuzz matrix automatically, plus two chain
    pipelines exercising lineage composition.
    """
    out = [
        (name, entry.example) for name, entry in registered_schemes().items()
    ]
    out.append(("chain", "uniform(p=0.9) | spanner(k=4)"))
    out.append(("chain", "EO-0.5-1-TR | low_degree(max_degree=1)"))
    return out


def _classify(name: str, spec: str) -> tuple[bool, bool]:
    """(is_subgraph, keeps_weights) for one matrix entry.

    Chains are classified by their *stages* — a pipeline is an
    edge-subset (weight-preserving) transform exactly when every stage
    is — so widening the chain coverage with a reweighting stage cannot
    produce false failures.
    """
    if name != "chain":
        return (
            name in properties.SUBGRAPH_SCHEMES,
            name in properties.WEIGHT_PRESERVING_SCHEMES,
        )
    from repro.compress.spec import SchemeSpec

    stage_names = [stage.name for stage in SchemeSpec.parse(spec).stages]
    return (
        all(s in properties.SUBGRAPH_SCHEMES for s in stage_names),
        all(s in properties.WEIGHT_PRESERVING_SCHEMES for s in stage_names),
    )


def _scheme_checks(case: FuzzCase, g: CSRGraph) -> tuple[int, list[str]]:
    """Run every registered scheme through its metamorphic invariants."""
    from repro.compress.registry import build_scheme

    checks = 0
    failures: list[str] = []
    for name, spec in scheme_matrix():
        checks += 1
        is_subgraph, keeps_weights = _classify(name, spec)
        try:
            result = build_scheme(spec).compress(g, seed=case.seed)
            result.graph.validate()
            msgs = properties.lineage_composes(result)
            if is_subgraph:
                msgs += properties.subgraph_invariants(
                    result, weights_preserved=keeps_weights
                )
        except Exception as err:  # compress itself must never blow up
            msgs = [f"raised {type(err).__name__}: {err}"]
        failures.extend(f"scheme[{spec}]: {m}" for m in msgs)

    def guarded(label: str, check) -> list[str]:
        # A crashing property check must become a recorded failure (with
        # its replay artifact), never abort the whole matrix — same
        # contract as the oracle loop.
        try:
            msgs = check()
        except Exception as err:
            msgs = [f"raised {type(err).__name__}: {err}"]
        return [f"{label}: {m}" for m in msgs]

    checks += 8
    failures.extend(
        guarded(
            "tr_connectivity",
            lambda: properties.tr_preserves_components(g, seed=case.seed),
        )
    )
    failures.extend(
        guarded(
            "spanner_stretch",
            lambda: properties.spanner_invariants(g, k=4, seed=case.seed),
        )
    )
    rng = as_generator(case.seed + 31)
    mask = rng.random(g.num_edges) < 0.6
    failures.extend(
        guarded("fastpath_identity", lambda: properties.fastpath_identity(g, mask))
    )
    failures.extend(
        guarded(
            "summary_identity",
            lambda: properties.summary_identity(g, seed=case.seed),
        )
    )
    failures.extend(
        guarded("triangle_list_identity", lambda: properties.triangle_list_identity(g))
    )
    failures.extend(
        guarded(
            "triangle_derive_identity",
            lambda: properties.triangle_derive_identity(g, seed=case.seed),
        )
    )
    failures.extend(
        guarded(
            "mst_derive_identity",
            lambda: properties.mst_derive_identity(g, seed=case.seed),
        )
    )
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        failures.extend(
            guarded(
                "baseline_replay_identity",
                lambda: properties.baseline_replay_identity(g, tmp, seed=case.seed),
            )
        )

    # Streaming metamorphic invariant: every delta family × a spanner,
    # a triangle and a vertex scheme kept per generation.  The delta stream is rebuilt from
    # (g, seed), so these replay from the case id like everything else.
    incremental_specs = ("spanner(k=4)", "EO-0.8-1-TR", "low_degree")
    for fam_name, delta_builder in DELTA_FAMILIES.items():
        for spec in incremental_specs:
            checks += 1
            failures.extend(
                guarded(
                    f"incremental[{spec}][{fam_name}]",
                    lambda b=delta_builder, s=spec: (
                        properties.incremental_equivalence(
                            g, b(g, case.seed), s, seed=case.seed
                        )
                    ),
                )
            )
    return checks, failures


def _snapshot_check(g: CSRGraph) -> list[str]:
    try:
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            msgs = properties.snapshot_roundtrip(g, tmp)
    except Exception as err:
        msgs = [f"raised {type(err).__name__}: {err}"]
    return [f"snapshot_roundtrip: {m}" for m in msgs]


@dataclass
class CaseReport:
    """Outcome of one scenario: how much was checked, what failed."""

    case: FuzzCase
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_case(
    case: FuzzCase,
    *,
    oracle_table=None,
    schemes: bool = True,
) -> CaseReport:
    """Run one scenario: oracles always, scheme invariants when asked.

    ``oracle_table`` overrides :data:`~repro.verify.oracles.ORACLES`
    (how the test suite proves a broken oracle produces a failing,
    replayable case).  Scheme invariants run on undirected cases only —
    the compression schemes themselves are undirected-graph transforms.
    """
    g = build_graph(case)
    report = CaseReport(case)
    for entry in (oracle_table if oracle_table is not None else ORACLES).values():
        if g.directed and not entry.directed_ok:
            continue
        report.checks += 1
        try:
            msgs = entry.compare(entry.engine(g), entry.oracle(g))
        except Exception as err:
            msgs = [f"raised {type(err).__name__}: {err}"]
        report.failures.extend(f"oracle[{entry.name}]: {m}" for m in msgs)
    report.checks += 1
    report.failures.extend(_snapshot_check(g))
    if schemes and not case.directed:
        checks, failures = _scheme_checks(case, g)
        report.checks += checks
        report.failures.extend(failures)
    return report


def replay_command(case: FuzzCase) -> str:
    """The minimal reproduction command printed with every failure."""
    return f"python -m repro.verify replay --case {case.case_id}"


@dataclass
class MatrixSummary:
    """Aggregate of one driver run."""

    reports: list[CaseReport]
    global_failures: list[str] = field(default_factory=list)
    seconds: float = 0.0
    #: Size of the oracle battery that actually ran (a custom
    #: ``oracle_table`` override is reflected here, not the global table).
    num_oracles: int = len(ORACLES)

    @property
    def num_cases(self) -> int:
        return len(self.reports)

    @property
    def num_checks(self) -> int:
        return sum(r.checks for r in self.reports)

    @property
    def failing(self) -> list[CaseReport]:
        return [r for r in self.reports if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failing and not self.global_failures

    def perf(self) -> dict:
        """JSON-safe counters for a ``BENCH_verify``-style record."""
        families = sorted({r.case.family for r in self.reports})
        seeds = sorted({r.case.seed for r in self.reports})
        return {
            "cases": self.num_cases,
            "checks": self.num_checks,
            "oracles": self.num_oracles,
            "families": families,
            "seeds": seeds,
            "failing_cases": [r.case.case_id for r in self.failing],
            "global_failures": list(self.global_failures),
            "wall_seconds": self.seconds,
        }


def _write_failure_artifacts(report: CaseReport, artifacts: Path) -> Path:
    from repro.graphs.snapshot import save_snapshot

    artifacts.mkdir(parents=True, exist_ok=True)
    g = build_graph(report.case)
    save_snapshot(g, artifacts / f"{report.case.case_id}.npz")
    record = {
        "case": report.case.case_id,
        "replay": replay_command(report.case),
        "failures": report.failures,
    }
    path = artifacts / f"{report.case.case_id}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def run_matrix(
    cases,
    *,
    oracle_table=None,
    schemes: bool = True,
    global_checks: bool = True,
    artifacts=None,
    log=print,
) -> MatrixSummary:
    """Drive every case; write per-case artifacts for the failures.

    ``global_checks`` additionally runs the run-once invariants on one
    representative graph: store round trips replay with zero
    recomputation, and a process-pool grid equals the in-memory grid.
    """
    reports: list[CaseReport] = []
    global_failures: list[str] = []
    with stopwatch() as wall:
        for case in cases:
            report = run_case(case, oracle_table=oracle_table, schemes=schemes)
            reports.append(report)
            if not report.ok:
                log(f"FAIL {case.case_id}: {len(report.failures)} failure(s)")
                for msg in report.failures[:5]:
                    log(f"  - {msg}")
                if artifacts is not None:
                    _write_failure_artifacts(report, Path(artifacts))
                log(f"  replay: {replay_command(case)}")
        if global_checks:
            probe = build_graph(FuzzCase("powerlaw_cluster", False, False, 0))
            with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
                global_failures.extend(
                    f"store_roundtrip: {m}"
                    for m in properties.store_roundtrip(probe, tmp)
                )
            global_failures.extend(
                f"parallel_grid: {m}"
                for m in properties.parallel_grid_equivalence(probe)
            )
            for msg in global_failures:
                log(f"FAIL global: {msg}")
            if global_failures and artifacts is not None:
                # Global checks have no per-case snapshot; record the
                # failure messages so the CI artifact is never empty.
                path = Path(artifacts)
                path.mkdir(parents=True, exist_ok=True)
                (path / "global.json").write_text(
                    json.dumps({"failures": global_failures}, indent=2) + "\n"
                )
    return MatrixSummary(
        reports,
        global_failures,
        seconds=wall.seconds,
        num_oracles=len(oracle_table if oracle_table is not None else ORACLES),
    )


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential-oracle and metamorphic fuzzing of the "
        "engine: generator matrix x oracles x scheme invariants.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI budget: seeds {SMOKE_SEEDS} (default: {DEFAULT_SEEDS})",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", metavar="S", help="explicit seed list"
    )
    parser.add_argument(
        "--families",
        nargs="+",
        metavar="F",
        help=f"restrict families (available: {', '.join(sorted(FAMILIES))})",
    )
    parser.add_argument(
        "--no-schemes",
        action="store_true",
        help="skip the per-scheme metamorphic invariants (oracles only)",
    )
    parser.add_argument(
        "--no-global",
        action="store_true",
        help="skip the run-once store/parallel equivalence checks",
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=".verify-artifacts",
        help="directory for failure snapshots (default .verify-artifacts)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="also write a BENCH_verify.json perf record under DIR",
    )
    parser.add_argument(
        "--list-cases", action="store_true", help="print the case ids and exit"
    )
    return parser


def _replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify replay",
        description="Re-run one scenario by case id (deterministic).",
    )
    parser.add_argument("--case", required=True, metavar="ID")
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=".verify-artifacts",
        help="directory for failure snapshots (default .verify-artifacts)",
    )
    parser.add_argument(
        "--no-schemes", action="store_true", help="oracles only"
    )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    if argv and argv[0] == "replay":
        args = _replay_parser().parse_args(argv[1:])
        try:
            case = FuzzCase.from_id(args.case)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        report = run_case(case, schemes=not args.no_schemes)
        if report.ok:
            print(f"ok: {case.case_id} ({report.checks} checks)")
            return 0
        print(f"FAIL {case.case_id}: {len(report.failures)} failure(s)")
        for msg in report.failures:
            print(f"  - {msg}")
        _write_failure_artifacts(report, Path(args.artifacts))
        print(f"snapshot: {Path(args.artifacts) / (case.case_id + '.npz')}")
        return 1

    args = _run_parser().parse_args(argv)
    seeds = args.seeds or (SMOKE_SEEDS if args.smoke else DEFAULT_SEEDS)
    try:
        cases = build_cases(seeds=seeds, families=args.families)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.list_cases:
        for case in cases:
            print(case.case_id)
        return 0

    summary = run_matrix(
        cases,
        schemes=not args.no_schemes,
        global_checks=not args.no_global,
        artifacts=args.artifacts,
    )
    if args.out:
        from repro.runner.harness import write_perf_record

        record_path = write_perf_record("verify", summary.perf(), args.out)
        print(f"perf record: {record_path}")

    families = sorted({c.family for c in cases})
    print(
        f"verify: {summary.num_checks} checks over {summary.num_cases} cases "
        f"({len(ORACLES)} oracles x {len(families)} families x "
        f"directed/undirected x weighted/unweighted x {len(seeds)} seeds) "
        f"in {summary.seconds:.1f}s"
    )
    if summary.ok:
        print("all checks passed")
        return 0
    print(
        f"{len(summary.failing)} failing case(s), "
        f"{len(summary.global_failures)} global failure(s); "
        f"artifacts under {args.artifacts}"
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
