"""Content-addressed on-disk artifact store for sweep cells.

The unit of storage is one **grid cell group**: everything produced by
running one algorithm on one ``(graph, scheme, seed)`` compression and
scoring it with one metric list.  The key is the content of those inputs —

- the graph **fingerprint** (:func:`repro.runner.fingerprint.
  graph_fingerprint` — content, not filename),
- the canonical :class:`~repro.compress.spec.SchemeSpec` JSON,
- the compression **seed**,
- the canonical :class:`~repro.algorithms.spec.AlgorithmSpec` JSON,
- the resolved metric names

— hashed to a SHA-256 digest that names the record file.  Because PRs 1–2
made scheme and algorithm specs canonically serializable (aliases
resolved, parameters type-preserved, equal configs equal strings), two
spellings of the same cell always share one record.

Durability discipline:

- **atomic writes** — records are written to a temp file in the target
  directory and ``os.replace``d into place, so a crash mid-write leaves
  either the old record or none;
- **corruption-tolerant reads** — a truncated/garbled record (e.g. a
  crash while an older non-atomic writer ran, or disk damage) is a cache
  *miss*, never an exception; the next ``put`` overwrites it;
- **versioned schema** — every record embeds ``schema_version``; records
  written under a different version are treated as misses, so upgrading
  the cell format safely invalidates stale caches in place.

Payloads are JSON (`cells` + perf counters).  Graph snapshots
(:mod:`repro.graphs.snapshot`) live under ``graphs/`` keyed by
fingerprint, in the exploded layout pooled grid workers memory-map — the
input graph is never re-parsed from edge lists.

**Baselines.**  The original-graph run a cell compares against depends
only on (graph, algorithm), so its canonical value (the adapter's
``extract`` of the raw output: a float, a float64 vector or a vertex
frozenset) is stored once under ``baselines/``, keyed by the graph
fingerprint and the canonical AlgorithmSpec JSON.  Each record is one
``.npz`` holding the value (a frozenset as a sorted int64 array) and a
JSON ``meta`` string with its own ``schema_version``, the key, the
adapter name and the original run's seconds.  Baseline records follow
the cell records' discipline: atomic writes, ``allow_pickle=False``
loads, and damage, a foreign key or another version read as a miss.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.algorithms.spec import AlgorithmSpec
from repro.compress.spec import SchemeSpec
from repro.graphs.csr import CSRGraph
from repro.graphs.snapshot import SnapshotError, load_snapshot, save_snapshot
from repro.utils.fileio import atomic_write

__all__ = [
    "SCHEMA_VERSION",
    "BASELINE_SCHEMA_VERSION",
    "ArtifactStore",
    "BaselineKey",
    "CellKey",
    "StoreStats",
]

#: Version of the cell-record layout; bump to invalidate existing stores.
SCHEMA_VERSION = 1

#: Version of the baseline-record layout, independent of the cells'.
BASELINE_SCHEMA_VERSION = 1


def _canonical_json(value) -> str:
    """Deterministic JSON — the store's hashing/equality normal form."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _scheme_json(scheme) -> str:
    """Canonical SchemeSpec JSON of any scheme surface."""
    if isinstance(scheme, SchemeSpec):
        spec = scheme
    elif isinstance(scheme, str):
        spec = SchemeSpec.parse(scheme)
    elif hasattr(scheme, "spec"):
        spec = scheme.spec()
    else:
        raise TypeError(f"cannot key scheme surface {scheme!r}")
    return _canonical_json(spec.to_dict())


def _canonical_metrics(metrics) -> tuple[str, ...]:
    """Sorted canonical metric names — the key's order-free normal form.

    ``["kl", "l2"]`` and ``["l2", "kl"]`` (and alias spellings of either)
    request the same computation, so they must resolve to the same cell
    instead of recomputing; names unknown to the metric registry pass
    through verbatim (the store also keys third-party payloads).
    """
    from repro.metrics.registry import resolve_metric

    names = set()
    for metric in metrics:
        try:
            names.add(resolve_metric(metric).name)
        except ValueError:
            names.add(str(metric))
    return tuple(sorted(names))


def _algorithm_json(algorithm) -> str:
    """Canonical AlgorithmSpec JSON of a declarative algorithm surface."""
    if isinstance(algorithm, AlgorithmSpec):
        spec = algorithm
    elif isinstance(algorithm, str):
        spec = AlgorithmSpec.parse(algorithm)
    elif hasattr(algorithm, "spec") and isinstance(algorithm.spec, AlgorithmSpec):
        spec = algorithm.spec
    else:
        raise TypeError(
            f"cannot key algorithm surface {algorithm!r}; the store needs "
            "declarative (registry) algorithms, not bare callables"
        )
    return _canonical_json(spec.to_dict())


@dataclass(frozen=True)
class CellKey:
    """The content identity of one stored cell group."""

    graph: str
    scheme: str
    seed: object
    algorithm: str
    metrics: tuple[str, ...] = ()

    @property
    def digest(self) -> str:
        """Hex SHA-256 of the canonical key JSON; names the record file."""
        return hashlib.sha256(
            _canonical_json(self.to_dict()).encode()
        ).hexdigest()

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "scheme": self.scheme,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "metrics": list(self.metrics),
        }


@dataclass(frozen=True)
class BaselineKey:
    """The content identity of one stored baseline: (graph, algorithm)."""

    graph: str
    algorithm: str

    @property
    def digest(self) -> str:
        """Hex SHA-256 of the canonical key JSON; names the record file."""
        return hashlib.sha256(
            _canonical_json(self.to_dict()).encode()
        ).hexdigest()

    def to_dict(self) -> dict:
        return {"graph": self.graph, "algorithm": self.algorithm}


def _encode_baseline(value) -> np.ndarray:
    """A canonical baseline value as the array its record holds."""
    if isinstance(value, frozenset):
        return np.array(sorted(value), dtype=np.int64)
    return np.asarray(value, dtype=np.float64)


def _decode_baseline(adapter: str, array: np.ndarray):
    """The canonical value back from its array; None if the shape is not
    the one ``adapter`` stores (a damaged or foreign record)."""
    if adapter == "vertex_set":
        ok = array.ndim == 1 and array.dtype == np.int64
        return frozenset(array.tolist()) if ok else None
    scalar = adapter == "scalar"
    if array.dtype != np.float64 or array.ndim != (0 if scalar else 1):
        return None
    return float(array) if scalar else array


@dataclass
class StoreStats:
    """Observable cache behavior of one :class:`ArtifactStore` instance.

    ``hits``/``misses`` count :meth:`ArtifactStore.get_cells` outcomes;
    ``corrupt`` counts reads that found an unreadable record (a subset of
    misses), ``invalidated`` reads rejected by schema version (also
    misses); ``writes`` counts stored records.  The ``baseline_*``
    counters are the same three for baseline records
    (:meth:`ArtifactStore.get_baseline` / :meth:`~ArtifactStore.
    put_baseline`); every unusable baseline record is a plain miss.

    Counter updates are serialized through a lock: the compression
    service shares one store across worker threads, and bare ``+= 1``
    increments would drop counts under concurrent submission.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    invalidated: int = 0
    baseline_hits: int = 0
    baseline_misses: int = 0
    baseline_writes: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def add(self, **deltas: int) -> None:
        """Atomically bump the named counters (``stats.add(misses=1)``).

        Each bump also feeds the process-global registry under
        ``repro.store.<name>`` — the instance stays the per-store view,
        the registry the process rollup ``GET /metrics`` exposes.
        """
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)
        from repro.obs.metrics import counter

        for name, delta in deltas.items():
            if delta:
                counter(f"repro.store.{name}").inc(delta)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "corrupt": self.corrupt,
                "invalidated": self.invalidated,
                "baseline_hits": self.baseline_hits,
                "baseline_misses": self.baseline_misses,
                "baseline_writes": self.baseline_writes,
            }


class ArtifactStore:
    """A persistent, content-addressed store of sweep artifacts.

    Layout under ``root`` (created on first write)::

        cells/<d0d1>/<digest>.json   one record per cell group
        baselines/<d0d1>/<digest>.npz
                                     one original-graph value per
                                     (graph, algorithm)
        graphs/<fingerprint>.snap/   exploded CSR snapshots (header.json
                                     plus one .npy per array); a
                                     graphs/<fingerprint>.npz written by
                                     older stores is still read

    The two-hex-digit shard directories keep any single directory small
    for large sweeps.  All methods are safe against concurrent writers of
    the *same* key (last atomic replace wins; both wrote equal content).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.stats = StoreStats()

    @classmethod
    def of(cls, value) -> "ArtifactStore | None":
        """Coerce ``None``/path/store to a store (``None`` stays ``None``).

        Anything with ``get_cells`` already is a store and passes through.
        """
        if value is None or hasattr(value, "get_cells"):
            return value
        return cls(value)

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r}, cells={len(self)})"

    # -- keying ------------------------------------------------------------- #

    def cell_key(
        self, graph_fingerprint: str, scheme, seed, algorithm, metrics=()
    ) -> CellKey:
        """Build the content key for one cell group.

        ``scheme``/``algorithm`` accept spec strings, spec objects, or
        configured scheme/bound-algorithm objects; all spellings of one
        configuration key identically.  Metric names are resolved to
        their canonical registry names and sorted, so metric order (and
        aliasing) never splits one computation across two cells.
        """
        return CellKey(
            graph=str(graph_fingerprint),
            scheme=_scheme_json(scheme),
            seed=seed,
            algorithm=_algorithm_json(algorithm),
            metrics=_canonical_metrics(metrics),
        )

    def baseline_key(self, graph_fingerprint: str, algorithm) -> BaselineKey:
        """Build the content key for one original-graph baseline."""
        return BaselineKey(
            graph=str(graph_fingerprint), algorithm=_algorithm_json(algorithm)
        )

    # -- paths -------------------------------------------------------------- #

    def _record_path(self, key: CellKey) -> Path:
        d = key.digest
        return self.root / "cells" / d[:2] / f"{d}.json"

    def _baseline_path(self, key: BaselineKey) -> Path:
        d = key.digest
        return self.root / "baselines" / d[:2] / f"{d}.npz"

    # -- cell records ------------------------------------------------------- #

    def get_cells(self, key: CellKey) -> dict | None:
        """The stored payload for ``key``, or ``None`` (a miss).

        Misses cover: no record, unreadable/truncated record, schema
        version mismatch, and (paranoia against digest collisions) a
        record whose embedded key differs from ``key``.
        """
        from repro.faults.plan import InjectedFault, fault_point

        try:
            fault_point("store.get_cells", digest=key.digest[:12])
        except InjectedFault:
            # Reads never raise — a flaky read degrades to a miss and the
            # caller recomputes (and rewrites) the cell.
            self.stats.add(corrupt=1, misses=1)
            return None
        path = self._record_path(key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.add(misses=1)
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self.stats.add(corrupt=1, misses=1)
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema_version") != SCHEMA_VERSION
        ):
            self.stats.add(invalidated=1, misses=1)
            return None
        if record.get("key") != key.to_dict() or "payload" not in record:
            self.stats.add(corrupt=1, misses=1)
            return None
        self.stats.add(hits=1)
        return record["payload"]

    def put_cells(self, key: CellKey, payload: dict) -> None:
        """Store ``payload`` (JSON-safe) under ``key``, atomically."""
        from repro.faults.plan import fault_point

        fault_point("store.put_cells", digest=key.digest[:12])
        record = {
            "schema_version": SCHEMA_VERSION,
            "key": key.to_dict(),
            "payload": payload,
        }
        atomic_write(
            self._record_path(key),
            lambda fh: fh.write(json.dumps(record, sort_keys=True).encode()),
        )
        self.stats.add(writes=1)

    # -- baseline records --------------------------------------------------- #

    def get_baseline(self, key: BaselineKey) -> tuple | None:
        """``(value, original seconds)`` stored for ``key``, or ``None``.

        Misses cover no record, an unreadable or truncated one, another
        schema version, a foreign key, and a value whose shape is not
        its adapter's.  A read never raises: the caller recomputes and
        rewrites the baseline.
        """
        from repro.faults.plan import fault_point

        try:
            fault_point("store.get_baseline", digest=key.digest[:12])
            with np.load(self._baseline_path(key), allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                array = data["value"]
            if (
                meta.get("schema_version") != BASELINE_SCHEMA_VERSION
                or meta.get("key") != key.to_dict()
            ):
                raise ValueError("foreign baseline record")
            value = _decode_baseline(meta["adapter"], array)
            if value is None:
                raise ValueError("baseline value of the wrong shape")
            seconds = float(meta["seconds"])
        except Exception:  # noqa: BLE001 — damage and injected faults are misses
            self.stats.add(baseline_misses=1)
            return None
        self.stats.add(baseline_hits=1)
        return value, seconds

    def put_baseline(
        self, key: BaselineKey, value, seconds: float, *, adapter: str
    ) -> None:
        """Store one canonical baseline value under ``key``, atomically."""
        from repro.faults.plan import fault_point

        fault_point("store.put_baseline", digest=key.digest[:12])
        meta = {
            "schema_version": BASELINE_SCHEMA_VERSION,
            "key": key.to_dict(),
            "adapter": adapter,
            "seconds": float(seconds),
        }
        array = _encode_baseline(value)
        atomic_write(
            self._baseline_path(key),
            lambda fh: np.savez(
                fh, value=array, meta=np.array(_canonical_json(meta))
            ),
        )
        self.stats.add(baseline_writes=1)

    def __contains__(self, key: CellKey) -> bool:
        return self._record_path(key).exists()

    def __len__(self) -> int:
        cells = self.root / "cells"
        if not cells.is_dir():
            return 0
        return sum(1 for _ in cells.glob("*/*.json"))

    # -- graph snapshots ---------------------------------------------------- #

    def graph_path(self, fingerprint: str) -> Path | None:
        """Path of the stored snapshot for ``fingerprint``, if present.

        The exploded ``.snap`` directory wins; a single-file ``.npz`` is
        the layout stores wrote before, still served so they keep working.
        """
        graphs = self.root / "graphs"
        for path in (graphs / f"{fingerprint}.snap", graphs / f"{fingerprint}.npz"):
            if path.exists():
                return path
        return None

    def add_graph(self, g: CSRGraph, fingerprint: str | None = None) -> tuple[str, Path]:
        """Snapshot ``g`` into the store (idempotent); (fingerprint, path).

        The snapshot is a ``graphs/<fingerprint>.snap/`` directory in the
        exploded layout, which ``load_snapshot(path, mmap=True)`` maps
        read-only — what pooled grid workers do.  An existing snapshot
        is reused only if it still maps as a complete, self-consistent
        graph; a damaged one is rewritten, keeping the store's
        damage-is-a-miss contract (workers would otherwise crash
        loading it).
        """
        if fingerprint is None:
            from repro.runner.fingerprint import graph_fingerprint

            fingerprint = graph_fingerprint(g)
        path = self.root / "graphs" / f"{fingerprint}.snap"
        try:
            load_snapshot(path, mmap=True)
        except SnapshotError:
            save_snapshot(g, path, layout="exploded")
        return fingerprint, path

    def load_graph(self, fingerprint: str) -> CSRGraph | None:
        """Reload a stored graph snapshot; damaged snapshots read as None.

        The arrays are read into private memory, not mapped, so a
        long-lived process (the compression service) holds no file
        mappings into the store.

        The fingerprint the graph was stored under goes into the analysis
        cache, so fingerprinting the reloaded graph never hashes it again.

        A ``fingerprint:<hex>`` service job calls this only when one of
        its cells misses (:func:`repro.service.jobs.execute_job`); a fully
        warm job replays its cells without reading the snapshot.
        """
        path = self.graph_path(fingerprint)
        if path is None:
            return None
        try:
            g = load_snapshot(path)
        except SnapshotError:
            return None
        from repro.graphs.analysis import analysis_cache

        analysis_cache().put(g, "fingerprint", fingerprint)
        return g
