"""Fast binary CSR snapshots (v1 ``.npz``, v2 exploded ``.npy`` + header).

A snapshot holds every array of a :class:`~repro.graphs.csr.CSRGraph` —
the canonical edge arrays *and* the derived adjacency
(``indptr``/``indices``/``arc_edge_ids``) — so loading is a handful of
array reads plus slot assignment: no edge list parsing, no deduplication,
no ``lexsort`` to rebuild the CSR.  This is what lets the sweep runner's
worker processes pick up a many-edge graph in milliseconds, and what the
artifact store keys graphs under (see
:func:`repro.runner.fingerprint.graph_fingerprint`).

Two layouts share one loader:

- **v1** (``SNAPSHOT_VERSION``): a single ``.npz`` archive written with
  ``np.savez`` (uncompressed).  One file, the portable export (fuzz
  failure artifacts use it), but ``np.load(mmap_mode=...)`` cannot
  memory-map arrays that live *inside* a zip archive, so a v1 snapshot
  always loads into private process memory.
- **v2** (``EXPLODED_SNAPSHOT_VERSION``): an "exploded" directory of raw
  ``.npy`` sidecars plus a ``header.json`` manifest.  Each sidecar is a
  plain flat file, so ``load_snapshot(path, mmap=True)`` maps the arrays
  read-only straight off disk — pooled grid workers share one page-cache
  copy, and graphs larger than RAM stream pages on demand.  The artifact
  store writes this layout.

Both layouts are written atomically with the shared fileio discipline
(temp file + fsync + ``os.replace``).  For v2 the sidecars land first and
the header last, so a reader that finds a header always finds the arrays
it names; a missing/partial header reads as damage.  (Overwriting an
existing v2 snapshot *in place* with different content is not atomic as a
unit — write content-addressed paths, as the store does, or fresh
directories.)

Loaded arrays are returned **read-only** (``flags.writeable = False``):
``CSRGraph`` is immutable by contract, and memory-mapped snapshot pages
may be shared by many workers — accidental mutation must raise instead of
silently corrupting every sibling.  Loads also cross-validate shapes and
dtypes (:func:`validate_parts`), so a corrupt-but-well-formed file fails
here, naming the offending field, not later with an unrelated
``IndexError`` deep inside a kernel.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.utils.fileio import atomic_write

__all__ = [
    "SNAPSHOT_VERSION",
    "EXPLODED_SNAPSHOT_VERSION",
    "save_snapshot",
    "load_snapshot",
    "validate_parts",
    "SnapshotError",
]

#: Layout version of the single-file ``.npz`` snapshot.
SNAPSHOT_VERSION = 1
#: Layout version of the exploded (directory) snapshot.
EXPLODED_SNAPSHOT_VERSION = 2

#: Header file of an exploded snapshot; written last, read first.
HEADER_NAME = "header.json"

#: Array fields of a snapshot, in canonical order.  ``edge_weights`` is
#: optional (unweighted graphs omit it).
ARRAY_FIELDS = (
    "edge_src",
    "edge_dst",
    "indptr",
    "indices",
    "arc_edge_ids",
    "edge_weights",
)

_EXPECTED_DTYPES = {
    "edge_src": np.dtype(np.int64),
    "edge_dst": np.dtype(np.int64),
    "indptr": np.dtype(np.int64),
    "indices": np.dtype(np.int64),
    "arc_edge_ids": np.dtype(np.int64),
    "edge_weights": np.dtype(np.float64),
}


class SnapshotError(ValueError):
    """Raised when a file is not a loadable CSR snapshot."""


def validate_parts(
    n: int, directed: bool, parts: dict, *, source="snapshot"
) -> None:
    """Cross-field consistency check of CSR arrays about to be adopted.

    ``parts`` maps the :data:`ARRAY_FIELDS` names to arrays
    (``edge_weights`` may be absent or ``None``).  Raises
    :class:`SnapshotError` naming the offending field for any shape or
    dtype that cannot belong to a well-formed ``CSRGraph`` of ``n``
    vertices — the checks are O(1) (shapes, dtypes, the two ``indptr``
    endpoints), so they cost nothing against mmap-backed arrays.

    The snapshot loader runs it before handing arrays to
    :meth:`CSRGraph._from_parts`, which trusts its inputs.
    """

    def bad(field: str, message: str) -> SnapshotError:
        return SnapshotError(f"{source}: field {field!r} {message}")

    if n < 0:
        raise bad("n", f"is negative ({n})")
    for field in ARRAY_FIELDS:
        arr = parts.get(field)
        if arr is None:
            if field == "edge_weights":
                continue
            raise bad(field, "is missing")
        if getattr(arr, "ndim", None) != 1:
            raise bad(field, "is not a 1-D array")
        if arr.dtype != _EXPECTED_DTYPES[field]:
            raise bad(
                field,
                f"has dtype {arr.dtype}, expected {_EXPECTED_DTYPES[field]}",
            )
    edge_src = parts["edge_src"]
    m = len(edge_src)
    if parts["edge_dst"].shape != edge_src.shape:
        raise bad(
            "edge_dst",
            f"has length {len(parts['edge_dst'])}, expected {m} (edge_src)",
        )
    indptr = parts["indptr"]
    if len(indptr) != n + 1:
        raise bad("indptr", f"has length {len(indptr)}, expected n+1 = {n + 1}")
    indices = parts["indices"]
    expected_arcs = m if directed else 2 * m
    if len(indices) != expected_arcs:
        raise bad(
            "indices",
            f"has length {len(indices)}, expected {expected_arcs} "
            f"({'directed' if directed else 'undirected'} graph with {m} edges)",
        )
    if parts["arc_edge_ids"].shape != indices.shape:
        raise bad(
            "arc_edge_ids",
            f"has length {len(parts['arc_edge_ids'])}, expected {len(indices)} (indices)",
        )
    if int(indptr[0]) != 0:
        raise bad("indptr", f"does not start at 0 (got {int(indptr[0])})")
    if int(indptr[-1]) != len(indices):
        raise bad(
            "indptr",
            f"ends at {int(indptr[-1])}, expected len(indices) = {len(indices)}",
        )
    weights = parts.get("edge_weights")
    if weights is not None and weights.shape != edge_src.shape:
        raise bad(
            "edge_weights", f"has length {len(weights)}, expected {m} (edge_src)"
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only (immutability contract, enforced)."""
    try:
        arr.flags.writeable = False
    except ValueError:  # already a read-only view (e.g. mmap_mode="r")
        pass
    return arr


def _assemble(n: int, directed: bool, parts: dict, *, source) -> CSRGraph:
    """Validate ``parts`` and reassemble the graph with read-only arrays."""
    validate_parts(n, directed, parts, source=source)
    return CSRGraph._from_parts(
        n,
        _frozen(parts["edge_src"]),
        _frozen(parts["edge_dst"]),
        None if parts.get("edge_weights") is None else _frozen(parts["edge_weights"]),
        directed=directed,
        indptr=_frozen(parts["indptr"]),
        indices=_frozen(parts["indices"]),
        arc_edge_ids=_frozen(parts["arc_edge_ids"]),
    )


# ---------------------------------------------------------------------- #
# writing
# ---------------------------------------------------------------------- #


def save_snapshot(g: CSRGraph, path, *, layout: str = "npz") -> Path:
    """Write ``g`` to ``path`` as a binary snapshot (atomically).

    ``layout="npz"`` (default) writes the single-file v1 archive;
    ``layout="exploded"`` writes the v2 directory of raw ``.npy``
    sidecars plus ``header.json`` (the mmap-able layout).  Parent
    directories are created.  Returns the path written.
    """
    if layout == "npz":
        arrays = {
            "version": np.int64(SNAPSHOT_VERSION),
            "n": np.int64(g.n),
            "directed": np.bool_(g.directed),
            "edge_src": g.edge_src,
            "edge_dst": g.edge_dst,
            "indptr": g.indptr,
            "indices": g.indices,
            "arc_edge_ids": g.arc_edge_ids,
        }
        if g.edge_weights is not None:
            arrays["edge_weights"] = g.edge_weights
        return atomic_write(path, lambda fh: np.savez(fh, **arrays))
    if layout != "exploded":
        raise ValueError(f"layout must be 'npz' or 'exploded', got {layout!r}")

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    header: dict = {
        "version": EXPLODED_SNAPSHOT_VERSION,
        "n": g.n,
        "directed": g.directed,
        "arrays": {},
    }
    for name in ARRAY_FIELDS:
        arr = getattr(g, name)
        if arr is None:
            continue
        # Each sidecar is atomic on its own; the header lands last, so a
        # crash mid-write leaves a directory without a (new) header — the
        # loader treats that as damage, never as a torn graph.
        atomic_write(path / f"{name}.npy", lambda fh, a=arr: np.save(fh, a))
        header["arrays"][name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
        }
    atomic_write(
        path / HEADER_NAME,
        lambda fh: fh.write(
            (json.dumps(header, indent=2, sort_keys=True) + "\n").encode()
        ),
    )
    return path


# ---------------------------------------------------------------------- #
# loading
# ---------------------------------------------------------------------- #


def load_snapshot(path, *, mmap: bool = False) -> CSRGraph:
    """Load a snapshot (either layout) back into a :class:`CSRGraph`.

    ``mmap=True`` memory-maps the arrays read-only instead of reading
    them into process memory — v2 (exploded) snapshots only: arrays
    inside a v1 ``.npz`` archive cannot be mapped, and asking for it is
    a :class:`SnapshotError` rather than a silent full load.

    Raises :class:`SnapshotError` for anything that is not a complete,
    self-consistent snapshot of a supported version (truncated files,
    foreign ``.npz`` archives, future versions, cross-field shape/dtype
    damage — the error names the offending field), so callers can treat
    damage as a cache miss instead of crashing.  All returned arrays are
    read-only.
    """
    path = Path(path)
    if path.is_dir() or (path / HEADER_NAME).exists():
        return _load_exploded(path, mmap=mmap)
    if mmap:
        raise SnapshotError(
            f"{path}: cannot memory-map a v1 .npz snapshot; write the "
            "exploded layout (save_snapshot(..., layout='exploded'))"
        )
    try:
        with np.load(path) as data:
            try:
                version = int(data["version"])
            except KeyError:
                raise SnapshotError(f"{path} is not a CSR snapshot") from None
            if version != SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"{path} has snapshot version {version}; "
                    f"this build reads {SNAPSHOT_VERSION}"
                )
            parts = {
                name: data[name]
                for name in ARRAY_FIELDS
                if name in data
            }
            return _assemble(
                int(data["n"]), bool(data["directed"]), parts, source=path
            )
    except SnapshotError:
        raise
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as err:
        raise SnapshotError(f"cannot read CSR snapshot {path}: {err}") from err


def _load_exploded(path: Path, *, mmap: bool) -> CSRGraph:
    header_path = path / HEADER_NAME
    try:
        header = json.loads(header_path.read_text())
    except FileNotFoundError:
        raise SnapshotError(
            f"{path} is not a CSR snapshot (no {HEADER_NAME})"
        ) from None
    except (OSError, ValueError, UnicodeDecodeError) as err:
        raise SnapshotError(f"cannot read CSR snapshot {path}: {err}") from err
    if not isinstance(header, dict) or "version" not in header:
        raise SnapshotError(f"{path} is not a CSR snapshot (malformed header)")
    version = header["version"]
    if version != EXPLODED_SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path} has snapshot version {version}; "
            f"this build reads {EXPLODED_SNAPSHOT_VERSION} (exploded)"
        )
    n, directed = header.get("n"), header.get("directed")
    if not isinstance(n, int) or isinstance(n, bool):
        raise SnapshotError(f"{path}: field 'n' is not an integer ({n!r})")
    if not isinstance(directed, bool):
        raise SnapshotError(
            f"{path}: field 'directed' is not a boolean ({directed!r})"
        )
    declared = header.get("arrays")
    if not isinstance(declared, dict):
        raise SnapshotError(f"{path}: field 'arrays' is missing from the header")
    parts: dict = {}
    try:
        for name in ARRAY_FIELDS:
            meta = declared.get(name)
            if meta is None:
                continue
            if not isinstance(meta, dict):
                raise SnapshotError(
                    f"{path}: field {name!r} has a malformed header entry "
                    f"({meta!r})"
                )
            arr = np.load(
                path / f"{name}.npy",
                mmap_mode="r" if mmap else None,
                allow_pickle=False,
            )
            # The header is the unit of atomicity: a sidecar differing
            # from what the header declares is mixed-generation damage.
            if arr.dtype.str != meta.get("dtype") or list(arr.shape) != meta.get(
                "shape"
            ):
                raise SnapshotError(
                    f"{path}: field {name!r} does not match its header entry "
                    f"(found {arr.dtype.str}{list(arr.shape)}, header says "
                    f"{meta.get('dtype')}{meta.get('shape')})"
                )
            parts[name] = arr
        return _assemble(n, directed, parts, source=path)
    except SnapshotError:
        raise
    except (OSError, ValueError, KeyError, EOFError) as err:
        raise SnapshotError(f"cannot read CSR snapshot {path}: {err}") from err
