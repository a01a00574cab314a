"""The validated, canonicalized edge-delta batch model.

A temporal graph is a base graph plus a sequence of **delta batches**;
each batch groups edge *inserts*, edge *deletes*, and *weight updates*
that commit together into one new CSR generation
(:mod:`repro.stream.ingest`).  :class:`EdgeDelta` is that batch as a
value object:

- **canonical** — endpoints are ordered ``lo < hi`` for undirected
  deltas, every op set is sorted lexicographically, and arrays are
  ``int64``/``float64``, so two batches describing the same edit compare
  (and hash) equal regardless of input order;
- **validated** — self-loops, negative endpoints, duplicate entries
  within an op set, and edges appearing in more than one op set are all
  rejected at construction with the offender named.  Batch semantics are
  therefore unambiguous: deletes apply first, then weight updates, then
  inserts, and no edge can be touched twice in one batch;
- **identified** — :attr:`EdgeDelta.delta_id` is a SHA-256 of the
  canonical content (same construction as
  :func:`repro.runner.fingerprint.graph_fingerprint`), giving the
  generation ledger a stable content-addressed link between parent and
  child fingerprints;
- **portable** — the text **stream file** (:func:`read_stream`,
  :func:`write_stream`) is the one lossless on-disk form.

The stream file rides the hardened edge-list dialect of
:mod:`repro.graphs.edgelist` (blank lines, CRLF, ``#``/``%`` comments,
named-offender row errors):

.. code-block:: text

    # repro edge stream: directed=0
    + u v [w]        inserts
    - u v            deletes
    = u v w          weight updates
    commit [n=N]     end of batch (optionally grow the vertex set to N)

A trailing batch without ``commit`` is committed implicitly.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.graphs.edgelist import iter_edge_rows, parse_edge_row, parse_int_token

__all__ = ["EdgeDelta", "read_stream", "write_stream"]

#: Bumps when the delta-id formula changes.
DELTA_SCHEMA_VERSION = 1
_DELTA_ID_TAG = b"repro-edge-delta-v1"

_OP_NAMES = ("insert", "delete", "update")


def _as_endpoints(pairs, op: str) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(pairs) if pairs is not None else []
    if not pairs:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy()
    src = np.asarray([p[0] for p in pairs], dtype=np.int64)
    dst = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return src, dst


@dataclass(frozen=True, eq=False)
class EdgeDelta:
    """One canonical batch of edge edits (inserts, deletes, weight updates).

    Build through :meth:`build` (which accepts pair lists and
    canonicalizes) or the constructor with endpoint arrays; both validate.
    ``num_vertices`` optionally grows the vertex set of the graph the
    batch applies to (it can never shrink it — see
    :meth:`repro.graphs.csr.CSRGraph.insert_edges`).
    """

    insert_src: np.ndarray
    insert_dst: np.ndarray
    insert_weights: np.ndarray | None
    delete_src: np.ndarray
    delete_dst: np.ndarray
    update_src: np.ndarray
    update_dst: np.ndarray
    update_weights: np.ndarray
    directed: bool = False
    num_vertices: int | None = None
    _delta_id: str = field(default="", compare=False, repr=False)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        *,
        inserts=None,
        deletes=None,
        updates=None,
        directed: bool = False,
        num_vertices: int | None = None,
    ) -> "EdgeDelta":
        """Build a delta from edit lists.

        ``inserts`` is a list of ``(u, v)`` or ``(u, v, w)`` tuples (all
        weighted or none), ``deletes`` a list of ``(u, v)``, ``updates``
        a list of ``(u, v, w)``.
        """
        inserts = list(inserts) if inserts is not None else []
        iw = None
        if inserts:
            widths = {len(t) for t in inserts}
            if widths == {3}:
                iw = np.asarray([t[2] for t in inserts], dtype=np.float64)
            elif widths != {2}:
                raise ValueError(
                    "inserts must be all (u, v) or all (u, v, w) tuples"
                )
        isrc, idst = _as_endpoints(inserts, "insert")
        dsrc, ddst = _as_endpoints(deletes, "delete")
        updates = list(updates) if updates is not None else []
        if updates and {len(t) for t in updates} != {3}:
            raise ValueError("updates must be (u, v, w) tuples")
        usrc, udst = _as_endpoints(updates, "update")
        uw = np.asarray([t[2] for t in updates], dtype=np.float64)
        return cls(
            insert_src=isrc,
            insert_dst=idst,
            insert_weights=iw,
            delete_src=dsrc,
            delete_dst=ddst,
            update_src=usrc,
            update_dst=udst,
            update_weights=uw,
            directed=directed,
            num_vertices=num_vertices,
        )

    @classmethod
    def empty(cls, *, directed: bool = False, num_vertices: int | None = None):
        return cls.build(directed=directed, num_vertices=num_vertices)

    def __post_init__(self):
        set_ = object.__setattr__
        ops = {}
        for op in _OP_NAMES:
            src = np.ascontiguousarray(
                getattr(self, f"{op}_src"), dtype=np.int64
            ).ravel()
            dst = np.ascontiguousarray(
                getattr(self, f"{op}_dst"), dtype=np.int64
            ).ravel()
            if src.shape != dst.shape:
                raise ValueError(f"{op} endpoint arrays differ in length")
            ops[op] = (src, dst)
        iw = self.insert_weights
        if iw is not None:
            iw = np.ascontiguousarray(iw, dtype=np.float64).ravel()
            if iw.shape != ops["insert"][0].shape:
                raise ValueError("insert_weights must match the insert count")
        uw = np.ascontiguousarray(self.update_weights, dtype=np.float64).ravel()
        if uw.shape != ops["update"][0].shape:
            raise ValueError("update_weights must match the update count")
        if self.num_vertices is not None and self.num_vertices < 0:
            raise ValueError(
                f"num_vertices must be >= 0, got {self.num_vertices}"
            )

        # Canonicalize: undirected endpoints lo < hi, each op set sorted.
        seen: dict[tuple[int, int], str] = {}
        for op in _OP_NAMES:
            src, dst = ops[op]
            loops = src == dst
            if loops.any():
                v = int(src[np.argmax(loops)])
                raise ValueError(f"{op} of self-loop ({v}, {v}) is not allowed")
            neg = (src < 0) | (dst < 0)
            if neg.any():
                i = int(np.argmax(neg))
                raise ValueError(
                    f"{op} endpoint of edge ({int(src[i])}, {int(dst[i])}) "
                    "is negative"
                )
            if self.num_vertices is not None and len(src):
                over = (src >= self.num_vertices) | (dst >= self.num_vertices)
                if over.any():
                    i = int(np.argmax(over))
                    raise ValueError(
                        f"{op} edge ({int(src[i])}, {int(dst[i])}) out of "
                        f"range for num_vertices={self.num_vertices}"
                    )
            if not self.directed and len(src):
                lo = np.minimum(src, dst)
                hi = np.maximum(src, dst)
                src, dst = lo, hi
            order = np.lexsort((dst, src)) if len(src) else np.empty(0, np.int64)
            src, dst = src[order], dst[order]
            if op == "insert" and iw is not None:
                iw = iw[order]
            if op == "update":
                uw = uw[order]
            dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
            if dup.any():
                i = int(np.argmax(dup)) + 1
                raise ValueError(
                    f"duplicate {op} of edge ({int(src[i])}, {int(dst[i])})"
                )
            for u, v in zip(src.tolist(), dst.tolist()):
                other = seen.get((u, v))
                if other is not None:
                    raise ValueError(
                        f"edge ({u}, {v}) appears in both {other}s and "
                        f"{op}s; an edge may be touched by at most one op "
                        "per batch"
                    )
                seen[(u, v)] = op
            src.flags.writeable = False
            dst.flags.writeable = False
            set_(self, f"{op}_src", src)
            set_(self, f"{op}_dst", dst)
        if iw is not None:
            iw.flags.writeable = False
        uw.flags.writeable = False
        set_(self, "insert_weights", iw)
        set_(self, "update_weights", uw)
        set_(self, "_delta_id", self._compute_id())

    def _compute_id(self) -> str:
        h = hashlib.sha256()
        h.update(_DELTA_ID_TAG)
        h.update(
            struct.pack(
                "<?q", self.directed,
                -1 if self.num_vertices is None else int(self.num_vertices),
            )
        )
        for op in _OP_NAMES:
            src = getattr(self, f"{op}_src")
            dst = getattr(self, f"{op}_dst")
            h.update(struct.pack("<q", len(src)))
            h.update(src)
            h.update(dst)
        if self.insert_weights is not None:
            h.update(b"iw")
            h.update(self.insert_weights)
        h.update(b"uw")
        h.update(self.update_weights)
        return h.hexdigest()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def delta_id(self) -> str:
        """Stable content hash of the canonical batch."""
        return self._delta_id

    @property
    def num_inserts(self) -> int:
        return len(self.insert_src)

    @property
    def num_deletes(self) -> int:
        return len(self.delete_src)

    @property
    def num_updates(self) -> int:
        return len(self.update_src)

    @property
    def size(self) -> int:
        """Total touched edges — the churn numerator."""
        return self.num_inserts + self.num_deletes + self.num_updates

    @property
    def is_empty(self) -> bool:
        return self.size == 0 and self.num_vertices is None

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique endpoints of every op — the repair frontier."""
        return np.unique(
            np.concatenate(
                [
                    self.insert_src, self.insert_dst,
                    self.delete_src, self.delete_dst,
                    self.update_src, self.update_dst,
                ]
            )
        )

    def __eq__(self, other) -> bool:
        # The delta id hashes every canonical field, so two deltas are
        # equal exactly when their ids match (a dataclass-generated eq
        # would trip over elementwise ndarray comparison).
        if not isinstance(other, EdgeDelta):
            return NotImplemented
        return self._delta_id == other._delta_id

    def __hash__(self) -> int:
        return hash(self._delta_id)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"EdgeDelta(+{self.num_inserts} -{self.num_deletes} "
            f"={self.num_updates}, {kind}, id={self.delta_id[:12]})"
        )


# --------------------------------------------------------------------- #
# the text stream-file format
# --------------------------------------------------------------------- #


def read_stream(path, *, directed: bool | None = None) -> list[EdgeDelta]:
    """Parse a text stream file into a list of delta batches.

    The dialect is the edge-list dialect plus one leading op token per
    row (``+`` insert / ``-`` delete / ``=`` weight update) and a
    ``commit`` row ending each batch; a bare ``u v [w]`` row is an
    insert, so a plain edge list is a valid one-batch stream.  The
    header comment may carry ``directed=``; an explicit ``directed``
    argument overrides it.
    """
    path = Path(path)
    header_directed = None
    with path.open() as f:
        raw_rows = []
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if line.startswith("#") and "directed=" in line:
                for tok in line.split():
                    if tok.startswith("directed="):
                        header_directed = bool(
                            parse_int_token(
                                tok,
                                where=f"{path}:{lineno}",
                                context=f"malformed header {line!r}",
                                high=1,
                            )
                        )
            raw_rows.append(raw)
    if directed is None:
        directed = bool(header_directed) if header_directed is not None else False

    deltas: list[EdgeDelta] = []
    inserts: list[tuple] = []
    deletes: list[tuple] = []
    updates: list[tuple] = []
    num_vertices: int | None = None

    def commit(lineno: int) -> None:
        nonlocal inserts, deletes, updates, num_vertices
        try:
            deltas.append(
                EdgeDelta.build(
                    inserts=inserts,
                    deletes=deletes,
                    updates=updates,
                    directed=directed,
                    num_vertices=num_vertices,
                )
            )
        except ValueError as err:
            raise ValueError(
                f"{path}:{lineno}: invalid batch committed here: {err}"
            ) from None
        inserts, deletes, updates = [], [], []
        num_vertices = None

    last_lineno = 0
    for lineno, line in iter_edge_rows(raw_rows, source=str(path)):
        last_lineno = lineno
        tokens = line.split()
        if tokens[0] == "commit":
            for tok in tokens[1:]:
                if tok.startswith("n="):
                    num_vertices = parse_int_token(
                        tok,
                        where=f"{path}:{lineno}",
                        context=f"malformed commit row {line!r}",
                    )
                else:
                    raise ValueError(
                        f"{path}:{lineno}: malformed commit row {line!r} "
                        f"(unknown token {tok!r})"
                    )
            commit(lineno)
            continue
        op = "+"
        rest = line
        if tokens[0] in ("+", "-", "="):
            op = tokens[0]
            rest = line[len(tokens[0]):].strip()
        u, v, w = parse_edge_row(rest, lineno=lineno, source=str(path))
        if op == "+":
            inserts.append((u, v) if w is None else (u, v, w))
        elif op == "-":
            if w is not None:
                raise ValueError(
                    f"{path}:{lineno}: delete row {line!r} carries a weight"
                )
            deletes.append((u, v))
        else:
            if w is None:
                raise ValueError(
                    f"{path}:{lineno}: update row {line!r} needs a weight"
                )
            updates.append((u, v, w))
    if inserts or deletes or updates or num_vertices is not None:
        commit(last_lineno)
    return deltas


def write_stream(deltas, path, *, directed: bool | None = None) -> Path:
    """Write delta batches as a text stream file (read_stream's inverse)."""
    deltas = list(deltas)
    if directed is None:
        directed = deltas[0].directed if deltas else False
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(f"# repro edge stream: directed={int(directed)} ")
        f.write(f"batches={len(deltas)}\n")
        for delta in deltas:
            if delta.directed != directed:
                raise ValueError("all batches must share the stream's directedness")
            if delta.insert_weights is not None:
                for u, v, w in zip(
                    delta.insert_src, delta.insert_dst, delta.insert_weights
                ):
                    f.write(f"+ {u} {v} {float(w)!r}\n")
            else:
                for u, v in zip(delta.insert_src, delta.insert_dst):
                    f.write(f"+ {u} {v}\n")
            for u, v in zip(delta.delete_src, delta.delete_dst):
                f.write(f"- {u} {v}\n")
            for u, v, w in zip(
                delta.update_src, delta.update_dst, delta.update_weights
            ):
                f.write(f"= {u} {v} {float(w)!r}\n")
            if delta.num_vertices is not None:
                f.write(f"commit n={delta.num_vertices}\n")
            else:
                f.write("commit\n")
    return path
