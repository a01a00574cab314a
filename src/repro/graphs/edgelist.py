"""Edge-list I/O.

One format: plain text ``u v [w]`` per line (the interchange format of
SNAP/KONECT dumps the paper's pipeline ingests), with ``#`` and ``%``
comments (KONECT headers use ``%``), blank lines, and CRLF endings
tolerated.  Binary round-trips go through :mod:`repro.graphs.snapshot`.

Malformed rows, header fields and out-of-range endpoints fail with the
offender named (``file:line: ...`` plus the row's text or endpoint and
the bad field or bound), never with a bare ``int()`` or ``OverflowError``
traceback — real dumps are messy and the error must say *which* line to
fix.  Endpoints must fit in int64 (and lie below a header ``n=`` or
``num_vertices``) and weights must be finite.  The line-level tolerance, row parsing and
``key=<int>`` header tokens live in :func:`iter_edge_rows` /
:func:`parse_edge_row` / :func:`parse_int_token` so the streaming delta
reader (:mod:`repro.stream.delta`) ingests the same dialect.

Storage accounting (:func:`storage_bytes`) backs the paper's storage-
reduction numbers: lossy compression reduces stored bytes proportionally to
removed edges because edges dominate any adjacency-array representation.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro.graphs.csr import CSRGraph

__all__ = [
    "write_text",
    "read_text",
    "storage_bytes",
    "iter_edge_rows",
    "parse_edge_row",
    "parse_int_token",
]

_INT64_MAX = int(np.iinfo(np.int64).max)


def iter_edge_rows(lines, *, source="<edges>"):
    """Yield ``(lineno, line)`` for every content row of an edge-list text.

    Blank lines (including whitespace-only), CRLF endings, and comment
    lines starting with ``#`` or ``%`` (KONECT) are skipped; ``lineno`` is
    1-based so errors can point into the file.
    """
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        yield lineno, line


def parse_edge_row(
    line: str, *, lineno: int = 0, source: str = "<edges>"
) -> tuple[int, int, float | None]:
    """Parse one ``u v [w]`` row into ``(u, v, weight-or-None)``.

    Raises ``ValueError`` naming the offending location, row text and
    field for anything that is not two int64 endpoints ``>= 0`` plus an
    optional finite float weight.
    """
    parts = line.split()
    where = f"{source}:{lineno}"

    def bad(why: str) -> ValueError:
        return ValueError(f"{where}: malformed edge row {line!r} ({why})")

    if len(parts) < 2:
        raise bad("expected 'u v' or 'u v w'")
    if len(parts) > 3:
        raise bad(f"{len(parts)} fields; expected 2 or 3")
    ends = []
    for field, text in zip("uv", parts):
        try:
            value = int(text)
        except ValueError:
            raise bad(f"endpoints must be integers; {field}={text!r}") from None
        if not 0 <= value <= _INT64_MAX:
            raise bad(f"endpoint {field}={text} outside [0, 2^63)")
        ends.append(value)
    w = None
    if len(parts) == 3:
        try:
            w = float(parts[2])
        except ValueError:
            raise bad(f"weight must be a number; w={parts[2]!r}") from None
        if not math.isfinite(w):
            raise bad(f"weight must be finite; w={parts[2]!r}")
    return ends[0], ends[1], w


def parse_int_token(
    token: str, *, where: str, context: str, high: int = _INT64_MAX
) -> int:
    """The value of one ``key=<int>`` token, which must lie in ``[0, high]``.

    Raises ``ValueError`` naming ``where`` (``file:line``), the
    ``context`` (which row or header) and the key.
    """
    key, _, text = token.partition("=")
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= high:
        raise ValueError(
            f"{where}: {context} ({key}= must be an integer in "
            f"[0, {high}], got {text!r})"
        )
    return value


def write_text(g: CSRGraph, path) -> None:
    """Write ``u v [w]`` lines, one canonical edge per line."""
    path = Path(path)
    with path.open("w") as f:
        f.write(f"# repro edge list: n={g.n} m={g.num_edges} ")
        f.write(f"directed={int(g.directed)} weighted={int(g.is_weighted)}\n")
        if g.is_weighted:
            for u, v, w in zip(g.edge_src, g.edge_dst, g.edge_weights):
                f.write(f"{u} {v} {float(w)!r}\n")
        else:
            for u, v in zip(g.edge_src, g.edge_dst):
                f.write(f"{u} {v}\n")


def read_text(path, *, num_vertices: int | None = None, directed: bool = False) -> CSRGraph:
    """Read a ``u v [w]`` edge list; infers n when not given in a header."""
    path = Path(path)
    src, dst, w, linenos = [], [], [], []
    weighted = False
    header_n = None
    header_directed = None
    with path.open() as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if line.startswith("#"):
                where = f"{path}:{lineno}"
                context = f"malformed header {line!r}"
                for tok in line.split():
                    if tok.startswith("n="):
                        header_n = parse_int_token(
                            tok, where=where, context=context
                        )
                    elif tok.startswith("directed="):
                        header_directed = bool(
                            parse_int_token(
                                tok, where=where, context=context, high=1
                            )
                        )
                continue
            u, v, weight = parse_edge_row(line, lineno=lineno, source=str(path))
            src.append(u)
            dst.append(v)
            linenos.append(lineno)
            if weight is not None:
                if not weighted and len(src) > 1:
                    raise ValueError(
                        f"{path}:{lineno}: mixed weighted/unweighted rows "
                        f"(row {line!r} has a weight, earlier rows do not)"
                    )
                weighted = True
                w.append(weight)
            elif weighted:
                raise ValueError(
                    f"{path}:{lineno}: mixed weighted/unweighted rows "
                    f"(row {line!r} has no weight, earlier rows do)"
                )
    if header_directed is not None:
        directed = header_directed
    n = num_vertices if num_vertices is not None else header_n
    if n is None:
        n = (max(max(src), max(dst)) + 1) if src else 0
    else:
        bound = f"num_vertices={n}" if num_vertices is not None else f"header n={n}"
        for lineno, u, v in zip(linenos, src, dst):
            if u >= n or v >= n:
                field, value = ("u", u) if u >= n else ("v", v)
                raise ValueError(
                    f"{path}:{lineno}: endpoint {field}={value} out of range "
                    f"for {bound} (ids must be < {n})"
                )
    return CSRGraph.from_edges(n, src, dst, w if weighted else None, directed=directed)


def storage_bytes(g: CSRGraph) -> int:
    """Bytes of the CSR in-memory representation (indptr+indices+weights).

    The paper's storage-reduction claims count adjacency-array bytes; edge
    ids/weights scale with m, indptr with n.
    """
    total = g.indptr.nbytes + g.indices.nbytes + g.arc_edge_ids.nbytes
    total += g.edge_src.nbytes + g.edge_dst.nbytes
    if g.is_weighted:
        total += g.edge_weights.nbytes
    return int(total)
