"""Tidy long-format results of scheme × algorithm × metric grid sweeps.

:meth:`repro.analytics.session.Session.grid` evaluates every registered
algorithm on every scheme and scores each output with every selected
metric; the result is a :class:`SweepTable` — one :class:`GridCell` row
per (scheme, algorithm, metric) triple, in the tidy long format that
feeds plotting and downstream aggregation directly.

The table is a value: it round-trips losslessly through ``to_dict`` /
``from_dict`` (JSON transport) and ``to_csv`` / ``from_csv`` (files),
renders as the paper-style fixed-width table via ``to_table``, and
supports simple relational slicing with ``filter`` and ``pivot``.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping

__all__ = ["GridCell", "SweepTable"]


@dataclass(frozen=True)
class GridCell:
    """One cell of a grid sweep: a scored (scheme, algorithm, metric).

    ``seed`` records the compression seed the cell was actually produced
    with (so cached and fresh runs are auditable and byte-identical), and
    ``graph`` names the input graph when the cell comes from a multi-graph
    harness sweep (empty for single-session grids).
    """

    scheme: str
    algorithm: str
    metric: str
    value: float
    compression_ratio: float
    original_seconds: float = 0.0
    compressed_seconds: float = 0.0
    adapter: str = ""
    graph: str = ""
    seed: object = None

    @property
    def relative_runtime_difference(self) -> float:
        t0 = self.original_seconds
        return (t0 - self.compressed_seconds) / t0 if t0 > 0 else 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "GridCell":
        """Inverse of :meth:`to_dict`; unknown keys are ignored.

        Labels are interned: replayed cells (decoded from JSON, each
        label a fresh string) then share one copy of each scheme, metric
        and adapter name however many tables hold them.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{
            k: sys.intern(v) if isinstance(v, str) else v
            for k, v in data.items()
            if k in known
        })


_FLOAT_FIELDS = (
    "value",
    "compression_ratio",
    "original_seconds",
    "compressed_seconds",
)


def _format_field(value) -> str:
    """Serialize one cell field for text transports (CSV *and* markdown).

    Floats use ``repr``, whose shortest-round-trip guarantee makes
    ``float(_format_field(x)) == x`` exact; ``None`` (an unset seed)
    becomes the empty string.  Both :meth:`SweepTable.to_csv` and
    :meth:`SweepTable.to_markdown` go through here so the two formats can
    never drift.
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_seed(text: str):
    """Inverse of :func:`_format_field` for the ``seed`` column."""
    if text == "" or text is None:
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


class SweepTable:
    """An immutable sequence of :class:`GridCell` rows with table views."""

    headers = tuple(f.name for f in fields(GridCell))

    def __init__(self, rows: Iterable[GridCell]):
        self.rows: tuple[GridCell, ...] = tuple(rows)

    # -- sequence protocol -------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[GridCell]:
        return iter(self.rows)

    def __getitem__(self, index):
        picked = self.rows[index]
        return SweepTable(picked) if isinstance(index, slice) else picked

    def __eq__(self, other) -> bool:
        if not isinstance(other, SweepTable):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        axes = (
            f"{len(self.schemes())} schemes x {len(self.algorithms())} "
            f"algorithms x {len(self.metrics())} metrics"
        )
        return f"SweepTable({len(self.rows)} rows: {axes})"

    # -- axes --------------------------------------------------------------- #

    def schemes(self) -> list[str]:
        return _unique(c.scheme for c in self.rows)

    def algorithms(self) -> list[str]:
        return _unique(c.algorithm for c in self.rows)

    def metrics(self) -> list[str]:
        return _unique(c.metric for c in self.rows)

    def graphs(self) -> list[str]:
        """Graph names present (harness sweeps span several; may be [''])."""
        return _unique(c.graph for c in self.rows)

    # -- slicing ------------------------------------------------------------ #

    def filter(
        self, *, scheme=None, algorithm=None, metric=None, graph=None, seed=None
    ) -> "SweepTable":
        """Rows matching every given axis value (exact match)."""
        return SweepTable(
            c
            for c in self.rows
            if (scheme is None or c.scheme == scheme)
            and (algorithm is None or c.algorithm == algorithm)
            and (metric is None or c.metric == metric)
            and (graph is None or c.graph == graph)
            and (seed is None or c.seed == seed)
        )

    def pivot(self) -> dict[tuple[str, str, str], float]:
        """``{(scheme, algorithm, metric): value}`` for direct lookups."""
        return {(c.scheme, c.algorithm, c.metric): c.value for c in self.rows}

    # -- transport ---------------------------------------------------------- #

    def to_dict(self) -> list[dict]:
        """JSON-safe list of row dicts; inverse of :meth:`from_dict`."""
        return [c.to_dict() for c in self.rows]

    @classmethod
    def from_dict(cls, rows: Iterable[Mapping]) -> "SweepTable":
        return cls(GridCell.from_dict(r) for r in rows)

    def to_csv(self, path=None) -> str:
        """CSV text (also written to ``path`` when given); inverse of
        :meth:`from_csv`."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        for cell in self.rows:
            d = cell.to_dict()
            writer.writerow([_format_field(d[h]) for h in self.headers])
        text = buf.getvalue()
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return text

    @classmethod
    def from_csv(cls, source) -> "SweepTable":
        """Parse a table back from CSV text or a file path.

        Anything without a newline is treated as a path (CSV text always
        has a header line ending in one), so a missing file raises
        instead of parsing the path string as an empty table.
        """
        text = str(source)
        if "\n" not in text:
            text = Path(text).read_text()
        reader = csv.DictReader(io.StringIO(text))
        rows = []
        for record in reader:
            for key in _FLOAT_FIELDS:
                if key in record and record[key] != "":
                    record[key] = float(record[key])
            if "seed" in record:
                record["seed"] = _parse_seed(record["seed"])
            rows.append(GridCell.from_dict(record))
        return cls(rows)

    # -- rendering ---------------------------------------------------------- #

    def to_markdown(self, *, title: str | None = None, columns=None) -> str:
        """GitHub-flavored markdown table for pasting into issues/PRs.

        Numbers use the same shortest-round-trip ``repr`` format as
        :meth:`to_csv`, so values copied out of a PR comment parse back
        exactly.  ``columns`` selects/orders the rendered columns; by
        default, columns that are empty on every row (``graph``/``seed``
        on single-session grids) are dropped.  Literal ``|`` characters in
        cell text (pipeline scheme specs) are escaped.
        """
        if columns is None:
            columns = [
                h
                for h in self.headers
                if any(_format_field(getattr(c, h)) != "" for c in self.rows)
            ] or list(self.headers)
        else:
            columns = list(columns)
            unknown = [c for c in columns if c not in self.headers]
            if unknown:
                raise ValueError(f"unknown columns {unknown}; known: {self.headers}")

        def md(value) -> str:
            return _format_field(value).replace("|", "\\|")

        lines = []
        if title:
            lines += [f"**{title}**", ""]
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join("---" for _ in columns) + "|")
        for cell in self.rows:
            lines.append(
                "| " + " | ".join(md(getattr(cell, h)) for h in columns) + " |"
            )
        return "\n".join(lines) + "\n"

    def to_table(self, *, title: str | None = None) -> str:
        """Paper-style fixed-width rendering (via the report module)."""
        from repro.analytics.report import format_table

        return format_table(
            [[getattr(c, h) for h in self.headers] for c in self.rows],
            list(self.headers),
            title=title,
        )


def _unique(items) -> list[str]:
    seen: dict[str, None] = {}
    for item in items:
        seen.setdefault(item)
    return list(seen)
