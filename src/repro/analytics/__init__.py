"""Analytics subsystem: evaluation session, grids, sweeps, report rendering."""

from repro.analytics.grid import GridCell, SweepTable
from repro.analytics.session import CompressedRun, ScoreReport, Session, SweepRow
from repro.analytics.report import format_table, write_csv
from repro.analytics.guidance import Recommendation, recommend, PRESERVABLE_PROPERTIES
from repro.analytics.storage import StorageReport, storage_report

__all__ = [
    "Session",
    "CompressedRun",
    "ScoreReport",
    "GridCell",
    "SweepTable",
    "Recommendation",
    "recommend",
    "PRESERVABLE_PROPERTIES",
    "StorageReport",
    "storage_report",
    "SweepRow",
    "format_table",
    "write_csv",
]
