"""Streaming & temporal graphs: deltas, CSR generations, incremental
recompression.

The subsystem has three tiers:

- :mod:`repro.stream.delta` — the validated, canonicalized
  :class:`EdgeDelta` batch model with stable content-addressed ids and
  JSON/NPZ/text round trips;
- :mod:`repro.stream.ingest` — :class:`GraphStream`, which applies delta
  batches through the sort-free CSR fast paths to produce immutable
  generations plus a fingerprint-linked ledger;
- :mod:`repro.stream.incremental` — maintainers that keep a compressed
  output per generation: EO triangle reduction is repaired in the
  delta-touched neighborhood, every other scheme is recompressed.

``python -m repro.stream replay <stream-file>`` drives all three.
"""

from repro.stream.delta import EdgeDelta, read_stream, write_stream
from repro.stream.incremental import (
    IncrementalMaintainer,
    IncrementalTriangleReduction,
    Recompress,
    maintainer_for,
)
from repro.stream.ingest import GenerationRecord, GraphStream, apply_delta

__all__ = [
    "EdgeDelta",
    "read_stream",
    "write_stream",
    "GenerationRecord",
    "GraphStream",
    "apply_delta",
    "IncrementalMaintainer",
    "IncrementalTriangleReduction",
    "Recompress",
    "maintainer_for",
]
