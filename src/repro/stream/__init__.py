"""Streaming & temporal graphs: deltas, CSR generations, incremental
recompression.

The subsystem has three tiers:

- :mod:`repro.stream.delta` — the validated, canonicalized
  :class:`EdgeDelta` batch model with stable content-addressed ids and
  a lossless text stream file (:func:`read_stream`, :func:`write_stream`);
- :mod:`repro.stream.ingest` — :class:`GraphStream`, which applies delta
  batches through the sort-free CSR fast paths to produce immutable
  generations plus a fingerprint-linked ledger;
- :mod:`repro.stream.incremental` — maintainers that keep a compressed
  output per generation by recompressing each one.

``python -m repro.stream replay <stream-file>`` drives all three.
"""

from repro.stream.delta import EdgeDelta, read_stream, write_stream
from repro.stream.incremental import Recompress, maintainer_for
from repro.stream.ingest import GenerationRecord, GraphStream, apply_delta

__all__ = [
    "EdgeDelta",
    "read_stream",
    "write_stream",
    "GenerationRecord",
    "GraphStream",
    "apply_delta",
    "Recompress",
    "maintainer_for",
]
