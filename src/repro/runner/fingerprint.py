"""Content fingerprints for graphs.

The artifact store keys every sweep cell by the *content* of the input
graph, not its name or provenance: two sessions that build the same graph
— from an edge list, a generator, or a binary snapshot — must hit the
same cached cells.  :func:`graph_fingerprint` hashes the canonical edge
arrays (the graph's identity under :class:`~repro.graphs.csr.CSRGraph`'s
model) with SHA-256 straight from the array buffers, so fingerprinting a
million-edge graph costs one pass over ~16 MB, no Python loops.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.graphs.analysis import analysis_cache
from repro.graphs.csr import CSRGraph

__all__ = ["graph_fingerprint"]

#: Bumps when the fingerprint formula changes, so stores never mix keys
#: computed under different formulas.
_FINGERPRINT_TAG = b"repro-csr-fp-v1"


def _compute_fingerprint(g: CSRGraph) -> str:
    h = hashlib.sha256()
    h.update(_FINGERPRINT_TAG)
    h.update(struct.pack("<qq?", g.n, g.num_edges, g.directed))
    h.update(np.ascontiguousarray(g.edge_src, dtype=np.int64))
    h.update(np.ascontiguousarray(g.edge_dst, dtype=np.int64))
    if g.edge_weights is not None:
        h.update(b"weighted")
        h.update(np.ascontiguousarray(g.edge_weights, dtype=np.float64))
    return h.hexdigest()


def graph_fingerprint(g: CSRGraph) -> str:
    """Hex SHA-256 identifying ``g`` by content.

    Covers the vertex count, directedness, the canonical edge arrays, and
    the weights (including their absence — an unweighted graph and its
    all-ones weighted twin fingerprint differently).  The derived CSR
    adjacency is *not* hashed: it is a function of the canonical arrays.

    Memoized per graph object through the analysis cache, where
    :meth:`repro.runner.store.ArtifactStore.load_graph` also installs the
    known fingerprint of every graph it reloads.
    """
    return analysis_cache().lookup(g, "fingerprint", _compute_fingerprint)
