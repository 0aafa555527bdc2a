"""The structure-agnostic search-index contract the workloads program to.

Every hierarchical search substrate the paper evaluates — the LBVH
(:mod:`repro.bvh`), the k-d tree (:mod:`repro.kdtree`), the HNSW-style
graph (:mod:`repro.graph`) and the B+ tree (:mod:`repro.btree`) — answers
the same three questions: *build* an index over a point set, *query* it
for neighbors, and report *stats* about the structure and the work
queries performed.  :class:`SearchIndex` pins that contract down so
workload generators depend on the protocol rather than on
structure-specific modules.

Queries always arrive in batches, the way the HSU's warp-wide
instructions receive them: ``query_batch(queries, spec=QuerySpec(...))``
answers a whole ``(Q, dim)`` query block with vectorized frontier kernels
and returns a :class:`~repro.search.events.BatchResult` whose per-query
neighbors and array-backed event log (``record_events=True``) are the
ordered (kind, ident, payload) streams the trace compiler lowers into
instructions.  A caller that wants one answer passes a one-row block.
Event kinds are structure-specific and published as class attributes on
each adapter (e.g. ``BvhRadiusIndex.EVENT_BOX_NODE``), keeping even the
event vocabulary importable from :mod:`repro.search`.

The substrates' scalar per-query searches (``bvh.traversal.radius_search``,
``kdtree.search.knn_search``, ``graph.search.search``, ``BTree.lookup``)
are the specification: per query, ``query_batch`` must reproduce their
neighbors and event order bit for bit, which
``tests/test_batch_equivalence.py`` enforces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (events imports us)
    from repro.search.events import BatchResult
    from repro.search.spec import QuerySpec

#: One query answer: (point id, distance measure).  BVH radius queries and
#: k-d tree kNN report squared Euclidean distance; graph search reports
#: the configured metric's distance.
Neighbor = tuple[int, float]

#: One instrumented traversal event: (kind, ident, payload).
Event = tuple[str, int, int]


@runtime_checkable
class SearchIndex(Protocol):
    """Build / query_batch / stats — the unified hierarchical-search
    surface."""

    def build(self, points: np.ndarray, **params: object) -> "SearchIndex":
        """Build the index over ``points``; returns ``self`` for chaining."""
        ...

    def query_batch(
        self,
        queries: np.ndarray,
        spec: "QuerySpec | None" = None,
        record_events: bool = False,
    ) -> "BatchResult":
        """Answer a ``(Q, dim)`` query block through the batched frontier
        kernels; per query, results and (with ``record_events=True``) the
        event log match the substrate's scalar search bit for bit."""
        ...

    def stats(self) -> dict[str, object]:
        """Structure shape plus cumulative query-work counters."""
        ...
