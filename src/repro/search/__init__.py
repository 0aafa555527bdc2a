"""Unified search-index surface over the paper's hierarchical structures.

:class:`~repro.search.base.SearchIndex` is the ``build`` /
``query_batch`` / ``stats`` protocol every substrate satisfies; the
adapters wrap the structure-specific modules so workload generators
import exactly one package:

* :class:`BvhRadiusIndex` — RTNN-style BVH radius search (BVH-NN, §V-A);
* :class:`KdTreeIndex` — bounded-backtracking k-d tree kNN (FLANN);
* :class:`HnswIndex` — hierarchical-graph best-first ANN (GGNN);
* :class:`BTreeKvIndex` — Rodinia-style B+ tree key-value lookups.

Each adapter also publishes its instrumented event-kind constants
(``EVENT_*`` class attributes) and the layout hooks (sorted point orders,
node counts) the trace compiler addresses memory through.  Queries run
only in batches: ``query_batch(queries, spec=QuerySpec(...))`` returns a
:class:`~repro.search.events.BatchResult` — per-query neighbor lists plus
an array-backed :class:`~repro.search.events.EventLog` — and every
adapter validates the spec (:func:`resolve_spec`) and the query block
(:func:`query_block`) before any kernel runs.

The adapter classes are resolved lazily (PEP 562): the structure modules
import :mod:`repro.search.events` for their batched kernels, and an eager
adapter import here would close that loop into a cycle.
"""

from repro.search.base import Event, Neighbor, SearchIndex
from repro.search.events import BatchResult, EventBuffer, EventLog
from repro.search.spec import QuerySpec, query_block, resolve_spec

_LAZY = {
    "BTreeKvIndex": "repro.search.btree_index",
    "BvhRadiusIndex": "repro.search.bvh_index",
    "HnswIndex": "repro.search.hnsw_index",
    "KdTreeIndex": "repro.search.kdtree_index",
}

__all__ = [
    "BatchResult",
    "Event",
    "EventBuffer",
    "EventLog",
    "Neighbor",
    "QuerySpec",
    "SearchIndex",
    "query_block",
    "resolve_spec",
    "BTreeKvIndex",
    "BvhRadiusIndex",
    "HnswIndex",
    "KdTreeIndex",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
