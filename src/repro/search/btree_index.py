"""B-tree adapter: Rodinia-style KV point lookups behind :class:`SearchIndex`.

Completes the protocol's coverage of the paper's four substrates: the
B+ tree (``KEY_COMPARE``, §IV-E) joins the BVH, k-d tree and HNSW
adapters, which lets structure-agnostic consumers — most importantly the
online serving layer (:mod:`repro.serving`) — treat key-value lookups as
just another query endpoint.

A KV lookup's answer is shoehorned into the :data:`~repro.search.base.Neighbor`
``(id, measure)`` shape as ``(rank, value)``: ``rank`` is the key's
position in the tree's global sorted key order and ``measure`` the stored
value; a missing key answers the empty list (exactly like a radius query
with no hits).  Event streams reuse the tree's instrumented vocabulary
(``key_compare`` per internal node, ``leaf_scan`` at the leaf), and the
batched path is bit-identical to ``Q`` scalar ``BTree.lookup`` calls —
the same scalar-reference contract every other adapter honours.
"""

from __future__ import annotations

import numpy as np

from repro.btree.btree import (
    EVENT_KEY_COMPARE,
    EVENT_LEAF_SCAN,
    bulk_load,
)
from repro.errors import BuildError
from repro.metrics.transforms import (
    FILTER_METRICS,
    METRIC_EUCLID,
    validate_metric,
)
from repro.search.base import Neighbor
from repro.search.events import BatchResult, EventLog
from repro.search.spec import QuerySpec, query_block, resolve_spec

_INT = np.int64


class BTreeKvIndex:
    """Point lookups over a bulk-loaded B-tree (the B+ tree substrate).

    ``branch`` caps children per internal node (Rodinia: 256);
    ``leaf_size`` the keys per leaf (default: ``branch``).
    """

    EVENT_KEY_COMPARE = EVENT_KEY_COMPARE
    EVENT_LEAF_SCAN = EVENT_LEAF_SCAN

    _KINDS = (EVENT_KEY_COMPARE, EVENT_LEAF_SCAN)

    #: Exact-match lookups take no tunables; the spec surface only
    #: carries the ``metric`` assertion.
    SPEC_FIELDS: tuple[str, ...] = ()
    SPEC_DEFAULTS: dict[str, object] = {}

    def __init__(self, branch: int = 256, leaf_size: int | None = None,
                 metric: str = METRIC_EUCLID) -> None:
        # On 1-D keys the filter metrics coincide (|a - b| under each);
        # cosine is ill-defined on scalar keys and rejected here.
        self.metric = validate_metric(
            metric, allowed=FILTER_METRICS, context="BTreeKvIndex"
        )
        self.branch = branch
        self.leaf_size = leaf_size
        self._tree = None
        self._queries = 0
        self._key_compares = 0
        self._nodes_visited = 0

    def build(self, points: np.ndarray,
              values: np.ndarray | None = None) -> "BTreeKvIndex":
        """Bulk-load the tree over ``points`` (a 1-D key array; ``(N, 1)``
        blocks are flattened).  ``values`` default to the keys."""
        keys = np.asarray(points, dtype=np.float64).reshape(-1)
        self._tree = bulk_load(
            keys, values=values, branch=self.branch, leaf_size=self.leaf_size
        )
        return self

    def query_batch(
        self,
        queries: np.ndarray,
        spec: QuerySpec | None = None,
        record_events: bool = False,
    ) -> BatchResult:
        """Lookups over a ``(Q,)`` (or ``(Q, 1)``) key block:
        ``[(sorted-key rank, stored value)]`` for a present key, ``[]``
        for a miss.

        Per probe, answers and events are bit-identical to
        :meth:`~repro.btree.btree.BTree.lookup`: the level-synchronous
        descent's trail columns are exactly the scalar lookup's event
        stream (``tree.lookup_batch`` pins this).
        """
        call = "BTreeKvIndex.query_batch"
        if self._tree is None:
            raise BuildError("query_batch before build")
        resolve_spec(
            call, spec, self.SPEC_FIELDS, self.SPEC_DEFAULTS, self.metric,
        )
        probes = query_block(call, queries, None)
        count = probes.shape[0]
        values, found, trail = self._tree.lookup_batch(probes)
        self._queries += count
        neighbors: list[list[Neighbor]] = [[] for _ in range(count)]
        if count:
            assert self._tree.sorted_keys is not None
            ranks = np.searchsorted(self._tree.sorted_keys, probes)
            for qi in np.flatnonzero(found):
                neighbors[qi] = [(int(ranks[qi]), float(values[qi]))]
        events = None
        levels = len(trail)
        if count and levels:
            # Internal levels are key compares, the last level the leaf
            # scan; every probe walks the same (uniform) depth, so the
            # query-major event matrix is one transpose away.
            self._key_compares += int(
                sum(int(p.sum()) for _ids, p in trail[:-1])
            )
            self._nodes_visited += levels * count
            if record_events:
                codes = np.zeros((count, levels), dtype=_INT)
                codes[:, -1] = 1  # leaf_scan
                idents = np.stack(
                    [ids for ids, _p in trail], axis=1
                ).astype(_INT)
                payloads = np.stack(
                    [p for _ids, p in trail], axis=1
                ).astype(_INT)
                qids = np.repeat(np.arange(count, dtype=_INT), levels)
                events = EventLog.from_sorted(
                    self._KINDS,
                    codes.reshape(-1),
                    idents.reshape(-1),
                    payloads.reshape(-1),
                    qids,
                    count,
                )
        elif record_events:
            events = EventLog.empty(self._KINDS, count)
        return BatchResult(neighbors, events)

    def stats(self) -> dict[str, object]:
        return {
            "structure": "btree",
            "branch": self.branch,
            "metric": self.metric,
            "num_nodes": self.num_nodes,
            "num_keys": self.num_keys,
            "height": 0 if self._tree is None else self._tree.height(),
            "queries": self._queries,
            "key_compares": self._key_compares,
            "nodes_visited": self._nodes_visited,
        }

    # -- layout hooks -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return 0 if self._tree is None else self._tree.num_nodes

    @property
    def num_keys(self) -> int:
        if self._tree is None or self._tree.sorted_keys is None:
            return 0
        return int(self._tree.sorted_keys.size)

    @property
    def sorted_keys(self) -> np.ndarray:
        """The global sorted key order (the rank space answers index)."""
        if self._tree is None or self._tree.sorted_keys is None:
            raise BuildError("sorted_keys before build")
        return self._tree.sorted_keys

    @property
    def tree(self):
        """The wrapped :class:`~repro.btree.btree.BTree` (trace-compiler
        consumers address its node layout directly)."""
        if self._tree is None:
            raise BuildError("tree before build")
        return self._tree
