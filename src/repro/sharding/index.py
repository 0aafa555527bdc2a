"""ShardedIndex: one logical search index over N simulated GPUs.

Partitions a dataset across per-shard substrate indices (any
:class:`~repro.search.SearchIndex` — BVH, k-d, HNSW or B-tree), fans
``query_batch`` out to them, and merges the per-shard answers back into
the *exact* lists the unsharded reference index would return — the
bit-identical contract ``tests/test_sharding.py`` enforces per substrate:

* **BVH radius**: every shard reports all in-radius hits of its points;
  the union is the global hit set.  Merged order is ascending squared
  distance with coincident points tie-broken descending by global id —
  the order the unsharded traversal emits (stable Morton sort + LIFO
  discovery).
* **k-d / HNSW top-k**: each shard returns its local top-k (sorted by
  measure, then id); the global top-k of the union is the answer whenever
  each shard's search is exact (``max_checks`` / ``ef`` not truncating —
  see docs/SHARDING.md for the exactness conditions).
* **B-tree**: each probe routes to the one shard owning its key range;
  ``global_rank = shard key offset + local rank`` because the key-range
  partitioner never splits a duplicate-key run across shards.

Every batch also runs the :class:`~repro.sharding.interconnect.Interconnect`
cost model (scatter/gather bytes + cycles, merge ops) and reports through
an optional :class:`~repro.sharding.metrics.ShardingMetrics`, so serving
a sharded endpoint accounts multi-device overheads out of the box.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BuildError, ConfigError
from repro.search.events import BatchResult, EventLog
from repro.search.spec import QuerySpec, query_block, resolve_spec
from repro.sharding.interconnect import Interconnect, InterconnectConfig
from repro.sharding.metrics import ShardingMetrics
from repro.sharding.partition import partitioner_for

_INT = np.int64

#: Wire cost of one query coordinate (float32 on the fabric).
COORD_BYTES = 4
#: Wire cost of one candidate result: int64 global id + float64 measure.
RESULT_BYTES = 16


class ShardedIndex:
    """A drop-in :class:`~repro.search.SearchIndex` spanning N shards.

    ``factory`` builds one fresh (unbuilt) substrate index per shard — e.g.
    ``lambda: BvhRadiusIndex(arity=4)``; the substrate is identified by the
    factory product's ``stats()["structure"]`` tag, which also picks the
    default partitioner.  Build-time ``**params`` (``radius``, ``values``)
    pass through to the shards unchanged; a query's
    :class:`~repro.search.spec.QuerySpec` is resolved once against the
    shard adapter's fields and defaults, and every shard answers the
    resolved spec.
    """

    def __init__(
        self,
        factory,
        num_shards: int,
        partitioner=None,
        interconnect: Interconnect | InterconnectConfig | None = None,
        metrics: ShardingMetrics | None = None,
        name: str = "sharded",
    ) -> None:
        if int(num_shards) < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        self.factory = factory
        self.num_shards = int(num_shards)
        self.name = name
        probe = factory()
        probe_stats = probe.stats()
        self.structure = str(probe_stats["structure"])
        self.metric = str(probe_stats.get("metric", "euclid"))
        self._spec_fields = probe.SPEC_FIELDS
        self._spec_defaults = probe.SPEC_DEFAULTS
        self.partitioner = (
            partitioner if partitioner is not None
            else partitioner_for(self.structure)
        )
        if isinstance(interconnect, Interconnect):
            self.interconnect = interconnect
        else:
            self.interconnect = Interconnect(self.num_shards,
                                             config=interconnect)
        self._metrics = (metrics.index(name, shards=self.num_shards)
                         if metrics is not None else None)
        self._shards: list[object | None] = []
        self._global_ids: list[np.ndarray] = []
        self._key_offsets: np.ndarray | None = None
        self._route_uppers: np.ndarray | None = None
        self._route_shards: np.ndarray | None = None
        self._dim = 0
        self._queries = 0
        self._batches = 0
        self._totals = {
            "fanout_queries": 0, "scatter_bytes": 0, "gather_bytes": 0,
            "interconnect_cycles": 0, "merge_ops": 0, "merge_cycles": 0,
        }

    # -- build ------------------------------------------------------------

    def build(self, points: np.ndarray, **params) -> "ShardedIndex":
        """Partition ``points``, build the non-empty shards, record the
        local→global id maps (and key offsets for the B-tree)."""
        points = np.asarray(points, dtype=np.float64)
        if points.size == 0:
            raise BuildError("cannot build a sharded index over zero points")
        if self.structure == "btree":
            keys = points.reshape(-1)
            shard_ids = self.partitioner.partition(keys, self.num_shards)
            self._dim = 1
        else:
            shard_ids = self.partitioner.partition(points, self.num_shards)
            self._dim = int(points.shape[1]) if points.ndim == 2 else 1
        if not any(ids.shape[0] for ids in shard_ids):
            raise BuildError("cannot build a sharded index over zero points")
        values = params.pop("values", None) if self.structure == "btree" \
            else None
        self._shards = []
        self._global_ids = []
        for ids in shard_ids:
            if ids.shape[0] == 0:
                self._shards.append(None)
                self._global_ids.append(ids.astype(_INT))
                continue
            shard = self.factory()
            if self.structure == "btree":
                shard.build(keys[ids],
                            values=None if values is None
                            else np.asarray(values)[ids])
            else:
                shard.build(points[ids], **params)
            self._shards.append(shard)
            self._global_ids.append(np.asarray(ids, dtype=_INT))
        if self.structure == "btree":
            sizes = np.array([ids.shape[0] for ids in self._global_ids],
                             dtype=_INT)
            self._key_offsets = np.zeros(self.num_shards, dtype=_INT)
            np.cumsum(sizes[:-1], out=self._key_offsets[1:])
            live = [s for s in range(self.num_shards)
                    if self._shards[s] is not None]
            self._route_shards = np.array(live, dtype=_INT)
            self._route_uppers = np.array(
                [float(np.max(keys[self._global_ids[s]])) for s in live]
            )
        return self

    # -- query path -------------------------------------------------------

    def query_batch(self, queries: np.ndarray,
                    spec: QuerySpec | None = None,
                    record_events: bool = False) -> BatchResult:
        """Fan out, merge bit-identically, account interconnect costs.

        ``spec`` resolves once against the shard adapter's
        ``SPEC_FIELDS``/``SPEC_DEFAULTS``; every shard answers the
        resolved spec, and the top-k merge truncates to the same ``k``.
        """
        call = "ShardedIndex.query_batch"
        if not self._shards:
            raise BuildError("query_batch before build")
        spec = resolve_spec(call, spec, self._spec_fields,
                            self._spec_defaults, self.metric)
        if self.structure == "btree":
            result = self._query_routed(query_block(call, queries, None),
                                        record_events, spec)
        else:
            result = self._query_broadcast(
                query_block(call, queries, self._dim), record_events, spec
            )
        self._batches += 1
        self._queries += len(result)
        return result

    def _live(self) -> list[int]:
        return [s for s in range(self.num_shards)
                if self._shards[s] is not None]

    def _query_broadcast(self, queries: np.ndarray, record_events: bool,
                         spec: QuerySpec) -> BatchResult:
        count = queries.shape[0]
        live = self._live()
        results = [
            self._shards[s].query_batch(queries, spec=spec,
                                        record_events=record_events)
            for s in live
        ]
        merged: list[list] = []
        descending_ties = self.structure == "bvh"
        for qi in range(count):
            candidates = []
            for s, result in zip(live, results):
                gids = self._global_ids[s]
                candidates.extend(
                    (int(gids[local]), measure)
                    for local, measure in result.neighbors[qi]
                )
            if descending_ties:
                candidates.sort(key=lambda hit: (hit[1], -hit[0]))
            else:
                candidates.sort(key=lambda hit: (hit[1], hit[0]))
                candidates = candidates[:spec.k]
            merged.append(candidates)
        events = (EventLog.concat([r.events for r in results])
                  if record_events else None)
        self._account(
            per_shard_queries=[count] * len(live),
            per_shard_results=[
                (s, sum(len(b) for b in r.neighbors))
                for s, r in zip(live, results)
            ],
            queries=count,
            merged_results=sum(len(row) for row in merged),
        )
        return BatchResult(merged, events)

    def _query_routed(self, probes: np.ndarray, record_events: bool,
                      spec: QuerySpec) -> BatchResult:
        count = probes.shape[0]
        live = self._live()
        assert self._route_uppers is not None
        owner = np.searchsorted(self._route_uppers, probes, side="left")
        owner = np.minimum(owner, len(live) - 1)
        neighbors: list[list] = [[] for _ in range(count)]
        logs = []
        routed_counts = []
        per_shard_results = []
        for j, s in enumerate(live):
            sel = np.flatnonzero(owner == j)
            routed_counts.append(int(sel.shape[0]))
            result = self._shards[s].query_batch(
                probes[sel], spec=spec, record_events=record_events
            )
            offset = int(self._key_offsets[s])
            hits = 0
            for local_qi, qi in enumerate(sel):
                row = result.neighbors[local_qi]
                if row:
                    rank, value = row[0]
                    neighbors[int(qi)] = [(rank + offset, value)]
                    hits += 1
            per_shard_results.append((s, hits))
            if record_events:
                logs.append((sel, result.events))
        events = None
        if record_events:
            events = self._scatter_logs(logs, count)
        self._account(
            per_shard_queries=routed_counts,
            per_shard_results=per_shard_results,
            queries=count,
            merged_results=sum(len(row) for row in neighbors),
        )
        return BatchResult(neighbors, events)

    @staticmethod
    def _scatter_logs(logs: list, num_queries: int) -> EventLog:
        """Reassemble routed per-shard logs into one global-qid log."""
        kinds = logs[0][1].kinds
        qids = np.concatenate([
            np.repeat(sel.astype(_INT), log.counts()) for sel, log in logs
        ]) if logs else np.empty(0, dtype=_INT)
        codes = np.concatenate([log.codes for _sel, log in logs])
        idents = np.concatenate([log.idents for _sel, log in logs])
        payloads = np.concatenate([log.payloads for _sel, log in logs])
        order = np.argsort(qids, kind="stable")
        return EventLog.from_sorted(
            kinds, codes[order], idents[order], payloads[order],
            qids[order], num_queries,
        )

    def _account(self, per_shard_queries: list[int],
                 per_shard_results: list[tuple[int, int]],
                 queries: int, merged_results: int) -> None:
        query_bytes = max(1, self._dim) * COORD_BYTES
        scatter_bytes, scatter_cycles = self.interconnect.scatter(
            per_shard_queries, query_bytes)
        result_counts = [n for _s, n in per_shard_results]
        gather_bytes, gather_cycles = self.interconnect.gather(
            result_counts, RESULT_BYTES)
        merge_ops, merge_cycles = self.interconnect.merge(sum(result_counts))
        self._totals["fanout_queries"] += sum(per_shard_queries)
        self._totals["scatter_bytes"] += scatter_bytes
        self._totals["gather_bytes"] += gather_bytes
        self._totals["interconnect_cycles"] += scatter_cycles + gather_cycles
        self._totals["merge_ops"] += merge_ops
        self._totals["merge_cycles"] += merge_cycles
        if self._metrics is not None:
            self._metrics.on_batch(
                queries, sum(per_shard_queries), scatter_bytes, gather_bytes,
                scatter_cycles + gather_cycles, merge_ops, merge_cycles,
            )
            for shard, count in per_shard_results:
                self._metrics.on_shard_results(shard, count)

    # -- read side --------------------------------------------------------

    def shard(self, shard: int):
        """Shard ``shard``'s substrate index (``None`` if it is empty)."""
        if not self._shards:
            raise BuildError("shard before build")
        if not 0 <= shard < self.num_shards:
            raise ConfigError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        return self._shards[shard]

    def shard_sizes(self) -> list[int]:
        """Points (or keys) owned by each shard, in shard order."""
        if not self._shards:
            raise BuildError("shard_sizes before build")
        return [int(ids.shape[0]) for ids in self._global_ids]

    def global_ids(self, shard: int) -> np.ndarray:
        """Shard ``shard``'s local→global id map."""
        if not self._shards:
            raise BuildError("global_ids before build")
        return self._global_ids[shard]

    def stats(self) -> dict[str, object]:
        """Aggregated sharded-index statistics (JSON-serializable)."""
        sizes = self.shard_sizes() if self._shards else []
        live = [n for n in sizes if n]
        imbalance = (max(live) / (sum(live) / len(live))) if live else 0.0
        return {
            "structure": "sharded",
            "inner_structure": self.structure,
            "metric": self.metric,
            "partitioner": getattr(self.partitioner, "name",
                                   type(self.partitioner).__name__),
            "topology": self.interconnect.config.topology,
            "num_shards": self.num_shards,
            "shard_sizes": sizes,
            "num_points": int(sum(sizes)),
            "size_imbalance": float(imbalance),
            "queries": self._queries,
            "batches": self._batches,
            "interconnect": dict(self._totals),
        }
