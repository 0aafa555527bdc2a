"""Multi-device scale-out: partitioned indices over N simulated GPUs.

The first end-to-end multi-device path in the codebase.
:class:`ShardedIndex` splits a dataset across per-shard substrate indices
(any of the four :class:`~repro.search.SearchIndex` adapters) via a
pluggable partitioner, fans ``query_batch`` out, and merges the answers
bit-identically to an unsharded reference — so it drops straight behind a
:class:`~repro.serving.QueryService` endpoint.  The
:class:`Interconnect` models scatter/gather/merge costs alongside the
simulator's Scheduler/MemorySystem plug-ins, :class:`ShardingMetrics`
registers ``sharding/*`` observability, and :func:`simulate_sharded`
runs one campaign ``Job`` per shard through the campaign runner's process
pool for the scaling-curve experiment.

``docs/SHARDING.md`` is the operator guide (partitioner choices, merge
semantics, interconnect cost model, scaling recipe).

:func:`simulate_sharded` and :class:`ShardedSimResult` resolve lazily
(PEP 562): they pull in the campaign runner, which this package must not
load just to build an index.
"""

from repro.sharding.index import COORD_BYTES, RESULT_BYTES, ShardedIndex
from repro.sharding.interconnect import (
    TOPOLOGIES,
    Interconnect,
    InterconnectConfig,
)
from repro.sharding.metrics import (
    SHARDING_PREFIX,
    IndexMetrics,
    ShardingMetrics,
    canonical_sharding_name,
)
from repro.sharding.partition import (
    HashPartitioner,
    KeyRangePartitioner,
    MortonRangePartitioner,
    partitioner_for,
)

_LAZY = {
    "ShardedSimResult": "repro.sharding.simulate",
    "simulate_sharded": "repro.sharding.simulate",
}

__all__ = [
    "COORD_BYTES",
    "RESULT_BYTES",
    "SHARDING_PREFIX",
    "TOPOLOGIES",
    "HashPartitioner",
    "IndexMetrics",
    "Interconnect",
    "InterconnectConfig",
    "KeyRangePartitioner",
    "MortonRangePartitioner",
    "ShardedIndex",
    "ShardedSimResult",
    "ShardingMetrics",
    "canonical_sharding_name",
    "partitioner_for",
    "simulate_sharded",
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
