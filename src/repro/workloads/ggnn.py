"""GGNN workload: hierarchical-graph ANN search, block-per-query.

Builds an HNSW-style graph over the dataset (§V-A: GGNN "uses a hierarchical
graph search structure"), runs the instrumented best-first search for each
query, and converts the event stream into warp-level op streams.  One warp
stands in for the query's thread block: distance tests to a node's neighbors
map to one ``TDist`` batch (each lane takes one candidate on the HSU; the
baseline warp computes them one at a time cooperatively), adjacency fetches
map to plain loads, and priority-cache maintenance maps to shared-memory +
ALU work that no version offloads (§VI-C).
"""

from __future__ import annotations

from repro import builds
from repro.ann.ground_truth import brute_force_knn
from repro.ann.recall import recall_at_k
from repro.compiler.layout import AddressSpace
from repro.compiler.lowering import STYLE_COOPERATIVE
from repro.compiler.ops import WarpOp, WarpOps
from repro.datasets.registry import Dataset, load_dataset, perturbed_queries
from repro.graph.hnsw import METRIC_ANGULAR, METRIC_EUCLID
from repro.search import HnswIndex, QuerySpec

EVENT_DIST = HnswIndex.EVENT_DIST
EVENT_QUEUE = HnswIndex.EVENT_QUEUE
EVENT_VISIT = HnswIndex.EVENT_VISIT

#: Warp width — one TDist batch covers at most this many candidates.
_CHUNK = 32
#: Bytes per adjacency-list entry (a 4-byte neighbor id).
_EDGE_BYTES = 4
#: SIMD instructions per priority-cache operation.  GGNN's shared-memory
#: cache performs warp-wide sorted insertion and hash-based visited
#: filtering; each logical queue operation costs several shared-memory and
#: ALU instructions.  Split evenly between LDS and ALU below.
_CACHE_OP_COST = 10


def _metric_name(dataset: Dataset) -> str:
    return METRIC_ANGULAR if dataset.metric == "A" else METRIC_EUCLID


#: The default HNSW graph build, which the serving ann endpoint shares.
BUILD = {"m": 12, "ef_construction": 48}


@builds.stored("ggnn-graph")
def _build_graph(abbr: str, m: int, ef_construction: int, scale: float, seed: int):
    dataset = load_dataset(abbr, scale=scale, seed=seed)
    index = HnswIndex(
        m=m,
        ef_construction=ef_construction,
        metric=_metric_name(dataset),
        seed=seed,
    ).build(dataset.points)
    return dataset, index


def run_ggnn(
    abbr: str,
    num_queries: int = 32,
    k: int = 10,
    ef: int = 32,
    m: int = BUILD["m"],
    ef_construction: int = BUILD["ef_construction"],
    scale: float = 1.0,
    seed: int = 0,
    check_recall: bool = False,
):
    """Execute GGNN search over one dataset; returns a WorkloadRun."""
    from repro.workloads.base import WorkloadRun

    dataset, index = _build_graph(abbr, m, ef_construction, scale, seed)
    queries = perturbed_queries(dataset, num_queries, seed=seed)
    dim = dataset.dim
    metric = _metric_name(dataset)

    space = AddressSpace()
    points = space.alloc_array("points", index.num_points, dim * 4)
    adjacency = space.alloc_array(
        "adjacency", index.num_points, 2 * m * _EDGE_BYTES
    )

    # One batched search for the whole query block; the conversion below
    # walks each query's slice of the array-backed event log.
    result = index.query_batch(
        queries, spec=QuerySpec(k=k, ef=ef), record_events=True
    )
    warp_ops = WarpOps.from_records([
        _events_to_warp_ops(
            result.events.query_events(qi), points, adjacency, dim, metric, m
        )
        for qi in range(len(result))
    ])

    extras = {
        "dataset": abbr,
        "dim": dim,
        "metric": metric,
        "num_queries": len(queries),
    }
    if check_recall:
        truth = brute_force_knn(index.points, queries, k, metric)
        extras["recall"] = recall_at_k(
            [[i for i, _ in r] for r in result.neighbors], truth
        )
    return WorkloadRun(
        name=f"ggnn-{abbr}",
        style=STYLE_COOPERATIVE,
        warp_ops=warp_ops,
        extras=extras,
    )


def _events_to_warp_ops(
    events, points, adjacency, dim: int, metric: str, m: int
) -> list[WarpOp]:
    """Convert one query's event stream into warp ops.

    Distance events buffer until the next node expansion, then flush as
    ``TDist`` batches of up to 32 candidates; queue-op counts flush as
    shared-memory + ALU work (two instructions per cache operation: one LDS,
    one ALU, modeling GGNN's shared-memory cache updates).
    """
    ops: list[WarpOp] = []
    dist_buffer: list[int] = []
    queue_pending = 0

    def flush() -> None:
        nonlocal queue_pending
        for lo in range(0, len(dist_buffer), _CHUNK):
            chunk = tuple(dist_buffer[lo : lo + _CHUNK])
            ops.append(
                WarpOp("TDist", chunk, len(chunk), a=dim, meta=metric)
            )
        dist_buffer.clear()
        if queue_pending:
            cost = queue_pending * (_CACHE_OP_COST // 2)
            ops.append(WarpOp("TShared", (), 32, a=cost))
            ops.append(WarpOp("TAlu", (), 32, a=cost))
            queue_pending = 0

    for kind, ident, payload in events:
        if kind == EVENT_DIST:
            dist_buffer.append(points.element(ident, dim * 4))
        elif kind == EVENT_QUEUE:
            queue_pending += payload
        elif kind == EVENT_VISIT:
            flush()
            # Fetch the expanded node's adjacency list (coalesced).
            ops.append(
                WarpOp(
                    "TLoad",
                    (adjacency.element(ident, 2 * m * _EDGE_BYTES),),
                    32,
                    a=2 * m * _EDGE_BYTES,
                )
            )
    flush()
    return ops
