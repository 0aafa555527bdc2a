"""FLANN workload: k-d tree ANN search, thread-per-query.

Builds a k-d tree over the dataset and runs the instrumented
bounded-backtracking search for each query (§V-A).  Per-query thread op
streams are zipped into 32-wide warps; split-plane tests stay scalar SIMD
work ("only a single scalar subtraction and comparison", §VI-F) while leaf
distance tests are the HSU-able operations.
"""

from __future__ import annotations

import numpy as np

from repro import builds
from repro.ann.ground_truth import brute_force_knn
from repro.ann.recall import recall_at_k
from repro.compiler.assembler import PackedStreams, assemble_warps_packed
from repro.compiler.layout import AddressSpace
from repro.compiler.lowering import STYLE_PARALLEL
from repro.compiler.ops import (
    PACKED_TALU,
    PACKED_TDIST,
    PACKED_TLOAD,
    PACKED_TSHARED,
)
from repro.datasets.registry import load_dataset, perturbed_queries
from repro.search import KdTreeIndex, QuerySpec

EVENT_PLANE_TEST = KdTreeIndex.EVENT_PLANE_TEST
EVENT_LEAF_DIST = KdTreeIndex.EVENT_LEAF_DIST

#: Bytes per k-d split node (dim, value, two child pointers).
_NODE_BYTES = 16
#: ALU cost of one plane test + branch bookkeeping (§VI-F: "a single
#: scalar subtraction and comparison", plus far-distance arithmetic).
_PLANE_ALU = 5
#: Shared-memory ops per backtracking-heap push/pop.
_HEAP_OPS = 5


#: The default k-d tree build, which the serving knn endpoint shares.
BUILD = {"leaf_size": 8}


@builds.stored("flann-index")
def _build_tree(abbr: str, leaf_size: int, scale: float, seed: int):
    dataset = load_dataset(abbr, num_queries=512, scale=scale, seed=seed)
    index = KdTreeIndex(leaf_size=leaf_size).build(dataset.points)
    return dataset, index


def run_flann(
    abbr: str,
    num_queries: int = 256,
    k: int = 5,
    max_checks: int = 64,
    leaf_size: int = BUILD["leaf_size"],
    scale: float = 1.0,
    seed: int = 0,
    check_recall: bool = False,
):
    """Execute FLANN-style search over one dataset; returns a WorkloadRun."""
    from repro.workloads.base import WorkloadRun

    dataset, index = _build_tree(abbr, leaf_size, scale, seed)
    queries = perturbed_queries(dataset, num_queries, seed=seed)
    dim = dataset.dim

    streams, neighbors = _traced_search(
        index, queries, QuerySpec(k=k, max_checks=max_checks), dim
    )

    extras = {"dataset": abbr, "dim": dim, "num_queries": len(queries)}
    if check_recall:
        truth = brute_force_knn(index.points, queries, k)
        extras["recall"] = recall_at_k(
            [[i for i, _ in r] for r in neighbors], truth
        )
    return WorkloadRun(
        name=f"flann-{abbr}",
        style=STYLE_PARALLEL,
        warp_ops=assemble_warps_packed(streams),
        extras=extras,
    )


def _traced_search(
    index: KdTreeIndex, queries: np.ndarray, spec: QuerySpec, dim: int
) -> tuple[PackedStreams, list]:
    """Run the query batch and lower its event log onto packed thread-op
    streams; returns ``(streams, neighbors)``.

    A function of its own, so the event log and the expansion's
    temporaries are freed before the caller assembles the streams into
    warps, which needs a few arrays per thread op of its own.
    """
    result = index.query_batch(queries, spec=spec, record_events=True)
    log = result.events
    space = AddressSpace()
    nodes = space.alloc_array("kd_nodes", index.num_nodes, _NODE_BYTES)
    points = space.alloc_array("points", index.num_points, dim * 4)
    # FLANN stores a leaf-ordered copy of the points, so leaf scans touch
    # contiguous memory; address by sorted position, not original id.
    position_of = np.empty(index.num_points, dtype=np.int64)
    position_of[index.point_indices] = np.arange(index.num_points)

    codes = log.codes
    idents = log.idents
    plane_c = log.kinds.index(EVENT_PLANE_TEST)
    dist_c = log.kinds.index(EVENT_LEAF_DIST)

    # Expand events into packed thread ops: plane test -> node load + the
    # scalar compare ALU work + far-branch bookkeeping on the backtracking
    # heap; leaf visit -> one HSU-able distance test per point.
    nops = np.where(codes == plane_c, 3, 1).astype(np.int64)
    ops_cum = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(nops)]
    )
    total_ops = int(ops_cum[-1])
    first = ops_cum[:-1]

    op_kind = np.zeros(total_ops, dtype=np.int64)
    op_k1 = np.zeros(total_ops, dtype=np.int64)
    op_k2 = np.zeros(total_ops, dtype=np.int64)
    op_addr = np.zeros(total_ops, dtype=np.int64)
    op_cnt = np.zeros(total_ops, dtype=np.int64)

    plane = np.flatnonzero(codes == plane_c)
    at = first[plane]
    op_kind[at] = PACKED_TLOAD
    op_k1[at] = _NODE_BYTES
    op_addr[at] = nodes.base + idents[plane] * _NODE_BYTES
    op_kind[at + 1] = PACKED_TALU
    op_cnt[at + 1] = _PLANE_ALU
    op_kind[at + 2] = PACKED_TSHARED
    op_cnt[at + 2] = _HEAP_OPS

    dist = np.flatnonzero(codes == dist_c)
    at = first[dist]
    op_kind[at] = PACKED_TDIST
    op_k1[at] = dim  # k2 stays 0 == euclid metric code
    op_addr[at] = points.base + position_of[idents[dist]] * (dim * 4)

    streams = PackedStreams(
        ops_cum[log.starts], op_kind, op_k1, op_k2, op_addr, op_cnt
    )
    return streams, result.neighbors
