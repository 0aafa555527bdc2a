"""Arkade workload: non-Euclidean kNN via space transforms, thread-per-query.

The Arkade reductions (PAPERS.md: "Arkade: k-Nearest Neighbor Search With
Non-Euclidean Distances using GPU Ray Tracing") express kNN under L1,
L-infinity, and cosine metrics as *Euclidean traversals* over the existing
hierarchical substrates, so they lower onto the same HSU ops the FLANN
family uses:

* **transform metric** (``cosine``) — normalize every point and query onto
  the unit sphere at build time; the traversal is then plain Euclidean and
  the squared chordal distance halves exactly into ``1 - cos(theta)``.
  Leaf distance tests lower as ``POINT_ANGULAR`` (packed metric code 1),
  whose SFU epilogue models the dot/norm recombination.
* **filter metrics** (``l1``, ``linf``) — index the *raw* points and keep
  the Euclidean split-plane bounds; only the leaf distance kernel switches
  (the norm-equivalence filter ``L1 >= L2``, ``Linf >= L2/sqrt(d)`` keeps
  pruning admissible).  Leaf tests stay ``POINT_EUCLID`` beats.

Every run searches **exactly** (``max_checks = num_points``) and verifies
its answers against the brute-force per-metric reference before lowering,
reporting the outcome through a ``metric_search/<metric>/`` observability
scope (docs/METRICS.md).
"""

from __future__ import annotations

import numpy as np

from repro import builds
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
from repro.errors import TraceError
from repro.metrics import MetricSearchMetrics
from repro.metrics.transforms import (
    METRIC_COSINE,
    brute_force_metric_knn,
    validate_metric,
)
from repro.search import KdTreeIndex, QuerySpec

EVENT_PLANE_TEST = KdTreeIndex.EVENT_PLANE_TEST
EVENT_LEAF_DIST = KdTreeIndex.EVENT_LEAF_DIST

#: Bytes per k-d split node (dim, value, two child pointers) — the FLANN
#: node layout; the Arkade family shares the substrate.
_NODE_BYTES = 16
#: ALU cost of one plane test + branch bookkeeping (§VI-F).
_PLANE_ALU = 5
#: Shared-memory ops per backtracking-heap push/pop.
_HEAP_OPS = 5

#: Packed TDist metric code (``k2``): 1 selects ``POINT_ANGULAR`` (the
#: cosine epilogue), 0 selects ``POINT_EUCLID`` (euclid and the filter
#: metrics, whose leaf kernels are plain beat reductions).
_TDIST_ANGULAR = 1


#: The default k-d tree build, which the serving metric endpoint shares.
BUILD = {"leaf_size": 8}


@builds.stored("arkade-index")
def _build_index(abbr: str, metric: str, leaf_size: int, scale: float,
                 seed: int):
    dataset = load_dataset(abbr, num_queries=512, scale=scale, seed=seed)
    index = KdTreeIndex(leaf_size=leaf_size, metric=metric).build(
        dataset.points
    )
    return dataset, index


def run_arkade(
    abbr: str,
    num_queries: int = 256,
    metric: str = "l1",
    k: int = 5,
    leaf_size: int = BUILD["leaf_size"],
    scale: float = 1.0,
    seed: int = 0,
    metrics: MetricSearchMetrics | None = None,
):
    """Exact metric kNN over one dataset; returns a WorkloadRun.

    ``metric`` is any :data:`~repro.metrics.transforms.QUERY_METRICS`
    member (``euclid`` runs the reduction-free control).  The run is
    exact by construction (``max_checks = num_points``), and every
    query's answer is checked against
    :func:`~repro.metrics.transforms.brute_force_metric_knn` — a
    mismatch raises :class:`~repro.errors.TraceError` rather than
    silently lowering a wrong-answer trace.
    """
    from repro.workloads.base import WorkloadRun

    validate_metric(metric, context="run_arkade")
    dataset, index = _build_index(abbr, metric, leaf_size, scale, seed)
    queries = perturbed_queries(dataset, num_queries, seed=seed)
    dim = dataset.dim
    scope = (metrics if metrics is not None else MetricSearchMetrics())
    family = scope.family(metric)
    if metric == METRIC_COSINE:
        # Build normalized the point set; the query side normalizes here.
        family.on_transform(index.num_points + len(queries))

    space = AddressSpace()
    nodes = space.alloc_array("kd_nodes", index.num_nodes, _NODE_BYTES)
    points = space.alloc_array("points", index.num_points, dim * 4)
    position_of = np.empty(index.num_points, dtype=np.int64)
    position_of[index.point_indices] = np.arange(index.num_points)

    spec = QuerySpec(k=k, max_checks=index.num_points, metric=metric)
    result = index.query_batch(queries, spec=spec, record_events=True)
    log = result.events

    truth_ids, truth_measures = brute_force_metric_knn(
        dataset.points, queries, k, metric=metric
    )
    verified = 0
    for qi, row in enumerate(result.neighbors):
        ids = [pid for pid, _ in row]
        measures = np.array([m for _, m in row], dtype=np.float32)
        if ids == truth_ids[qi].tolist() and np.array_equal(
            measures, truth_measures[qi]
        ):
            verified += 1
    if verified != len(queries):
        raise TraceError(
            f"arkade-{metric}-{abbr}: {len(queries) - verified} of "
            f"{len(queries)} queries disagree with the brute-force "
            f"{metric} reference"
        )
    family.on_verified(verified)

    codes = log.codes
    idents = log.idents
    plane_c = log.kinds.index(EVENT_PLANE_TEST)
    dist_c = log.kinds.index(EVENT_LEAF_DIST)
    family.on_search(
        len(queries),
        int(np.count_nonzero(codes == plane_c)),
        int(np.count_nonzero(codes == dist_c)),
    )

    # Identical expansion to the FLANN lowering: plane test -> node load +
    # scalar compare + heap bookkeeping; leaf visit -> one HSU-able
    # distance test per point.  Only the TDist metric code differs.
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
    op_k1[at] = dim
    if metric == METRIC_COSINE:
        op_k2[at] = _TDIST_ANGULAR
    op_addr[at] = points.base + position_of[idents[dist]] * (dim * 4)

    streams = PackedStreams(
        ops_cum[log.starts], op_kind, op_k1, op_k2, op_addr, op_cnt
    )

    extras = {
        "dataset": abbr,
        "dim": dim,
        "num_queries": len(queries),
        "metric": metric,
        "k": k,
        "verified_queries": verified,
        "metric_search": scope.as_dict(),
    }
    return WorkloadRun(
        name=f"arkade-{metric}-{abbr}",
        style=STYLE_PARALLEL,
        warp_ops=assemble_warps_packed(streams),
        extras=extras,
    )
