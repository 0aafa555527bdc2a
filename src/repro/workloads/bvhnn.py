"""BVH-NN workload: RTNN-style BVH radius search, thread-per-query.

Builds the §V-A acceleration structure — leaf AABBs of width twice the
search radius centered on each point, Morton-sorted, Karras LBVH — and runs
the instrumented point-query traversal per query.  Box-node visits are the
HSU-able ``RAY_INTERSECT`` work; per-thread traversal-stack maintenance
stays on the SIMD units (§VI-C); leaf distance tests are few ("less than
200 for each query", §VI-C) and also HSU-able.
"""

from __future__ import annotations

import numpy as np

from repro import builds
from repro.compiler.assembler import PackedStreams, assemble_warps_packed
from repro.compiler.layout import AddressSpace
from repro.compiler.lowering import STYLE_PARALLEL
from repro.compiler.ops import (
    PACKED_TALU,
    PACKED_TBOX,
    PACKED_TDIST,
    PACKED_TSHARED,
)
from repro.datasets.registry import load_dataset
from repro.search import BvhRadiusIndex

#: Bytes per stored child record in a box node (6 box floats + pointer).
_CHILD_BYTES = 32

EVENT_BOX_NODE = BvhRadiusIndex.EVENT_BOX_NODE
EVENT_LEAF_DIST = BvhRadiusIndex.EVENT_LEAF_DIST
EVENT_STACK_OP = BvhRadiusIndex.EVENT_STACK_OP


#: One cached (diff, d2) scratch pair for :func:`choose_radius` — repeated
#: campaign calls at the same scale skip 20 MB of page-faulting allocations.
_SCRATCH: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _scratch_pair(rows: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    key = (rows, count)
    pair = _SCRATCH.get(key)
    if pair is None:
        pair = (
            np.empty((rows, count), dtype=np.float64),
            np.empty((rows, count), dtype=np.float64),
        )
        _SCRATCH.clear()  # hold at most one shape alive
        _SCRATCH[key] = pair
    return pair


def choose_radius(
    points: np.ndarray, neighbor_rank: int = 5, sample: int = 128, seed: int = 0
) -> float:
    """A search radius reaching about ``neighbor_rank`` neighbors.

    RTNN tunes the radius per dataset; we estimate it as the mean distance
    to the ``neighbor_rank``-th neighbor over a point sample, so queries see
    a realistic (tens, not thousands) candidate count.
    """
    rng = np.random.default_rng(seed)
    count = points.shape[0]
    chosen = rng.choice(count, size=min(sample, count), replace=False)
    sample_points = points[chosen]
    radii = np.empty(len(chosen), dtype=np.float64)
    # Whole-sample distance matrix, chunked so the (chunk, N) temporaries
    # stay bounded on million-point datasets.  Accumulating per axis keeps
    # the arithmetic identical to the rowwise ``sum((points - p)**2)`` —
    # a 3-element axis sum reduces left-to-right — while avoiding the
    # (chunk, N, 3) broadcast temporary.
    # Small chunks keep the (chunk, N) scratch rows resident in cache —
    # every distance row is computed independently, so the chunk size never
    # changes a value.  Reused scratch buffers: the broadcast temporaries
    # and the partition copy dominate the cost at smoke scale; ``out=``
    # writes and in-place partitioning are value-identical to the
    # allocating forms.
    chunk = max(1, min(8, 4_000_000 // max(1, count)))
    rows = min(chunk, len(chosen))
    diff, d2 = _scratch_pair(rows, count)
    for start in range(0, len(chosen), chunk):
        block = sample_points[start : start + chunk]
        d = diff[: block.shape[0]]
        s = d2[: block.shape[0]]
        np.subtract(points[:, 0][None, :], block[:, 0][:, None], out=d)
        np.multiply(d, d, out=s)
        for axis in (1, 2):
            np.subtract(
                points[:, axis][None, :], block[:, axis][:, None], out=d
            )
            np.multiply(d, d, out=d)
            s += d
        s.partition(neighbor_rank, axis=1)
        np.sqrt(s[:, neighbor_rank], out=radii[start : start + chunk])
    # Median via partition — same selection arithmetic as ``np.median``
    # (which would lazily import numpy.ma, a measurable cold-start cost).
    half = radii.shape[0] >> 1
    if radii.shape[0] % 2:
        return float(np.partition(radii, half)[half])
    ranked = np.partition(radii, [half - 1, half])
    return float((ranked[half - 1] + ranked[half]) / 2.0)


def _cached_radius(abbr: str, scale: float, seed: int,
                   points: np.ndarray) -> float:
    """:func:`choose_radius` through the campaign's artifact cache.

    The radius depends only on the dataset, so every variant of a workload
    — and every worker of a parallel campaign — shares one computation.
    """
    from repro.experiments import campaign  # deferred: optional tier

    params = {
        "workload": "bvhnn", "abbr": abbr, "scale": scale, "seed": seed,
        "neighbor_rank": 5, "sample": 128,
    }
    cached = campaign.load_artifact("bvhnn-radius", params)
    if isinstance(cached, float):
        return cached
    radius = choose_radius(points, seed=seed)
    campaign.store_artifact("bvhnn-radius", params, radius)
    return radius


def query_stream(
    points: np.ndarray, radius: float, num_queries: int, seed: int = 0
) -> np.ndarray:
    """The BVH-NN query batch: ``num_queries`` perturbed dataset points.

    Queries sit near the data manifold, so traversal reaches leaves (pure
    generator queries can fall far off the surface).  The one definition
    of the stream: :func:`run_bvhnn`, every shard of
    :func:`run_bvhnn_sharded`, and the sharded simulation's interconnect
    replay (:mod:`repro.sharding.simulate`) all draw it from here, so they
    see bit-identical batches.
    """
    rng = np.random.default_rng(seed + 1)
    picks = rng.choice(points.shape[0], size=num_queries, replace=True)
    return points[picks] + rng.normal(
        scale=radius * 0.3, size=(num_queries, 3)
    )


#: The default BVH build (§V-A), which the serving point endpoint shares.
BUILD = {"builder": "lbvh", "arity": 2}


@builds.stored("bvhnn-index")
def _build(abbr: str, scale: float, seed: int, builder: str, arity: int):
    dataset = load_dataset(abbr, num_queries=512, scale=scale, seed=seed)
    points = dataset.points.astype(np.float64)
    radius = _cached_radius(abbr, scale, seed, points)
    index = BvhRadiusIndex(builder=builder, arity=arity).build(points, radius)
    return dataset, index


def run_bvhnn(
    abbr: str,
    num_queries: int = 256,
    scale: float = 1.0,
    seed: int = 0,
    builder: str = BUILD["builder"],
    arity: int = BUILD["arity"],
    sort_queries: bool = False,
):
    """Execute BVH-NN radius search over one dataset; returns a WorkloadRun.

    Ablation knobs beyond the paper's default configuration:

    * ``builder="sah"`` — the higher-quality binned-SAH build §VI-E says
      "would further improve performance" over the fast LBVH;
    * ``arity=4`` — the BVH4 §VI-E says "would likely have better
      performance" because the unit tests four boxes per instruction;
    * ``sort_queries=True`` — Morton-sort the query batch, the RTNN
      coherence preprocessing the paper's BVH-NN deliberately omits.
    """
    from repro.workloads.base import WorkloadRun

    dataset, index = _build(abbr, scale, seed, builder, arity)
    radius = index.radius
    queries = query_stream(index.points, radius, num_queries, seed)
    if sort_queries:
        from repro.geometry.morton import morton_encode_points

        queries = queries[np.argsort(morton_encode_points(queries))]

    result = index.query_batch(queries, record_events=True)
    log = result.events
    total_hits = sum(len(n) for n in result.neighbors)
    streams, total_dist_tests = _lower_radius_trace(index, log)

    extras = {
        "dataset": abbr,
        "builder": builder,
        "arity": arity,
        "radius": radius,
        "num_queries": len(queries),
        "mean_hits": total_hits / max(1, len(queries)),
        "mean_dist_tests": total_dist_tests / max(1, len(queries)),
    }
    return WorkloadRun(
        name=f"bvhnn-{abbr}",
        style=STYLE_PARALLEL,
        warp_ops=assemble_warps_packed(streams),
        extras=extras,
    )


def _lower_radius_trace(index: BvhRadiusIndex, log) -> tuple:
    """Lower one radius-search event log onto packed thread-op streams.

    Shared by the unsharded and per-shard trace paths: addresses are laid
    out against *this* index's node count and Morton point order, so a
    shard's trace models a device that holds only its partition.  Returns
    ``(PackedStreams, total_dist_tests)``.
    """
    points = index.points
    node_arity = index.node_arity
    space = AddressSpace()
    nodes = space.alloc_array(
        "bvh_nodes", index.num_nodes, node_arity * _CHILD_BYTES
    )
    point_mem = space.alloc_array("points", points.shape[0], 3 * 4)
    # Points are stored Morton-sorted (the order the LBVH build produced),
    # so leaf data for nearby queries shares cache lines.
    position_of = np.empty(points.shape[0], dtype=np.int64)
    position_of[index.prim_indices] = np.arange(points.shape[0])

    codes = log.codes
    idents = log.idents
    payloads = log.payloads
    box_c = log.kinds.index(EVENT_BOX_NODE)
    dist_c = log.kinds.index(EVENT_LEAF_DIST)
    stack_c = log.kinds.index(EVENT_STACK_OP)
    total_dist_tests = int(np.count_nonzero(codes == dist_c))

    # Expand events into packed thread ops in place of the scalar per-event
    # loop: box visit -> TBox; stack op -> TShared + TAlu (push/pop
    # bookkeeping in shared memory plus the traversal loop control that
    # stays on the SIMD units, §VI-C: "these operations are not accelerated
    # within the RT unit"); leaf distance -> TDist.
    nops = np.zeros(codes.shape[0], dtype=np.int64)
    nops[codes == box_c] = 1
    nops[codes == dist_c] = 1
    nops[codes == stack_c] = 2
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

    box = np.flatnonzero(codes == box_c)
    at = first[box]
    op_kind[at] = PACKED_TBOX
    op_k1[at] = payloads[box]
    op_k2[at] = payloads[box] * _CHILD_BYTES
    op_addr[at] = nodes.base + idents[box] * (node_arity * _CHILD_BYTES)

    stack = np.flatnonzero(codes == stack_c)
    at = first[stack]
    op_kind[at] = PACKED_TSHARED
    op_cnt[at] = np.maximum(1, payloads[stack])
    op_kind[at + 1] = PACKED_TALU
    op_cnt[at + 1] = 4

    dist = np.flatnonzero(codes == dist_c)
    at = first[dist]
    op_kind[at] = PACKED_TDIST
    op_k1[at] = 3  # dim; k2 stays 0 == euclid metric code
    op_addr[at] = point_mem.base + position_of[idents[dist]] * 12

    streams = PackedStreams(
        ops_cum[log.starts], op_kind, op_k1, op_k2, op_addr, op_cnt
    )
    return streams, total_dist_tests


@builds.stored("bvhnn-shard-split")
def _sharded_parts(abbr: str, scale: float, seed: int, shards: int):
    """Dataset points, shared radius and the Morton-range shard split.

    One entry serves every shard of a sweep point that runs in one build
    group (:func:`repro.builds.group`: a serial campaign's sweep point, or
    :func:`repro.sharding.simulate_sharded`'s); a shard run in a pool
    worker builds its own.  The radius comes from the same
    ``bvhnn-radius`` artifact the unsharded path uses, and the partition
    is the deterministic Morton-range split, so per-shard runs agree on
    who owns which point without any coordination.
    """
    from repro.sharding.partition import MortonRangePartitioner

    dataset = load_dataset(abbr, num_queries=512, scale=scale, seed=seed)
    points = dataset.points.astype(np.float64)
    radius = _cached_radius(abbr, scale, seed, points)
    shard_ids = MortonRangePartitioner().partition(points, shards)
    return points, radius, shard_ids


def run_bvhnn_sharded(
    abbr: str,
    num_queries: int = 256,
    scale: float = 1.0,
    seed: int = 0,
    shards: int = 2,
    shard: int = 0,
):
    """One shard's slice of a multi-device BVH-NN run; returns a WorkloadRun.

    Models device ``shard`` of ``shards``: the dataset is Morton-range
    partitioned, this device's BVH covers only its partition, and the
    *full* query batch is broadcast to it (every device sees every query —
    the sharded radius-search fan-out).  The query stream is bit-identical
    to :func:`run_bvhnn`'s at the same ``(abbr, num_queries, scale, seed)``,
    so per-shard traces compose into the scaling curve the unsharded run
    anchors.  Raises :class:`~repro.errors.ConfigError` for an invalid or
    empty shard.
    """
    from repro.errors import ConfigError
    from repro.workloads.base import WorkloadRun

    if shards < 1 or not 0 <= shard < shards:
        raise ConfigError(
            f"shard {shard} out of range for {shards} shard(s)"
        )
    points, radius, shard_ids = _sharded_parts(abbr, scale, seed, shards)
    ids = shard_ids[shard]
    if ids.shape[0] == 0:
        raise ConfigError(
            f"shard {shard} of {shards} owns no points of {abbr!r} at "
            f"scale {scale:g}; lower the shard count"
        )
    index = _build_shard(abbr, scale, seed, shards, shard)
    # Drawn from the FULL dataset, so every shard broadcasts one batch.
    queries = query_stream(points, radius, num_queries, seed)

    result = index.query_batch(queries, record_events=True)
    log = result.events
    total_hits = sum(len(n) for n in result.neighbors)
    streams, total_dist_tests = _lower_radius_trace(index, log)

    extras = {
        "dataset": abbr,
        "radius": radius,
        "shards": shards,
        "shard": shard,
        "shard_points": int(ids.shape[0]),
        "num_queries": len(queries),
        "mean_hits": total_hits / max(1, len(queries)),
        "mean_dist_tests": total_dist_tests / max(1, len(queries)),
    }
    return WorkloadRun(
        name=f"bvhnn-{abbr}-s{shard}of{shards}",
        style=STYLE_PARALLEL,
        warp_ops=assemble_warps_packed(streams),
        extras=extras,
    )


@builds.stored("bvhnn-shard-index")
def _build_shard(abbr: str, scale: float, seed: int, shards: int,
                 shard: int) -> BvhRadiusIndex:
    """This shard's BVH over its Morton-range partition (LBVH, arity 2)."""
    points, radius, shard_ids = _sharded_parts(abbr, scale, seed, shards)
    return BvhRadiusIndex().build(points[shard_ids[shard]], radius)
