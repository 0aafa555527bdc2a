"""RTIndeX comparison (§VI-G): database keys as triangles vs native points.

RTIndeX expresses integer keys as triangle primitives so the RT unit can
look them up by ray casting; a 32-bit key becomes a 288-bit (36-byte)
triangle.  The paper re-implements it without OptiX over the same LBVH used
everywhere else, then compares the baseline-RT version (triangle leaves,
``RAY_INTERSECT``) against an HSU version with native point keys
(``POINT_EUCLID`` over one dimension) — reporting a 36.6% speedup from the
9:1 leaf-memory reduction and cheaper leaf fetches.

Both variants run on RT/HSU hardware; only the leaf representation and its
memory footprint differ.  The box traversal above the leaves is identical.
"""

from __future__ import annotations

import numpy as np

from repro import builds
from repro.bvh.lbvh import build_lbvh
from repro.bvh.traversal import (
    EVENT_BOX_NODE,
    EVENT_STACK_OP,
    point_query_batch,
)
from repro.compiler.assembler import PackedStreams, assemble_warps_packed
from repro.compiler.layout import AddressSpace
from repro.compiler.lowering import STYLE_PARALLEL
from repro.compiler.ops import (
    PACKED_TALU,
    PACKED_TBOX,
    PACKED_TDIST,
    PACKED_TSHARED,
    PACKED_TTRI,
)
from repro.geometry.aabb import Aabb

#: Bytes per stored child record in a box node.
_CHILD_BYTES = 32
#: A triangle-encoded key: 9 fp32 vertices (288 bits, §VI-G).
_TRIANGLE_KEY_BYTES = 36
#: A native point key: one fp32.
_POINT_KEY_BYTES = 4
#: Leaf half-width around each key on the number line.
_KEY_HALF_WIDTH = 0.25


@builds.stored("rtindex-bvh")
def _build_index(num_keys: int, seed: int):
    """Sorted unique keys embedded on the x axis, indexed by an LBVH."""
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(num_keys * 4, size=num_keys, replace=False)).astype(
        np.float64
    )
    boxes = [
        Aabb.around_point((float(k), 0.0, 0.0), _KEY_HALF_WIDTH) for k in keys
    ]
    bvh = build_lbvh(boxes)
    return keys, bvh


def run_rtindex(
    num_keys: int = 8192,
    num_lookups: int = 2048,
    hit_fraction: float = 0.5,
    seed: int = 0,
):
    """Execute key lookups; returns (triangle_run, point_run).

    Both runs share identical traversal events; they differ in the leaf op
    (ray-triangle test on a 36-byte primitive vs a 1-D distance test on a
    4-byte key) and in the leaf storage footprint.
    """
    from repro.workloads.base import WorkloadRun

    keys, bvh = _build_index(num_keys, seed)
    rng = np.random.default_rng(seed + 5)
    hits = rng.choice(keys, size=int(num_lookups * hit_fraction))
    misses = rng.choice(keys, size=num_lookups - hits.size) + 0.5
    probes = np.concatenate([hits, misses])
    rng.shuffle(probes)

    # Two address spaces: the triangle variant's leaf store is 9x larger,
    # which is exactly the §VI-G memory argument.
    tri_space = AddressSpace()
    tri_nodes = tri_space.alloc_array(
        "bvh_nodes", bvh.num_nodes, bvh.arity * _CHILD_BYTES
    )
    tri_leaves = tri_space.alloc_array(
        "tri_keys", len(keys), _TRIANGLE_KEY_BYTES + 12  # padded to 48 B
    )
    pt_space = AddressSpace()
    pt_nodes = pt_space.alloc_array(
        "bvh_nodes", bvh.num_nodes, bvh.arity * _CHILD_BYTES
    )
    pt_leaves = pt_space.alloc_array("point_keys", len(keys), _POINT_KEY_BYTES)

    # One batched traversal answers every probe; candidate and event order
    # per probe is identical to the scalar loop.
    num_lookups = probes.shape[0]
    qblock = np.zeros((num_lookups, 3), dtype=np.float64)
    qblock[:, 0] = probes
    cand_starts, cand_prims, log = point_query_batch(
        bvh, qblock, record_events=True
    )
    cand_counts = np.diff(cand_starts)
    qid_of_cand = np.repeat(
        np.arange(num_lookups, dtype=np.int64), cand_counts
    )
    exact = keys[cand_prims] == probes[qid_of_cand]
    found = int(
        np.count_nonzero(np.bincount(qid_of_cand[exact],
                                     minlength=num_lookups))
    )

    # Expand events + candidates into the two variants' packed op streams:
    # per probe the ops are the traversal events (box -> TBox, stack ->
    # TShared) in log order, then one leaf op per candidate (ray-triangle
    # test vs 1-D distance test), then the result-select ALU work.
    ev_counts = np.diff(log.starts)
    num_events = log.num_events
    num_cands = int(cand_prims.shape[0])
    thread_starts = (
        log.starts + cand_starts
        + np.arange(num_lookups + 1, dtype=np.int64)
    )
    ts = thread_starts[:-1]
    ev_dest = np.repeat(ts - log.starts[:-1], ev_counts) + np.arange(
        num_events, dtype=np.int64
    )
    cand_dest = np.repeat(
        ts + ev_counts - cand_starts[:-1], cand_counts
    ) + np.arange(num_cands, dtype=np.int64)
    alu_dest = ts + ev_counts + cand_counts
    total_ops = int(thread_starts[-1])

    box_c = log.kinds.index(EVENT_BOX_NODE)
    stack_c = log.kinds.index(EVENT_STACK_OP)
    box = log.codes == box_c
    stack = log.codes == stack_c

    op_kind = np.zeros(total_ops, dtype=np.int64)
    op_k1 = np.zeros(total_ops, dtype=np.int64)
    op_k2 = np.zeros(total_ops, dtype=np.int64)
    op_cnt = np.zeros(total_ops, dtype=np.int64)
    tri_addr = np.zeros(total_ops, dtype=np.int64)
    pt_addr = np.zeros(total_ops, dtype=np.int64)

    at = ev_dest[box]
    op_kind[at] = PACKED_TBOX
    op_k1[at] = log.payloads[box]
    op_k2[at] = log.payloads[box] * _CHILD_BYTES
    node_off = log.idents[box] * (bvh.arity * _CHILD_BYTES)
    tri_addr[at] = tri_nodes.base + node_off
    pt_addr[at] = pt_nodes.base + node_off

    at = ev_dest[stack]
    op_kind[at] = PACKED_TSHARED
    op_cnt[at] = np.maximum(1, log.payloads[stack])

    op_kind[alu_dest] = PACKED_TALU
    op_cnt[alu_dest] = 2

    tri_kind = op_kind.copy()
    tri_kind[cand_dest] = PACKED_TTRI
    tri_addr[cand_dest] = tri_leaves.base + cand_prims * (
        _TRIANGLE_KEY_BYTES + 12
    )
    pt_kind = op_kind
    pt_kind[cand_dest] = PACKED_TDIST
    pt_k1 = op_k1.copy()
    pt_k1[cand_dest] = 1  # dim; k2 stays 0 == euclid metric code
    pt_addr[cand_dest] = pt_leaves.base + cand_prims * _POINT_KEY_BYTES

    tri_streams = PackedStreams(
        thread_starts, tri_kind, op_k1, op_k2, tri_addr, op_cnt
    )
    pt_streams = PackedStreams(
        thread_starts, pt_kind, pt_k1, op_k2, pt_addr, op_cnt
    )

    extras = {
        "num_keys": len(keys),
        "num_lookups": len(probes),
        "hit_rate": found / len(probes),
        "triangle_leaf_bytes": _TRIANGLE_KEY_BYTES,
        "point_leaf_bytes": _POINT_KEY_BYTES,
    }
    triangle_run = WorkloadRun(
        name="rtindex-triangles",
        style=STYLE_PARALLEL,
        warp_ops=assemble_warps_packed(tri_streams),
        extras=dict(extras),
    )
    point_run = WorkloadRun(
        name="rtindex-points",
        style=STYLE_PARALLEL,
        warp_ops=assemble_warps_packed(pt_streams),
        extras=dict(extras),
    )
    return triangle_run, point_run
