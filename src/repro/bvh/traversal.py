"""Instrumented stack-based BVH traversal.

BVH-NN implements "a stack-based traversal which our kernel maintains per
thread in shared memory" (§V-A).  Traversals here mirror that loop and
record the event stream the trace compiler lowers into instructions: one
box-node visit becomes one ``RAY_INTERSECT`` (HSU) or a slab-test instruction
sequence (baseline); one leaf distance test becomes ``POINT_EUCLID`` beats or
a load+FMA sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bvh.node import Bvh
from repro.core.ops import batch_euclid_dist, rowwise_euclid_dist
from repro.geometry.intersect_box import intersect_ray_box
from repro.geometry.intersect_tri import TriangleHit, intersect_ray_triangle
from repro.geometry.ray import Ray
from repro.geometry.triangle import Triangle
from repro.geometry.vec3 import Vec3
from repro.kernels import get_backend
from repro.metrics.transforms import (
    FILTER_METRICS,
    METRIC_EUCLID,
    batch_metric_dist,
    rowwise_metric_dist,
    validate_metric,
)
from repro.search.events import BatchResult, EventLog

#: Traversal event kinds consumed by the trace compiler.
EVENT_BOX_NODE = "box_node"
EVENT_LEAF_DIST = "leaf_dist"
EVENT_LEAF_TRI = "leaf_tri"
EVENT_STACK_OP = "stack_op"

#: Kind table of BVH event logs (codes are indexes into this tuple).
BVH_EVENT_KINDS = (
    EVENT_BOX_NODE,
    EVENT_LEAF_DIST,
    EVENT_LEAF_TRI,
    EVENT_STACK_OP,
)
_BOX = BVH_EVENT_KINDS.index(EVENT_BOX_NODE)
_DIST = BVH_EVENT_KINDS.index(EVENT_LEAF_DIST)
_STACK = BVH_EVENT_KINDS.index(EVENT_STACK_OP)


@dataclass
class TraversalStats:
    """Counters and (optionally) the event log for one traversal."""

    nodes_visited: int = 0
    box_nodes_visited: int = 0
    box_tests: int = 0
    leaf_visits: int = 0
    prim_tests: int = 0
    max_stack_depth: int = 0
    record_events: bool = False
    #: (kind, node_or_prim_id, payload) tuples in traversal order.
    events: list[tuple[str, int, int]] = field(default_factory=list)

    def _event(self, kind: str, ident: int, payload: int) -> None:
        if self.record_events:
            self.events.append((kind, ident, payload))

    def visit_box_node(self, node_id: int, num_children: int) -> None:
        self.nodes_visited += 1
        self.box_nodes_visited += 1
        self.box_tests += num_children
        self._event(EVENT_BOX_NODE, node_id, num_children)

    def visit_leaf(self, node_id: int) -> None:
        self.nodes_visited += 1
        self.leaf_visits += 1

    def test_prim_dist(self, prim_id: int, dim: int) -> None:
        self.prim_tests += 1
        self._event(EVENT_LEAF_DIST, prim_id, dim)

    def test_prim_tri(self, prim_id: int) -> None:
        self.prim_tests += 1
        self._event(EVENT_LEAF_TRI, prim_id, 0)

    def stack_op(self, pushes: int) -> None:
        self._event(EVENT_STACK_OP, -1, pushes)

    def note_stack_depth(self, depth: int) -> None:
        self.max_stack_depth = max(self.max_stack_depth, depth)


def point_query(
    bvh: Bvh,
    query: np.ndarray,
    stats: TraversalStats | None = None,
) -> list[int]:
    """All primitive ids whose leaf box contains ``query``.

    This is the RTNN traversal shape: the query point acts as a
    zero-extent ray, so a box test reduces to point-in-box; leaf containment
    means the stored point is within the leaf half-width of the query on
    every axis (a candidate for the real distance test).
    """
    stats = stats if stats is not None else TraversalStats()
    q = Vec3(float(query[0]), float(query[1]), float(query[2]))
    candidates: list[int] = []
    stack = [bvh.root]
    while stack:
        stats.note_stack_depth(len(stack))
        index = stack.pop()
        node = bvh.nodes[index]
        if node.is_leaf:
            stats.visit_leaf(index)
            candidates.extend(int(p) for p in bvh.leaf_prims(node))
            continue
        stats.visit_box_node(index, len(node.children))
        pushes = 0
        for child_index in node.children:
            if bvh.nodes[child_index].aabb.contains_point(q):
                stack.append(child_index)
                pushes += 1
        stats.stack_op(pushes)
    return candidates


def radius_search(
    bvh: Bvh,
    points: np.ndarray,
    query: np.ndarray,
    radius: float,
    stats: TraversalStats | None = None,
    metric: str = METRIC_EUCLID,
) -> list[tuple[int, float]]:
    """Points within ``radius`` of ``query`` (BVH-NN's search, §V-A).

    The BVH must have been built with ``build_lbvh_for_points(points,
    radius)`` so leaf boxes over-approximate the radius ball; candidates from
    :func:`point_query` are then confirmed with squared Euclidean distance
    tests (the HSU ``POINT_EUCLID`` op).  Results sort by ascending distance.

    ``metric`` may be any :data:`~repro.metrics.transforms.FILTER_METRICS`
    member: the leaf boxes span ``point +- radius``, so the box containment
    test is exactly the Chebyshev filter ``Linf <= radius`` — a valid
    superset for ``euclid`` (``Linf <= L2``) and ``l1`` (``Linf <= L1``)
    alike.  Only the confirm kernel and threshold change: ``euclid`` keeps
    the squared test ``d2 <= radius**2`` (byte-identical default path),
    ``l1``/``linf`` keep ``distance <= radius``.
    """
    stats = stats if stats is not None else TraversalStats()
    validate_metric(metric, allowed=FILTER_METRICS, context="radius_search")
    candidates = point_query(bvh, query, stats)
    threshold = radius * radius if metric == METRIC_EUCLID else radius
    hits: list[tuple[int, float]] = []
    if candidates:
        # One batched HSU distance kernel over the whole candidate set
        # (bit-identical per row to the scalar euclid_dist); the event
        # stream still records one POINT_EUCLID test per candidate in
        # traversal order.
        if metric == METRIC_EUCLID:
            d2s = batch_euclid_dist(query, points[candidates])
        else:
            d2s = batch_metric_dist(query, points[candidates], metric)
        for prim, d2 in zip(candidates, d2s.tolist()):
            stats.test_prim_dist(prim, dim=3)
            if d2 <= threshold:
                hits.append((prim, d2))
    hits.sort(key=lambda pair: pair[1])
    return hits


def point_query_batch(
    bvh: Bvh,
    queries: np.ndarray,
    record_events: bool = False,
    stats: TraversalStats | None = None,
) -> tuple[np.ndarray, np.ndarray, EventLog | None]:
    """Batched :func:`point_query` over a ``(Q, 3)`` query block.

    The traversal itself lives in the kernel backend
    (``bvh_point_query`` — see :mod:`repro.kernels`), which expands the
    whole batch one tree level per step over the tree's cached
    :meth:`~repro.bvh.node.Bvh.flat_topology`, then sorts each query's
    visits back into depth-first order by the nodes' precomputed ranks,
    so a batch of any size takes at most one step per level.  Per query,
    the visit order — and therefore the candidate order and the event
    stream — is *identical* to the scalar loop.

    Returns ``(cand_starts, cand_prims, log)``: candidates of query ``q``
    are ``cand_prims[cand_starts[q] : cand_starts[q + 1]]`` in traversal
    order; ``log`` is the traversal :class:`EventLog` (``None`` unless
    ``record_events``).  ``stats``, when given, accumulates the aggregate
    counters over the whole batch (``max_stack_depth`` included).
    """
    queries = np.asarray(queries, dtype=np.float64)
    num_queries = queries.shape[0]
    empty_log = (
        EventLog.empty(BVH_EVENT_KINDS, num_queries) if record_events else None
    )
    if num_queries == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, np.int64), empty_log
    prim_indices = np.asarray(bvh.prim_indices, dtype=np.int64)
    kernels = get_backend()
    (
        cand_starts, cand_prims,
        ev_codes, ev_idents, ev_payloads, ev_starts,
        counters,
    ) = kernels.bvh_point_query(
        queries, *bvh.flat_topology(), prim_indices, bvh.root,
        record_events, _BOX, _STACK,
    )
    if stats is not None:
        nodes_visited, box_nodes, box_tests, leaf_visits, max_depth = counters
        stats.nodes_visited += nodes_visited
        stats.box_nodes_visited += box_nodes
        stats.box_tests += box_tests
        stats.leaf_visits += leaf_visits
        stats.note_stack_depth(max_depth)
    log = (
        EventLog(BVH_EVENT_KINDS, ev_codes, ev_idents, ev_payloads, ev_starts)
        if record_events
        else None
    )
    return cand_starts, cand_prims, log


def radius_search_batch(
    bvh: Bvh,
    points: np.ndarray,
    queries: np.ndarray,
    radius: float,
    record_events: bool = False,
    stats: TraversalStats | None = None,
    metric: str = METRIC_EUCLID,
) -> BatchResult:
    """Batched :func:`radius_search`: per query, bit-identical results and
    events to the scalar loop.

    Candidate pools from the whole front merge into one row-wise distance
    kernel (:func:`rowwise_euclid_dist` — row-independent, so merging is
    exact); hits filter and sort per query with a stable key, matching the
    scalar path's stable ``sort(key=d2)`` over traversal-ordered hits.
    ``metric`` switches the confirm kernel and threshold exactly as in the
    scalar :func:`radius_search`.
    """
    queries = np.asarray(queries, dtype=np.float64)
    validate_metric(
        metric, allowed=FILTER_METRICS, context="radius_search_batch"
    )
    num_queries = queries.shape[0]
    threshold = radius * radius if metric == METRIC_EUCLID else radius
    cand_starts, cand_prims, travel_log = point_query_batch(
        bvh, queries, record_events=record_events, stats=stats
    )
    cand_qids = np.repeat(
        np.arange(num_queries, dtype=np.int64), np.diff(cand_starts)
    )
    log = travel_log
    if cand_prims.size:
        if metric == METRIC_EUCLID:
            d2 = rowwise_euclid_dist(
                queries[cand_qids], np.asarray(points)[cand_prims]
            )
        else:
            d2 = rowwise_metric_dist(
                queries[cand_qids], np.asarray(points)[cand_prims], metric
            )
        if stats is not None:
            stats.prim_tests += cand_prims.size
        if record_events:
            dist_log = EventLog.from_sorted(
                BVH_EVENT_KINDS,
                np.full(cand_prims.size, _DIST, dtype=np.int64),
                cand_prims,
                np.full(cand_prims.size, 3, dtype=np.int64),
                cand_qids,
                num_queries,
            )
            log = EventLog.concat([travel_log, dist_log])
        keep = d2 <= threshold
        hit_qids = cand_qids[keep]
        hit_prims = cand_prims[keep]
        hit_d2 = d2[keep]
        # lexsort is stable: within a query, equal distances keep
        # traversal order — exactly the scalar list.sort(key=d2).
        order = np.lexsort((hit_d2, hit_qids))
        hit_qids = hit_qids[order]
        hit_prims = hit_prims[order]
        hit_d2 = hit_d2[order]
        hit_counts = np.bincount(hit_qids, minlength=num_queries)
        hit_starts = np.zeros(num_queries + 1, dtype=np.int64)
        np.cumsum(hit_counts, out=hit_starts[1:])
        prim_list = hit_prims.tolist()
        d2_list = hit_d2.tolist()
        neighbors = [
            list(
                zip(
                    prim_list[hit_starts[q] : hit_starts[q + 1]],
                    d2_list[hit_starts[q] : hit_starts[q + 1]],
                )
            )
            for q in range(num_queries)
        ]
    else:
        neighbors = [[] for _ in range(num_queries)]
    return BatchResult(neighbors, log)


def ray_cast(
    bvh: Bvh,
    ray: Ray,
    triangles: list[Triangle],
    stats: TraversalStats | None = None,
    any_hit: Callable[[TriangleHit], bool] | None = None,
) -> TriangleHit | None:
    """Closest-hit ray cast against triangles indexed by ``bvh``.

    ``any_hit``, when given, mirrors the AH shader (§III-A): called on every
    confirmed intersection; returning True terminates traversal immediately
    (shadow rays).  Otherwise the closest hit is returned, shrinking the ray
    interval as hits are found.
    """
    stats = stats if stats is not None else TraversalStats()
    best: TriangleHit | None = None
    t_limit = ray.t_max
    stack = [bvh.root]
    while stack:
        stats.note_stack_depth(len(stack))
        index = stack.pop()
        node = bvh.nodes[index]
        if node.is_leaf:
            stats.visit_leaf(index)
            for prim in bvh.leaf_prims(node):
                stats.test_prim_tri(int(prim))
                hit = intersect_ray_triangle(
                    ray.with_interval(ray.t_min, t_limit), triangles[int(prim)]
                )
                if hit.hit:
                    if any_hit is not None and any_hit(hit):
                        return hit
                    if best is None or hit.t() < best.t():
                        best = hit
                        t_limit = hit.t()
            continue
        stats.visit_box_node(index, len(node.children))
        # Gather child hits, then push farthest-first so the nearest child
        # pops first (the sorted-children behaviour of RAY_INTERSECT).
        child_hits = []
        for child_index in node.children:
            box_hit = intersect_ray_box(
                ray.with_interval(ray.t_min, t_limit), bvh.nodes[child_index].aabb
            )
            if box_hit.hit:
                child_hits.append((box_hit.t_entry, child_index))
        child_hits.sort(reverse=True)
        for _t_entry, child_index in child_hits:
            stack.append(child_index)
        stats.stack_op(len(child_hits))
    return best
