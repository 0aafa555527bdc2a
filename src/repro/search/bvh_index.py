"""BVH adapter: RTNN-style radius search behind :class:`SearchIndex`.

The metric axis rides the leaf-box geometry: boxes span ``point +-
build_radius``, so the box containment test *is* the Chebyshev filter
``Linf <= r`` — a valid candidate superset for every filter metric
(``Linf <= L2`` and ``Linf <= L1``), and exact for ``linf`` itself.
``cosine`` normalizes the point set at build time and converts the
angular radius ``a`` into the chordal Euclidean radius ``sqrt(2a)``
(the Arkade space transform), halving squared chordal measures back to
``1 - cos(theta)`` on the way out.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.collapse import collapse_to_bvh4
from repro.bvh.lbvh import build_lbvh_for_points
from repro.bvh.sah import build_sah
from repro.bvh.traversal import (
    EVENT_BOX_NODE,
    EVENT_LEAF_DIST,
    EVENT_STACK_OP,
    TraversalStats,
    radius_search_batch,
)
from repro.errors import BuildError, ConfigError
from repro.metrics.transforms import (
    METRIC_COSINE,
    METRIC_EUCLID,
    angular_radius_to_euclid,
    cosine_measure_from_sq,
    transform_points,
    validate_metric,
)
from repro.search.base import Neighbor
from repro.search.events import BatchResult
from repro.search.spec import QuerySpec, query_block, resolve_spec


class BvhRadiusIndex:
    """Radius search over a point BVH (the BVH-NN substrate, §V-A).

    ``builder`` selects the construction algorithm (``"lbvh"`` — the
    paper's fast Morton/Karras build — or ``"sah"``, the binned-SAH
    quality build of the §VI-E ablation); ``arity=4`` collapses the binary
    tree into the BVH4 the RT unit tests four boxes per instruction
    against.
    """

    EVENT_BOX_NODE = EVENT_BOX_NODE
    EVENT_LEAF_DIST = EVENT_LEAF_DIST
    EVENT_STACK_OP = EVENT_STACK_OP

    #: QuerySpec fields this substrate honors (query-time radius only;
    #: it must not exceed the build radius, which sized the leaf boxes).
    SPEC_FIELDS = ("radius",)
    SPEC_DEFAULTS: dict[str, object] = {}

    def __init__(self, builder: str = "lbvh", arity: int = 2,
                 leaf_size: int = 1,
                 metric: str = METRIC_EUCLID) -> None:
        if builder not in ("lbvh", "sah"):
            raise BuildError(f"unknown builder {builder!r}")
        if arity not in (2, 4):
            raise BuildError(f"arity must be 2 or 4, got {arity}")
        self.builder = builder
        self.arity = arity
        self.leaf_size = leaf_size
        self.metric = validate_metric(metric, context="BvhRadiusIndex")
        # Cosine traverses the normalized points as plain Euclidean with
        # the chordal radius; the filter metrics traverse as themselves.
        self._search_metric = (
            METRIC_EUCLID if metric == METRIC_COSINE else metric
        )
        self._bvh = None
        self._points: np.ndarray | None = None
        self.radius = 0.0
        self._queries = 0
        self._box_tests = 0
        self._dist_tests = 0

    def _filter_radius(self, radius: float) -> float:
        """The Euclidean-space radius the traversal thresholds against."""
        if self.metric == METRIC_COSINE:
            return angular_radius_to_euclid(radius)
        return radius

    def build(self, points: np.ndarray, radius: float) -> "BvhRadiusIndex":
        """Index ``points`` with leaf boxes of half-width ``radius``.

        ``radius`` is in metric units (angular measure ``1 - cos(theta)``
        for ``cosine``); the leaf boxes are sized from its Euclidean-space
        equivalent so box containment stays a valid candidate filter.
        """
        points = np.asarray(points, dtype=np.float64)
        if self.metric == METRIC_COSINE:
            points = transform_points(points, self.metric).astype(np.float64)
        box_radius = self._filter_radius(radius)
        if self.builder == "lbvh":
            bvh = build_lbvh_for_points(points, box_radius,
                                        leaf_size=self.leaf_size)
        else:
            from repro.geometry.aabb import Aabb

            boxes = [Aabb.around_point(p, box_radius) for p in points]
            bvh = build_sah(boxes, leaf_size=self.leaf_size)
        if self.arity == 4:
            bvh = collapse_to_bvh4(bvh)
        self._bvh = bvh
        self._points = points
        self.radius = radius
        return self

    def _resolve_radius(self, call: str, spec: QuerySpec) -> float:
        radius = self.radius if spec.radius is None else float(spec.radius)
        if radius > self.radius:
            raise ConfigError(
                f"{call}(): query radius {radius} exceeds the build radius "
                f"{self.radius}, which sized the leaf-box candidate filter"
            )
        return self._filter_radius(radius)

    def _as_cosine(self, neighbors: list[Neighbor]) -> list[Neighbor]:
        """Squared chordal -> angular measures (exact halving)."""
        return [(pid, cosine_measure_from_sq(d2)) for pid, d2 in neighbors]

    def query_batch(
        self,
        queries: np.ndarray,
        spec: QuerySpec | None = None,
        record_events: bool = False,
    ) -> BatchResult:
        """All (point id, measure) within the radius of each row of a
        ``(Q, 3)`` query block, ascending by measure — squared L2 for
        ``euclid``, the metric distance for ``l1``/``linf``,
        ``1 - cos(theta)`` for ``cosine``.

        Per query, neighbors and events are bit-identical to
        :func:`~repro.bvh.traversal.radius_search` on the built tree; the
        lockstep kernels advance the whole front per step.
        """
        call = "BvhRadiusIndex.query_batch"
        if self._bvh is None:
            raise BuildError("query_batch before build")
        spec = resolve_spec(
            call, spec, self.SPEC_FIELDS, self.SPEC_DEFAULTS, self.metric,
        )
        radius = self._resolve_radius(call, spec)
        queries = query_block(call, queries, self._points.shape[1])
        if self.metric == METRIC_COSINE:
            queries = transform_points(queries, self.metric).astype(
                np.float64
            )
        stats = TraversalStats()
        result = radius_search_batch(
            self._bvh, self._points, queries, radius,
            record_events=record_events, stats=stats,
            metric=self._search_metric,
        )
        self._queries += len(result)
        self._box_tests += stats.box_tests
        self._dist_tests += stats.prim_tests
        if self.metric == METRIC_COSINE:
            result = BatchResult(
                [self._as_cosine(row) for row in result.neighbors],
                result.events,
            )
        return result

    def stats(self) -> dict[str, object]:
        return {
            "structure": "bvh",
            "builder": self.builder,
            "arity": self.arity,
            "radius": self.radius,
            "metric": self.metric,
            "num_nodes": self.num_nodes,
            "num_points": 0 if self._points is None else len(self._points),
            "queries": self._queries,
            "box_tests": self._box_tests,
            "dist_tests": self._dist_tests,
        }

    # -- layout hooks the trace compiler addresses memory through ---------

    @property
    def num_nodes(self) -> int:
        return 0 if self._bvh is None else self._bvh.num_nodes

    @property
    def node_arity(self) -> int:
        """The built tree's arity (equals the configured ``arity``)."""
        if self._bvh is None:
            raise BuildError("node_arity before build")
        return self._bvh.arity

    @property
    def prim_indices(self) -> np.ndarray:
        """Morton-sorted primitive order (the leaf-data memory layout)."""
        if self._bvh is None:
            raise BuildError("prim_indices before build")
        return self._bvh.prim_indices

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            raise BuildError("points before build")
        return self._points
