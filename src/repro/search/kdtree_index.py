"""k-d tree adapter: FLANN-style bounded kNN behind :class:`SearchIndex`.

The metric axis rides the Arkade reductions: ``cosine`` normalizes the
point set at build time (:func:`~repro.metrics.transforms.transform_points`)
and traverses as plain Euclidean, halving the squared chordal measures
back into ``1 - cos(theta)`` on the way out; ``l1``/``linf`` index the raw
points and keep the Euclidean traversal bounds, switching only the leaf
distance kernel and the prune threshold (the norm-equivalence filter).
With ``max_checks >= num_points`` the answers are exact under every
metric.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BuildError
from repro.kdtree.build import build_kdtree
from repro.kdtree.search import (
    EVENT_LEAF_DIST,
    EVENT_PLANE_TEST,
    KdSearchStats,
    knn_search_batch,
)
from repro.metrics.transforms import (
    METRIC_COSINE,
    METRIC_EUCLID,
    cosine_measure_from_sq,
    transform_points,
    validate_metric,
)
from repro.search.base import Neighbor
from repro.search.events import BatchResult
from repro.search.spec import QuerySpec, query_block, resolve_spec


class KdTreeIndex:
    """Bounded-backtracking kNN over a k-d tree (the FLANN substrate)."""

    EVENT_PLANE_TEST = EVENT_PLANE_TEST
    EVENT_LEAF_DIST = EVENT_LEAF_DIST

    #: QuerySpec fields this substrate honors, and their defaults.
    SPEC_FIELDS = ("k", "max_checks")
    SPEC_DEFAULTS = {"k": 5, "max_checks": 64}

    def __init__(self, leaf_size: int = 8,
                 metric: str = METRIC_EUCLID) -> None:
        self.leaf_size = leaf_size
        self.metric = validate_metric(metric, context="KdTreeIndex")
        # Cosine traverses the transformed (unit-sphere) points as plain
        # Euclidean; the filter metrics traverse as themselves.
        self._search_metric = (
            METRIC_EUCLID if metric == METRIC_COSINE else metric
        )
        self._tree = None
        self._queries = 0
        self._plane_tests = 0
        self._dist_tests = 0

    def build(self, points: np.ndarray) -> "KdTreeIndex":
        points = np.asarray(points, dtype=np.float64)
        if self.metric == METRIC_COSINE:
            # float32 normalization (the backend kernel), widened back so
            # the tree's float64 splits see exactly the refine operands.
            points = transform_points(points, self.metric).astype(np.float64)
        self._tree = build_kdtree(points, leaf_size=self.leaf_size)
        return self

    def _as_cosine(self, neighbors: list[Neighbor]) -> list[Neighbor]:
        """Squared chordal -> angular measures (exact halving)."""
        return [(pid, cosine_measure_from_sq(d2)) for pid, d2 in neighbors]

    def query_batch(
        self,
        queries: np.ndarray,
        spec: QuerySpec | None = None,
        record_events: bool = False,
    ) -> BatchResult:
        """``k`` nearest ``(point id, measure)`` per row of a ``(Q, dim)``
        query block, under the FLANN ``max_checks`` backtracking budget;
        measures are squared L2 for ``euclid``, the metric distance
        otherwise.

        Per query, neighbors and events are bit-identical to
        :func:`~repro.kdtree.search.knn_search` on the built tree.
        """
        call = "KdTreeIndex.query_batch"
        if self._tree is None:
            raise BuildError("query_batch before build")
        spec = resolve_spec(
            call, spec, self.SPEC_FIELDS, self.SPEC_DEFAULTS, self.metric,
        )
        queries = query_block(call, queries, self._tree.dim)
        if self.metric == METRIC_COSINE:
            queries = transform_points(queries, self.metric).astype(
                np.float64
            )
        stats = KdSearchStats()
        result = knn_search_batch(
            self._tree, queries, k=spec.k, max_checks=spec.max_checks,
            record_events=record_events, stats=stats,
            metric=self._search_metric,
        )
        self._queries += len(result)
        self._plane_tests += stats.plane_tests
        self._dist_tests += stats.dist_tests
        if self.metric == METRIC_COSINE:
            result = BatchResult(
                [self._as_cosine(row) for row in result.neighbors],
                result.events,
            )
        return result

    def stats(self) -> dict[str, object]:
        return {
            "structure": "kdtree",
            "leaf_size": self.leaf_size,
            "metric": self.metric,
            "num_nodes": self.num_nodes,
            "num_points": 0 if self._tree is None else self._tree.num_points,
            "queries": self._queries,
            "plane_tests": self._plane_tests,
            "dist_tests": self._dist_tests,
        }

    # -- layout hooks -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return 0 if self._tree is None else len(self._tree.nodes)

    @property
    def num_points(self) -> int:
        if self._tree is None:
            raise BuildError("num_points before build")
        return self._tree.num_points

    @property
    def point_indices(self) -> np.ndarray:
        """Leaf-ordered point layout (contiguous leaf scans)."""
        if self._tree is None:
            raise BuildError("point_indices before build")
        return self._tree.point_indices

    @property
    def points(self) -> np.ndarray:
        if self._tree is None:
            raise BuildError("points before build")
        return self._tree.points
