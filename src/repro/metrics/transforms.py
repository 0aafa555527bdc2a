"""Metric vocabulary and Arkade-style space transforms.

Arkade (Mandarapu et al.) reduces kNN under non-Euclidean metrics to the
Euclidean traversal machinery the RT cores already accelerate, two ways:

* **Transform metrics** — cosine: project every point onto the unit
  sphere (:func:`transform_points`), where ``|u - v|^2 = 2 (1 - cos
  theta)`` makes squared Euclidean distance an exact monotone stand-in
  for angular distance.  The traversal is plain Euclidean; the reported
  measure is half the squared chordal distance
  (:func:`cosine_measure_from_sq`).
* **Filter metrics** — L1 and L-infinity: the norm equivalences ``Linf
  <= L2 <= L1`` and ``L2 <= sqrt(d) * Linf`` turn every squared-L2 lower
  bound the tree traversals compute into a valid lower bound for the
  target metric after scaling (:func:`euclid_prune_bound`), so the
  Euclidean traversal prunes safely and an exact metric distance test at
  the leaves (:func:`batch_metric_dist`) recovers the true answer.

Distance arithmetic is delegated to the kernel backend
(:mod:`repro.kernels`) with the same float32 beat semantics as the
Euclidean path.  This module sits below the search substrates: it
imports only :mod:`repro.core`, :mod:`repro.kernels`, and
:mod:`repro.errors`.
"""

from __future__ import annotations

import numpy as np

from repro.core.isa import EUCLID_WIDTH
from repro.errors import ConfigError, DatasetError, IsaError
from repro.kernels import get_backend

#: The Euclidean default — the only metric that existed before the
#: Arkade workload family, and the one every cache key suppresses.
METRIC_EUCLID = "euclid"
#: Manhattan distance (filter metric: ``L2 <= L1``).
METRIC_L1 = "l1"
#: Chebyshev distance (filter metric: ``L2 <= sqrt(d) * Linf``).
METRIC_LINF = "linf"
#: Angular distance ``1 - cos(theta)`` (transform metric: normalize).
METRIC_COSINE = "cosine"

#: Every metric the query surface accepts, default first.
QUERY_METRICS = (METRIC_EUCLID, METRIC_L1, METRIC_LINF, METRIC_COSINE)

#: The non-default metrics the Arkade workload family sweeps.
ARKADE_METRICS = (METRIC_L1, METRIC_LINF, METRIC_COSINE)

#: Metrics whose leaf refine the filter kernels compute directly
#: (cosine refines as Euclidean after :func:`transform_points`).
FILTER_METRICS = (METRIC_EUCLID, METRIC_L1, METRIC_LINF)


def validate_metric(
    metric: str, allowed: tuple[str, ...] = QUERY_METRICS, context: str = ""
) -> str:
    """Return ``metric`` if it is one of ``allowed``, else ``ConfigError``.

    The single validation chokepoint every layer (adapters, ``QuerySpec``,
    ``repro.api.simulate``, campaign jobs) routes metric strings through.
    """
    if metric not in allowed:
        where = f" for {context}" if context else ""
        raise ConfigError(
            f"unknown metric {metric!r}{where}: expected one of {allowed}"
        )
    return metric


def is_transform_metric(metric: str) -> bool:
    """True when the metric rewrites the point set before indexing."""
    return metric == METRIC_COSINE


def transform_points(points: np.ndarray, metric: str) -> np.ndarray:
    """Arkade space transform of an ``(N, dim)`` point block.

    Cosine returns the float32 unit-sphere projection (zero rows stay
    zero, matching the ``denom == 0 -> distance 1.0`` convention of
    :func:`repro.core.ops.angular_distance_from_sums`); every other
    metric returns ``points`` unchanged — *the same object*, so the
    default Euclidean path cannot differ by a byte.
    """
    validate_metric(metric)
    if metric != METRIC_COSINE:
        return points
    rows = np.ascontiguousarray(points, dtype=np.float32)
    if rows.ndim != 2:
        raise IsaError(f"points must be a 2-D block, got shape {rows.shape}")
    return get_backend().normalize_rows(rows)


def transform_query(query: np.ndarray, metric: str) -> np.ndarray:
    """:func:`transform_points` for a single ``(dim,)`` query row."""
    validate_metric(metric)
    if metric != METRIC_COSINE:
        return query
    row = np.ascontiguousarray(query, dtype=np.float32)
    if row.ndim != 1:
        raise IsaError(f"query must be a 1-D point, got shape {row.shape}")
    return get_backend().normalize_rows(row.reshape(1, -1))[0]


def euclid_prune_bound(metric: str, worst: float, dim: int) -> float:
    """Squared-L2 threshold proving a branch cannot beat ``worst``.

    A tree branch whose minimum possible *squared Euclidean* distance is
    at least this bound contains no point within metric distance
    ``worst`` of the query: ``L1 >= L2`` and ``Linf >= L2 / sqrt(d)``.
    For Euclidean (and transformed-cosine) traversals ``worst`` already
    is a squared-L2 measure and passes through unchanged.
    """
    if metric == METRIC_L1:
        return worst * worst
    if metric == METRIC_LINF:
        return dim * (worst * worst)
    return worst


def batch_metric_dist(
    query: np.ndarray,
    candidates: np.ndarray,
    metric: str,
    width: int = EUCLID_WIDTH,
) -> np.ndarray:
    """Leaf-refine measures from one query to an ``(M, dim)`` block.

    ``euclid`` -> squared L2 (the existing kernel, untouched), ``l1`` ->
    Manhattan, ``linf`` -> Chebyshev; all float32 with the HSU beat
    structure.  Cosine callers transform first and refine as Euclidean,
    so it is rejected here.
    """
    validate_metric(metric, allowed=FILTER_METRICS, context="leaf refine")
    q = np.ascontiguousarray(query, dtype=np.float32)
    block = np.ascontiguousarray(candidates, dtype=np.float32)
    if q.ndim != 1 or q.size == 0:
        raise IsaError(f"query must be a non-empty 1-D point, got {q.shape}")
    if block.ndim != 2 or block.shape[1] != q.size:
        raise IsaError(
            f"candidates must be (M, {q.size}), got shape {block.shape}"
        )
    backend = get_backend()
    if metric == METRIC_L1:
        return backend.l1_beats(q, block, width)
    if metric == METRIC_LINF:
        return backend.linf_beats(q, block, width)
    return backend.euclid_beats(q, block, width)


def rowwise_metric_dist(
    qrows: np.ndarray,
    crows: np.ndarray,
    metric: str,
    width: int = EUCLID_WIDTH,
) -> np.ndarray:
    """Merged-pool twin of :func:`batch_metric_dist` (paired row blocks).

    Row ``i`` bit-matches ``batch_metric_dist(qrows[i], [crows[i]],
    metric)[0]`` — the property the batched engines rely on to fuse
    per-query candidate pools into one kernel call.
    """
    validate_metric(metric, allowed=FILTER_METRICS, context="leaf refine")
    q = np.ascontiguousarray(qrows, dtype=np.float32)
    c = np.ascontiguousarray(crows, dtype=np.float32)
    if q.ndim != 2 or q.shape != c.shape or q.shape[1] == 0:
        raise IsaError(f"row-block mismatch: {q.shape} vs {c.shape}")
    backend = get_backend()
    if metric == METRIC_L1:
        return backend.l1_beats_rowwise(q, c, width)
    if metric == METRIC_LINF:
        return backend.linf_beats_rowwise(q, c, width)
    return backend.euclid_beats_rowwise(q, c, width)


def cosine_measure_from_sq(d2):
    """Angular distance from squared Euclidean distance on the sphere.

    ``|u - v|^2 = 2 (1 - cos theta)`` for unit vectors, so halving (an
    exact float operation) converts the traversal's squared-L2 measures
    into ``1 - cos theta`` without perturbing their order.
    """
    return d2 * 0.5


def angular_radius_to_euclid(radius: float) -> float:
    """Euclidean radius on the sphere covering angular distance ``radius``."""
    if radius < 0.0:
        raise ConfigError(f"radius must be non-negative, got {radius}")
    return float(np.sqrt(2.0 * radius))


def brute_force_metric_knn(
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
    metric: str = METRIC_EUCLID,
    width: int = EUCLID_WIDTH,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-metric kNN reference: ``(ids, measures)``, each ``(Q, k)``.

    Scans every point with the same float32 kernel arithmetic the
    traversals use (squared L2 for ``euclid``, L1/Linf refine kernels,
    halved squared chordal distance on normalized rows for ``cosine``),
    then stable-argsorts — the ground truth the Arkade workload verifies
    its traversal answers against, measure for measure.
    """
    validate_metric(metric)
    pts = np.ascontiguousarray(points, dtype=np.float32)
    qs = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    if k < 1 or k > pts.shape[0]:
        raise DatasetError(f"k={k} outside [1, {pts.shape[0]}]")
    if metric == METRIC_COSINE:
        pts = transform_points(pts, metric)
        qs = np.ascontiguousarray(
            transform_points(np.ascontiguousarray(qs), metric)
        )
    ids = np.empty((qs.shape[0], k), dtype=np.int64)
    measures = np.empty((qs.shape[0], k), dtype=np.float32)
    backend = get_backend()
    for row, query in enumerate(qs):
        if metric == METRIC_COSINE:
            dists = cosine_measure_from_sq(
                backend.euclid_beats(query, pts, width)
            )
        elif metric == METRIC_EUCLID:
            dists = backend.euclid_beats(query, pts, width)
        else:
            dists = batch_metric_dist(query, pts, metric, width)
        order = np.argsort(dists, kind="stable")[:k]
        ids[row] = order
        measures[row] = dists[order]
    return ids, measures
