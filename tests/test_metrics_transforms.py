"""The metric vocabulary and Arkade space transforms.

The transform layer (``repro.metrics.transforms``) is the numeric
foundation of the non-Euclidean workload family (docs/WORKLOADS.md):
these tests pin its contracts — transform round-trips, the zero-vector
cosine convention, degenerate dimensions, duplicate points, ``k`` out of
range.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, DatasetError, IsaError
from repro.metrics.transforms import (
    ARKADE_METRICS,
    FILTER_METRICS,
    QUERY_METRICS,
    angular_radius_to_euclid,
    batch_metric_dist,
    brute_force_metric_knn,
    cosine_measure_from_sq,
    euclid_prune_bound,
    is_transform_metric,
    rowwise_metric_dist,
    transform_points,
    transform_query,
    validate_metric,
)
from repro.search import KdTreeIndex, QuerySpec


@pytest.fixture(autouse=True, params=["reference"])
def backend_name(request):
    """Every test here runs on the one kernel backend; the parameter
    keeps the ``[reference]`` suffix of the test ids stable."""
    return request.param


def _points(count: int, dim: int = 4, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((count, dim)) + 0.1).astype(np.float32)


class TestVocabulary:
    def test_metric_constants_are_consistent(self):
        assert QUERY_METRICS[0] == "euclid"
        assert set(ARKADE_METRICS) == set(QUERY_METRICS) - {"euclid"}
        assert set(FILTER_METRICS) == set(QUERY_METRICS) - {"cosine"}

    def test_validate_metric_accepts_every_member(self):
        for metric in QUERY_METRICS:
            assert validate_metric(metric) == metric

    def test_validate_metric_rejects_unknown_with_context(self):
        with pytest.raises(ConfigError, match="l2.*probe"):
            validate_metric("l2", context="probe")

    def test_only_cosine_transforms(self):
        assert is_transform_metric("cosine")
        for metric in FILTER_METRICS:
            assert not is_transform_metric(metric)


class TestTransforms:
    @pytest.mark.parametrize("metric", FILTER_METRICS)
    def test_identity_metrics_return_the_same_object(self, metric):
        """The default Euclidean path cannot differ by a byte — identity
        transforms must not even copy."""
        points = _points(10)
        row = points[0]
        assert transform_points(points, metric) is points
        assert transform_query(row, metric) is row

    def test_cosine_rows_land_on_the_unit_sphere(self):
        rows = transform_points(_points(50) * 7.5, "cosine")
        norms = np.linalg.norm(rows.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_cosine_transform_is_near_idempotent(self):
        """Re-normalizing a normalized block stays on the sphere (exact
        idempotence is impossible in float32, but drift is sub-ulp-scale
        and the rows remain unit length)."""
        once = transform_points(_points(50), "cosine")
        twice = transform_points(once, "cosine")
        np.testing.assert_allclose(twice, once, rtol=1e-6)
        norms = np.linalg.norm(twice.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_cosine_zero_rows_stay_zero(self):
        """The ``denom == 0 -> distance 1.0`` convention: zero vectors
        pass through instead of dividing by zero."""
        points = _points(6)
        points[2] = 0.0
        out = transform_points(points, "cosine")
        assert np.array_equal(out[2], np.zeros(points.shape[1]))
        assert np.isfinite(out).all()

    def test_transform_query_matches_transform_points_row(self):
        points = _points(8)
        block = transform_points(points, "cosine")
        for i, row in enumerate(points):
            assert np.array_equal(transform_query(row, "cosine"), block[i])

    def test_shape_errors(self):
        with pytest.raises(IsaError):
            transform_points(np.zeros(3, dtype=np.float32), "cosine")
        with pytest.raises(IsaError):
            transform_query(np.zeros((2, 3), dtype=np.float32), "cosine")


class TestDistances:
    @pytest.mark.parametrize("metric", ["l1", "linf"])
    def test_matches_numpy_definition(self, metric):
        query = _points(1)[0]
        block = _points(40, seed=1)
        got = batch_metric_dist(query, block, metric)
        diff = np.abs(block.astype(np.float64) - query.astype(np.float64))
        want = diff.sum(axis=1) if metric == "l1" else diff.max(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-5)

    @pytest.mark.parametrize("metric", FILTER_METRICS)
    def test_rowwise_bit_matches_the_block_kernel(self, metric):
        """The fusion property the batched engines rely on."""
        qrows = _points(30, seed=2)
        crows = _points(30, seed=3)
        fused = rowwise_metric_dist(qrows, crows, metric)
        for i in range(len(qrows)):
            single = batch_metric_dist(qrows[i], crows[i:i + 1], metric)[0]
            assert fused[i] == single, f"row {i}"

    @pytest.mark.parametrize("metric", FILTER_METRICS)
    def test_duplicate_candidates_tie_exactly(self, metric):
        query = _points(1, seed=4)[0]
        block = np.repeat(_points(5, seed=5), 4, axis=0)
        dists = batch_metric_dist(query, block, metric)
        for group in range(5):
            chunk = dists[group * 4:(group + 1) * 4]
            assert (chunk == chunk[0]).all()

    def test_dim_one_degenerates_to_absolute_difference(self):
        """On 1-D points every filter metric is ``|a - b|`` (squared for
        euclid) — the coincidence the B-tree adapter leans on."""
        query = np.array([0.5], dtype=np.float32)
        block = np.array([[0.1], [0.9], [0.5]], dtype=np.float32)
        want = np.abs(block[:, 0] - query[0])
        np.testing.assert_allclose(
            batch_metric_dist(query, block, "l1"), want, rtol=1e-6
        )
        np.testing.assert_allclose(
            batch_metric_dist(query, block, "linf"), want, rtol=1e-6
        )

    def test_cosine_is_rejected_at_the_leaf_refine(self):
        with pytest.raises(ConfigError, match="leaf refine"):
            batch_metric_dist(_points(1)[0], _points(4), "cosine")
        with pytest.raises(ConfigError, match="leaf refine"):
            rowwise_metric_dist(_points(3), _points(3), "cosine")

    def test_shape_errors(self):
        with pytest.raises(IsaError):
            batch_metric_dist(_points(1)[0], _points(4, dim=3), "l1")
        with pytest.raises(IsaError):
            rowwise_metric_dist(_points(3), _points(4), "l1")


class TestPruneBounds:
    @pytest.mark.parametrize("metric", ["l1", "linf"])
    def test_bound_is_admissible(self, metric):
        """No candidate below the metric threshold may sit at or beyond
        the squared-L2 bound — the invariant that makes the Euclidean
        traversal safe for the filter metrics."""
        rng = np.random.default_rng(6)
        dim = 5
        query = (rng.random(dim) + 0.1).astype(np.float32)
        block = (rng.random((500, dim)) + 0.1).astype(np.float32)
        worst = 0.8
        bound = euclid_prune_bound(metric, worst, dim)
        metric_d = batch_metric_dist(query, block, metric)
        sq_l2 = batch_metric_dist(query, block, "euclid")
        inside = metric_d < worst
        assert (sq_l2[inside] < bound).all()

    def test_euclid_passes_through(self):
        assert euclid_prune_bound("euclid", 0.37, 9) == 0.37

    def test_angular_radius_round_trip(self):
        radius = 0.3
        chordal = angular_radius_to_euclid(radius)
        assert cosine_measure_from_sq(chordal * chordal) == pytest.approx(
            radius
        )
        with pytest.raises(ConfigError):
            angular_radius_to_euclid(-0.1)


class TestBruteForceReference:
    @pytest.mark.parametrize("metric", QUERY_METRICS)
    def test_agrees_with_a_naive_scan(self, metric):
        points = _points(60, seed=7)
        queries = _points(5, seed=8)
        ids, measures = brute_force_metric_knn(points, queries, 3,
                                               metric=metric)
        p64 = points.astype(np.float64)
        for qi, q in enumerate(queries.astype(np.float64)):
            if metric == "cosine":
                pn = p64 / np.linalg.norm(p64, axis=1, keepdims=True)
                qn = q / np.linalg.norm(q)
                naive = 1.0 - pn @ qn
            elif metric == "l1":
                naive = np.abs(p64 - q).sum(axis=1)
            elif metric == "linf":
                naive = np.abs(p64 - q).max(axis=1)
            else:
                naive = ((p64 - q) ** 2).sum(axis=1)
            order = np.argsort(naive, kind="stable")[:3]
            assert set(ids[qi]) == set(order)
            np.testing.assert_allclose(
                np.sort(measures[qi]), np.sort(naive[order]), rtol=1e-4
            )

    @pytest.mark.parametrize("metric", QUERY_METRICS)
    def test_duplicate_points_resolve_by_stable_order(self, metric):
        points = np.repeat(_points(4, seed=9), 3, axis=0)
        ids, measures = brute_force_metric_knn(points, _points(2, seed=10),
                                               3, metric=metric)
        # The 3 nearest are the duplicate triple of one base point, in
        # index order (stable argsort), with identical measures.
        for qi in range(2):
            assert ids[qi].tolist() == sorted(ids[qi].tolist())
            assert (measures[qi] == measures[qi][0]).all()

    def test_k_out_of_range(self):
        points = _points(10)
        queries = _points(2, seed=11)
        with pytest.raises(DatasetError, match="k=11"):
            brute_force_metric_knn(points, queries, 11, metric="l1")
        with pytest.raises(DatasetError, match="k=0"):
            brute_force_metric_knn(points, queries, 0, metric="l1")


class TestIndexMetricContracts:
    @pytest.mark.parametrize("metric", QUERY_METRICS)
    def test_exact_index_search_equals_brute_force(self, metric):
        points = _points(80, seed=12)
        queries = _points(6, seed=13)
        index = KdTreeIndex(leaf_size=4, metric=metric).build(points)
        spec = QuerySpec(k=4, max_checks=index.num_points)
        result = index.query_batch(queries, spec=spec)
        truth_ids, truth_measures = brute_force_metric_knn(
            points, queries, 4, metric=metric
        )
        for qi, row in enumerate(result.neighbors):
            assert [pid for pid, _ in row] == truth_ids[qi].tolist()
            assert np.array_equal(
                np.array([m for _, m in row], dtype=np.float32),
                truth_measures[qi],
            )

    @pytest.mark.parametrize("metric", ARKADE_METRICS)
    def test_k_larger_than_n_returns_every_point(self, metric):
        points = _points(7, seed=14)
        index = KdTreeIndex(leaf_size=2, metric=metric).build(points)
        spec = QuerySpec(k=20, max_checks=1000)
        result = index.query_batch(_points(3, seed=15), spec=spec)
        for row in result.neighbors:
            assert len(row) == 7
            assert sorted(pid for pid, _ in row) == list(range(7))
