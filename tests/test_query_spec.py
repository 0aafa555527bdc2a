"""QuerySpec: the one query surface, and its error paths.

Every adapter's ``query_batch`` takes ``spec=QuerySpec(...)`` and nothing
else (docs/WORKLOADS.md).  These tests hold a spec *equivalent* to the
substrate's own search with the same parameters — same neighbors for
randomly drawn parameter combinations on every substrate — and pin the
error paths: keyword arguments outside the spec, spec fields a substrate
cannot honor, values no search can run with, metric assertions that
disagree with the build metric, and malformed query blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh.lbvh import build_lbvh_for_points
from repro.bvh.traversal import radius_search
from repro.errors import ConfigError
from repro.graph.hnsw import build_hnsw
from repro.graph.search import search
from repro.kdtree.build import build_kdtree
from repro.kdtree.search import knn_search
from repro.search import (
    BTreeKvIndex,
    BvhRadiusIndex,
    HnswIndex,
    KdTreeIndex,
    QuerySpec,
)
from repro.search.spec import SPEC_FIELDS, resolve_spec
from repro.sharding import ShardedIndex


def _points(count: int, dim: int = 3, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((count, dim)) + 0.1


KD_POINTS = _points(120)
HNSW_POINTS = _points(100, dim=6, seed=1)
BVH_POINTS = _points(120, seed=2)
BVH_RADIUS = 0.6


@pytest.fixture(scope="module")
def kd_index():
    return KdTreeIndex(leaf_size=4).build(KD_POINTS)


@pytest.fixture(scope="module")
def hnsw_index():
    return HnswIndex(seed=0).build(HNSW_POINTS)


@pytest.fixture(scope="module")
def bvh_index():
    return BvhRadiusIndex().build(BVH_POINTS, BVH_RADIUS)


class TestSpecDataclass:
    def test_frozen_and_hashable(self):
        spec = QuerySpec(k=5, max_checks=64)
        assert hash(spec) == hash(QuerySpec(k=5, max_checks=64))
        with pytest.raises(AttributeError):
            spec.k = 6

    def test_named_fields_drop_none(self):
        assert QuerySpec(k=5, metric="l1").named_fields() == {
            "k": 5, "metric": "l1"
        }
        assert QuerySpec().named_fields() == {}

    def test_field_inventory_matches_the_dataclass(self):
        from dataclasses import fields

        assert tuple(f.name for f in fields(QuerySpec)) == SPEC_FIELDS


class TestSurfaceEquivalence:
    """A spec answers exactly like the substrate's own search with the
    same parameters — sampled over the parameter grid, once per
    substrate."""

    def test_kdtree(self, kd_index):
        tree = build_kdtree(KD_POINTS, leaf_size=4)
        rng = np.random.default_rng(3)
        queries = _points(12, seed=4)
        for _ in range(10):
            k = int(rng.integers(1, 12))
            max_checks = int(rng.integers(8, 200))
            batch = kd_index.query_batch(
                queries, spec=QuerySpec(k=k, max_checks=max_checks)
            )
            direct = [knn_search(tree, q, k=k, max_checks=max_checks)
                      for q in queries]
            assert batch.neighbors == direct, (k, max_checks)

    def test_hnsw(self, hnsw_index):
        graph = build_hnsw(HNSW_POINTS, m=12, ef_construction=48, seed=0)
        rng = np.random.default_rng(5)
        queries = _points(8, dim=6, seed=6)
        for _ in range(8):
            k = int(rng.integers(1, 15))
            ef = int(rng.integers(k, 80))
            batch = hnsw_index.query_batch(
                queries, spec=QuerySpec(k=k, ef=ef)
            )
            direct = [search(graph, q, k=k, ef=ef) for q in queries]
            assert batch.neighbors == direct, (k, ef)

    def test_bvh(self, bvh_index):
        """A query radius below the build radius filters the same
        candidate boxes with the tighter threshold."""
        bvh = build_lbvh_for_points(BVH_POINTS, BVH_RADIUS)
        rng = np.random.default_rng(7)
        queries = _points(10, seed=8)
        for _ in range(6):
            radius = float(rng.uniform(0.05, 0.6))
            batch = bvh_index.query_batch(
                queries, spec=QuerySpec(radius=radius)
            )
            direct = [radius_search(bvh, BVH_POINTS, q, radius)
                      for q in queries]
            assert batch.neighbors == direct, radius

    def test_defaults_fill_unpinned_fields(self, kd_index):
        """A spec only pins what it names: QuerySpec(k=3) uses the
        adapter's default max_checks."""
        queries = _points(5, seed=10)
        default = KdTreeIndex.SPEC_DEFAULTS["max_checks"]
        unpinned = kd_index.query_batch(queries, spec=QuerySpec(k=3))
        pinned = kd_index.query_batch(
            queries, spec=QuerySpec(k=3, max_checks=default)
        )
        assert unpinned.neighbors == pinned.neighbors


class TestErrorPaths:
    def test_unknown_legacy_kwarg_is_a_type_error(
        self, kd_index, hnsw_index, bvh_index
    ):
        """Query parameters travel only in the spec: the old per-substrate
        keywords are not part of any signature."""
        for index, keyword in ((kd_index, "k"), (kd_index, "ef"),
                               (hnsw_index, "ef"), (bvh_index, "radius")):
            with pytest.raises(TypeError, match="unexpected keyword"):
                index.query_batch(_points(2, seed=13), **{keyword: 10})

    def test_foreign_spec_field_is_a_config_error(self, kd_index):
        with pytest.raises(ConfigError, match="does not accept"):
            kd_index.query_batch(_points(2, seed=13), spec=QuerySpec(ef=10))

    def test_metric_mismatch_is_a_config_error(self):
        index = KdTreeIndex(metric="l1").build(_points(30, seed=14))
        with pytest.raises(ConfigError, match="metric.*structural"):
            index.query_batch(
                _points(2, seed=15), spec=QuerySpec(k=3, metric="linf")
            )

    def test_matching_metric_assertion_passes(self):
        index = KdTreeIndex(metric="l1").build(_points(30, seed=14))
        result = index.query_batch(
            _points(2, seed=15), spec=QuerySpec(k=3, metric="l1")
        )
        assert len(result) == 2

    def test_resolve_spec_fills_defaults_and_metric(self):
        spec = resolve_spec(
            "probe", QuerySpec(k=7), ("k", "max_checks"),
            {"k": 5, "max_checks": 64}, "linf",
        )
        assert spec == QuerySpec(k=7, max_checks=64, metric="linf")

    @pytest.mark.parametrize("radius", [-0.1, float("nan"), float("inf")])
    def test_radius_must_be_finite_and_nonnegative(self, bvh_index, radius):
        with pytest.raises(ConfigError, match="radius must be"):
            bvh_index.query_batch(
                _points(2, seed=16), spec=QuerySpec(radius=radius)
            )

    @pytest.mark.parametrize("substrate, spec", [
        ("kd", QuerySpec(k=0)),
        ("kd", QuerySpec(k=2.5)),
        ("kd", QuerySpec(k=True)),
        ("kd", QuerySpec(max_checks=0)),
        ("kd", QuerySpec(max_checks=-5)),
        ("hnsw", QuerySpec(ef=0)),
    ])
    def test_counts_must_be_positive_integers(
        self, kd_index, hnsw_index, substrate, spec
    ):
        index, dim = (kd_index, 3) if substrate == "kd" else (hnsw_index, 6)
        with pytest.raises(ConfigError, match="positive integer"):
            index.query_batch(_points(2, dim=dim, seed=17), spec=spec)

    @pytest.mark.parametrize("spec", [QuerySpec(k=8, ef=4), QuerySpec(k=40)])
    def test_ef_below_k_is_a_config_error(self, hnsw_index, spec):
        """Also when ``ef`` is the adapter default (32) and ``k`` is not."""
        with pytest.raises(ConfigError, match="below k"):
            hnsw_index.query_batch(_points(2, dim=6, seed=18), spec=spec)


def _sharded_kd():
    return ShardedIndex(lambda: KdTreeIndex(leaf_size=4), 2).build(KD_POINTS)


#: name -> (fresh built index, point dimension; ``None`` for scalar keys).
BLOCK_CASES = {
    "bvh": (lambda: BvhRadiusIndex().build(BVH_POINTS, BVH_RADIUS), 3),
    "kdtree": (lambda: KdTreeIndex(leaf_size=4).build(KD_POINTS), 3),
    "hnsw": (lambda: HnswIndex(seed=0).build(HNSW_POINTS), 6),
    "btree": (lambda: BTreeKvIndex(branch=4).build(np.arange(50.0)), None),
    "sharded": (_sharded_kd, 3),
}


class TestQueryBlock:
    """Every entry point validates its query block before any kernel
    runs: non-finite values, the wrong rank and the wrong width raise
    :class:`ConfigError`; a zero-row block still answers ``[]``."""

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_malformed_blocks_raise_before_any_kernel(self, name):
        make, dim = BLOCK_CASES[name]
        index = make()
        if dim is None:
            good = np.array([3.0, 7.0, 11.0])
            bad = {
                "nan": np.array([3.0, np.nan]),
                "inf": np.array([np.inf, 7.0]),
                "width": np.ones((3, 2)),
                "rank": np.float64(3.0),
            }
        else:
            good = _points(3, dim=dim, seed=19)
            nan_row, inf_row = good.copy(), good.copy()
            nan_row[1, 0] = np.nan
            inf_row[0, -1] = -np.inf
            bad = {
                "nan": nan_row,
                "inf": inf_row,
                "width": good[:1, :-1] if dim > 1 else np.ones((1, 2)),
                "rank": good[0],
            }
        bad["ragged"] = [[1.0, 2.0], [3.0]]
        for label, block in bad.items():
            with pytest.raises(ConfigError):
                index.query_batch(block)
            assert index.stats()["queries"] == 0, label
        assert index.query_batch(good[:0]).neighbors == []
        assert len(index.query_batch(good)) == len(good)


class TestSimulateValidation:
    """One check of the simulation axes: ``campaign.Job`` construction,
    which ``api.simulate`` and ``simulate_sharded`` both go through."""

    def test_every_axis_rejects_eagerly(self):
        from repro.experiments.campaign import Job

        bad = [
            ("bvhnn", "R10K", dict(variant="turbo")),
            ("bvhnn", "R10K", dict(scale=0.0)),
            ("bvhnn", "R10K", dict(shards=0)),
            ("bvhnn", "R10K", dict(shards=2, shard=2)),
            ("arkade", "R10K", dict(metric="l2")),
            ("nope", "R10K", dict()),
            ("ggnn", "R10K", dict()),
            ("btree", "B+10K", dict(queries=0)),
            ("ggnn", "S10K", dict(shards=2)),
            ("flann", "R10K", dict(scale=2.0)),
            ("flann", "R10K", dict(metric="l1")),
            ("bvhnn", "R10K", dict(shards=4, metric="cosine")),
        ]
        for family, abbr, kwargs in bad:
            axes = {"variant": "hsu", **kwargs}
            with pytest.raises(ConfigError):
                Job(family, abbr, **axes)

    def test_valid_surface_passes(self):
        from repro.experiments.campaign import Job

        Job("bvhnn", "R10K", "baseline", scale=2.0, shards=4, shard=3,
            queries=1)
        Job("arkade", "R10K", "hsu", metric="cosine")
        Job("ggnn", "S10K", "hsu", euclid_width=32, warp_buffer=1)

    def test_simulate_rejects_before_running_any_workload(self):
        from repro import api

        with pytest.raises(ConfigError, match="unknown metric"):
            api.simulate(("flann", "R10K"), metric="l2")
        with pytest.raises(ConfigError, match="unknown variant"):
            api.simulate(("flann", "R10K"), variant="turbo")

    def test_simulate_sharded_routes_through_the_same_path(self):
        from repro.sharding import simulate_sharded

        with pytest.raises(ConfigError):
            simulate_sharded("R10K", shards=0)
        with pytest.raises(ConfigError):
            simulate_sharded("R10K", shards=2, scale=-1.0)
        with pytest.raises(ConfigError):
            simulate_sharded("R10K", shards=2, queries=0)
