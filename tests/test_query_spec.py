"""QuerySpec == legacy kwargs, plus the consolidated error surface.

The consolidated query surface (docs/WORKLOADS.md): every adapter's
``query``/``query_batch`` accepts ``spec=QuerySpec(...)``; the legacy
per-substrate keywords keep working through a shim that emits a
``DeprecationWarning`` naming the exact replacement.  These tests hold
the two surfaces *equivalent* — same neighbors for randomly drawn
parameter combinations on every substrate — and pin the error paths:
mixing surfaces, unknown legacy names, spec fields a substrate cannot
honor, and metric assertions that disagree with the build metric.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.search import (
    BTreeKvIndex,
    BvhRadiusIndex,
    HnswIndex,
    KdTreeIndex,
    QuerySpec,
)
from repro.search.spec import SPEC_FIELDS, resolve_spec


def _points(count: int, dim: int = 3, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((count, dim)) + 0.1


@pytest.fixture(scope="module")
def kd_index():
    return KdTreeIndex(leaf_size=4).build(_points(120))


@pytest.fixture(scope="module")
def hnsw_index():
    return HnswIndex(seed=0).build(_points(100, dim=6, seed=1))


@pytest.fixture(scope="module")
def bvh_index():
    return BvhRadiusIndex().build(_points(120, seed=2), 0.6)


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
    """Legacy kwargs and specs resolve to identical answers — sampled
    over the parameter grid, once per substrate."""

    def test_kdtree(self, kd_index):
        rng = np.random.default_rng(3)
        queries = _points(12, seed=4)
        for _ in range(10):
            k = int(rng.integers(1, 12))
            max_checks = int(rng.integers(8, 200))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                legacy = kd_index.query_batch(
                    queries, k=k, max_checks=max_checks
                )
            spec = kd_index.query_batch(
                queries, spec=QuerySpec(k=k, max_checks=max_checks)
            )
            assert legacy.neighbors == spec.neighbors, (k, max_checks)

    def test_hnsw(self, hnsw_index):
        rng = np.random.default_rng(5)
        queries = _points(8, dim=6, seed=6)
        for _ in range(8):
            k = int(rng.integers(1, 15))
            ef = int(rng.integers(k, 80))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                legacy = hnsw_index.query_batch(queries, k=k, ef=ef)
            spec = hnsw_index.query_batch(
                queries, spec=QuerySpec(k=k, ef=ef)
            )
            assert legacy.neighbors == spec.neighbors, (k, ef)

    def test_bvh(self, bvh_index):
        rng = np.random.default_rng(7)
        queries = _points(10, seed=8)
        for _ in range(6):
            radius = float(rng.uniform(0.05, 0.6))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                legacy = bvh_index.query_batch(queries, radius=radius)
            spec = bvh_index.query_batch(
                queries, spec=QuerySpec(radius=radius)
            )
            assert legacy.neighbors == spec.neighbors, radius

    def test_scalar_query_matches_too(self, kd_index):
        q = _points(1, seed=9)[0]
        with pytest.warns(DeprecationWarning):
            legacy = kd_index.query(q, k=3, max_checks=50)
        spec = kd_index.query(q, spec=QuerySpec(k=3, max_checks=50))
        assert legacy == spec

    def test_defaults_fill_unpinned_fields(self, kd_index):
        """A spec only pins what it names: QuerySpec(k=3) uses the
        adapter's default max_checks, exactly like k=3 alone did."""
        queries = _points(5, seed=10)
        with pytest.warns(DeprecationWarning):
            legacy = kd_index.query_batch(queries, k=3)
        spec = kd_index.query_batch(queries, spec=QuerySpec(k=3))
        assert legacy.neighbors == spec.neighbors


class TestDeprecationShim:
    def test_warning_names_the_exact_replacement(self, kd_index):
        with pytest.warns(DeprecationWarning) as caught:
            kd_index.query_batch(_points(2, seed=11), k=4, max_checks=32)
        message = str(caught[0].message)
        assert "spec=QuerySpec(k=4, max_checks=32)" in message
        assert "KdTreeIndex.query_batch" in message

    def test_spec_calls_never_warn(self, kd_index):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            kd_index.query_batch(
                _points(2, seed=12), spec=QuerySpec(k=4, max_checks=32)
            )

    def test_btree_has_no_legacy_fields(self):
        keys = np.arange(0.0, 50.0, 1.0)
        index = BTreeKvIndex(branch=4).build(keys)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            index.query_batch(np.array([3.0, 99.5]), spec=QuerySpec())


class TestErrorPaths:
    def test_mixing_surfaces_is_a_config_error(self, kd_index):
        with pytest.raises(ConfigError, match="both spec= and legacy"):
            kd_index.query_batch(
                _points(2, seed=13), spec=QuerySpec(k=3), max_checks=10
            )

    def test_unknown_legacy_kwarg_is_a_type_error(self, kd_index):
        with pytest.raises(TypeError, match="unexpected keyword"):
            kd_index.query_batch(_points(2, seed=13), ef=10)

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
            "probe", QuerySpec(k=7), {}, ("k", "max_checks"),
            {"k": 5, "max_checks": 64}, "linf",
        )
        assert spec == QuerySpec(k=7, max_checks=64, metric="linf")


class TestSimulateValidation:
    """The eager, single-path kwarg validation on the api surface."""

    def test_every_axis_rejects_eagerly(self):
        from repro import api

        bad = [
            dict(variant="turbo"),
            dict(config="not-a-config"),
            dict(cache="sometimes"),
            dict(scale=0.0),
            dict(shards=0),
            dict(shards=2, shard=2),
            dict(metric="l2"),
        ]
        for kwargs in bad:
            with pytest.raises(ConfigError):
                api.validate_simulate_args(**kwargs)

    def test_valid_surface_passes(self):
        from repro import api
        from repro.gpusim import VOLTA_V100

        api.validate_simulate_args(
            variant="baseline", config=VOLTA_V100, cache="off",
            scale=2.0, shards=4, shard=3,
            metric="cosine",
        )

    def test_named_false_relaxes_the_variant_check(self):
        from repro import api

        api.validate_simulate_args(variant="sched-lrr", named=False)
        with pytest.raises(ConfigError):
            api.validate_simulate_args(variant="sched-lrr", named=True)

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
