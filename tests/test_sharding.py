"""Sharded execution: bit-identical merges, partitioners, interconnect.

The load-bearing contract (ISSUE 7 / docs/SHARDING.md): a
:class:`repro.sharding.ShardedIndex` must answer ``query_batch`` exactly
like the unsharded substrate index over the same points — for all four
substrates, including empty shards, duplicate points, and ``k`` larger
than any one shard.  The exactness conditions (k-d ``max_checks`` must
not truncate; ties at the k boundary; HNSW ``ef`` saturation) are the
documented ones.
"""

import numpy as np
import pytest

from repro.errors import BuildError, ConfigError
from repro.search import (
    BTreeKvIndex,
    BvhRadiusIndex,
    HnswIndex,
    KdTreeIndex,
    QuerySpec,
)
from repro.sharding import (
    COORD_BYTES,
    RESULT_BYTES,
    HashPartitioner,
    Interconnect,
    InterconnectConfig,
    KeyRangePartitioner,
    MortonRangePartitioner,
    ShardedIndex,
    ShardingMetrics,
    canonical_sharding_name,
    partitioner_for,
)


def _points(count: int, seed: int = 0, dim: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(count, dim))


def _queries(count: int, seed: int = 1, dim: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(count, dim))


def _assert_disjoint_covering(shard_ids, count):
    merged = np.concatenate(shard_ids)
    assert merged.shape[0] == count
    assert np.array_equal(np.sort(merged), np.arange(count))


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------


class TestPartitioners:
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_morton_disjoint_covering_deterministic(self, shards):
        points = _points(200)
        part = MortonRangePartitioner()
        first = part.partition(points, shards)
        _assert_disjoint_covering(first, 200)
        second = part.partition(points, shards)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_morton_needs_3d(self):
        with pytest.raises(ConfigError):
            MortonRangePartitioner().partition(_points(10, dim=2), 2)

    def test_morton_coincident_points_keep_ascending_ids(self):
        """Stable sort: equal Morton codes stay in ascending-id order."""
        base = _points(8)
        points = np.concatenate([base, base])  # ids 8..15 duplicate 0..7
        ranges = MortonRangePartitioner().partition(points, 1)[0]
        for original in range(8):
            first = np.flatnonzero(ranges == original)[0]
            second = np.flatnonzero(ranges == original + 8)[0]
            assert first < second

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_hash_disjoint_covering_and_seeded(self, shards):
        points = _points(300)
        split = HashPartitioner(seed=0).partition(points, shards)
        _assert_disjoint_covering(split, 300)
        again = HashPartitioner(seed=0).partition(points, shards)
        for a, b in zip(split, again):
            assert np.array_equal(a, b)
        if shards > 1:
            reseeded = HashPartitioner(seed=7).partition(points, shards)
            assert any(
                not np.array_equal(a, b) for a, b in zip(split, reseeded)
            )

    def test_key_range_never_splits_duplicate_runs(self):
        keys = np.repeat(np.arange(10.0), 7)  # 70 keys, runs of 7
        split = KeyRangePartitioner().partition(keys, 4)
        _assert_disjoint_covering(split, 70)
        for ids in split:
            if ids.shape[0] == 0:
                continue
            owned = set(keys[ids].tolist())
            for other in split:
                if other is ids or other.shape[0] == 0:
                    continue
                assert owned.isdisjoint(set(keys[other].tolist()))

    def test_partitioner_for_mapping(self):
        assert isinstance(partitioner_for("bvh"), MortonRangePartitioner)
        assert isinstance(partitioner_for("kdtree"), MortonRangePartitioner)
        assert isinstance(partitioner_for("hnsw"), HashPartitioner)
        assert isinstance(partitioner_for("btree"), KeyRangePartitioner)
        with pytest.raises(ConfigError):
            partitioner_for("quadtree")

    def test_bad_shard_count(self):
        with pytest.raises(ConfigError):
            MortonRangePartitioner().partition(_points(4), 0)


# ---------------------------------------------------------------------------
# Interconnect cost model
# ---------------------------------------------------------------------------


class TestInterconnect:
    def test_crossbar_hops(self):
        fabric = Interconnect(4)
        assert [fabric.hops(s) for s in range(4)] == [1, 1, 1, 1]

    def test_ring_hops_shortest_way_around(self):
        fabric = Interconnect(4, InterconnectConfig(topology="ring"))
        # host at slot 0 of a 5-ring: shards sit 1, 2, 2, 1 hops away.
        assert [fabric.hops(s) for s in range(4)] == [1, 2, 2, 1]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            InterconnectConfig(topology="torus").validate()
        with pytest.raises(ConfigError):
            InterconnectConfig(link_bytes_per_cycle=0).validate()
        with pytest.raises(ConfigError):
            Interconnect(0)

    def test_scatter_volume_and_critical_path(self):
        fabric = Interconnect(
            2, InterconnectConfig(link_bytes_per_cycle=8,
                                  hop_latency_cycles=10)
        )
        bytes_, cycles = fabric.scatter([3, 5], query_bytes=4)
        assert bytes_ == (3 + 5) * 4
        # slowest shard: 1 hop * 10 + ceil(20 / 8) = 13 cycles.
        assert cycles == 13

    def test_empty_shards_cost_nothing(self):
        fabric = Interconnect(3)
        bytes_, cycles = fabric.gather([0, 0, 0], RESULT_BYTES)
        assert (bytes_, cycles) == (0, 0)

    def test_merge_is_free_on_one_shard(self):
        assert Interconnect(1).merge(1000) == (0, 0)

    def test_merge_tournament_depth(self):
        ops, cycles = Interconnect(
            8, InterconnectConfig(merge_ops_per_cycle=4)
        ).merge(10)
        assert ops == 10 * 3  # ceil(log2(8)) comparisons per candidate
        assert cycles == 8  # ceil(30 / 4)


# ---------------------------------------------------------------------------
# Bit-identical equivalence, per substrate
# ---------------------------------------------------------------------------


class TestBvhEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_matches_unsharded_with_duplicates(self, shards):
        base = _points(300, seed=2)
        points = np.concatenate([base, base[:20]])  # coincident points
        radius = 0.25
        reference = BvhRadiusIndex().build(points, radius)
        sharded = ShardedIndex(BvhRadiusIndex, shards).build(
            points, radius=radius
        )
        queries = _queries(40)
        expected = reference.query_batch(queries).neighbors
        got = sharded.query_batch(queries).neighbors
        assert got == expected

    def test_more_shards_than_points(self):
        points = _points(3, seed=5)
        reference = BvhRadiusIndex().build(points, 1.0)
        sharded = ShardedIndex(BvhRadiusIndex, 8).build(points, radius=1.0)
        assert 0 in sharded.shard_sizes()  # some shards really are empty
        queries = _queries(10)
        assert (
            sharded.query_batch(queries).neighbors
            == reference.query_batch(queries).neighbors
        )


class TestKdEquivalence:
    @pytest.mark.parametrize("shards,k", [(2, 5), (3, 7)])
    def test_matches_unsharded_when_search_is_exact(self, shards, k):
        """Exact when max_checks doesn't truncate and data is tie-free."""
        points = _points(250, seed=3)
        reference = KdTreeIndex().build(points)
        sharded = ShardedIndex(KdTreeIndex, shards).build(points)
        queries = _queries(30)
        params = {"k": k, "max_checks": 100_000}
        assert (
            sharded.query_batch(queries, spec=QuerySpec(**params)).neighbors
            == reference.query_batch(queries, spec=QuerySpec(**params)).neighbors
        )

    @pytest.mark.parametrize("metric", ["l1", "linf", "cosine"])
    def test_non_euclid_metrics_match_unsharded(self, metric):
        """The metric axis composes with sharding: per-shard candidates
        merge on the transformed-space key, so the sharded answer is the
        unsharded one for every Arkade metric (positive points keep the
        cosine normalization well-defined)."""
        rng = np.random.default_rng(9)
        points = rng.random((250, 3)) + 0.1
        queries = rng.random((30, 3)) + 0.1
        reference = KdTreeIndex(metric=metric).build(points)
        sharded = ShardedIndex(
            lambda: KdTreeIndex(metric=metric), 3
        ).build(points)
        params = {"k": 5, "max_checks": 100_000}
        assert (
            sharded.query_batch(queries, spec=QuerySpec(**params)).neighbors
            == reference.query_batch(queries, spec=QuerySpec(**params)).neighbors
        )

    def test_duplicates_match_when_k_covers_the_tie_set(self):
        """Boundary ties resolve by discovery order, which differs between
        the local and global trees — exact only when k spans the ties
        (docs/SHARDING.md exactness conditions)."""
        base = _points(160, seed=4)
        points = np.concatenate([base, base])
        reference = KdTreeIndex().build(points)
        sharded = ShardedIndex(KdTreeIndex, 4).build(points)
        queries = _queries(10)
        params = {"k": 320, "max_checks": 100_000}
        ref = reference.query_batch(queries, spec=QuerySpec(**params)).neighbors
        got = sharded.query_batch(queries, spec=QuerySpec(**params)).neighbors
        for ref_row, got_row in zip(ref, got):
            assert sorted(ref_row) == sorted(got_row)

    def test_empty_shards(self):
        points = _points(3, seed=6)
        reference = KdTreeIndex().build(points)
        sharded = ShardedIndex(KdTreeIndex, 8).build(points)
        queries = _queries(5)
        params = {"k": 3, "max_checks": 100}
        assert (
            sharded.query_batch(queries, spec=QuerySpec(**params)).neighbors
            == reference.query_batch(queries, spec=QuerySpec(**params)).neighbors
        )


class TestHnswEquivalence:
    @pytest.mark.parametrize("shards,k", [(2, 10), (4, 25)])
    def test_matches_unsharded_when_ef_saturates(self, shards, k):
        points = _points(120, seed=7, dim=8)
        factory = lambda: HnswIndex(seed=0)  # noqa: E731
        reference = factory().build(points)
        sharded = ShardedIndex(factory, shards).build(points)
        queries = _queries(15, dim=8)
        params = {"k": k, "ef": 1000}  # ef > N: per-shard search is exact
        assert (
            sharded.query_batch(queries, spec=QuerySpec(**params)).neighbors
            == reference.query_batch(queries, spec=QuerySpec(**params)).neighbors
        )


class TestBtreeEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_ranks_values_and_misses(self, shards):
        rng = np.random.default_rng(8)
        keys = rng.permutation(np.arange(0.0, 400.0, 2.0))  # unique, even
        values = (2 * np.arange(keys.shape[0]) + 1).astype(np.int64)
        reference = BTreeKvIndex(branch=8).build(keys, values=values)
        sharded = ShardedIndex(
            lambda: BTreeKvIndex(branch=8), shards
        ).build(keys, values=values)
        hits = rng.choice(keys, size=30)
        misses = rng.choice(keys, size=10) + 1.0  # odd: never present
        probes = rng.permutation(np.concatenate([hits, misses]))
        assert (
            sharded.query_batch(probes).neighbors
            == reference.query_batch(probes).neighbors
        )

    def test_more_shards_than_keys(self):
        keys = np.array([5.0, 1.0, 9.0])
        reference = BTreeKvIndex(branch=4).build(keys)
        sharded = ShardedIndex(lambda: BTreeKvIndex(branch=4), 8).build(keys)
        probes = np.array([1.0, 5.0, 9.0, 0.0, 7.0, 99.0])
        assert (
            sharded.query_batch(probes).neighbors
            == reference.query_batch(probes).neighbors
        )


# ---------------------------------------------------------------------------
# Event-log merging
# ---------------------------------------------------------------------------


class TestEventMerging:
    def test_broadcast_events_concat_per_query(self):
        points = _points(100, seed=9)
        reference = BvhRadiusIndex().build(points, 0.3)
        sharded = ShardedIndex(BvhRadiusIndex, 3).build(points, radius=0.3)
        queries = _queries(12)
        ref = reference.query_batch(queries, record_events=True).events
        got = sharded.query_batch(queries, record_events=True).events
        assert got is not None
        assert got.kinds == ref.kinds
        assert len(got.counts()) == len(ref.counts())
        # every shard's traversal contributes: the sharded log has at least
        # as many events (3 root visits instead of 1, etc).
        assert got.counts().sum() >= ref.counts().sum()

    def test_routed_events_carry_global_qids(self):
        keys = np.arange(0.0, 64.0)
        sharded = ShardedIndex(lambda: BTreeKvIndex(branch=4), 4).build(keys)
        probes = np.array([63.0, 0.0, 17.0, 40.0])
        result = sharded.query_batch(probes, record_events=True)
        events = result.events
        assert events is not None
        assert len(events.counts()) == 4
        assert all(count > 0 for count in events.counts())


# ---------------------------------------------------------------------------
# Interconnect accounting + metrics + stats
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_broadcast_accounting(self):
        points = _points(200, seed=10)
        metrics = ShardingMetrics()
        sharded = ShardedIndex(
            BvhRadiusIndex, 4, metrics=metrics, name="points"
        ).build(points, radius=0.3)
        queries = _queries(40)
        result = sharded.query_batch(queries)
        totals = sharded.stats()["interconnect"]
        assert totals["fanout_queries"] == 4 * 40
        assert totals["scatter_bytes"] == 4 * 40 * 3 * COORD_BYTES
        hits = sum(len(row) for row in result.neighbors)
        assert totals["gather_bytes"] == hits * RESULT_BYTES
        assert totals["merge_ops"] == hits * 2  # ceil(log2(4))
        snapshot = metrics.as_dict()
        assert snapshot["sharding/points/queries"] == 40
        assert snapshot["sharding/points/batches"] == 1
        assert snapshot["sharding/points/scatter_bytes"] == \
            totals["scatter_bytes"]
        shard_results = [
            snapshot[f"sharding/points/shard{s}/results"] for s in range(4)
        ]
        assert sum(shard_results) == hits

    def test_routed_accounting_routes_each_probe_once(self):
        keys = np.arange(0.0, 100.0)
        sharded = ShardedIndex(lambda: BTreeKvIndex(branch=8), 4).build(keys)
        probes = np.arange(0.0, 50.0)
        sharded.query_batch(probes)
        totals = sharded.stats()["interconnect"]
        assert totals["fanout_queries"] == 50  # one owner shard per probe
        assert totals["scatter_bytes"] == 50 * COORD_BYTES

    def test_stats_shape(self):
        points = _points(50, seed=11)
        sharded = ShardedIndex(BvhRadiusIndex, 2).build(points, radius=0.2)
        stats = sharded.stats()
        assert stats["structure"] == "sharded"
        assert stats["inner_structure"] == "bvh"
        assert stats["partitioner"] == "morton_range"
        assert stats["topology"] == "crossbar"
        assert stats["num_shards"] == 2
        assert sum(stats["shard_sizes"]) == 50

    def test_build_guards(self):
        with pytest.raises(ConfigError):
            ShardedIndex(BvhRadiusIndex, 0)
        with pytest.raises(BuildError):
            ShardedIndex(BvhRadiusIndex, 2).query_batch(_queries(1))
        with pytest.raises(BuildError):
            ShardedIndex(BvhRadiusIndex, 2).build(
                np.empty((0, 3)), radius=1.0
            )


class TestCanonicalNames:
    @pytest.mark.parametrize("name,expected", [
        ("sharding/indices", "sharding/indices"),
        ("sharding/points/queries", "sharding/*/queries"),
        ("sharding/points/shard3/cycles", "sharding/*/shard*/cycles"),
        ("sharding/scaling_r10k_x1_n2/shard0/results",
         "sharding/*/shard*/results"),
        ("serving/knn_r10k/queries", "serving/knn_r10k/queries"),
    ])
    def test_folding(self, name, expected):
        assert canonical_sharding_name(name) == expected

    def test_load_imbalance_prefers_cycles(self):
        metrics = ShardingMetrics().index("probe", shards=2)
        assert metrics.load_imbalance() == 0.0
        metrics.on_shard_results(0, 30)
        metrics.on_shard_results(1, 10)
        assert metrics.load_imbalance() == pytest.approx(1.5)
        metrics.on_shard_cycles(0, 100)
        metrics.on_shard_cycles(1, 100)
        assert metrics.load_imbalance() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Campaign integration: cache-key stability + the serving endpoint
# ---------------------------------------------------------------------------


class TestCampaignIntegration:
    def test_default_job_ids_unchanged(self):
        """Pre-sharding cache keys and run ids must stay byte-identical."""
        from repro.experiments.campaign import Job
        from repro.experiments.common import workload_params

        job = Job("bvhnn", "R10K", "hsu", queries=64)
        assert job.run_id == "bvhnn-r10k-hsu-wb8-ew16-q64"
        params = workload_params(job)
        assert "scale" not in params
        assert "shards" not in params

    def test_sharded_job_ids_and_params(self):
        from repro.experiments.campaign import Job
        from repro.experiments.common import workload_params

        job = Job("bvhnn", "R10K", "hsu", queries=64, scale=10.0,
                  shards=4, shard=2)
        assert job.run_id == "bvhnn-r10k-hsu-wb8-ew16-x10-s2of4-q64"
        params = workload_params(job)
        assert params["scale"] == 10.0
        assert params["shards"] == 4
        assert params["shard"] == 2
        with pytest.raises(ConfigError):
            Job("ggnn", "S10K", "hsu", queries=64, shards=2)
        with pytest.raises(ConfigError):
            Job("bvhnn", "R10K", "hsu", shards=2, shard=2)

    def test_scaling_jobs_disjoint_from_smoke(self):
        from repro.experiments.campaign import scaling_jobs, smoke_jobs

        scaling = scaling_jobs(smoke=True)
        assert [j.shards for j in scaling] == [1, 2, 2]
        assert not (
            {j.group for j in scaling} & {j.group for j in smoke_jobs()}
        )

    def test_sharded_endpoint_matches_point_endpoint(self):
        from repro.serving import build_endpoint, point_endpoint

        sharded = build_endpoint("sharded", abbr="R10K", shards=4)
        point = point_endpoint("R10K")
        queries = sharded.sample_queries(32, seed=3)
        assert sharded.run_batch(queries) == point.run_batch(queries)
        assert sharded.index.stats()["interconnect"]["fanout_queries"] > 0

    def test_sharded_workload_covers_the_partition(self):
        """Every shard workload builds over its Morton slice; slices tile
        the full dataset."""
        from repro.workloads.bvhnn import _sharded_parts

        points, radius, shard_ids = _sharded_parts("R10K", 1.0, 0, 4)
        assert radius > 0
        _assert_disjoint_covering(shard_ids, points.shape[0])

    def test_sweep_point_builds_once_and_frees_its_builds(
        self, monkeypatch, tmp_path
    ):
        """A serial sweep point builds its split once and each shard's BVH
        once (the interconnect replay reuses them), and none of its
        builds outlives it."""
        import weakref

        from repro import builds
        from repro.sharding import simulate_sharded

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        # Drop what earlier direct calls left in the process scope.
        for kind in ("dataset", "bvhnn-shard-split", "bvhnn-shard-index"):
            builds.drop(kind)
        refs = []
        build = BvhRadiusIndex.build

        def built(self, *args, **kwargs):
            refs.append(weakref.ref(self))
            return build(self, *args, **kwargs)

        monkeypatch.setattr(BvhRadiusIndex, "build", built)
        before = builds.build_counts.copy()
        point = simulate_sharded("R10K", shards=3, queries=32)
        assert point.cache_hits == 0
        made = builds.build_counts - before
        assert made["bvhnn-shard-split"] == 1
        assert made["bvhnn-shard-index"] == 3
        assert made["dataset"] == 1
        assert len(refs) == 3
        assert [ref for ref in refs if ref() is not None] == []

    def test_serial_campaign_splits_each_sweep_point_once(
        self, monkeypatch, tmp_path
    ):
        """Each shard is its own workload group, but a serial campaign
        runs a sweep point's shards in one build group."""
        from repro import builds
        from repro.experiments import campaign

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        for kind in ("bvhnn-shard-split", "bvhnn-shard-index"):
            builds.drop(kind)
        jobs = [
            campaign.Job("bvhnn", "R10K", "hsu", queries=32, shards=shards,
                         shard=shard)
            for shards in (2, 3) for shard in range(shards)
        ]
        before = builds.build_counts.copy()
        summary = campaign.execute(jobs, jobs_n=1, label="sweep-points")
        assert summary.ok and summary.misses == len(jobs)
        made = builds.build_counts - before
        assert made["bvhnn-shard-split"] == 2
        assert made["bvhnn-shard-index"] == 5
