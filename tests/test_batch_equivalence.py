"""Batched query engine == scalar reference, bit for bit.

The batched kernels (vectorized frontier traversal + array-backed trace
recording) must reproduce the substrates' scalar per-query searches
exactly — same neighbors, same event streams, same lowered traces —
across structures, metrics, dtypes, and degenerate inputs.  The oracles
are ``radius_search`` / ``knn_search`` / ``search`` run on structures
each test builds itself; these tests are the contract.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bvh.lbvh import build_lbvh_for_points
from repro.bvh.sah import build_sah
from repro.bvh.traversal import TraversalStats, radius_search
from repro.compiler.assembler import (
    PACKED_TALU,
    PACKED_TBOX,
    PACKED_TDIST,
    PACKED_TKEYCMP,
    PACKED_TLOAD,
    PACKED_TSFU,
    PACKED_TSHARED,
    PACKED_TTRI,
    PackedStreams,
    assemble_warps,
    assemble_warps_packed,
)
from repro.compiler.ops import (
    METRIC_ANGULAR,
    METRIC_EUCLID,
    TAlu,
    TBox,
    TDist,
    TKeyCmp,
    TLoad,
    TSfu,
    TShared,
    TTri,
)
from repro.geometry.aabb import Aabb
from repro.graph.hnsw import build_hnsw
from repro.graph.search import GraphSearchStats, search
from repro.kdtree.build import build_kdtree
from repro.kdtree.search import KdSearchStats, knn_search
from repro.metrics.transforms import (
    cosine_measure_from_sq,
    transform_points,
    transform_query,
)
from repro.search import BvhRadiusIndex, HnswIndex, KdTreeIndex, QuerySpec


@pytest.fixture(autouse=True, params=["reference"])
def backend_name(request):
    """Every test here runs on the one kernel backend; the parameter
    keeps the ``[reference]`` suffix of the test ids stable."""
    return request.param


def _assert_matches(batch, queries, oracle):
    """Row ``qi`` of ``batch`` equals ``oracle(queries[qi])``, the
    substrate's scalar search as ``(neighbors, events)``."""
    assert len(batch) == len(queries)
    for qi, q in enumerate(queries):
        neighbors, events = oracle(q)
        assert batch.neighbors[qi] == neighbors, f"neighbors, query {qi}"
        assert batch.events.query_events(qi) == events, f"events, {qi}"


# ---------------------------------------------------------------------------
# BVH radius search
# ---------------------------------------------------------------------------


class TestBvhBatch:
    def _case(self, points, queries, radius=0.3, builder="lbvh"):
        points = np.asarray(points, float)
        index = BvhRadiusIndex(builder=builder).build(points, radius)
        batch = index.query_batch(queries, record_events=True)
        if builder == "lbvh":
            bvh = build_lbvh_for_points(points, radius)
        else:
            bvh = build_sah(
                [Aabb.around_point(p, radius) for p in points], leaf_size=1
            )

        def oracle(q):
            stats = TraversalStats(record_events=True)
            hits = radius_search(bvh, points, q, radius, stats=stats)
            return hits, stats.events

        _assert_matches(batch, np.asarray(queries, np.float64), oracle)

    def test_random_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        self._case(rng.random((200, 3)), rng.random((32, 3)))

    def test_sah_batch_matches_scalar(self):
        """``build_sah`` trees are plain node lists, not packed arrays:
        the lockstep kernel's other topology source."""
        rng = np.random.default_rng(16)
        self._case(rng.random((150, 3)), rng.random((24, 3)), radius=0.2,
                   builder="sah")

    def test_duplicate_points(self):
        rng = np.random.default_rng(2)
        points = np.repeat(rng.random((25, 3)), 4, axis=0)
        self._case(points, points[::10] + 0.01)

    def test_empty_batch(self):
        rng = np.random.default_rng(3)
        index = BvhRadiusIndex().build(rng.random((50, 3)), 0.3)
        batch = index.query_batch(np.empty((0, 3)), record_events=True)
        assert len(batch) == 0
        assert batch.events.num_events == 0

    def test_float32_queries(self):
        """float32 queries answer like their float64 widening."""
        rng = np.random.default_rng(4)
        self._case(rng.random((100, 3)),
                   rng.random((8, 3)).astype(np.float32))


# ---------------------------------------------------------------------------
# k-d tree bounded-backtracking kNN
# ---------------------------------------------------------------------------


def _kd_oracle(points, k, max_checks, metric="euclid"):
    """Scalar ``knn_search`` under the adapter's metric reductions:
    cosine searches the normalized points as Euclidean and maps squared
    chordal measures to ``1 - cos(theta)``; the filter metrics search the
    raw points."""
    cosine = metric == "cosine"
    if cosine:
        points = transform_points(points, metric).astype(np.float64)
    tree = build_kdtree(points, leaf_size=4)

    def oracle(q):
        stats = KdSearchStats(record_events=True)
        if cosine:
            q = transform_query(q, metric).astype(np.float64)
        hits = knn_search(tree, q, k=k, max_checks=max_checks, stats=stats,
                          metric="euclid" if cosine else metric)
        if cosine:
            hits = [(pid, cosine_measure_from_sq(d2)) for pid, d2 in hits]
        return hits, stats.events

    return oracle


class TestKdTreeBatch:
    def _case(self, points, queries, k, max_checks, metric="euclid"):
        points = np.asarray(points, float)
        index = KdTreeIndex(leaf_size=4, metric=metric).build(points)
        batch = index.query_batch(
            queries, spec=QuerySpec(k=k, max_checks=max_checks),
            record_events=True,
        )
        _assert_matches(batch, np.asarray(queries, np.float64),
                        _kd_oracle(points, k, max_checks, metric))

    def test_random_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        self._case(rng.random((300, 8)), rng.random((24, 8)),
                   k=5, max_checks=64)

    def test_duplicate_points(self):
        rng = np.random.default_rng(6)
        points = np.repeat(rng.random((20, 4)), 5, axis=0)
        self._case(points, rng.random((10, 4)), k=3, max_checks=32)

    def test_k_exceeds_point_count(self):
        rng = np.random.default_rng(7)
        self._case(rng.random((6, 3)), rng.random((5, 3)),
                   k=10, max_checks=64)

    def test_one_dimensional(self):
        rng = np.random.default_rng(8)
        self._case(rng.random((80, 1)), rng.random((12, 1)),
                   k=4, max_checks=32)

    def test_empty_batch(self):
        rng = np.random.default_rng(9)
        index = KdTreeIndex(leaf_size=4).build(rng.random((40, 5)))
        batch = index.query_batch(np.empty((0, 5)), spec=QuerySpec(k=3),
                                  record_events=True)
        assert len(batch) == 0

    def test_mixed_dtypes(self):
        """float32 queries against a float64 tree: casting the whole batch
        up front must equal per-query casts."""
        rng = np.random.default_rng(10)
        self._case(rng.random((150, 6)),
                   rng.random((16, 6)).astype(np.float32),
                   k=5, max_checks=48)

    @pytest.mark.parametrize("metric", ["euclid", "l1", "linf", "cosine"])
    def test_metric_batch_matches_scalar(self, metric):
        """The metric axis (docs/WORKLOADS.md) preserves batch == scalar
        bit-for-bit — neighbors, measures, and event streams."""
        rng = np.random.default_rng(14)
        points = rng.random((200, 5)) + 0.1  # bounded away from the origin
        queries = rng.random((20, 5)) + 0.1
        self._case(points, queries, k=5, max_checks=96, metric=metric)

    @pytest.mark.parametrize("metric", ["l1", "linf", "cosine"])
    def test_metric_duplicate_points(self, metric):
        rng = np.random.default_rng(15)
        points = np.repeat(rng.random((15, 4)) + 0.1, 5, axis=0)
        queries = rng.random((8, 4)) + 0.1
        self._case(points, queries, k=3, max_checks=75, metric=metric)


# ---------------------------------------------------------------------------
# HNSW beam search
# ---------------------------------------------------------------------------


class TestHnswBatch:
    def _case(self, points, queries, k, ef, m, ef_construction, seed,
              metric=METRIC_EUCLID):
        index = HnswIndex(m=m, ef_construction=ef_construction,
                          metric=metric, seed=seed).build(points)
        graph = build_hnsw(points, m=m, ef_construction=ef_construction,
                           metric=metric, seed=seed)
        batch = index.query_batch(queries, spec=QuerySpec(k=k, ef=ef),
                                  record_events=True)

        def oracle(q):
            stats = GraphSearchStats(record_events=True)
            return search(graph, q, k=k, ef=ef, stats=stats), stats.events

        _assert_matches(batch, queries, oracle)

    @pytest.mark.parametrize("metric", [METRIC_EUCLID, METRIC_ANGULAR])
    def test_batch_matches_scalar(self, metric):
        rng = np.random.default_rng(11)
        points = rng.random((250, 12)).astype(np.float32)
        queries = rng.random((16, 12)).astype(np.float32)
        self._case(points, queries, k=5, ef=16, m=6, ef_construction=24,
                   seed=3, metric=metric)

    def test_empty_batch(self):
        rng = np.random.default_rng(12)
        points = rng.random((60, 6)).astype(np.float32)
        index = HnswIndex(m=4, ef_construction=12, seed=1).build(points)
        batch = index.query_batch(np.empty((0, 6), dtype=np.float32),
                                  record_events=True)
        assert len(batch) == 0

    def test_float64_queries(self):
        rng = np.random.default_rng(13)
        points = rng.random((120, 8)).astype(np.float32)
        self._case(points, rng.random((8, 8)), k=4, ef=12, m=5,
                   ef_construction=16, seed=2)


# ---------------------------------------------------------------------------
# Packed assembler == scalar assembler
# ---------------------------------------------------------------------------


def _random_streams(rng, num_threads):
    """Equivalent (scalar thread streams, PackedStreams) pair."""
    makers = [
        lambda: (TDist(int(rng.integers(0, 2**20)), int(rng.integers(1, 64)),
                       [METRIC_EUCLID, METRIC_ANGULAR][rng.integers(0, 2)]),
                 None),
        lambda: (TBox(int(rng.integers(0, 2**20)), int(rng.integers(1, 5)),
                      int(rng.integers(16, 64))), None),
        lambda: (TTri(int(rng.integers(0, 2**20))), None),
        lambda: (TKeyCmp(int(rng.integers(0, 2**20)),
                         int(rng.integers(1, 256))), None),
        lambda: (TAlu(int(rng.integers(1, 10))), None),
        lambda: (TShared(int(rng.integers(1, 10))), None),
        lambda: (TSfu(int(rng.integers(1, 10))), None),
        lambda: (TLoad(int(rng.integers(0, 2**20)),
                       int(rng.integers(4, 128))), None),
    ]
    streams = [
        [makers[rng.integers(0, len(makers))]()[0]
         for _ in range(rng.integers(0, 12))]
        for _ in range(num_threads)
    ]
    starts = np.zeros(num_threads + 1, dtype=np.int64)
    np.cumsum([len(s) for s in streams], out=starts[1:])
    total = int(starts[-1])
    kinds = np.zeros(total, dtype=np.int64)
    k1 = np.zeros(total, dtype=np.int64)
    k2 = np.zeros(total, dtype=np.int64)
    addr = np.zeros(total, dtype=np.int64)
    cnt = np.zeros(total, dtype=np.int64)
    pos = 0
    metric_code = {METRIC_EUCLID: 0, METRIC_ANGULAR: 1}
    for stream in streams:
        for op in stream:
            if isinstance(op, TDist):
                kinds[pos] = PACKED_TDIST
                k1[pos], k2[pos] = op.dim, metric_code[op.metric]
                addr[pos] = op.addr
            elif isinstance(op, TBox):
                kinds[pos] = PACKED_TBOX
                k1[pos], k2[pos] = op.num_boxes, op.node_bytes
                addr[pos] = op.addr
            elif isinstance(op, TTri):
                kinds[pos] = PACKED_TTRI
                addr[pos] = op.addr
            elif isinstance(op, TKeyCmp):
                kinds[pos] = PACKED_TKEYCMP
                k1[pos] = op.num_separators
                addr[pos] = op.addr
            elif isinstance(op, TAlu):
                kinds[pos], cnt[pos] = PACKED_TALU, op.count
            elif isinstance(op, TShared):
                kinds[pos], cnt[pos] = PACKED_TSHARED, op.count
            elif isinstance(op, TSfu):
                kinds[pos], cnt[pos] = PACKED_TSFU, op.count
            elif isinstance(op, TLoad):
                kinds[pos] = PACKED_TLOAD
                k1[pos] = op.num_bytes
                addr[pos] = op.addr
            pos += 1
    return streams, PackedStreams(starts, kinds, k1, k2, addr, cnt)


class TestPackedAssembler:
    def test_random_equivalence(self):
        rng = np.random.default_rng(20)
        for trial in range(25):
            num_threads = int(rng.integers(1, 70))
            streams, packed = _random_streams(rng, num_threads)
            if not any(len(s) for s in streams):
                continue
            assert assemble_warps_packed(packed) == \
                assemble_warps(streams), f"trial {trial}"

    def test_narrow_warp(self):
        rng = np.random.default_rng(21)
        streams, packed = _random_streams(rng, 20)
        assert assemble_warps_packed(packed, warp_size=8) == \
            assemble_warps(streams, warp_size=8)


# ---------------------------------------------------------------------------
# Lowered traces (golden pins) and slotted record types
# ---------------------------------------------------------------------------


class TestLoweredTraces:
    def test_batched_pipeline_reproduces_goldens(self):
        """The batched engine feeds the trace compiler; fingerprints must
        equal the committed goldens (cache keys included)."""
        import json
        from pathlib import Path

        from repro import api
        from repro.experiments.common import trace_bundle

        # Regenerate rather than reuse a memoized bundle, so the pin
        # covers a fresh run of the batched pipeline.
        api.clear_caches()
        golden = json.loads(
            (Path(__file__).parent / "goldens" / "gpusim_smoke.json")
            .read_text()
        )
        for family, abbr in [("bvhnn", "R10K"), ("flann", "R10K")]:
            bundle = trace_bundle(family, abbr, 64)
            for variant, kernel in (("baseline", bundle.baseline),
                                    ("hsu", bundle.hsu)):
                key = f"{family}-{abbr}-{variant}"
                if key not in golden:
                    continue
                assert kernel.fingerprint() == golden[key]["trace_sha"], key


class TestBTreeBatch:
    def test_lookup_batch_matches_scalar(self):
        """Values, hit mask, and the per-probe event trail must match the
        scalar ``lookup`` exactly — the btree workload lowers the trail."""
        from repro.btree.btree import BTreeStats, bulk_load

        rng = np.random.default_rng(11)
        keys = rng.permutation(np.arange(4096, dtype=np.float64))
        tree = bulk_load(keys, branch=16, leaf_size=16)

        present = rng.choice(keys, size=48, replace=True)
        missing = np.floor(rng.uniform(keys.min(), keys.max(), size=16)) + 0.5
        probes = np.concatenate([present, missing])
        rng.shuffle(probes)

        values, found, trail = tree.lookup_batch(probes)
        for qi, probe in enumerate(probes):
            stats = BTreeStats(record_events=True)
            scalar = tree.lookup(float(probe), stats)
            if scalar is None:
                assert not found[qi]
            else:
                assert found[qi]
                assert values[qi] == scalar
            batch_events = [
                (int(ids[qi]), int(payloads[qi])) for ids, payloads in trail
            ]
            scalar_events = [(ident, payload)
                             for _, ident, payload in stats.events]
            assert batch_events == scalar_events

    def test_lookup_batch_empty(self):
        from repro.btree.btree import bulk_load

        tree = bulk_load(np.arange(64, dtype=np.float64), branch=8)
        values, found, trail = tree.lookup_batch(np.empty(0))
        assert values.size == 0 and found.size == 0 and trail == []


class TestSlottedRecords:
    def test_kdnode_has_slots(self):
        from repro.kdtree.build import KdNode

        node = KdNode(split_dim=1, split_value=0.5, left=2, right=3)
        assert not hasattr(node, "__dict__")
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node

    def test_warp_trace_pickle_roundtrip(self):
        from repro.gpusim.trace import KernelTrace, WarpInstr, WarpTrace

        warp = WarpTrace(label="w0")
        warp.append(WarpInstr("alu", active=16, repeat=2))
        kernel = KernelTrace(warps=[warp], name="k")
        assert not hasattr(warp, "__dict__")
        assert not hasattr(kernel, "__dict__")
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.fingerprint() == kernel.fingerprint()
        assert clone.name == kernel.name
        assert clone.warps[0].label == "w0"

    def test_artifact_cache_roundtrip_exact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments import campaign

        params = {"workload": "t", "seed": 0}
        value = 0.04768245010239684
        campaign.store_artifact("radius", params, value)
        loaded = campaign.load_artifact("radius", params)
        assert isinstance(loaded, float) and loaded == value
