"""Workload runs: real algorithm execution + trace generation."""

import pytest

from repro.gpusim import VOLTA_V100, simulate
from repro.gpusim.trace import KIND_HSU
from repro.workloads import (
    run_btree,
    run_bvhnn,
    run_flann,
    run_ggnn,
    to_traces,
)

CFG = VOLTA_V100.scaled(1)


def hsu_instruction_count(trace):
    return sum(
        1 for w in trace.warps for i in w.instructions if i.kind == KIND_HSU
    )


class TestGgnn:
    @pytest.fixture(scope="class")
    def run(self):
        return run_ggnn("LFM", num_queries=8, check_recall=True)

    def test_metadata(self, run):
        assert run.style == "cooperative"
        assert run.extras["dim"] == 65
        assert run.extras["metric"] == "angular"
        assert run.warp_ops.num_warps == 8  # one warp (block) per query

    def test_search_quality(self, run):
        assert run.extras["recall"] >= 0.6

    def test_traces_pair(self, run):
        bundle = to_traces(run)
        assert bundle.baseline.num_warps == bundle.hsu.num_warps == 8
        assert hsu_instruction_count(bundle.hsu) > 0
        assert hsu_instruction_count(bundle.baseline) == 0

    def test_simulates(self, run):
        bundle = to_traces(run)
        base = simulate(CFG, bundle.baseline)
        hsu = simulate(CFG, bundle.hsu)
        assert base.cycles > 0 and hsu.cycles > 0
        assert hsu.hsu_thread_beats > 0


class TestFlann:
    @pytest.fixture(scope="class")
    def run(self):
        return run_flann("R10K", num_queries=64, check_recall=True)

    def test_metadata(self, run):
        assert run.style == "parallel"
        assert run.warp_ops.num_warps == 2  # 64 queries / 32 lanes

    def test_search_quality(self, run):
        assert run.extras["recall"] >= 0.8

    def test_baseline_has_untagged_plane_tests(self, run):
        bundle = to_traces(run)
        tagged = sum(
            1 for w in bundle.baseline.warps for i in w.instructions
            if i.hsu_able
        )
        untagged = sum(
            1 for w in bundle.baseline.warps for i in w.instructions
            if not i.hsu_able
        )
        assert tagged > 0 and untagged > 0  # dists offload, planes stay


class TestBvhnn:
    @pytest.fixture(scope="class")
    def run(self):
        return run_bvhnn("R10K", num_queries=64)

    def test_radius_finds_neighbors(self, run):
        assert run.extras["mean_hits"] > 0.5

    def test_few_distance_tests(self, run):
        """'less than 200 for each query across all of the 3-D datasets'"""
        assert run.extras["mean_dist_tests"] < 200

    def test_hsu_trace_dominated_by_box_ops(self, run):
        from repro.core.isa import Opcode

        bundle = to_traces(run)
        instrs = [
            i for w in bundle.hsu.warps for i in w.instructions
            if i.kind == KIND_HSU
        ]
        # Per-thread work: box tests dominate distance tests (§VI-C: the
        # BVH culls so well that few distance tests remain).
        box_threads = sum(
            i.active for i in instrs if i.opcode is Opcode.RAY_INTERSECT
        )
        dist_threads = sum(
            i.active for i in instrs if i.opcode is Opcode.POINT_EUCLID
        )
        assert box_threads > dist_threads


class TestBtree:
    @pytest.fixture(scope="class")
    def run(self):
        return run_btree("B+10K", num_queries=64)

    def test_hit_rate(self, run):
        assert run.extras["hit_rate"] == pytest.approx(0.75, abs=0.1)

    def test_key_compare_ops_present(self, run):
        from repro.core.isa import Opcode

        bundle = to_traces(run)
        opcodes = [
            i.opcode for w in bundle.hsu.warps for i in w.instructions
            if i.kind == KIND_HSU
        ]
        assert all(o is Opcode.KEY_COMPARE for o in opcodes)
        assert opcodes, "no KEY_COMPARE instructions generated"

    def test_one_warp_per_query(self, run):
        assert run.warp_ops.num_warps == 64


class TestPairedSpeedup:
    def test_hsu_reduces_issue_slots_everywhere(self):
        """The HSU trace always carries fewer SIMD issue slots — that is
        the point of the CISC replacement."""
        for maker, kwargs in (
            (run_ggnn, {"abbr": "S10K", "num_queries": 4}),
            (run_flann, {"abbr": "R10K", "num_queries": 64}),
            (run_bvhnn, {"abbr": "R10K", "num_queries": 64}),
            (run_btree, {"abbr": "B+10K", "num_queries": 64}),
        ):
            bundle = to_traces(maker(**kwargs))
            base_slots = sum(
                i.repeat for w in bundle.baseline.warps for i in w.instructions
            )
            hsu_slots = sum(
                i.repeat if i.kind != KIND_HSU else 1
                for w in bundle.hsu.warps
                for i in w.instructions
            )
            assert hsu_slots < base_slots, maker.__name__
