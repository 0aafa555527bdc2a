"""End-to-end integration: workload -> traces -> paired simulation.

Small-scale versions of the Fig. 9 methodology, checking cross-module
invariants the unit tests cannot see.
"""

import pytest

from repro.gpusim import VOLTA_V100, simulate
from repro.gpusim.trace import KIND_HSU
from repro.workloads import run_bvhnn, run_ggnn, to_traces

CFG = VOLTA_V100.scaled(1)


class TestPairedSimulation:
    @pytest.fixture(scope="class")
    def bundle(self):
        return to_traces(run_bvhnn("R10K", num_queries=256))

    def test_speedup_in_sane_band(self, bundle):
        base = simulate(CFG, bundle.baseline)
        hsu = simulate(CFG, bundle.hsu)
        speedup = base.cycles / hsu.cycles
        assert 0.5 < speedup < 5.0

    def test_hsu_reduces_l1_accesses(self, bundle):
        base = simulate(CFG, bundle.baseline)
        hsu = simulate(CFG, bundle.hsu)
        assert hsu.l1_accesses < base.l1_accesses

    def test_baseline_has_no_hsu_activity(self, bundle):
        base = simulate(CFG, bundle.baseline)
        assert base.hsu_warp_instructions == 0
        assert base.hsu_thread_beats == 0

    def test_attribution_covers_everything(self, bundle):
        base = simulate(CFG, bundle.baseline)
        assert base.hsu_able_busy > 0
        assert base.other_busy > 0


class TestDesignPoints:
    @pytest.fixture(scope="class")
    def run(self):
        return run_ggnn("S10K", num_queries=8)

    def test_wider_datapath_fewer_beats(self, run):
        narrow = simulate(CFG, to_traces(run, euclid_width=8).hsu)
        wide = simulate(CFG, to_traces(run, euclid_width=32).hsu)
        assert wide.hsu_thread_beats < narrow.hsu_thread_beats
        # Same work, different beat counts: 4x width => ~4x fewer beats.
        assert narrow.hsu_thread_beats == pytest.approx(
            4 * wide.hsu_thread_beats, rel=0.1
        )

    def test_warp_buffer_one_serializes(self, run):
        bundle = to_traces(run)
        fast = simulate(CFG.with_warp_buffer(8), bundle.hsu)
        slow = simulate(CFG.with_warp_buffer(1), bundle.hsu)
        assert slow.cycles > fast.cycles
        assert slow.hsu_entry_stall_cycles > fast.hsu_entry_stall_cycles

    def test_same_trace_same_hsu_ops(self, run):
        bundle = to_traces(run)
        a = simulate(CFG, bundle.hsu)
        b = simulate(CFG.with_warp_buffer(4), bundle.hsu)
        # Design points change timing, never the executed operation count.
        assert a.hsu_thread_beats == b.hsu_thread_beats
        assert a.hsu_warp_instructions == b.hsu_warp_instructions


class TestTraceConservation:
    def test_non_hsu_work_identical_across_traces(self):
        """Queue/stack work must cost the same in both traces so speedups
        are attributable to the unit."""
        bundle = to_traces(run_ggnn("S10K", num_queries=4))
        def untagged_slots(kernel):
            return sum(
                instr.repeat
                for warp in kernel.warps
                for instr in warp.instructions
                if not instr.hsu_able and instr.kind != KIND_HSU
                and instr.kind != "sfu"
            )
        assert untagged_slots(bundle.baseline) == untagged_slots(bundle.hsu)
