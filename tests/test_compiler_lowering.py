"""Trace lowering: baseline SIMD expansion vs HSU CISC instructions."""

import math

import pytest

from repro.compiler.layout import AddressSpace
from repro.compiler.lowering import (
    CostModel,
    STYLE_COOPERATIVE,
    STYLE_PARALLEL,
    lower_baseline,
    lower_hsu,
)
from repro.compiler.ops import METRIC_ANGULAR, METRIC_EUCLID, WarpOp, WarpOps
from repro.core.isa import Opcode
from repro.errors import TraceError
from repro.gpusim.trace import KIND_ALU, KIND_HSU, KIND_LDG, KIND_LDS, KIND_SFU


def hsu_warp(ops, style, **kwargs):
    """The HSU lowering of one warp's op stream (a one-warp trace's warp)."""
    return lower_hsu(WarpOps.from_records([ops]), style, **kwargs).warps[0]


def baseline_warp(ops, style, **kwargs):
    """The baseline lowering of one warp's op stream."""
    return lower_baseline(WarpOps.from_records([ops]), style, **kwargs).warps[0]


def dist_op(n=4, dim=96, metric=METRIC_EUCLID):
    return WarpOp("TDist", tuple(1000 * i for i in range(1, n + 1)), n,
                  a=dim, meta=metric)


def box_op(n=8, boxes=2):
    return WarpOp("TBox", tuple(64 * i for i in range(n)), n, a=boxes,
                  b=boxes * 32)


class TestHsuLowering:
    def test_euclid_beats(self):
        trace = hsu_warp([dist_op(dim=96)], STYLE_PARALLEL)
        (instr,) = trace.instructions
        assert instr.kind == KIND_HSU
        assert instr.opcode is Opcode.POINT_EUCLID
        assert instr.beats == math.ceil(96 / 16)
        assert instr.active == 4
        # Total fetch equals the candidate's bytes.
        assert instr.beats * instr.bytes_per_thread == pytest.approx(
            96 * 4, abs=instr.beats
        )

    def test_angular_beats_and_epilogue(self):
        trace = hsu_warp([dist_op(dim=65, metric=METRIC_ANGULAR)],
                          STYLE_PARALLEL)
        hsu, sfu = trace.instructions
        assert hsu.opcode is Opcode.POINT_ANGULAR
        assert hsu.beats == 9  # the paper's ceil(65/8) example
        assert sfu.kind == KIND_SFU  # rsqrt + divide outside the HSU

    def test_width_sweep_changes_beats(self):
        for width, beats in ((8, 12), (16, 6), (32, 3)):
            trace = hsu_warp([dist_op(dim=96)], STYLE_PARALLEL,
                              euclid_width=width)
            assert trace.instructions[0].beats == beats

    def test_box_is_single_instruction(self):
        trace = hsu_warp([box_op()], STYLE_PARALLEL)
        (instr,) = trace.instructions
        assert instr.opcode is Opcode.RAY_INTERSECT
        assert instr.beats == 1
        assert instr.active == 8

    def test_keycmp_beats(self):
        op = WarpOp("TKeyCmp", (4096,), 32, a=255)
        trace = hsu_warp([op], STYLE_COOPERATIVE)
        (instr,) = trace.instructions
        assert instr.opcode is Opcode.KEY_COMPARE
        assert instr.beats == math.ceil(255 / 36)
        # One CISC issuer even though the baseline spreads over 32 lanes.
        assert instr.active == 1

    def test_unknown_metric_rejected(self):
        bad = WarpOp("TDist", (0,), 1, a=4, meta="manhattan")
        with pytest.raises(TraceError):
            hsu_warp([bad], STYLE_PARALLEL)


class TestBaselineLowering:
    def test_parallel_dist_expansion(self):
        cost = CostModel()
        trace = baseline_warp([dist_op(dim=3)], STYLE_PARALLEL, cost=cost)
        kinds = [i.kind for i in trace.instructions]
        # Split loads then the scalar arithmetic.
        assert kinds.count(KIND_LDG) == cost.scalar_dist_loads
        assert kinds[-1] == KIND_ALU
        alu = trace.instructions[-1]
        assert alu.repeat == cost.scalar_dist_alu(3)
        assert alu.chain == cost.scalar_dist_chain(3)

    def test_cooperative_dist_is_per_candidate(self):
        trace = baseline_warp([dist_op(n=3, dim=96)], STYLE_COOPERATIVE)
        ldgs = [i for i in trace.instructions if i.kind == KIND_LDG]
        alus = [i for i in trace.instructions if i.kind == KIND_ALU]
        assert len(ldgs) == 3  # one coalesced load per candidate
        assert len(alus) == 3
        # The load record stands for ceil(bytes/128) issue slots.
        assert ldgs[0].repeat == math.ceil(96 * 4 / 128)

    def test_box_split_loads(self):
        cost = CostModel()
        trace = baseline_warp([box_op(boxes=2)], STYLE_PARALLEL, cost=cost)
        ldgs = [i for i in trace.instructions if i.kind == KIND_LDG]
        assert len(ldgs) == cost.box_loads_per_child * 2
        alu = trace.instructions[-1]
        assert alu.repeat == cost.box_alu_per_box * 2

    def test_all_expanded_ops_tagged_hsu_able(self):
        trace = baseline_warp(
            [dist_op(dim=3), box_op()], STYLE_PARALLEL
        )
        for instr in trace.instructions:
            if instr.kind in (KIND_LDG, KIND_ALU):
                assert instr.hsu_able

    def test_common_ops_not_tagged(self):
        ops = [
            WarpOp("TAlu", (), 16, a=4),
            WarpOp("TShared", (), 16, a=2),
            WarpOp("TLoad", (512,), 16, a=64),
        ]
        trace = baseline_warp(ops, STYLE_PARALLEL)
        assert all(not i.hsu_able for i in trace.instructions)
        assert [i.kind for i in trace.instructions] == [
            KIND_ALU, KIND_LDS, KIND_LDG,
        ]

    def test_unknown_style_rejected(self):
        with pytest.raises(TraceError):
            baseline_warp([dist_op()], "magic")


class TestPairing:
    def test_common_ops_identical_in_both_traces(self):
        """Non-HSU-able work must lower identically, so cycle differences
        are attributable to the unit (the §V-C methodology)."""
        ops = [
            WarpOp("TAlu", (), 8, a=5),
            dist_op(dim=32),
            WarpOp("TShared", (), 8, a=3),
        ]
        base = baseline_warp(ops, STYLE_PARALLEL)
        hsu = hsu_warp(ops, STYLE_PARALLEL)
        base_common = [
            (i.kind, i.repeat, i.active)
            for i in base.instructions
            if not i.hsu_able and i.kind != KIND_HSU
        ]
        hsu_common = [
            (i.kind, i.repeat, i.active)
            for i in hsu.instructions
            if i.kind not in (KIND_HSU, KIND_SFU)
        ]
        assert base_common == hsu_common

    def test_hsu_trace_is_shorter(self):
        ops = [dist_op(dim=96) for _ in range(10)]
        base = baseline_warp(ops, STYLE_COOPERATIVE)
        hsu = hsu_warp(ops, STYLE_COOPERATIVE)
        base_slots = sum(i.repeat for i in base.instructions)
        hsu_slots = sum(
            i.repeat for i in hsu.instructions if i.kind != KIND_HSU
        ) + sum(1 for i in hsu.instructions if i.kind == KIND_HSU)
        assert hsu_slots < base_slots / 5


class TestLayoutIntegration:
    def test_addresses_from_layout(self):
        space = AddressSpace()
        points = space.alloc_array("points", 100, 12)
        op = WarpOp(
            "TDist",
            (points.element(0, 12), points.element(99, 12)),
            2, a=3, meta=METRIC_EUCLID,
        )
        trace = hsu_warp([op], STYLE_PARALLEL)
        assert trace.instructions[0].addrs[1] - trace.instructions[0].addrs[0] \
            == 99 * 12
