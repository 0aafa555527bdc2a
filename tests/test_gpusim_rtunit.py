"""RT/HSU unit model: warp buffer, fetch coalescing, pipeline allocation."""

import pytest

from repro.compiler.lowering import STYLE_PARALLEL, lower_hsu
from repro.compiler.ops import METRIC_ANGULAR, METRIC_EUCLID, WarpOp, WarpOps
from repro.core.isa import KEY_COMPARE_WIDTH, Opcode, angular_width
from repro.core.modes import PIPELINE_DEPTH
from repro.core.multibeat import beat_count
from repro.gpusim.cache import Cache
from repro.gpusim.config import VOLTA_V100
from repro.gpusim.rtunit import RtUnit, hsu_coalesced_lines
from repro.gpusim.trace import KIND_HSU, WarpInstr


def make_unit(warp_buffer=8, next_latency=200):
    config = VOLTA_V100.scaled(1).with_warp_buffer(warp_buffer)

    def next_level(line, time):
        return time + next_latency

    l1 = Cache(
        name="L1", sets=config.l1_sets, ways=config.l1_ways,
        line_bytes=128, hit_latency=32, mshr_entries=48,
        next_level=next_level,
    )
    return RtUnit(config, l1), l1


def hsu_instr(active=4, beats=1, base=0x1000, stride=4096, bytes_per_thread=64):
    return WarpInstr(
        KIND_HSU,
        active=active,
        addrs=tuple(base + i * stride for i in range(active)),
        bytes_per_thread=bytes_per_thread,
        opcode=Opcode.POINT_EUCLID,
        beats=beats,
    )


class TestExecution:
    def test_single_instruction_latency(self):
        unit, _l1 = make_unit()
        done = unit.execute(hsu_instr(active=4), issue_time=0)
        # fetch (~miss 200+) + 4 pipeline slots + depth 9.
        assert done >= 200 + 4 + 9
        assert unit.stats.warp_instructions == 1
        assert unit.stats.thread_beats == 4

    def test_multibeat_occupancy(self):
        unit, _l1 = make_unit()
        done_1 = make_unit()[0].execute(hsu_instr(active=8, beats=1), 0)
        done_6 = unit.execute(hsu_instr(active=8, beats=6), 0)
        # Six beats per thread occupy the single-lane pipeline longer.
        assert done_6 > done_1
        assert unit.stats.thread_beats == 48

    def test_fetch_lines_deduplicated(self):
        """Threads touching the same cache line coalesce into one request
        in the memory access FIFO (the Fig. 12 CISC coalescing)."""
        unit, l1 = make_unit()
        # All four threads read within one 128-byte line.
        instr = WarpInstr(
            KIND_HSU, active=4, addrs=(0, 16, 32, 48), bytes_per_thread=16,
            opcode=Opcode.POINT_EUCLID,
        )
        unit.execute(instr, 0)
        assert unit.stats.fetch_line_accesses == 1
        assert l1.stats.accesses == 1

    def test_scattered_threads_fetch_separately(self):
        unit, l1 = make_unit()
        unit.execute(hsu_instr(active=4, stride=4096), 0)
        assert l1.stats.accesses == 4


ADDRS = tuple(0x10000 * i for i in range(1, 5))


class TestLatencyPerOpcode:
    """On an idle unit, an instruction lowered by ``lower_hsu`` is ready at
    fetch completion + active x beats + ``PIPELINE_DEPTH``: the timing
    model reads the one beat formula (``beat_count``) and the one depth."""

    @pytest.mark.parametrize(
        "op, euclid_width, opcode, width, beats",
        [
            (WarpOp("TDist", ADDRS, 4, a=96, meta=METRIC_EUCLID), 16,
             Opcode.POINT_EUCLID, 16, 6),
            (WarpOp("TDist", ADDRS, 4, a=96, meta=METRIC_EUCLID), 32,
             Opcode.POINT_EUCLID, 32, 3),
            (WarpOp("TDist", ADDRS, 4, a=65, meta=METRIC_ANGULAR), 16,
             Opcode.POINT_ANGULAR, angular_width(16), 9),
            (WarpOp("TKeyCmp", ADDRS[:1], 32, a=255), 16,
             Opcode.KEY_COMPARE, KEY_COMPARE_WIDTH, 8),
            (WarpOp("TBox", ADDRS, 4, a=4, b=128), 16,
             Opcode.RAY_INTERSECT, None, 1),
        ],
        ids=["euclid96", "euclid96-w32", "angular65", "keycmp255", "box4"],
    )
    def test_result_ready_is_fetch_plus_beats_plus_depth(
        self, op, euclid_width, opcode, width, beats
    ):
        trace = lower_hsu(
            WarpOps.from_records([[op]]), STYLE_PARALLEL,
            euclid_width=euclid_width,
        )
        (instr,) = [i for i in trace.warps[0].instructions if i.kind == KIND_HSU]
        assert instr.opcode is opcode
        if width is not None:
            assert beat_count(op.a, width) == beats
        assert instr.beats == beats
        unit, _ = make_unit()
        twin_l1 = make_unit()[1]  # an identical idle L1 times the fetch
        fetch_done = twin_l1.access_lines(hsu_coalesced_lines(instr, 128), 0)
        assert fetch_done >= 200
        done = unit.execute(instr, issue_time=0)
        assert done == fetch_done + instr.active * beats + PIPELINE_DEPTH


class TestWarpBuffer:
    def test_single_entry_serializes(self):
        """§VI-I: one entry allows only one instruction to fetch at a time."""
        serialized, _ = make_unit(warp_buffer=1)
        parallel, _ = make_unit(warp_buffer=8)
        last_serial = 0
        last_parallel = 0
        for i in range(8):
            instr = hsu_instr(active=2, base=0x1000 + i * 64 * 1024)
            last_serial = max(last_serial, serialized.execute(instr, 0))
            last_parallel = max(last_parallel, parallel.execute(instr, 0))
        assert last_serial > last_parallel * 2

    def test_entry_stall_accounting(self):
        unit, _ = make_unit(warp_buffer=1)
        for i in range(4):
            unit.execute(hsu_instr(active=2, base=0x1000 + i * 64 * 1024), 0)
        assert unit.stats.entry_stall_cycles > 0

    def test_entry_released_at_pipeline_issue(self):
        """The entry frees when all threads have issued to the datapath,
        not at retirement — back-to-back dispatches of warm data should
        proceed at pipeline rate."""
        unit, l1 = make_unit(warp_buffer=1, next_latency=10)
        # Warm the line.
        unit.execute(hsu_instr(active=1, base=0), 0)
        warm_start = 1000
        d1 = unit.execute(hsu_instr(active=1, base=0), warm_start)
        d2 = unit.execute(hsu_instr(active=1, base=0), warm_start)
        # The second dispatch waits for the entry (released at pipe issue,
        # before d1's full retirement).
        assert d2 - d1 <= 40
        del l1


class TestPipelineAllocator:
    def test_backfill_no_head_of_line_blocking(self):
        """A slow-fetching instruction must not delay a later one whose
        data is already available (out-of-order entry scheduling)."""
        unit, _ = make_unit(next_latency=500)
        # First instruction misses (ready ~500+).
        slow = unit.execute(hsu_instr(active=2, base=0x100000), 0)
        # Second touches the same line as a previous... use a warmed line:
        unit2, _ = make_unit(next_latency=500)
        unit2.execute(hsu_instr(active=1, base=0), 0)  # warm line 0
        t_slow = unit2.execute(hsu_instr(active=2, base=0x200000), 600)
        t_fast = unit2.execute(hsu_instr(active=1, base=0), 601)
        # The fast one completes well before the slow one.
        assert t_fast < t_slow
        del slow

    def test_gap_reuse_preserves_capacity(self):
        unit, _ = make_unit(next_latency=100)
        times = [
            unit.execute(hsu_instr(active=4, base=i * 0x10000), 0)
            for i in range(10)
        ]
        # Total pipeline work = 40 thread-beats; the last completion cannot
        # be earlier than fetch + work.
        assert max(times) >= 100 + 40
