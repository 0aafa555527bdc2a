"""The skip-to-next-event engine against a per-cycle reference stepper.

``GpuSimulator.run`` jumps the clock straight to the scheduler's event
horizon.  The reference stepper below executes the *same* issue logic but
ticks the clock one cycle at a time — the implementation the engine
replaced.  Equality of the resulting :class:`SimStats` on randomized
traces, across every scheduler policy and memory model, is the exactness
property the engine claims; unit tests pin the ``next_event_cycle()``
contract of each occupancy primitive the horizons compose from.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.isa import Opcode
from repro.gpusim import soa
from repro.gpusim.config import (
    MEMORY_MODELS,
    SCHEDULER_POLICIES,
    GpuConfig,
)
from repro.gpusim.gpu import GpuSimulator
from repro.gpusim.resource import PipelinedLane, Port, SlotPool, Timeline
from repro.gpusim.rtunit import hsu_coalesced_lines
from repro.gpusim.soa import PACK_FIELDS, PackedKernel, pack_key, pack_kernel
from repro.gpusim.stats import SimStats
from repro.gpusim.trace import KernelTrace, WarpInstr, WarpTrace
from repro.kernels import get_backend

#: Small structure so traces overflow residency (exercising wave
#: admission) and contend on sub-cores, warp buffer, and MSHRs.
SMALL = GpuConfig(
    num_sms=2,
    subcores_per_sm=2,
    max_warps_per_sm=3,
    warp_buffer_size=2,
    l1_size_bytes=4 * 1024,
    l2_size_bytes=16 * 1024,
    l2_ways=4,
    l1_mshr_entries=4,
    l2_mshr_entries=8,
)

_OPCODES = (
    Opcode.RAY_INTERSECT,
    Opcode.POINT_EUCLID,
    Opcode.POINT_ANGULAR,
    Opcode.KEY_COMPARE,
)


def random_kernel(rng: random.Random, num_warps: int) -> KernelTrace:
    """A small trace touching every instruction kind with clustered
    addresses (so loads hit, miss, merge in MSHRs, and conflict)."""
    warps = []
    for windex in range(num_warps):
        instrs = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(("alu", "sfu", "lds", "ldg", "hsu"))
            if kind == "ldg":
                active = rng.randint(1, 8)
                addrs = tuple(
                    rng.randrange(0, 1 << 13) for _ in range(active)
                )
                instrs.append(
                    WarpInstr(
                        "ldg",
                        active=active,
                        addrs=addrs,
                        bytes_per_thread=rng.choice((4, 8, 12)),
                    )
                )
            elif kind == "hsu":
                active = rng.randint(1, 6)
                addrs = tuple(
                    rng.randrange(0, 1 << 13) for _ in range(active)
                )
                instrs.append(
                    WarpInstr(
                        "hsu",
                        active=active,
                        addrs=addrs,
                        bytes_per_thread=rng.choice((0, 8, 32)),
                        opcode=rng.choice(_OPCODES),
                        beats=rng.randint(1, 3),
                    )
                )
            else:
                instrs.append(
                    WarpInstr(
                        kind,
                        active=rng.randint(1, 32),
                        repeat=rng.randint(1, 4),
                        chain=rng.randint(1, 3),
                        hsu_able=rng.random() < 0.3,
                    )
                )
        warps.append(WarpTrace(instructions=instrs, label=f"w{windex}"))
    return KernelTrace(warps=warps, name="event-engine-property")


def per_cycle_run(sim: GpuSimulator) -> SimStats:
    """Reference stepper: `GpuSimulator.run` with the jump removed.

    Identical warp placement, wave admission, issue, and retirement
    logic, but the clock advances one cycle per iteration and each cycle
    drains exactly the events ready at that cycle, in policy order.
    """
    config = sim.config
    scheduler = sim.scheduler
    num_sms = config.num_sms

    placements = []
    for index in range(sim.kernel.num_warps):
        sm = index % num_sms
        subcore = (index // num_sms) % config.subcores_per_sm
        placements.append((sm, subcore))

    deferred = [[] for _ in range(num_sms)]
    for index in range(sim.kernel.num_warps):
        sm_index, _ = placements[index]
        sm = sim.sms[sm_index]
        if sm.resident < config.max_warps_per_sm:
            sm.resident += 1
            scheduler.push(0, index, 0)
        else:
            deferred[sm_index].append(index)

    warps = sim.kernel.warps
    finish = 0
    clock = 0
    ticks = 0
    while len(scheduler):
        while scheduler.next_event_cycle() == clock:
            ready, windex, position = scheduler.pop()
            warp = warps[windex]
            instr = warp.instructions[position]
            sm_index, subcore = placements[windex]
            sm = sim.sms[sm_index]

            done = sm.issue(instr, subcore, ready)

            position += 1
            if position < warp.length:
                scheduler.push(done, windex, position)
            else:
                if done > finish:
                    finish = done
                heapq.heappush(sm.retire_heap, done)
                if deferred[sm_index]:
                    successor = deferred[sm_index].pop(0)
                    start = heapq.heappop(sm.retire_heap)
                    scheduler.push(start, successor, 0)
        clock += 1
        ticks += 1
        assert ticks < 5_000_000, "reference stepper runaway"

    sim._m_cycles.set(finish)
    sim._m_warps.set(sim.kernel.num_warps)
    for sm in sim.sms:
        sm.publish()
    sim.memory.finish()
    stats = SimStats.from_registry(sim.registry)
    stats.check_dram_consistency()
    return stats


class TestEngineMatchesReference:
    @pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
    @pytest.mark.parametrize("memory", MEMORY_MODELS)
    def test_identical_stats_on_random_traces(self, policy, memory):
        config = replace(SMALL, scheduler=policy, memory=memory)
        base = 1000 * SCHEDULER_POLICIES.index(policy)
        base += 100 * MEMORY_MODELS.index(memory)
        for seed in range(4):
            rng = random.Random(base + seed)
            kernel = random_kernel(rng, num_warps=rng.randint(1, 12))
            event_stats = GpuSimulator(config, kernel).run()
            reference = per_cycle_run(GpuSimulator(config, kernel))
            assert event_stats == reference, (
                f"policy={policy} memory={memory} seed={base + seed}"
            )

    def test_engine_gauges_account_for_every_issue(self):
        rng = random.Random(42)
        kernel = random_kernel(rng, num_warps=9)
        sim = GpuSimulator(SMALL, kernel)
        stats = sim.run()
        # One engine event per warp-instruction issue, even for warps
        # admitted by wave scheduling after a residency slot frees.
        assert sim.registry.value("gpu/engine/events") == (
            kernel.total_instructions()
        )
        skipped = sim.registry.value("gpu/engine/idle_cycles_skipped")
        assert 0 <= skipped < stats.cycles

    def test_chain_events_count_the_pure_issues(self):
        """Seven ALU ops in one warp: the first six have a successor, so
        the singleton chain issues them; the last retires the warp in the
        scalar tier.  The gauge stays out of SimStats."""
        kernel = KernelTrace(
            warps=[WarpTrace(instructions=[WarpInstr("alu")] * 7)],
            name="alu-chain",
        )
        sim = GpuSimulator(SMALL, kernel)
        stats = sim.run()
        assert sim.registry.value("gpu/engine/chain_events") == 6
        assert sim.registry.value("gpu/engine/events") == 7
        assert stats == per_cycle_run(GpuSimulator(SMALL, kernel))
        assert "chain" not in json.dumps(stats.to_json_dict())

    def test_single_warp_single_instruction(self):
        kernel = KernelTrace(
            warps=[WarpTrace(instructions=[WarpInstr("alu")])], name="tiny"
        )
        event_stats = GpuSimulator(SMALL, kernel).run()
        reference = per_cycle_run(GpuSimulator(SMALL, kernel))
        assert event_stats == reference
        assert event_stats.warp_instructions == 1

    @pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
    def test_mass_horizon(self, policy):
        """An admission wave of 128 pure warps all due at cycle 0: the
        singleton chain carries the whole horizon, and each successor
        must still wait for the rest of the wave in policy order."""
        wide = replace(
            SMALL, scheduler=policy, max_warps_per_sm=64, warp_buffer_size=8
        )
        rng = random.Random(SCHEDULER_POLICIES.index(policy))
        warps = []
        for windex in range(128):
            instrs = [
                WarpInstr(
                    rng.choice(("alu", "sfu", "lds")),
                    active=rng.randint(1, 32),
                    repeat=rng.randint(1, 4),
                    chain=rng.randint(1, 2),
                    hsu_able=rng.random() < 0.2,
                )
                for _ in range(rng.randint(2, 6))
            ]
            warps.append(WarpTrace(instructions=instrs, label=f"w{windex}"))
        kernel = KernelTrace(warps=warps, name="mass-horizon")
        event_stats = GpuSimulator(wide, kernel).run()
        reference = per_cycle_run(GpuSimulator(wide, kernel))
        assert event_stats == reference, policy

    def test_reproduces_committed_golden(self):
        """Golden pin: the engine must land on the committed
        ``gpusim_smoke.json`` stats bit-exactly."""
        from repro.api import trace_bundle
        from repro.experiments.common import config_for

        golden_path = (
            Path(__file__).resolve().parent / "goldens" / "gpusim_smoke.json"
        )
        golden = json.loads(golden_path.read_text())
        key = "btree-B+10K-baseline"
        family, abbr, variant = key.split("-")
        entry = golden[key]
        bundle = trace_bundle(family, abbr, 64)
        trace = bundle.baseline if variant == "baseline" else bundle.hsu
        config = config_for(family)
        assert trace.fingerprint() == entry["trace_sha"], key
        assert config.stable_hash() == entry["config_sha"], key
        stats = GpuSimulator(config, trace).run()
        assert stats.to_json_dict() == entry["simstats"], key


class _RecordingConfig:
    """A config stand-in that records every attribute read."""

    def __init__(self, config: GpuConfig) -> None:
        self._config = config
        self.reads: set[str] = set()

    def __getattr__(self, name: str):
        self.reads.add(name)
        return getattr(self._config, name)


def _columns(packed: PackedKernel) -> dict:
    return {
        name: getattr(packed, name)
        for name in PackedKernel.__slots__
        if name not in ("kernel", "key")
    }


class TestPackContract:
    """A pack reads only :data:`PACK_FIELDS` of its config, which is what
    lets one pack serve every config with the same pack key."""

    @staticmethod
    def kernel() -> KernelTrace:
        kernel = random_kernel(random.Random(7), num_warps=12)
        kinds = {i.kind for warp in kernel.warps for i in warp.instructions}
        assert kinds == {"alu", "sfu", "lds", "ldg", "hsu"}
        return kernel

    def test_pack_reads_exactly_the_pack_fields(self):
        config = _RecordingConfig(SMALL)
        PackedKernel(self.kernel(), config)
        assert config.reads == set(PACK_FIELDS)

    def test_columns_depend_only_on_the_pack_key(self):
        kernel = self.kernel()
        columns = _columns(pack_kernel(kernel, SMALL))
        for same in (
            replace(SMALL, warp_buffer_size=8),
            replace(SMALL, scheduler="lrr"),
            replace(SMALL, memory="perfect_dram"),
        ):
            assert pack_key(same) == pack_key(SMALL)
            assert _columns(pack_kernel(kernel, same)) == columns
        for other in (
            replace(SMALL, line_bytes=64),
            replace(SMALL, alu_latency=8),
        ):
            assert pack_key(other) != pack_key(SMALL)
            assert _columns(pack_kernel(kernel, other)) != columns

    def test_pack_holds_one_int_per_distinct_line(self, monkeypatch):
        kernel = random_kernel(random.Random(11), num_warps=48)
        interned = pack_kernel(kernel, SMALL)
        # An uninterned pack: every coalescing call without the pack's dict.
        backend = type(get_backend())
        coalesce = backend.coalesce_lines
        monkeypatch.setattr(
            backend, "coalesce_lines",
            lambda self, addrs, size, line_bytes, intern=None:
                coalesce(self, addrs, size, line_bytes),
        )
        monkeypatch.setattr(
            soa, "hsu_coalesced_lines",
            lambda instr, line_bytes, intern=None:
                hsu_coalesced_lines(instr, line_bytes),
        )
        plain = pack_kernel(kernel, SMALL)
        assert _columns(interned) == _columns(plain)

        def counts(packed):
            lines = [line for ln in packed.lines if ln for line in ln]
            return len(lines), len(set(lines)), len({id(x) for x in lines})

        pairs, distinct, objects = counts(interned)
        assert objects == distinct < pairs
        assert counts(plain)[2] > distinct


class LinearScanLane:
    """Reference ``PipelinedLane``: a linear first-fit scan over the whole
    gap list (with a longest-gap skip), the oracle the bisect version
    must match call for call."""

    _MAX_GAPS = PipelinedLane._MAX_GAPS

    def __init__(self) -> None:
        self._tail = 0
        self._gaps: list[tuple[int, int]] = []
        self._max_gap_len = 0

    def allocate(self, ready: int, busy: int) -> int:
        gaps = self._gaps
        if gaps and busy <= self._max_gap_len and ready < self._tail:
            longest = 0
            fitted = False
            for index, (gap_start, gap_end) in enumerate(gaps):
                length = gap_end - gap_start
                if length > longest:
                    longest = length
                if length < busy:
                    continue
                start = gap_start if gap_start >= ready else ready
                if start + busy <= gap_end:
                    fitted = True
                    break
            if fitted:
                replacement = []
                if start > gap_start:
                    replacement.append((gap_start, start))
                if start + busy < gap_end:
                    replacement.append((start + busy, gap_end))
                gaps[index : index + 1] = replacement
                return start
            self._max_gap_len = longest
        start = max(self._tail, ready)
        if start > self._tail:
            gaps.append((self._tail, start))
            if start - self._tail > self._max_gap_len:
                self._max_gap_len = start - self._tail
            if len(gaps) > self._MAX_GAPS:
                gaps.pop(0)
        self._tail = start + busy
        return start

    def next_event_cycle(self) -> int:
        if self._gaps:
            return self._gaps[0][0]
        return self._tail

    @property
    def tail(self) -> int:
        return self._tail


class TestPrimitiveHorizons:
    """``next_event_cycle()``: observational, and the integer cycle at
    which each primitive's occupancy next changes an acquirer's outcome."""

    def test_port_horizon_tracks_fractional_budget(self):
        port = Port(interval=2.5)
        assert port.next_event_cycle() == 0
        assert port.acquire(0) == 0
        assert port.next_event_cycle() == 3  # ceil(2.5)
        assert port.acquire(0) == 3
        assert port.next_event_cycle() == 5  # ceil(5.0)
        before = port.next_event_cycle()
        assert port.next_event_cycle() == before  # observational

    def test_timeline_horizon_is_the_reservation_expiry(self):
        line = Timeline()
        assert line.next_event_cycle() == 0
        line.hold_until(7)
        assert line.next_event_cycle() == 7
        assert line.begin(3) == 7  # begin() does not mutate the horizon
        assert line.next_event_cycle() == 7

    def test_slot_pool_horizon_is_the_earliest_release(self):
        pool = SlotPool(capacity=2)
        assert pool.next_event_cycle() == 0
        pool.occupy(9)
        pool.occupy(5)
        assert pool.next_event_cycle() == 5
        assert pool.next_event_cycle() == 5  # observational
        # Full pool: acquiring waits for exactly the advertised horizon.
        assert pool.acquire(0) == 5
        assert pool.next_event_cycle() == 9

    def test_pipelined_lane_horizon_prefers_backfillable_gaps(self):
        lane = PipelinedLane()
        assert lane.next_event_cycle() == 0
        assert lane.allocate(0, 3) == 0
        assert lane.next_event_cycle() == 3  # tail, no gaps
        assert lane.allocate(10, 2) == 10  # leaves gap [3, 10)
        assert lane.next_event_cycle() == 3  # gap start wins over tail
        assert lane.allocate(0, 4) == 3  # backfills the gap
        assert lane.next_event_cycle() == 7  # remaining gap [7, 10)

    def test_pipelined_lane_bisect_matches_linear_scan(self):
        """Randomized streams: after every call, the bisect lane agrees
        with the linear scan on the start it returns, the gap list, the
        tail and the horizon.  The streams mix entries ready at or past
        the tail, entries ready inside a gap (which split it) and entries
        ready far behind the tail, with ``busy`` from 1 to 64."""
        backfills = misses = peak = 0
        for seed in range(24):
            rng = random.Random(seed)
            lane, ref = PipelinedLane(), LinearScanLane()
            for _ in range(1500):
                tail = ref.tail
                mode = rng.random()
                if mode < 0.3 or not ref._gaps:
                    ready = tail + rng.randint(0, 300)
                elif mode < 0.6:
                    gap_start, gap_end = rng.choice(ref._gaps)
                    ready = rng.randint(gap_start, gap_end)
                elif mode < 0.8:
                    ready = max(0, tail - rng.randint(1_000, 100_000))
                else:
                    ready = tail - rng.randint(1, 64)
                busy = rng.randint(1, 64)
                had_gaps = bool(ref._gaps)
                start = ref.allocate(ready, busy)
                assert lane.allocate(ready, busy) == start
                assert lane._gaps == ref._gaps
                assert lane.tail == ref.tail
                assert lane.next_event_cycle() == ref.next_event_cycle()
                if start < tail:
                    backfills += 1
                elif had_gaps and ready < tail:
                    misses += 1
                peak = max(peak, len(ref._gaps))
        assert backfills and misses  # both outcomes of the gap search ran
        # Splits grow the list past the append-time trim, so the pop(0)
        # path also ran on a list already longer than _MAX_GAPS.
        assert peak > PipelinedLane._MAX_GAPS

    def test_sm_core_horizon_composes_children(self):
        kernel = KernelTrace(
            warps=[
                WarpTrace(
                    instructions=[
                        WarpInstr("alu", repeat=4),
                        WarpInstr(
                            "ldg",
                            active=2,
                            addrs=(0, 4096),
                            bytes_per_thread=4,
                        ),
                    ]
                )
            ],
            name="horizon",
        )
        sim = GpuSimulator(SMALL, kernel)
        assert sim.next_event_cycle() is None  # nothing queued before run
        sim.run()
        sm = sim.sms[0]
        # After the run, the SM horizon is the max of nothing pending:
        # still a plain integer, never None (components always answer).
        assert isinstance(sm.next_event_cycle(), int)
        assert sim.next_event_cycle() is None  # drained
