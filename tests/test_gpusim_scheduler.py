"""Refactor guards for the pluggable Scheduler / MemorySystem components.

The big one is the golden test: the default stack (GTO scheduler + real
memory hierarchy) must reproduce ``tests/goldens/gpusim_smoke.json``
exactly — every pinned job's SimStats, the GGNN graph digests, the
sharded curve's totals and the serving cost models — so no refactor can
silently drift the timing model.  Around it: shape checks on the pinned
curves, per-policy ordering semantics, end-to-end invariants for the
alternative schedulers, the idealized memory models, integer cycle typing
under fractional port budgets, and config validation.
"""

from __future__ import annotations

import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.experiments import campaign
from repro.gpusim import (
    GpuSimulator,
    KernelTrace,
    VOLTA_V100,
    WarpInstr,
    WarpTrace,
    build_scheduler,
    simulate,
)
from repro.gpusim.config import MEMORY_MODELS, SCHEDULER_POLICIES
from repro.gpusim.memory import MEMORY_SYSTEMS
from repro.gpusim.resource import Port
from repro.gpusim.scheduler import SCHEDULERS
from repro.gpusim.trace import KIND_ALU, KIND_LDG

CFG = VOLTA_V100.scaled(1)

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN = json.loads((GOLDEN_DIR / "gpusim_smoke.json").read_text())


def _load_regen():
    """``tests/goldens/regen.py``: it declares and computes every pin."""
    spec = importlib.util.spec_from_file_location(
        "goldens_regen", GOLDEN_DIR / "regen.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()


def kernel(*warps) -> KernelTrace:
    return KernelTrace(warps=[WarpTrace(instructions=list(w)) for w in warps])


def _ldg_kernel(num_warps: int = 4, loads: int = 24) -> KernelTrace:
    """Streaming global loads: every access touches a fresh 128B line."""
    warps = []
    for w in range(num_warps):
        instrs = []
        for i in range(loads):
            base = (w * loads + i) * 32
            addrs = tuple((base + lane) * 128 for lane in range(32))
            instrs.append(
                WarpInstr(KIND_LDG, addrs=addrs, bytes_per_thread=4)
            )
        warps.append(instrs)
    return kernel(*warps)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty campaign cache and results dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))


@pytest.fixture(scope="module")
def sharded_passes(tmp_path_factory):
    """A cold then a warm pass of the pinned sharded curve on one fresh
    campaign cache, each ``{shards: ShardedSimResult}``."""
    tmp = tmp_path_factory.mktemp("sharded")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp / "cache"))
        mp.setenv("REPRO_RESULTS_DIR", str(tmp / "results"))
        return [
            {shards: regen.sharded_point(shards)
             for shards in regen.SHARD_COUNTS}
            for _pass in ("cold", "warm")
        ]


class TestGoldenBitExact:
    @pytest.mark.parametrize("key", sorted(regen.JOBS))
    def test_matches_committed_golden(self, key):
        job = regen.JOBS[key]
        entry = GOLDEN[key]
        trace = campaign.job_trace(job)
        config = campaign.job_config(job)
        # Input drift would invalidate the comparison — catch it first.
        assert trace.fingerprint() == entry["trace_sha"], key
        assert config.stable_hash() == entry["config_sha"], key
        stats = GpuSimulator(config, trace).run()
        assert stats.to_json_dict() == entry["simstats"], key

    @pytest.mark.parametrize("key", sorted(regen.GRAPHS))
    def test_graph_digest(self, key):
        assert regen.graph_digest(regen.GRAPHS[key]) == (
            GOLDEN[key]["graph_sha"]
        ), key

    @pytest.mark.parametrize("key", sorted(regen.SHARDED_POINTS))
    def test_sharded_point(self, key, sharded_passes):
        point = sharded_passes[0][regen.SHARDED_POINTS[key]]
        assert regen.sharded_pin(point) == GOLDEN[key], key

    @pytest.mark.parametrize("key", sorted(regen.COST_MODELS))
    def test_cost_model(self, key, fresh_cache):
        assert regen.cost_model(*regen.COST_MODELS[key]) == GOLDEN[key], key

    def test_file_holds_exactly_the_declared_pins(self):
        declared = [*regen.JOBS, *regen.GRAPHS, *regen.SHARDED_POINTS,
                    *regen.COST_MODELS]
        assert sorted(GOLDEN) == sorted(declared)


class TestPinnedCurveShapes:
    """Directions the pinned curves must keep.  The pins equal the live
    model (above), so these hold for it, and a regeneration that breaks
    one fails here."""

    @pytest.mark.parametrize("metric", ("euclid",) + campaign.METRIC_SWEEP)
    def test_hsu_beats_baseline_on_every_metric(self, metric):
        # A metric reduction that makes the HSU slower than the baseline
        # is a lowering bug, not noise.
        cycles = {
            job.variant: GOLDEN[key]["simstats"]["cycles"]
            for key, job in regen.JOBS.items()
            if job.family == "arkade" and job.metric == metric
        }
        assert cycles["hsu"] < cycles["baseline"], (metric, cycles)

    def test_no_sharded_makespan_exceeds_the_single_device_total(
        self, sharded_passes
    ):
        # Partitioning shrinks every device's BVH, so sharding must never
        # lose cycles.
        cold = sharded_passes[0]
        for shards, point in cold.items():
            assert point.makespan_cycles <= cold[1].total_cycles, shards

    def test_repeated_sharded_point_is_all_cache_hits(self, sharded_passes):
        cold, warm = sharded_passes
        for shards in regen.SHARD_COUNTS:
            assert cold[shards].cache_hits == 0, shards
            assert warm[shards].cache_hits == shards, shards
            assert replace(warm[shards], cache_hits=0) == cold[shards], shards


class TestSchedulerOrdering:
    @staticmethod
    def _drain(sched):
        order = []
        while sched:
            order.append(sched.pop())
        return order

    def test_gto_ready_then_lowest_windex(self):
        sched = build_scheduler("gto")
        sched.push(5, 2, 9)
        sched.push(5, 0, 1)
        sched.push(3, 7, 0)
        assert self._drain(sched) == [(3, 7, 0), (5, 0, 1), (5, 2, 9)]

    def test_lrr_ties_resolve_in_arrival_order(self):
        sched = build_scheduler("lrr")
        for windex in (2, 0, 1):
            sched.push(5, windex, 0)
        assert [w for _, w, _ in self._drain(sched)] == [2, 0, 1]

    def test_oldest_first_prefers_least_trace_progress(self):
        sched = build_scheduler("oldest")
        sched.push(5, 0, 4)
        sched.push(5, 1, 2)
        sched.push(5, 2, 3)
        assert [w for _, w, _ in self._drain(sched)] == [1, 2, 0]

    def test_ready_time_dominates_every_policy(self):
        for policy in SCHEDULER_POLICIES:
            sched = build_scheduler(policy)
            sched.push(9, 0, 0)
            sched.push(1, 5, 8)
            assert sched.pop()[1] == 5, policy


class TestAlternativeSchedulers:
    #: Eight warps on one scaled-down SM (two per sub-core), lengths skewed
    #: so greedy and rotating policies produce genuinely different orders.
    @staticmethod
    def _contended_kernel() -> KernelTrace:
        return kernel(
            *[[WarpInstr(KIND_ALU, repeat=20 + 15 * (w % 4), chain=2)]
              for w in range(8)]
        )

    @pytest.mark.parametrize("policy", ("lrr", "oldest"))
    def test_all_warps_retire_same_work(self, policy):
        trace = self._contended_kernel()
        gto = simulate(CFG, trace)
        alt = simulate(CFG.with_scheduler(policy), trace)
        assert alt.num_warps == gto.num_warps == 8
        assert alt.warp_instructions == gto.warp_instructions
        assert alt.instructions_by_kind == gto.instructions_by_kind

    @pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
    def test_issue_port_lower_bound(self, policy):
        # Two warps pinned to the same sub-core must serialize their issue
        # slots no matter the policy: >= 100 slots on sub-core 0.
        trace = kernel(
            [WarpInstr(KIND_ALU, repeat=50)],
            [WarpInstr(KIND_ALU)],
            [WarpInstr(KIND_ALU)],
            [WarpInstr(KIND_ALU)],
            [WarpInstr(KIND_ALU, repeat=50)],
        )
        stats = simulate(CFG.with_scheduler(policy), trace)
        assert stats.cycles >= 100


class TestMemoryModels:
    def test_perfect_l1_never_misses(self):
        sim = GpuSimulator(CFG.with_memory("perfect_l1"), _ldg_kernel())
        stats = sim.run()
        assert stats.l1_accesses > 0
        assert stats.l1_misses == 0
        assert stats.l1_hits == stats.l1_accesses
        # Nothing leaks past a perfect L1.
        assert stats.l2_accesses == 0
        assert stats.dram_accesses == 0
        assert sim.registry.sum("sm*/l1/misses") == 0
        assert sim.registry.value("l2/accesses") == 0
        assert sim.registry.value("gpu/memory_model") == "perfect_l1"

    def test_perfect_dram_same_traffic_fewer_cycles(self):
        trace = _ldg_kernel()
        real = simulate(CFG, trace)
        ideal = simulate(CFG.with_memory("perfect_dram"), trace)
        # Identical cache-level demand; only the DRAM timing is idealized.
        assert ideal.l1_accesses == real.l1_accesses
        assert ideal.dram_accesses == real.dram_accesses > 0
        assert ideal.cycles <= real.cycles
        # The ideal DRAM reports a degenerate single-activation stream and
        # must still satisfy the row-locality consistency contract
        # (check_dram_consistency already ran inside run()).
        assert ideal.dram_activations <= 1

    def test_real_is_the_default(self):
        sim = GpuSimulator(CFG, kernel([WarpInstr(KIND_ALU)]))
        sim.run()
        assert sim.registry.value("gpu/memory_model") == "real"
        assert sim.registry.value("gpu/scheduler_policy") == "gto"


class TestIntegerCycles:
    def test_port_grants_integer_cycles_on_fractional_interval(self):
        interval = CFG.l2_port_interval
        assert interval != int(interval)  # the fixture we rely on
        port = Port(interval)
        grants = [port.acquire(0) for _ in range(30)]
        assert all(isinstance(g, int) for g in grants)
        # The fractional budget accumulates internally: grant i lands at
        # ceil(i * interval), never drifting from the exact schedule.
        assert grants == [math.ceil(i * interval) for i in range(30)]

    def test_simstats_cycle_fields_are_ints(self):
        # Streams enough L1 misses through the fractional L2/DRAM ports
        # that any float leak in the timestamp plumbing would surface.
        stats = simulate(CFG, _ldg_kernel())
        assert stats.l2_accesses > 0
        for name, value in stats.to_json_dict().items():
            if isinstance(value, dict):
                continue
            assert isinstance(value, int), (name, value)


class TestValidation:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigError):
            CFG.with_scheduler("bogus")
        with pytest.raises(ConfigError):
            build_scheduler("bogus")

    def test_unknown_memory_rejected(self):
        with pytest.raises(ConfigError):
            CFG.with_memory("bogus")

    @pytest.mark.parametrize("units", [0, 2])
    def test_rt_units_other_than_one_rejected(self, units):
        # SmCore builds one RtUnit, so any other count would silently
        # simulate one.
        with pytest.raises(ConfigError, match="rt_units_per_sm"):
            replace(CFG, rt_units_per_sm=units)

    def test_registries_cover_the_config_names(self):
        assert set(SCHEDULERS) == set(SCHEDULER_POLICIES)
        assert set(MEMORY_SYSTEMS) == set(MEMORY_MODELS)
