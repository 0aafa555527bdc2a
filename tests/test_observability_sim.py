"""Observability wired through a real simulation (small rtindex workload).

The golden property: :class:`SimStats` built from the metrics registry must
equal the values obtained by reading the component counters directly, i.e.
the pre-registry accounting.  Plus: per-SM queryability, tracer series,
manifest stamping, and the DRAM row-locality consistency invariants.
"""

import pytest

from repro.experiments import campaign
from repro.gpusim import GpuSimulator, SimStats, TimelineTracer, VOLTA_V100
from repro.gpusim.observability import load_manifest
from repro.workloads.base import to_traces
from repro.workloads.rtindex import run_rtindex

CFG = VOLTA_V100.scaled(1)


@pytest.fixture(scope="module")
def bundle():
    _tri, point = run_rtindex(num_keys=512, num_lookups=128)
    return to_traces(point)


@pytest.fixture(scope="module")
def sim(bundle):
    simulator = GpuSimulator(CFG, bundle.hsu, tracer=TimelineTracer(interval=64))
    simulator.run()
    return simulator


def _legacy_stats(sim) -> SimStats:
    """Recompute the aggregate view the pre-registry way: instruction-mix
    counts straight off the kernel trace, memory counters straight off the
    component counter objects — bypassing the registry wherever possible."""
    kinds = {k: 0 for k in ("alu", "sfu", "lds", "ldg", "hsu")}
    warp_instructions = 0
    for warp in sim.kernel.warps:
        for instr in warp.instructions:
            kinds[instr.kind] += instr.repeat if instr.kind != "hsu" else 1
            warp_instructions += instr.repeat
    stats = SimStats(
        num_warps=sim.kernel.num_warps,
        cycles=sim.registry.value("gpu/cycles"),
        warp_instructions=warp_instructions,
        instructions_by_kind=kinds,
        hsu_able_busy=sim.registry.sum("sm*/sched/hsu_able_busy_cycles"),
        other_busy=sim.registry.sum("sm*/sched/other_busy_cycles"),
    )
    for sm in sim.sms:
        stats.l1_accesses += sm.l1.stats.accesses
        stats.l1_hits += sm.l1.stats.hits
        stats.l1_misses += sm.l1.stats.misses
        stats.l1_mshr_merges += sm.l1.stats.mshr_merges
        stats.l1_mshr_stalls += sm.l1.stats.mshr_stalls
        stats.hsu_warp_instructions += sm.rt_unit.stats.warp_instructions
        stats.hsu_thread_beats += sm.rt_unit.stats.thread_beats
        stats.hsu_fetch_line_accesses += sm.rt_unit.stats.fetch_line_accesses
        stats.hsu_entry_stall_cycles += sm.rt_unit.stats.entry_stall_cycles
    stats.l2_accesses = sim.l2.stats.accesses
    stats.l2_hits = sim.l2.stats.hits
    stats.l2_misses = sim.l2.stats.misses
    stats.dram_accesses = sim.dram.stats.accesses
    stats.dram_activations = sim.dram.stats.activations
    _accesses, stats.dram_frfcfs_activations = sim.dram.frfcfs_replay()
    return stats


class TestGoldenEquality:
    def test_registry_view_equals_direct_attributes(self, sim):
        via_registry = SimStats.from_registry(sim.registry)
        assert via_registry == _legacy_stats(sim)
        assert via_registry.l1_accesses > 0
        assert via_registry.hsu_warp_instructions > 0
        assert via_registry.dram_accesses > 0

    def test_per_sm_metrics_queryable(self, sim):
        reg = sim.registry
        assert reg.value("sm0/l1/misses") > 0
        assert reg.value("sm0/rt/thread_beats") > 0
        # Per-SM rollup equals the chip-wide aggregate.
        stats = SimStats.from_registry(reg)
        assert reg.sum("sm*/l1/accesses") == stats.l1_accesses
        assert reg.sum("sm*/rt/thread_beats") == stats.hsu_thread_beats

    def test_derived_metrics_match_simstats_methods(self, sim):
        reg = sim.registry
        stats = SimStats.from_registry(reg)
        assert reg.value("derived/l1_miss_rate") == pytest.approx(
            stats.l1_miss_rate()
        )
        assert reg.value("derived/l2_miss_rate") == pytest.approx(
            stats.l2_miss_rate()
        )
        assert reg.value("derived/hsu_able_fraction") == pytest.approx(
            stats.hsu_able_fraction()
        )
        assert reg.value("derived/hsu_ops_per_cycle") == pytest.approx(
            stats.hsu_ops_per_cycle()
        )
        assert reg.value("derived/dram_row_locality_frfcfs") == pytest.approx(
            stats.dram_row_locality_frfcfs
        )


class TestDramLocalityConsistency:
    """Regression for the silent-disagreement bug: both localities now share
    the ``dram_accesses`` numerator and obey the replay invariants."""

    def test_frfcfs_never_below_arrival_locality(self, sim):
        stats = SimStats.from_registry(sim.registry)
        assert stats.dram_frfcfs_activations <= stats.dram_activations
        assert stats.dram_row_locality_frfcfs >= stats.dram_row_locality()
        stats.check_dram_consistency()

    def test_replay_preserves_access_count(self, sim):
        accesses, activations = sim.dram.frfcfs_replay()
        assert accesses == sim.dram.stats.accesses
        assert 1 <= activations <= sim.dram.stats.activations

    def test_derived_field_cannot_disagree(self):
        stats = SimStats(
            dram_accesses=30, dram_activations=10, dram_frfcfs_activations=6
        )
        assert stats.dram_row_locality() == pytest.approx(3.0)
        assert stats.dram_row_locality_frfcfs == pytest.approx(5.0)
        stats.check_dram_consistency()

    def test_inconsistent_stats_detected(self):
        bad = SimStats(
            dram_accesses=30, dram_activations=10, dram_frfcfs_activations=11
        )
        with pytest.raises(AssertionError):
            bad.check_dram_consistency()


class TestTracerWiring:
    def test_all_series_populated(self, sim):
        tracer = sim.tracer
        assert set(tracer.channels()) == {
            "gpu/warps_inflight",
            "hsu/busy_beats",
            "l1/mshr_pending",
            "l2/mshr_pending",
            "dram/row_hit_rate",
        }
        for channel in tracer.channels():
            assert tracer.series(channel), f"{channel} recorded no samples"

    def test_busy_beats_sum_to_thread_beats(self, sim):
        total = sum(v for _c, v in sim.tracer.series("hsu/busy_beats"))
        assert total == sim.registry.sum("sm*/rt/thread_beats")

    def test_row_hit_rate_is_a_ratio(self, sim):
        for _cycle, value in sim.tracer.series("dram/row_hit_rate"):
            assert 0.0 <= value <= 1.0


class TestManifestFromExperiments:
    def test_fig_experiment_manifest_matches_simstats(self, bundle, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        stats = campaign.cached_simulate("rtindex", "T512", "hsu", CFG,
                                         bundle.hsu)
        manifest = load_manifest(tmp_path / "rtindex-t512-hsu.json")
        for field_name in (
            "cycles", "l1_accesses", "l1_misses", "l2_accesses",
            "dram_accesses", "dram_activations", "hsu_thread_beats",
            "hsu_able_busy",
        ):
            assert manifest.simstats[field_name] == getattr(stats, field_name)
        assert manifest.simstats["dram_row_locality_frfcfs"] == pytest.approx(
            stats.dram_row_locality_frfcfs
        )
        assert manifest.metrics["gpu/cycles"] == stats.cycles
        assert manifest.workload == {
            "family": "rtindex", "dataset": "T512", "variant": "hsu",
        }
        assert len(manifest.config_sha256) == 64

    def test_manifests_can_be_disabled(self, bundle, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_MANIFESTS", "0")
        campaign.cached_simulate("rtindex", "T512", "off", CFG, bundle.hsu)
        assert not list(tmp_path.glob("*.json"))
