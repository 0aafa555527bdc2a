"""The campaign runner and its persistent result cache.

Covers the contract docs/CAMPAIGN.md documents: cached results are
bit-exact with fresh simulation, the cache invalidates on config change /
trace change / schema bump, parallel execution equals serial execution,
corrupted entries fall back to recompute, a failed job (or a dead pool
worker) is reported without aborting the campaign, and a finished
workload group leaves nothing of its run, traces or pack alive.
"""

import json
import os
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro import api, builds
from repro.datasets import registry
from repro.errors import ConfigError
from repro.experiments import campaign, common
from repro.gpusim import (
    GpuConfig,
    GpuSimulator,
    KernelTrace,
    VOLTA_V100,
    WarpInstr,
    WarpTrace,
    engine,
)
from repro.gpusim.observability import config_hash
from repro.gpusim.soa import PackedKernel
from repro.gpusim.stats import SimStats
from repro.workloads import base

#: Tiny jobs: one btree group and one bvhnn group, milliseconds each.
BTREE_BASE = campaign.Job("btree", "B+10K", "baseline", queries=32)
BTREE_HSU = campaign.Job("btree", "B+10K", "hsu", queries=32)
BVHNN_BASE = campaign.Job("bvhnn", "R10K", "baseline", queries=32)
#: One bvhnn group: two traces shared by four design points.
BVHNN_GROUP = [
    BVHNN_BASE,
    *(
        campaign.Job("bvhnn", "R10K", "hsu", warp_buffer=size, queries=32)
        for size in (1, 4, 8)
    ),
]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets a fresh results/cache dir and clean process caches."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    campaign.set_cache_mode("on")
    _clear_process_caches()
    yield tmp_path
    campaign.set_cache_mode("on")
    _clear_process_caches()


def _clear_process_caches():
    api.clear_caches()


def _runs() -> int:
    """Workload executions so far: the build store's ``run`` count."""
    return builds.build_counts["run"]


def _count_calls(monkeypatch, owner, name) -> Counter:
    """Patch ``owner.name`` to count its calls under ``"calls"``."""
    counts = Counter()
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return counts


def _count_renames(monkeypatch) -> Counter:
    """Count ``os.replace`` calls per target path."""
    counts = Counter()
    original = os.replace

    def counted(src, dst):
        counts[Path(dst)] += 1
        return original(src, dst)

    monkeypatch.setattr(os, "replace", counted)
    return counts


def _job_config(job: campaign.Job) -> GpuConfig:
    config = common.config_for(job.family)
    if job.variant == "hsu":
        config = config.with_warp_buffer(job.warp_buffer)
    return config.with_scheduler(job.scheduler).with_memory(job.memory)


class TestKeys:
    def test_config_stable_hash_matches_observability(self):
        config = VOLTA_V100.scaled(2)
        assert config.stable_hash() == config_hash(config)
        assert config.stable_hash() != VOLTA_V100.stable_hash()

    def test_trace_fingerprint_tracks_content(self):
        def kernel(repeat):
            return KernelTrace(
                warps=[WarpTrace(instructions=[WarpInstr("alu", repeat=repeat)])],
                name="fp",
            )

        assert kernel(1).fingerprint() == kernel(1).fingerprint()
        assert kernel(1).fingerprint() != kernel(2).fingerprint()

    def test_stats_key_covers_all_invalidation_axes(self):
        base = campaign.stats_key({"w": 1}, "t" * 40, "c" * 64)
        assert campaign.stats_key({"w": 2}, "t" * 40, "c" * 64) != base
        assert campaign.stats_key({"w": 1}, "u" * 40, "c" * 64) != base
        assert campaign.stats_key({"w": 1}, "t" * 40, "d" * 64) != base

    def test_simstats_json_roundtrip_is_bit_exact(self):
        stats = SimStats(
            cycles=12345.678, l1_accesses=7, hsu_entry_stall_cycles=0.1 + 0.2
        )
        clone = SimStats.from_json_dict(
            json.loads(json.dumps(stats.to_json_dict()))
        )
        assert clone == stats

    def test_simstats_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            SimStats.from_json_dict({"cycles": 1, "bogus": 2})


class TestCache:
    def test_cold_then_warm_is_bit_exact(self):
        cold = campaign.run_job(BTREE_BASE)
        assert not cold.cached
        _clear_process_caches()
        warm = campaign.run_job(BTREE_BASE)
        assert warm.cached
        assert warm.stats == cold.stats
        assert warm.key == cold.key

    def test_warm_run_skips_workload_execution(self):
        campaign.run_job(BTREE_BASE)
        _clear_process_caches()
        before = _runs()
        campaign.run_job(BTREE_BASE)
        assert _runs() == before

    def test_config_change_busts_cache(self):
        campaign.run_job(BTREE_HSU)
        _clear_process_caches()
        other = campaign.run_job(
            campaign.Job("btree", "B+10K", "hsu", warp_buffer=4, queries=32)
        )
        assert not other.cached

    def test_trace_change_busts_cache(self):
        campaign.run_job(BTREE_BASE)
        _clear_process_caches()
        other = campaign.run_job(
            campaign.Job("btree", "B+10K", "baseline", queries=16)
        )
        assert not other.cached

    def test_schema_bump_busts_cache(self, monkeypatch):
        campaign.run_job(BTREE_BASE)
        _clear_process_caches()
        monkeypatch.setattr(campaign, "CACHE_SCHEMA_VERSION", 9999)
        assert not campaign.run_job(BTREE_BASE).cached

    def test_corrupted_entry_falls_back_to_recompute(self):
        cold = campaign.run_job(BTREE_BASE)
        path = campaign._stats_path(cold.key)
        path.write_text("{ not json !!")
        _clear_process_caches()
        before = campaign.cache_stats.snapshot()
        healed = campaign.run_job(BTREE_BASE)
        assert not healed.cached
        assert healed.stats == cold.stats
        assert campaign.cache_stats.delta(before).corrupt >= 1
        # The bad entry was overwritten with a loadable one.
        _clear_process_caches()
        assert campaign.run_job(BTREE_BASE).cached

    def test_torn_stats_entry_is_a_miss(self):
        """A real ``sims/`` entry cut to half its bytes (a torn write)
        recomputes bit-identical stats and is rewritten whole."""
        cold = campaign.run_job(BTREE_BASE)
        path = campaign._stats_path(cold.key)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        _clear_process_caches()
        before = campaign.cache_stats.snapshot()
        healed = campaign.run_job(BTREE_BASE)
        assert not healed.cached
        assert healed.stats == cold.stats
        assert campaign.cache_stats.delta(before).corrupt >= 1
        entry = json.loads(path.read_text())
        assert entry["simstats"] == cold.stats.to_json_dict()
        _clear_process_caches()
        assert campaign.run_job(BTREE_BASE).cached

    def test_torn_manifest_is_rewritten_whole_on_a_hit(self):
        campaign.run_job(BTREE_BASE)
        path = campaign.results_dir() / f"{BTREE_BASE.run_id}.json"
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        _clear_process_caches()
        assert campaign.run_job(BTREE_BASE).cached
        assert path.read_bytes() == whole

    def test_corrupted_trace_entry_recovers_too(self):
        campaign.run_job(BTREE_BASE)
        for entry in (campaign.cache_dir() / "traces").glob("*.json"):
            entry.write_text('{"schema": -1}')
        _clear_process_caches()
        before = _runs()
        warm = campaign.run_job(BTREE_BASE)
        # Trace tier was corrupt, so the workload re-ran; the sims tier
        # still hit because the recomputed fingerprint matches.
        assert warm.cached
        assert _runs() == before + 1

    def test_no_cache_mode_neither_reads_nor_writes(self):
        campaign.run_job(BTREE_BASE, mode="off")
        assert not list((campaign.cache_dir()).rglob("*.json"))
        campaign.set_cache_mode("on")
        campaign.run_job(BTREE_BASE)
        _clear_process_caches()
        assert not campaign.run_job(BTREE_BASE, mode="off").cached

    def test_rebuild_mode_recomputes_but_stores(self):
        campaign.run_job(BTREE_BASE)
        _clear_process_caches()
        assert not campaign.run_job(BTREE_BASE, mode="rebuild").cached
        campaign.set_cache_mode("on")
        _clear_process_caches()
        assert campaign.run_job(BTREE_BASE).cached

    def test_cached_hit_restamps_run_manifest(self):
        cold = campaign.run_job(BTREE_BASE)
        manifest = (
            campaign.results_dir() / f"{BTREE_BASE.run_id}.json"
        )
        original = manifest.read_text()
        manifest.unlink()
        _clear_process_caches()
        warm = campaign.run_job(BTREE_BASE)
        assert warm.cached
        assert manifest.read_text() == original
        assert cold.stats == warm.stats


class TestIngest:
    """Each trace of a campaign is fingerprinted once and packed once per
    pack key, and an unchanged file is never rewritten."""

    def test_cold_group_ingests_each_trace_once(self, monkeypatch):
        with monkeypatch.context() as patch:
            fingerprints = _count_calls(patch, KernelTrace, "fingerprint")
            packs = _count_calls(patch, engine, "pack_kernel")
            renames = _count_renames(patch)
            summary = campaign.execute(BVHNN_GROUP, jobs_n=1, label="group")
        assert summary.ok and summary.misses == len(BVHNN_GROUP)
        assert fingerprints["calls"] == 2  # the baseline and the HSU trace
        assert packs["calls"] == 2
        traces = set((campaign.cache_dir() / "traces").glob("*.json"))
        assert {p for p in renames if p.parent.name == "traces"} == traces
        assert all(renames[p] == 1 for p in traces)
        bundle = base.to_traces(api.run_workload("bvhnn", "R10K", 32))
        for job in BVHNN_GROUP:
            kernel = bundle.baseline if job.variant == "baseline" else bundle.hsu
            fresh = GpuSimulator(_job_config(job), kernel).run()
            assert summary.stats_for(job) == fresh

    def test_warm_hit_leaves_restamped_manifest_untouched(self):
        campaign.run_job(BTREE_BASE)
        manifest = campaign.results_dir() / f"{BTREE_BASE.run_id}.json"
        cold_stat, cold_text = manifest.stat(), manifest.read_text()
        _clear_process_caches()
        assert campaign.run_job(BTREE_BASE).cached
        warm_stat = manifest.stat()
        assert warm_stat.st_ino == cold_stat.st_ino
        assert warm_stat.st_mtime_ns == cold_stat.st_mtime_ns
        assert manifest.read_text() == cold_text

    def test_stale_trace_entry_is_the_only_rewrite(self, monkeypatch):
        campaign.execute(BVHNN_GROUP, jobs_n=1, label="cold")
        params = common.workload_params(BVHNN_BASE)
        path = campaign._trace_path(campaign.trace_key(params, "hsu", 16))
        fresh = path.read_text()
        stale = json.loads(fresh) | {"trace_sha": "0" * 40}
        path.write_text(json.dumps(stale, sort_keys=True) + "\n")
        _clear_process_caches()
        renames = _count_renames(monkeypatch)
        summary = campaign.execute(
            BVHNN_GROUP, jobs_n=1, mode="rebuild", label="rebuild"
        )
        assert summary.ok
        assert path.read_text() == fresh
        assert {p for p in renames if p.parent.name == "traces"} == {path}
        assert renames[path] == 1

    def test_simulator_rejects_a_foreign_pack(self):
        def kernel():
            return KernelTrace(
                warps=[WarpTrace(instructions=[WarpInstr("alu", repeat=4)])],
                name="pack-probe",
            )

        config = GpuConfig(num_sms=1)
        mine = kernel()
        packed = engine.pack_kernel(mine, config)
        with pytest.raises(ConfigError, match="another kernel"):
            GpuSimulator(config, kernel(), packed=packed)
        with pytest.raises(ConfigError, match="pack key"):
            GpuSimulator(GpuConfig(num_sms=2), mine, packed=packed)
        shared = config.with_warp_buffer(2).with_scheduler("lrr")
        assert (
            GpuSimulator(shared, mine, packed=packed).run()
            == GpuSimulator(shared, mine).run()
        )


class TestExecute:
    def test_parallel_equals_serial(self, tmp_path, monkeypatch):
        jobs = [BTREE_BASE, BTREE_HSU, BVHNN_BASE]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-par"))
        parallel = campaign.execute(jobs, jobs_n=2, label="par")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-ser"))
        _clear_process_caches()
        serial = campaign.execute(jobs, jobs_n=1, label="ser")
        assert parallel.ok and serial.ok
        assert parallel.misses == serial.misses == 3
        for job in jobs:
            assert parallel.stats_for(job) == serial.stats_for(job)

    def test_failed_job_reported_without_aborting(self, monkeypatch):
        bad = campaign.Job("btree", "B+1M", "baseline", queries=32)
        job_trace = campaign.job_trace

        def crashing(job):
            if job == bad:
                raise RuntimeError("workload crashed")
            return job_trace(job)

        monkeypatch.setattr(campaign, "job_trace", crashing)
        summary = campaign.execute([BTREE_BASE, bad], jobs_n=1, label="mixed")
        assert not summary.ok
        assert [r.job for r in summary.failed] == [bad]
        assert summary.misses == 1  # the good job still ran
        assert summary.failed[0].attempts == 2  # single retry happened
        assert "FAILED" in summary.render()

    def test_dead_worker_fails_only_its_job(self, monkeypatch):
        jobs = campaign.smoke_jobs()
        doomed = campaign.Job("btree", "B+10K", "hsu", queries=64)
        run_job = campaign.run_job

        def dying(job, *args, **kwargs):
            if job == doomed:
                os._exit(1)  # the worker dies, as an OOM kill would end it
            return run_job(job, *args, **kwargs)

        monkeypatch.setattr(campaign, "run_job", dying)
        summary = campaign.execute(jobs, jobs_n=2, label="dead-worker")
        assert [r.job for r in summary.failed] == [doomed]
        assert summary.failed[0].attempts == 2  # lost once, retried once
        assert "BrokenProcessPool" in summary.failed[0].error
        assert summary.hits + summary.misses == len(jobs) - 1
        payload = json.loads(
            (campaign.results_dir() / "campaign-dead-worker.json").read_text()
        )
        assert payload["failed"] == 1 and len(payload["jobs"]) == len(jobs)
        monkeypatch.setattr(campaign, "run_job", run_job)
        _clear_process_caches()
        for job in jobs:
            if job != doomed:
                assert summary.stats_for(job) == run_job(job).stats

    def test_timeout_stops_the_worker_it_passes(self, monkeypatch):
        """A group past its deadline has its worker stopped, not awaited:
        the campaign ends within its deadlines (4 s for the B+10K group,
        then 2 s for each of its retried jobs), not after the stuck
        workload's sleeps."""
        from repro.workloads import btree_kv

        def stuck(*args, **kwargs):
            time.sleep(30.0)

        monkeypatch.setattr(btree_kv, "run_btree", stuck)
        jobs = campaign.smoke_jobs()
        start = time.monotonic()
        summary = campaign.execute(
            jobs, jobs_n=2, per_job_timeout=2.0, label="timeout"
        )
        wall = time.monotonic() - start
        assert [r.job for r in summary.failed] == [
            job for job in jobs if job.family == "btree"
        ]
        for record in summary.failed:
            assert record.attempts == 2 and "timeout" in record.error
        assert summary.misses == 2  # the bvhnn group still ran
        assert wall < 20.0

    def test_a_duplicated_job_runs_and_counts_once(self):
        cold = campaign.execute([BTREE_BASE, BTREE_BASE], jobs_n=1, label="dup")
        assert (len(cold.records), cold.misses) == (1, 1)
        warm = campaign.execute(
            [BTREE_BASE, BTREE_HSU, BTREE_BASE], jobs_n=1, label="dup"
        )
        assert [r.job for r in warm.records] == [BTREE_BASE, BTREE_HSU]
        assert (warm.hits, warm.misses) == (1, 1)
        # CI's warm step expects a hit for each of the 14 distinct jobs of
        # `--smoke --families ablations metrics`; one job is in two lists.
        ci = (
            campaign.smoke_jobs()
            + campaign.ablation_jobs(smoke=True)
            + campaign.metrics_jobs(smoke=True)
        )
        assert (len(ci), len(set(ci))) == (15, 14)

    def test_campaign_manifest_merges_job_records(self):
        summary = campaign.execute([BTREE_BASE, BTREE_HSU], jobs_n=1,
                                   label="merged")
        payload = json.loads(
            (campaign.results_dir() / "campaign-merged.json").read_text()
        )
        assert payload["campaign"] == "merged"
        assert payload["cache_misses"] == 2 and payload["failed"] == 0
        run_ids = {j["run_id"] for j in payload["jobs"]}
        assert run_ids == {BTREE_BASE.run_id, BTREE_HSU.run_id}
        for job in payload["jobs"]:
            assert (campaign.results_dir() / job["manifest"]).is_file()
        assert summary.wall > 0

    def test_default_jobs_cover_the_campaign(self):
        jobs = campaign.default_jobs()
        pairs = {(j.family, j.abbr) for j in jobs}
        assert len(pairs) == 21  # 9 GGNN + 5 FLANN + 5 BVH-NN + 2 B+
        assert len(jobs) == len(set(jobs))  # deterministic and deduplicated
        sweeps = [j for j in jobs if j.variant == "hsu"
                  and (j.warp_buffer != 8 or j.euclid_width != 16)]
        assert sweeps, "fig10/fig11 design points missing"

    def test_smoke_jobs_span_two_groups(self):
        groups = {job.group for job in campaign.smoke_jobs()}
        assert len(groups) == 2

    @pytest.mark.parametrize("width", [0, -4, 7])
    def test_job_rejects_invalid_euclid_width(self, width):
        with pytest.raises(ConfigError, match="euclid_width"):
            campaign.Job("ggnn", "S10K", "hsu", euclid_width=width)

    @pytest.mark.parametrize("family, abbr, axes, match", [
        ("nope", "R10K", {}, "unknown workload family"),
        ("btree", "NOPE", {}, "unknown btree dataset"),
        ("btree", "B+10K", {"queries": 0}, "queries must be >= 1"),
        ("ggnn", "S10K", {"shards": 2}, "bvhnn"),
        ("flann", "R10K", {"metric": "l1"}, "arkade"),
        ("bvhnn", "R10K", {"scheduler": "bogus"}, "unknown scheduler policy"),
        ("bvhnn", "R10K", {"memory": "bogus"}, "unknown memory model"),
    ])
    def test_job_rejects_bad_axes_at_construction(self, family, abbr, axes,
                                                  match):
        with pytest.raises(ConfigError, match=match):
            campaign.Job(family, abbr, "hsu", **axes)


class _WatchedTrace(KernelTrace):
    """A kernel trace that can be weakly referenced (``KernelTrace`` has
    slots and no ``__weakref__``); it fingerprints and simulates the same."""


class _WatchedPack(PackedKernel):
    """A pack that can be weakly referenced."""


class TestGroupRelease:
    """A process holds one workload group in memory at a time: when a
    group's last job ends, nothing references its run, traces, pack,
    dataset points or index."""

    @staticmethod
    def watch(monkeypatch) -> tuple[list, list]:
        """Weak references, tagged with their job's group, to every
        workload run, trace, pack, dataset point set and index the
        campaign creates; and the groups whose objects were still alive
        when a job of another group began."""
        from repro.search import BTreeKvIndex, BvhRadiusIndex

        watched: list[tuple[tuple, weakref.ref]] = []
        leaks: list[tuple] = []
        current = [None]
        run_job, to_trace = campaign.run_job, base.to_trace
        points = registry._points

        def loading(*args, **kwargs):
            loaded = points(*args, **kwargs)
            if not any(ref() is loaded for _group, ref in watched):
                watched.append((current[0], weakref.ref(loaded)))
            return loaded

        def building(cls):
            build = cls.build

            def built(self, *args, **kwargs):
                watched.append((current[0], weakref.ref(self)))
                return build(self, *args, **kwargs)

            monkeypatch.setattr(cls, "build", built)

        monkeypatch.setattr(registry, "_points", loading)
        for cls in (BTreeKvIndex, BvhRadiusIndex):
            building(cls)
        # Builds an earlier call made outside any group live in the
        # process scope; drop them so that the groups make their own.
        for kind in ("dataset", "btree-index", "bvhnn-index"):
            builds.drop(kind)

        def starting(job, *args, **kwargs):
            leaks.extend(
                group for group, ref in watched
                if group != job.group and ref() is not None
            )
            current[0] = job.group
            return run_job(job, *args, **kwargs)

        def lowering(run, *args, **kwargs):
            lowered = to_trace(run, *args, **kwargs)
            trace = _WatchedTrace(lowered.warps, lowered.name)
            if not any(ref() is run for _group, ref in watched):
                watched.append((current[0], weakref.ref(run)))
            watched.append((current[0], weakref.ref(trace)))
            return trace

        def packing(kernel, config):
            packed = _WatchedPack(kernel, config)
            watched.append((current[0], weakref.ref(packed)))
            return packed

        monkeypatch.setattr(campaign, "run_job", starting)
        monkeypatch.setattr(base, "to_trace", lowering)
        monkeypatch.setattr(engine, "pack_kernel", packing)
        return watched, leaks

    def test_serial_campaign_releases_each_group(self, monkeypatch):
        watched, leaks = self.watch(monkeypatch)
        jobs = [BTREE_BASE, BTREE_HSU, *BVHNN_GROUP]
        summary = campaign.execute(jobs, jobs_n=1, label="release")
        assert summary.ok and summary.misses == len(jobs)
        assert {group for group, _ref in watched} == {
            BTREE_BASE.group, BVHNN_BASE.group
        }
        # Two runs, four traces, four packs, two point sets and two
        # indexes were made, ...
        assert len(watched) == 14
        # ... none outlived its group, and none outlives the campaign.
        assert leaks == []
        assert [ref for _group, ref in watched if ref() is not None] == []

    def test_worker_releases_its_group(self, monkeypatch, tmp_path):
        watched, _leaks = self.watch(monkeypatch)
        cache, results = tmp_path / "cache", tmp_path / "results"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
        records = campaign._worker(
            tuple(BVHNN_GROUP), "on", str(cache), str(results), True
        )
        assert all(record.ok for record in records)
        # One run, two traces, two packs, a point set and an index.
        assert len(watched) == 7
        assert [ref for _group, ref in watched if ref() is not None] == []

    def test_release_drops_the_groups_graph(self):
        """A graph built inside a group dies with it; one built outside
        any group stays in the process scope and is reused inside one."""
        from repro.workloads import ggnn

        def small_graph():
            return ggnn._build_graph("S10K", 12, 48, 0.05, 0)

        with campaign.TraceIngest():
            refs = [weakref.ref(built) for built in (
                small_graph()[0].points, small_graph()[1],
            )]
        assert [ref for ref in refs if ref() is not None] == []
        kept = small_graph()
        before = builds.build_counts["ggnn-graph"]
        with campaign.TraceIngest():
            assert small_graph() is kept
        assert small_graph() is kept
        assert builds.build_counts["ggnn-graph"] == before

    def test_release_survives_a_traced_run_workload(self, monkeypatch):
        """perfbench's traced pass wraps ``api.run_workload`` in a plain
        function; the group's run is released all the same."""
        stored = api.run_workload
        monkeypatch.setattr(api, "run_workload", lambda *a: stored(*a))
        summary = campaign.execute([BTREE_BASE], jobs_n=1, label="traced")
        assert summary.ok
        before = _runs()
        stored("btree", "B+10K", BTREE_BASE.queries)
        assert _runs() == before + 1


class TestLowerOnlyWhatAJobReads:
    """Each job lowers only the variant it simulates, and a workload group
    executes its workload once."""

    @staticmethod
    def run_counted(monkeypatch, jobs) -> dict[str, int]:
        """Execute ``jobs`` on an empty cache; return the trace lowerings
        per variant and the workload executions that made."""
        from repro.workloads import btree_kv, bvhnn

        counts = {
            name: _count_calls(monkeypatch, owner, name)
            for owner, name in (
                (base, "lower_baseline"), (base, "lower_hsu"),
                (btree_kv, "run_btree"), (bvhnn, "run_bvhnn"),
                (bvhnn, "run_bvhnn_sharded"),
            )
        }
        summary = campaign.execute(jobs, jobs_n=1, label="counted")
        assert summary.ok and summary.misses == len(jobs)
        return {name: count["calls"] for name, count in counts.items()}

    def test_width_jobs_lower_one_hsu_trace_each(self, monkeypatch):
        jobs = [
            campaign.Job("bvhnn", "R10K", "hsu", queries=32, euclid_width=w)
            for w in (8, 16, 32)
        ]
        assert self.run_counted(monkeypatch, jobs) == {
            "lower_baseline": 0, "lower_hsu": 3,
            "run_btree": 0, "run_bvhnn": 1, "run_bvhnn_sharded": 0,
        }

    def test_smoke_ablations_lower_no_baseline(self, monkeypatch):
        jobs = campaign.ablation_jobs(smoke=True)
        assert self.run_counted(monkeypatch, jobs) == {
            "lower_baseline": 0, "lower_hsu": 1,
            "run_btree": 0, "run_bvhnn": 1, "run_bvhnn_sharded": 0,
        }

    @pytest.mark.parametrize("axes, runner", [
        ({"family": "btree", "abbr": "B+10K"}, "run_btree"),
        ({"family": "bvhnn", "abbr": "R10K", "shards": 2, "shard": 1},
         "run_bvhnn_sharded"),
    ])
    def test_paired_group_lowers_each_variant_once(
        self, monkeypatch, axes, runner
    ):
        jobs = [
            campaign.Job(variant=variant, queries=32, **axes)
            for variant in ("baseline", "hsu")
        ]
        expected = {
            "lower_baseline": 1, "lower_hsu": 1,
            "run_btree": 0, "run_bvhnn": 0, "run_bvhnn_sharded": 0,
        }
        assert self.run_counted(monkeypatch, jobs) == expected | {runner: 1}


class TestWorkloadMemo:
    """One workload run is one memo entry, however the call spells it."""

    def test_spellings_share_one_execution(self, monkeypatch):
        from repro.workloads import btree_kv

        counts = _count_calls(monkeypatch, btree_kv, "run_btree")
        default = common.resolved_queries("btree", "B+10K")
        before = _runs()
        first = api.run_workload("btree", "B+10K")
        for call in (
            lambda: api.run_workload("btree", "B+10K", None, "euclid"),
            lambda: api.run_workload("btree", "B+10K", queries=default),
            lambda: api.run_workload(
                family="btree", abbr="B+10K", metric="euclid"
            ),
        ):
            assert call() is first
        assert counts["calls"] == 1
        assert _runs() == before + 1

    def test_metric_search_runs_each_arkade_workload_once(self, monkeypatch):
        """Each metric's two simulations and its counter read share one
        run on an empty cache."""
        from repro.experiments import metric_search
        from repro.workloads import arkade

        counts = _count_calls(monkeypatch, arkade, "run_arkade")
        metric_search.compute.cache_clear()
        try:
            rows = metric_search.compute()
        finally:
            metric_search.compute.cache_clear()
        assert [row["metric"] for row in rows] == list(metric_search.METRICS)
        assert counts["calls"] == len(metric_search.METRICS)


class TestAblationJobs:
    """Ablation Tables D and E read the ``--families ablations`` jobs."""

    #: Table D: policy -> (HSU cycles, L1 misses), and Table E: memory
    #: model -> (HSU cycles, DRAM accesses), as printed before the tables
    #: read these jobs (when they re-simulated a recorded 1,024-query
    #: trace).
    TABLE_D = {"gto": (280641, 22052), "lrr": (280352, 22039),
               "oldest": (280472, 22060)}
    TABLE_E = {"real": (280641, 7389), "perfect_l1": (63657, 0),
               "perfect_dram": (239341, 7389)}

    def test_tables_read_only_the_warmed_entries(self):
        from repro.experiments import ablations

        jobs = campaign.ablation_jobs()
        assert {job.queries for job in jobs} == {campaign.ABLATION_QUERIES}
        summary = campaign.execute(jobs, jobs_n=1, label="ablations")
        assert summary.ok and summary.misses == len(jobs)
        _clear_process_caches()
        ablations.scheduler_policies.cache_clear()
        ablations.memory_idealization.cache_clear()
        before = campaign.cache_stats.snapshot()
        try:
            table_d = ablations.scheduler_policies()
            table_e = ablations.memory_idealization()
        finally:
            ablations.scheduler_policies.cache_clear()
            ablations.memory_idealization.cache_clear()
        delta = campaign.cache_stats.delta(before)
        assert (delta.hits, delta.misses) == (len(jobs), 0)
        assert {
            r["policy"]: (r["hsu_cycles"], r["l1_misses"]) for r in table_d
        } == self.TABLE_D
        assert {
            r["memory"]: (r["hsu_cycles"], r["dram_accesses"]) for r in table_e
        } == self.TABLE_E


class TestViews:
    def test_named_simulate_is_a_cache_view(self):
        stats = api.simulate(("btree", "B+10K"), variant="baseline")
        _clear_process_caches()
        before = campaign.cache_stats.snapshot()
        again = api.simulate(("btree", "B+10K"), variant="baseline")
        assert again == stats
        assert campaign.cache_stats.delta(before).hits == 1

    def test_recorded_simulate_hits_on_identical_input(self):
        kernel = KernelTrace(
            warps=[WarpTrace(instructions=[WarpInstr("alu", repeat=8)])],
            name="view-probe",
        )
        config = GpuConfig(num_sms=1)
        first = campaign.cached_simulate("probe", "X", "v", config, kernel)
        before = campaign.cache_stats.snapshot()
        second = campaign.cached_simulate("probe", "X", "v", config, kernel)
        assert second == first
        assert campaign.cache_stats.delta(before).hits == 1


class TestRunAllSummary:
    def test_light_run_reports_per_experiment_rows(self, capsys):
        from repro.experiments import run_all

        run_all.main(["--light"])
        out = capsys.readouterr().out
        assert "run_all summary (per experiment)" in out
        assert "repro.experiments.table1_isa" in out
        assert "Cache hits" in out and "Cache misses" in out
