"""Observability layer units: registry, tracer, manifests, report CLI."""

import json

import pytest

from repro.errors import ConfigError
from repro.gpusim import VOLTA_V100
from repro.gpusim.observability import (
    MetricsRegistry,
    RunManifest,
    TimelineTracer,
    build_manifest,
    canonical_name,
    config_hash,
    load_manifest,
    write_if_changed,
    write_manifest,
)
from repro.gpusim.observability.tracer import (
    MODE_LAST,
    MODE_MAX,
    MODE_MEAN,
    MODE_SUM,
)
from repro.gpusim.report import (
    VERDICT_IMPROVEMENT,
    VERDICT_REGRESSION,
    VERDICT_SAME,
    diff_manifests,
    direction,
)
from repro.gpusim.report import main as report_main


class TestRegistry:
    def test_counter_gauge_probe(self):
        reg = MetricsRegistry()
        counter = reg.counter("sm0/l1/misses")
        counter.add(3)
        counter.add()
        assert reg.value("sm0/l1/misses") == 4
        gauge = reg.gauge("gpu/cycles")
        gauge.set(123.5)
        assert reg.value("gpu/cycles") == 123.5
        backing = {"n": 7}
        reg.probe("sm0/rt/thread_beats", lambda: backing["n"])
        backing["n"] = 9
        assert reg.value("sm0/rt/thread_beats") == 9

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        hist = reg.histogram("gpu/warp_latency", unit="cycles")
        for sample in (2.0, 4.0, 6.0):
            hist.observe(sample)
        summary = reg.value("gpu/warp_latency")
        assert summary == {
            "count": 3, "sum": 12.0, "min": 2.0, "max": 6.0, "mean": 4.0,
        }
        assert reg.histogram("empty").value()["count"] == 0

    def test_derived_reads_registry(self):
        reg = MetricsRegistry()
        reg.counter("l1/misses").add(25)
        reg.counter("l1/accesses").add(100)
        reg.derived(
            "derived/miss_rate",
            lambda r: r.value("l1/misses") / r.value("l1/accesses"),
        )
        assert reg.value("derived/miss_rate") == pytest.approx(0.25)

    def test_scope_nesting_and_prefixing(self):
        reg = MetricsRegistry()
        sm = reg.scope("sm3")
        l1 = sm.scope("l1")
        l1.counter("mshr_merges").add(2)
        assert reg.value("sm3/l1/mshr_merges") == 2
        assert "sm3/l1/mshr_merges" in reg

    def test_duplicate_and_invalid_names_rejected(self):
        reg = MetricsRegistry()
        reg.counter("sm0/l1/misses")
        with pytest.raises(ConfigError):
            reg.counter("sm0/l1/misses")
        with pytest.raises(ConfigError):
            reg.counter("SM0/L1/Misses")
        with pytest.raises(ConfigError):
            reg.counter("sm0//misses")
        with pytest.raises(ConfigError):
            reg.value("no/such/metric")

    def test_rollup_sum_over_pattern(self):
        reg = MetricsRegistry()
        for index in range(4):
            reg.counter(f"sm{index}/l1/misses").add(index + 1)
        reg.counter("l2/misses").add(100)
        assert reg.sum("sm*/l1/misses") == 10
        assert reg.match("sm*/l1/misses") == [
            "sm0/l1/misses", "sm1/l1/misses", "sm2/l1/misses", "sm3/l1/misses",
        ]
        with pytest.raises(ConfigError):
            reg.sum("sm*/l1/nonexistent")

    def test_as_dict_and_tree(self):
        reg = MetricsRegistry()
        reg.counter("sm0/l1/misses").add(5)
        reg.gauge("gpu/cycles").set(10.0)
        flat = reg.as_dict()
        assert flat == {"sm0/l1/misses": 5, "gpu/cycles": 10.0}
        tree = reg.tree()
        assert tree["sm0"]["l1"]["misses"] == 5
        assert tree["gpu"]["cycles"] == 10.0

    def test_canonical_name_folds_sm_instances(self):
        assert canonical_name("sm12/l1/misses") == "sm*/l1/misses"
        assert canonical_name("gpu/cycles") == "gpu/cycles"
        assert canonical_name("sm0/sched/instructions/alu") == (
            "sm*/sched/instructions/alu"
        )


class TestTracer:
    def test_bucketing_by_interval(self):
        tracer = TimelineTracer(interval=100)
        tracer.channel("busy", mode=MODE_SUM)
        tracer.record("busy", 10, 5.0)
        tracer.record("busy", 90, 5.0)
        tracer.record("busy", 150, 1.0)
        assert tracer.series("busy") == [(0, 10.0), (100, 1.0)]

    def test_modes(self):
        tracer = TimelineTracer(interval=10)
        tracer.channel("peak", mode=MODE_MAX)
        tracer.channel("level", mode=MODE_LAST)
        tracer.channel("rate", mode=MODE_MEAN)
        for value in (3.0, 7.0, 5.0):
            tracer.record("peak", 1, value)
            tracer.record("level", 1, value)
            tracer.record("rate", 1, value)
        assert tracer.series("peak") == [(0, 7.0)]
        assert tracer.series("level") == [(0, 5.0)]
        assert tracer.series("rate") == [(0, 5.0)]

    def test_ring_buffer_bounds_memory(self):
        tracer = TimelineTracer(interval=1, capacity=8)
        for cycle in range(100):
            tracer.record("busy", cycle, 1.0)
        series = tracer.series("busy")
        assert len(series) == 8
        assert series[0][0] == 92  # oldest buckets evicted
        # A late event older than the evicted horizon is dropped, not stored.
        tracer.record("busy", 0, 1.0)
        assert len(tracer.series("busy")) == 8
        assert tracer.dropped("busy") == 1

    def test_mode_conflict_and_unknowns_rejected(self):
        tracer = TimelineTracer()
        tracer.channel("busy", mode=MODE_SUM)
        tracer.channel("busy", mode=MODE_SUM)  # idempotent redeclare
        with pytest.raises(ConfigError):
            tracer.channel("busy", mode=MODE_MAX)
        with pytest.raises(ConfigError):
            tracer.channel("x", mode="median")
        with pytest.raises(ConfigError):
            tracer.series("unknown")
        with pytest.raises(ConfigError):
            TimelineTracer(interval=0)

    def test_json_and_chrome_trace_export(self):
        tracer = TimelineTracer(interval=10)
        tracer.channel("hsu/busy_beats", mode=MODE_SUM, unit="thread-beats")
        tracer.record("hsu/busy_beats", 5, 4.0)
        tracer.record("hsu/busy_beats", 25, 2.0)
        payload = tracer.to_json()
        assert payload["interval"] == 10
        assert payload["channels"]["hsu/busy_beats"]["samples"] == [
            [0, 4.0], [20, 2.0],
        ]
        events = tracer.to_chrome_trace()
        assert all(e["ph"] == "C" for e in events)
        assert events[0]["ts"] == 0 and events[0]["args"] == {"busy_beats": 4.0}
        json.dumps(events)  # must be serializable as-is


class TestManifest:
    def test_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("sm0/l1/misses").add(7)
        manifest = build_manifest(
            run_id="unit-test",
            config=VOLTA_V100,
            registry=reg,
            workload={"family": "ggnn", "dataset": "S10K"},
            extras={"note": "round trip"},
        )
        path = write_manifest(manifest, out_dir=tmp_path)
        assert path == tmp_path / "unit-test.json"
        loaded = load_manifest(path)
        assert loaded == manifest
        assert loaded.metrics["sm0/l1/misses"] == 7
        assert loaded.config["num_sms"] == 80
        assert loaded.config_sha256 == config_hash(VOLTA_V100)

    def test_write_if_changed_rewrites_only_other_bytes(self, tmp_path):
        path = tmp_path / "sub" / "entry.json"
        assert write_if_changed(path, "{}\n")
        before = path.stat()
        assert not write_if_changed(path, "{}\n")
        assert path.stat().st_ino == before.st_ino
        assert path.stat().st_mtime_ns == before.st_mtime_ns
        path.write_text("{ truncat")
        assert write_if_changed(path, "{}\n")
        assert path.read_text() == "{}\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["entry.json"]

    def test_two_manifests_start_one_git_process(self, monkeypatch):
        import subprocess

        from repro.gpusim.observability import manifest as module

        started = []
        run = subprocess.run

        def counted(args, *rest, **kwargs):
            started.append(args[0])
            return run(args, *rest, **kwargs)

        module.git_sha.cache_clear()
        monkeypatch.setattr(subprocess, "run", counted)
        first, second = (
            build_manifest(run_id=run_id, config=VOLTA_V100)
            for run_id in ("first", "second")
        )
        assert started == ["git"]
        assert first.git_sha == second.git_sha

    def test_config_hash_stable_and_sensitive(self):
        assert config_hash(VOLTA_V100) == config_hash(VOLTA_V100)
        assert config_hash(VOLTA_V100) != config_hash(VOLTA_V100.scaled(1))

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"run_id": "x", "bogus": 1}))
        with pytest.raises(ConfigError):
            load_manifest(path)


def _manifest(run_id, metrics, tmp_path):
    manifest = RunManifest(run_id=run_id, metrics=metrics)
    return write_manifest(manifest, out_dir=tmp_path)


class TestReport:
    def test_direction_heuristics(self):
        assert direction("gpu/cycles") == -1
        assert direction("sm0/l1/misses") == -1
        assert direction("sm0/l1/hits") == 1
        assert direction("derived/dram_row_locality_frfcfs") == 1
        assert direction("sm0/sched/instructions/alu") == 0

    def test_diff_classifies_verdicts(self):
        old = RunManifest(run_id="a", metrics={
            "gpu/cycles": 1000.0, "l1/hits": 50, "sched/alu": 10, "same": 1,
        })
        new = RunManifest(run_id="b", metrics={
            "gpu/cycles": 1100.0, "l1/hits": 60, "sched/alu": 12, "same": 1,
        })
        verdicts = {d.name: d.verdict for d in diff_manifests(old, new)}
        assert verdicts["gpu/cycles"] == VERDICT_REGRESSION
        assert verdicts["l1/hits"] == VERDICT_IMPROVEMENT
        assert verdicts["same"] == VERDICT_SAME
        # Threshold turns a small change into "same".
        verdicts = {
            d.name: d.verdict
            for d in diff_manifests(old, new, threshold_pct=25.0)
        }
        assert verdicts["gpu/cycles"] == VERDICT_SAME

    def test_cli_prints_report(self, tmp_path, capsys):
        a = _manifest("a", {"gpu/cycles": 100.0, "l1/hits": 5}, tmp_path)
        b = _manifest("b", {"gpu/cycles": 90.0, "l1/hits": 5}, tmp_path)
        assert report_main([str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "gpu/cycles" in out and "improvement" in out
        assert "l1/hits" not in out  # unchanged hidden by default
        assert report_main([str(a), str(b), "--all"]) == 0
        assert "l1/hits" in capsys.readouterr().out

    def test_cli_fail_on_regression(self, tmp_path, capsys):
        a = _manifest("a", {"gpu/cycles": 100.0}, tmp_path)
        b = _manifest("b", {"gpu/cycles": 150.0}, tmp_path)
        assert report_main([str(a), str(b), "--fail-on-regression"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
