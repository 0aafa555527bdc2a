"""Self-tests of the benchmark harness (not of the program it measures).

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import asyncio
import copy
import json
from pathlib import Path

import numpy as np
import pytest

import openloop
import run
import spans
from run import check_campaign
from workloads import load_reference, simstats_mismatches

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    recorded = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 4.0, 0, None),
        ("a1", 2.0, 3.0, 1, None),
        ("b", 5.0, 9.0, 0, None),
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]
    totals = spans.layer_totals(recorded)
    assert sum(row["self_s"] for row in totals.values()) == 10.0
    assert spans.covered_seconds(recorded) == 10.0


def test_tracer_records_parents_and_restores_patches():
    clock = FakeClock(0.0)
    tracer = spans.Tracer(clock)

    class Layer:
        def inner(self):
            clock.advance(2.0)

        def outer(self):
            clock.advance(1.0)
            self.inner()
            clock.advance(0.5)

    original = Layer.__dict__["outer"]
    patches = spans.instrument(
        tracer, [("l.outer", Layer, "outer"), ("l.inner", Layer, "inner")]
    )
    Layer().outer()
    patches.restore()
    assert Layer.__dict__["outer"] is original
    assert tracer.spans == [
        ("l.outer", 0.0, 3.5, -1, None),
        ("l.inner", 1.0, 3.0, 0, None),
    ]
    totals = spans.layer_totals(tracer.spans)
    assert totals["l.outer"]["self_s"] == 1.5
    assert totals["l.inner"]["self_s"] == 2.0


def test_tagged_spans_carry_a_value_computed_from_the_call():
    tracer = spans.Tracer(FakeClock(0.0))

    class Index:
        def query_batch(self, queries, k=1):
            return queries[:k]

    patches = spans.instrument(tracer, [
        ("search.query_batch", Index, "query_batch",
         lambda _self, queries, *args, **kwargs: len(queries)),
    ])
    Index().query_batch([1, 2, 3])
    Index().query_batch([4, 5], k=2)
    patches.restore()
    assert [span[4] for span in tracer.spans] == [3, 2]
    assert tracer.tag_sum("search.query_batch") == 5


def test_due_time_latency_charges_a_stall_to_later_requests():
    clock = FakeClock()

    async def sleep(seconds: float) -> None:
        clock.advance(seconds)
        await asyncio.sleep(0)

    async def submit(endpoint: str, query: object) -> object:
        if query == "stall":
            clock.advance(0.050)  # a batch that holds the loop for 50 ms
        else:
            clock.advance(0.002)
        return query

    offsets = np.array([0.0, 0.001, 0.002])
    result = asyncio.run(openloop.run_phase(
        submit, offsets, ["e"] * 3, ["stall", "a", "b"], (KeyError,),
        clock=clock, sleep=sleep,
    ))
    assert result.status.tolist() == [openloop.OK] * 3
    assert result.due.tolist() == [100.0, 100.001, 100.002]
    # Request 0 is issued at once and runs while the generator sleeps 1 ms
    # towards request 1; the generator wakes only after the 50 ms stall and
    # issues request 2 (also overdue) right after request 1.
    assert result.lag_s == pytest.approx([0.0, 0.050, 0.049])
    assert result.latency_s == pytest.approx([0.051, 0.052, 0.053])
    # Timed from the send instead, request 1 would look 50 ms faster.
    assert (result.done - result.issued)[1] == pytest.approx(0.002)


def test_rejections_and_errors_are_counted_not_raised():
    async def submit(endpoint: str, query: object) -> object:
        if query == "full":
            raise KeyError(query)
        raise ValueError(query)

    result = asyncio.run(openloop.run_phase(
        submit, np.array([0.0, 0.0]), ["e", "e"], ["full", "boom"], (KeyError,)
    ))
    assert result.status.tolist() == [openloop.REJECTED, openloop.ERRORED]
    assert np.isnan(result.latency_s).all()


def test_poisson_schedule_is_seeded_and_sorted():
    first = openloop.poisson_schedule([100.0, 50.0], 2.0, np.random.default_rng(7))
    again = openloop.poisson_schedule([100.0, 50.0], 2.0, np.random.default_rng(7))
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])
    assert np.all(np.diff(first[0]) >= 0) and first[0][-1] < 2.0
    assert set(first[1].tolist()) == {0, 1}


def test_simstats_check_fails_when_one_field_changes():
    workload = "campaign-parallel"
    reference = load_reference()[workload]
    records = [
        {"run_id": run_id, "ok": True, "cached": False, "error": None,
         "simstats": copy.deepcopy(stats)}
        for run_id, stats in reference.items()
    ]
    warm = [dict(r, cached=True) for r in copy.deepcopy(records)]
    passes = [{"cold": records, "warm": warm}]
    assert check_campaign(workload, passes)[1] == 0

    run_id = records[0]["run_id"]
    assert simstats_mismatches(
        {r["run_id"]: r["simstats"] for r in records}, reference
    ) == []
    records[0]["simstats"]["cycles"] += 1
    assert simstats_mismatches(
        {r["run_id"]: r["simstats"] for r in records}, reference
    ) == [run_id]
    attempted, failed, problems = check_campaign(workload, passes)
    # The cold job differs from the reference, and its warm hit no longer
    # matches the cold result.
    assert (attempted, failed) == (2 * len(reference), 2)
    assert any(run_id in p for p in problems)


def test_warm_pass_miss_is_a_failure():
    workload = "campaign-parallel"
    reference = load_reference()[workload]
    cold = [
        {"run_id": run_id, "ok": True, "cached": False, "error": None,
         "simstats": stats}
        for run_id, stats in reference.items()
    ]
    warm = [dict(r, cached=True) for r in cold]
    warm[3] = dict(warm[3], cached=False)
    assert check_campaign(workload, [{"cold": cold, "warm": warm}])[1] == 1


def test_serving_metrics_use_whole_windows_and_count_failures_as_misses():
    window = run.P99_WINDOW_S
    offsets = [window / 20 * i for i in range(45)]  # two whole windows and a part
    latency = [1.0] * 20 + [5.0] * 20 + [100.0] * 5
    session = {"phases": {
        "nominal": {"duration_s": 2.25 * window, "offset_s": offsets,
                    "latency_ms": latency, "status": [0] * 45},
        "peak": {"duration_s": 2.0, "latency_ms": [10.0, 60.0, -1.0, 20.0],
                 "status": [0, 0, 1, 0]},
    }}
    headline = run.serve_headline(session)
    # The last quarter window (latency 100 ms) is no whole window.
    assert headline["window_p99_ms"] == [1.0, 5.0]
    assert headline["serve_goodput_qps"] == 1.0  # 2 of 4 within 50 ms, over 2 s
    other = dict(headline, serve_p50_ms=9.0)
    metrics = run.serve_metrics([headline, other, other])
    assert metrics["serve_p50_ms"] == (9.0, "ms")


def _campaign_pass() -> dict:
    job = {"run_id": "j", "ok": True, "cached": False, "wall": 0.5,
           "error": None, "simstats": {}}
    return {
        "setup_s": 0.4, "cold_s": 2.0, "warm_s": 0.01, "rss_mb": 100.0,
        "cold": [job, dict(job, wall=1.5)],
        "warm": [dict(job, cached=True, wall=0.0)] * 2,
        "model": {"events": 10, "idle_cycles_skipped": 1, "sim_cycles": 5,
                  "warp_instructions": 3},
        "trace": {"wall_s": 2.1, "covered_s": 2.0, "queries": 64, "layers": {
            "gpusim.run": {"calls": 2, "total_s": 1.0, "self_s": 0.5}}},
    }


def _serve_session() -> dict:
    phase = {"duration_s": 2.0, "offset_s": [0.5, 1.0],
             "latency_ms": [2.0, 4.0], "status": [0, 0],
             "endpoints": ["point_r10k", "kv_b10k"], "lag_ms": [0.1, 0.2]}
    split = {"queue_wait_ms": [1.0], "execute_ms": [2.0], "pace_ms_sum": 1.0,
             "batched_requests": 2, "batches": 1, "wait_execute_frac": 0.9}
    return {
        "setup_s": 1.8, "cold_s": 0.9, "rss_mb": 60.0,
        "phases": {"nominal": phase, "peak": phase},
        "model": {"events": 0, "idle_cycles_skipped": 0, "sim_cycles": 0,
                  "warp_instructions": 0},
        "trace": {"wall_s": 4.0, "covered_s": 3.0, "queries": 2, "layers": {},
                  "requests": {"nominal": split, "peak": split}},
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_manifest_metric(trace):
    units = run.manifest_units(json.loads(MANIFEST.read_text()), trace)
    campaign = [_campaign_pass(), _campaign_pass()]
    serve = [_serve_session(), _serve_session()]
    if trace:
        built = [run.layer_metrics(campaign[1], campaign[0], 0.05),
                 run.layer_metrics(serve[1], serve[0], 0.05)]
    else:
        built = [run.campaign_end_to_end(campaign, [0.4]),
                 run.serve_end_to_end(serve, [0.9])]
    for metrics in built:
        if not trace:
            metrics["ok_frac"] = (1.0, "ratio")
        assert list(run.in_manifest_order(metrics, units)) == list(units)
    with pytest.raises(run.BenchError):
        run.in_manifest_order(dict(list(built[0].items())[1:]), units)


def test_campaign_jobs_are_its_operations():
    metrics = run.campaign_end_to_end([_campaign_pass()], [0.4])
    # Job walls 0.5 s and 1.5 s, both due at the start: done after 0.5 s and 2 s.
    assert metrics["serve_p50_ms"] == (1250.0, "ms")
    assert metrics["serve_goodput_qps"] == (1.0, "1/s")  # 2 jobs in 2 s


def test_layers_a_workload_does_not_run_read_zero():
    campaign = run.layer_metrics(_campaign_pass(), _campaign_pass(), 0.0)
    assert campaign["serving.peak.kv_p99_ms"] == (0.0, "ms")
    assert campaign["campaign.cache_hits"] == (4, "count")
    assert campaign["gpusim.us_per_event"] == (1e5, "us")  # 1 s over 10 events
    serve = run.layer_metrics(_serve_session(), _serve_session(), 0.0)
    assert serve["campaign.cache_hits"] == (0, "count")
    assert serve["gpusim.us_per_event"] == (0.0, "us")
    assert serve["serving.peak.kv_p99_ms"] == (4.0, "ms")
    # One window holding latencies of 2 and 4 ms.
    assert serve["serving.nominal.p99_ms"] == (pytest.approx(3.98), "ms")
