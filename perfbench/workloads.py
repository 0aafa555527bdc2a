"""The benchmark's workloads and the reference data their outputs are
checked against.  ``README.md`` in this directory records why each
workload was chosen.

The campaign slice takes no seed: a campaign ``Job`` carries no seed, so
the slice is fixed by the default campaign's registry
(``campaign.default_jobs()``) and every run simulates the same jobs.  The
seed drives only the serving workload's arrivals and query samples.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Campaign slices: (families, datasets) cut from ``default_jobs()``.
CAMPAIGN_SLICES = {
    # Thread-per-query families: one trace generation per dataset feeds
    # five simulations, so the simulator (lane allocation above all)
    # carries the pass.
    "campaign-parallel": (("bvhnn", "flann"), ("R10K", "BUN")),
}

SERVE_WORKLOAD = "serve-mixed"
WORKLOADS = (*CAMPAIGN_SLICES, SERVE_WORKLOAD)

#: Serving mix: (endpoint kind, nominal offered qps, batch policy).  The
#: policies are ``benchmarks/bench_serving.py``'s, copied so that an edit
#: there does not silently change this workload.  The nominal rates are an
#: eighth of bench_serving's 300/500/1500 qps: the one event loop queues
#: more as the host slows, so the busier it is at nominal load, the more
#: nominal-phase latency (the tail above all) swings with host speed (see
#: README.md, "Steadiness").
SERVE_MIX = (
    ("point", 37.5, {"max_batch": 32, "max_wait_s": 0.002, "max_queue": 4096}),
    ("knn", 62.5, {"max_batch": 64, "max_wait_s": 0.002, "max_queue": 4096}),
    ("kv", 187.5, {"max_batch": 128, "max_wait_s": 0.001, "max_queue": 8192}),
)
#: Peak-phase offered load as a multiple of nominal: 900/1500/4500 qps,
#: three times bench_serving's rates.
PEAK_FACTOR = 24.0
#: Length of the nominal-phase windows whose p99s
#: ``serving.nominal.p99_ms`` takes the median of: long enough for over
#: 1,000 samples, so that more than ten lie beyond each window's p99.
P99_WINDOW_S = 4.0
#: Share of a session's measured seconds spent in the nominal phase; the
#: peak phase takes the rest.  Latency percentiles need the longer phase.
NOMINAL_SHARE = 0.8
#: Fresh serving processes per run; the end-to-end serving metrics are
#: medians over them.
SERVE_SESSIONS = 3
#: Latency limit of the goodput metric (ms, timed from the due time).
LATENCY_LIMIT_MS = 50.0
#: Untimed warm-up phase at nominal load (seconds), part of set-up.
WARMUP_S = 1.0

REFERENCE_PATH = HERE / "reference_simstats.json"


def campaign_jobs(workload: str) -> list:
    """The slice's jobs, in ``default_jobs()`` order."""
    from repro.experiments import campaign

    families, datasets = CAMPAIGN_SLICES[workload]
    return [
        job for job in campaign.default_jobs(families)
        if job.abbr in datasets
    ]


def load_reference() -> dict[str, dict[str, dict]]:
    """``{workload: {run_id: simstats}}`` recorded with the benchmark."""
    return json.loads(REFERENCE_PATH.read_text())


def simstats_mismatches(
    observed: dict[str, dict | None], reference: dict[str, dict]
) -> list[str]:
    """Run ids whose SimStats differ from the reference in any field,
    plus ids missing on either side."""
    bad = []
    for run_id in sorted(set(observed) | set(reference)):
        if observed.get(run_id) is None or observed[run_id] != reference.get(run_id):
            bad.append(run_id)
    return bad
