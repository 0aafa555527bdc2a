"""One measured process of the benchmark; ``run.py`` spawns it.

Each process starts fresh with its own empty ``REPRO_CACHE_DIR`` and
``REPRO_RESULTS_DIR`` (set by ``run.py``), does one pass of a workload
and writes what it measured as JSON to ``--out``:

* ``--kind campaign``: one cold pass of a campaign slice (serial, cache
  on, manifests on), then a warm re-pass of the same jobs;
* ``--kind serve``: endpoint builds, cost-model calibration and an
  untimed warm-up (set-up), then the nominal and peak open-loop phases
  and a replay of every answer through ``query_batch``.

``--setup-only`` stops at the first timed operation (campaigns) or once
the endpoints are ready (serving).  ``--trace 1``
wraps each layer's public functions in spans (``spans.py``) for the
measured part of the pass and adds the per-layer totals to the output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import openloop
import spans
from workloads import (
    NOMINAL_SHARE,
    PEAK_FACTOR,
    SERVE_MIX,
    WARMUP_S,
    campaign_jobs,
)

clock = time.monotonic


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict[str, object]:
    """What the run resolved to: kernel backend, engine, versions."""
    import os
    import platform

    from repro.experiments.common import default_config
    from repro.gpusim.engine import resolve_engine_name
    from repro.kernels import resolve_backend_name
    from repro.kernels.registry import jit_available

    return {
        "kernel_backend": resolve_backend_name(),
        "sim_engine": resolve_engine_name(default_config()),
        "numba": jit_available(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _query_count(_index, queries, *args, **kwargs) -> int:
    return len(queries)


def trace_targets() -> list[tuple]:
    """``(span name, owner, attribute[, tag])`` for every traced layer
    boundary; ``query_batch`` spans are tagged with their query count.

    Each function is patched where its callers look it up: module-level
    imports are patched in the importing module, methods on their class.
    """
    import inspect

    from repro import api
    from repro.datasets import registry
    from repro.experiments import campaign
    from repro.gpusim import engine, soa
    from repro.gpusim.gpu import GpuSimulator
    from repro.gpusim.resource import PipelinedLane
    from repro.gpusim.trace import KernelTrace
    from repro.kernels.reference import ReferenceBackend
    from repro.search import BTreeKvIndex, BvhRadiusIndex, HnswIndex, KdTreeIndex
    from repro.serving import backends
    from repro.workloads import base, btree_kv, bvhnn, flann, ggnn

    targets = [
        ("datasets.load", module, "load_dataset")
        for module in (registry, bvhnn, flann, ggnn, btree_kv, backends)
    ]
    for cls in (BvhRadiusIndex, KdTreeIndex, HnswIndex, BTreeKvIndex):
        targets += [("search.build", cls, "build"),
                    ("search.query_batch", cls, "query_batch", _query_count)]
    targets += [
        ("workloads.run", api, "run_workload"),
        ("compiler.lower", base, "lower_baseline"),
        ("compiler.lower", base, "lower_hsu"),
        ("compiler.assemble", bvhnn, "assemble_warps_packed"),
        ("compiler.assemble", flann, "assemble_warps_packed"),
        ("gpusim.fingerprint", KernelTrace, "fingerprint"),
        ("gpusim.pack", soa, "pack_kernel"),
        ("gpusim.pack", engine, "pack_kernel"),
        ("gpusim.run", GpuSimulator, "run"),
        ("gpusim.lane_allocate", PipelinedLane, "allocate"),
        ("campaign.job", campaign, "run_job"),
        ("campaign.cache_read", campaign, "load_stats_entry"),
        ("campaign.cache_read", campaign, "load_trace_entry"),
        ("campaign.cache_read", campaign, "load_artifact"),
        ("campaign.cache_write", campaign, "store_stats_entry"),
        ("campaign.cache_write", campaign, "store_trace_entry"),
        ("campaign.cache_write", campaign, "store_artifact"),
        ("campaign.manifest", campaign, "build_manifest"),
        ("campaign.manifest", campaign, "write_manifest"),
    ]
    targets += [
        (f"kernels.{name}", ReferenceBackend, name)
        for name, member in vars(ReferenceBackend).items()
        if inspect.isfunction(member) and not name.startswith("_")
    ]
    return targets


# ---------------------------------------------------------------------------
# Campaign slices
# ---------------------------------------------------------------------------


def _manifest_counts(results_dir: Path, run_ids: list[str]) -> dict[str, int]:
    """Exact simulated counts summed over the jobs' run manifests."""
    totals = {"events": 0, "idle_cycles_skipped": 0, "sim_cycles": 0,
              "warp_instructions": 0}
    for run_id in run_ids:
        manifest = json.loads((results_dir / f"{run_id}.json").read_text())
        metrics = manifest["metrics"]
        totals["events"] += metrics["gpu/engine/events"]
        totals["idle_cycles_skipped"] += metrics["gpu/engine/idle_cycles_skipped"]
        totals["sim_cycles"] += metrics["gpu/cycles"]
        totals["warp_instructions"] += manifest["simstats"]["warp_instructions"]
    return totals


def _records(summary) -> list[dict[str, object]]:
    return [
        {"run_id": r.job.run_id, "ok": r.ok, "cached": r.cached,
         "wall": r.wall, "error": r.error, "simstats": r.simstats}
        for r in summary.records
    ]


def campaign_pass(args, spawned: float) -> dict[str, object]:
    import repro.workloads.bvhnn  # noqa: F401 - imports are set-up, not pass
    import repro.workloads.flann  # noqa: F401
    from repro.experiments import campaign
    from repro.gpusim.observability import results_dir

    jobs = campaign_jobs(args.workload)
    setup_s = clock() - spawned
    if args.setup_only:
        return {"setup_s": setup_s}

    tracer = patches = None
    if args.trace:
        tracer = spans.Tracer(clock)
        patches = spans.instrument(tracer, trace_targets())
    start = clock()
    cold = campaign.execute(jobs, jobs_n=1, mode="on", label=args.workload)
    cold_s = clock() - start
    if patches is not None:
        patches.restore()
    rss_mb = _rss_mb()

    start = clock()
    warm = campaign.execute(jobs, jobs_n=1, mode="on", label=f"{args.workload}-warm")
    warm_s = clock() - start

    result = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "rss_mb": rss_mb,
        "cold": _records(cold),
        "warm": _records(warm),
        "model": _manifest_counts(
            results_dir(), [r.job.run_id for r in cold.records if r.ok]
        ),
        "env": environment(),
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, cold_s, args.spans)
    return result


def _trace_summary(tracer: spans.Tracer, wall_s: float, path: str | None) -> dict:
    if path:
        tracer.write(Path(path))
    recorded = tracer.spans
    return {
        "wall_s": wall_s,
        "covered_s": spans.covered_seconds(recorded),
        "layers": spans.layer_totals(recorded),
        "queries": tracer.tag_sum("search.query_batch"),
    }


# ---------------------------------------------------------------------------
# Serving mix
# ---------------------------------------------------------------------------


def _plan(endpoints, rate_factor: float, duration_s: float,
          rng: np.random.Generator) -> dict[str, object]:
    """Arrival offsets, endpoint names and query objects of one phase."""
    rates = [rate * rate_factor for _kind, rate, _policy in SERVE_MIX]
    offsets, owners = openloop.poisson_schedule(rates, duration_s, rng)
    samples = [
        endpoint.sample_queries(int(np.count_nonzero(owners == index)),
                                seed=int(rng.integers(2**31)))
        for index, endpoint in enumerate(endpoints)
    ]
    cursor = [0] * len(endpoints)
    names, queries = [], []
    for owner in owners.tolist():
        names.append(endpoints[owner].name)
        queries.append(samples[owner][cursor[owner]])
        cursor[owner] += 1
    return {"offsets": offsets, "endpoints": names, "queries": queries,
            "duration_s": duration_s}


def _traced_serving(tracer: spans.Tracer, patches: spans.Patches,
                    rid_of: dict[int, int]) -> None:
    """Span wrappers for batch execution (tagged with the batch's request
    ids) and pacing (tagged with the paced seconds)."""
    from repro.serving.backends import Endpoint
    from repro.serving.cost import GpuCostModel

    run_batch = Endpoint.run_batch
    seconds = GpuCostModel.seconds

    def traced_run_batch(self, queries):
        index = tracer.open(
            "serving.run_batch", [rid_of.get(id(q), -1) for q in queries]
        )
        try:
            return run_batch(self, queries)
        finally:
            tracer.close(index)

    def traced_seconds(self, batch_size):
        index = tracer.open("serving.pace")
        try:
            paced = tracer.tags[index] = seconds(self, batch_size)
            return paced
        finally:
            tracer.close(index)

    patches.replace(Endpoint, "run_batch", traced_run_batch)
    patches.replace(GpuCostModel, "seconds", traced_seconds)


def serve_pass(args, spawned: float) -> dict[str, object]:
    import asyncio

    from repro.gpusim.observability import results_dir
    from repro.serving import (
        AdmissionError,
        BatchPolicy,
        QueryService,
        build_endpoint,
        calibrate,
    )

    work_start = clock()
    tracer = patches = None
    rid_of: dict[int, int] = {}
    if args.trace:
        tracer = spans.Tracer(clock)
        patches = spans.instrument(tracer, trace_targets())
        _traced_serving(tracer, patches, rid_of)

    service = QueryService()
    endpoints = []
    for kind, _rate, policy in SERVE_MIX:
        endpoint = build_endpoint(kind)
        span = tracer.open("serving.calibrate") if tracer else None
        cost = calibrate(endpoint.family, endpoint.abbr, variant="hsu")
        if tracer:
            tracer.close(span)
        service.add_endpoint(endpoint, BatchPolicy(**policy), cost=cost)
        endpoints.append(endpoint)
    cold_s = clock() - spawned
    if args.setup_only:
        return {"cold_s": cold_s}

    rng = np.random.default_rng(args.seed)
    nominal_s = args.seconds * NOMINAL_SHARE
    plans = [
        ("warmup", _plan(endpoints, 1.0, WARMUP_S, rng)),
        ("nominal", _plan(endpoints, 1.0, nominal_s, rng)),
        ("peak", _plan(endpoints, PEAK_FACTOR, args.seconds - nominal_s, rng)),
    ]
    phases: dict[str, openloop.PhaseResult] = {}
    rid_base: dict[str, int] = {}
    setup_s = None

    async def drive() -> None:
        nonlocal setup_s
        next_rid = 0
        for name, plan in plans:
            base = rid_base[name] = next_rid
            next_rid += len(plan["offsets"])

            def on_issue(i: int, query: object, _base=base) -> None:
                rid_of[id(query)] = _base + i

            phases[name] = await openloop.run_phase(
                service.submit, plan["offsets"], plan["endpoints"],
                plan["queries"], (AdmissionError,), clock=clock,
                on_issue=on_issue if tracer else None,
            )
            if name == "warmup":
                setup_s = clock() - spawned
        await service.close()

    asyncio.run(drive())
    work_end = clock()
    if patches is not None:
        patches.restore()
    rss_mb = _rss_mb()

    result = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "rss_mb": rss_mb,
        "phases": {},
        # The calibration simulations' manifests are the session's only ones.
        "model": _manifest_counts(
            results_dir(), sorted(p.stem for p in results_dir().glob("*.json"))
        ),
        "env": environment(),
    }
    for name, plan in plans:
        phase = phases[name]
        ok = phase.status == openloop.OK
        latency_ms = phase.latency_s * 1e3
        result["phases"][name] = {
            "duration_s": plan["duration_s"],
            "offset_s": plan["offsets"].tolist(),
            "endpoints": plan["endpoints"],
            "status": phase.status.tolist(),
            "latency_ms": np.where(ok, latency_ms, -1.0).tolist(),
            "lag_ms": (phase.lag_s * 1e3).tolist(),
            "mismatches": _replay_mismatches(endpoints, plan, phase),
        }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, work_end - work_start, args.spans)
        result["trace"]["requests"] = _request_breakdown(
            tracer, plans, phases, rid_base
        )
    return result


def _replay_mismatches(endpoints, plan, phase: openloop.PhaseResult) -> int:
    """Answered requests whose answer differs from a direct
    ``query_batch`` of the same queries on the same endpoint."""
    mismatches = 0
    for endpoint in endpoints:
        picked = [
            i for i, name in enumerate(plan["endpoints"])
            if name == endpoint.name and phase.status[i] == openloop.OK
        ]
        for lo in range(0, len(picked), 4096):
            chunk = picked[lo:lo + 4096]
            direct = endpoint.run_batch([plan["queries"][i] for i in chunk])
            mismatches += sum(
                1 for i, expected in zip(chunk, direct)
                if phase.digests[i] != openloop.digest(expected)
            )
    return mismatches


def _request_breakdown(tracer, plans, phases, rid_base) -> dict[str, dict]:
    """Per phase: each request's queue wait (issue to batch start) and
    execute time (from the batch span carrying its id), the batches' paced
    seconds, and the share of due-time latency that ends when the
    request's batch has executed (the rest is pacing and resumption)."""
    batch_of: dict[int, int] = {}
    pace_of: dict[int, float] = {}
    last_batch = -1
    recorded = tracer.spans
    for index, (name, _start, _end, _parent, tag) in enumerate(recorded):
        if name == "serving.run_batch":
            last_batch = index
            for rid in tag:
                batch_of[rid] = index
        elif name == "serving.pace" and last_batch >= 0:
            pace_of[last_batch] = tag
    out = {}
    for name, plan in plans:
        phase = phases[name]
        base = rid_base[name]
        queue_ms, execute_ms, batches = [], [], set()
        until_end_s = latency_s = 0.0
        for i in range(len(plan["offsets"])):
            batch = batch_of.get(base + i)
            if batch is None:
                continue
            batches.add(batch)
            start, end = recorded[batch][1], recorded[batch][2]
            queue_ms.append((start - phase.issued[i]) * 1e3)
            execute_ms.append((end - start) * 1e3)
            if phase.status[i] == openloop.OK:
                until_end_s += end - phase.due[i]
                latency_s += phase.done[i] - phase.due[i]
        out[name] = {
            "queue_wait_ms": queue_ms,
            "execute_ms": execute_ms,
            "batches": len(batches),
            "batched_requests": len(queue_ms),
            "pace_ms_sum": sum(pace_of.get(b, 0.0) for b in batches) * 1e3,
            "wait_execute_frac": until_end_s / latency_s,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=("campaign", "serve"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first timed operation (campaigns) "
                             "or once the endpoints are ready (serving)")
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's monotonic clock just before spawning")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None,
                        help="where a traced pass writes its spans")
    args = parser.parse_args(argv)
    run = campaign_pass if args.kind == "campaign" else serve_pass
    result = run(args, args.spawned)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
