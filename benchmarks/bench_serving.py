"""Serving-layer benchmark: open-loop traffic against the query service.

Stands up one :class:`repro.serving.QueryService` with three endpoints —
BVH radius search (``bvhnn``/R10K), k-d kNN (``flann``/R10K) and B+ tree
KV lookups (``btree``/B+10K) — each behind its own admission-control
policy and a simulated-GPU cost model calibrated through
``repro.api.simulate``, then drives three open-loop traffic shapes:

* ``poisson_point`` — homogeneous Poisson arrivals at the point endpoint;
* ``diurnal_knn`` — a sinusoidal diurnal ramp at the kNN endpoint;
* ``zipf_kv`` — Poisson arrivals whose probe keys are zipfian-skewed
  (the KV endpoint's hot-key sampler), the Rodinia-style KV shape.

Every run also **replays the served query set** through the endpoint's
``query_batch`` directly and requires the answers to match exactly — the
serving layer must be a scheduling policy, never a results change.

A plain run records ``BENCH_serving.json`` at the repo root; the gate
modes read that committed file as their reference and write their own
result under the gitignored ``results/`` (or to ``--output``), so a
local gate run never rewrites what later runs are checked against::

    python benchmarks/bench_serving.py              # full shapes, write JSON
    python benchmarks/bench_serving.py --smoke      # CI: short run + gates
    python benchmarks/bench_serving.py --check      # gate only (see below)

Gates (``--check`` / ``--smoke``): per shape, sustained QPS must be
nonzero, zero executor errors, answers bit-identical to ``query_batch``,
p99 latency under ``--p99-bound`` (absolute backstop), and — against the
*committed* ``BENCH_serving.json`` — p99 must not regress beyond
``--tolerance`` and QPS must not fall below ``committed / (1 +
tolerance)``.  The tolerance default is deliberately generous (100%):
serving latency is a wall-clock observation on shared CI runners.  A
shape with no committed row passes (the first run).  Each failure prints
a ``REGRESSION:`` line to stderr and makes the exit code 1; each passing
committed-JSON check prints a ``gate ok`` line.  The cost models' cycles
are simulator outputs, pinned exactly in ``tests/goldens/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serving import (  # noqa: E402 - path bootstrap above
    BatchPolicy,
    QueryService,
    TrafficShape,
    arrival_times,
    build_endpoint,
    calibrate,
    run_open_loop,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"
#: Where ``--smoke``/``--check`` write their result by default.
GATE_OUTPUT = REPO_ROOT / "results" / "BENCH_serving.json"

#: Absolute p99 backstop (ms): even a cold shared runner must answer
#: under this; the committed-JSON gate is the tight(er) bound.
DEFAULT_P99_BOUND_MS = 250.0

#: Arrivals per shape in --smoke mode: ten of them lie beyond the p99
#: the gate reads, so one slow request cannot move it alone.
SMOKE_REQUESTS = 1000

#: (shape template, endpoint kind, policy) per benchmark scenario; in
#: --smoke mode each shape runs just long enough for SMOKE_REQUESTS.
SCENARIOS = (
    (
        TrafficShape(name="poisson_point", rate_qps=300.0, duration_s=1.0,
                     process="poisson", seed=11),
        "point",
        BatchPolicy(max_batch=32, max_wait_s=0.002, max_queue=4096),
    ),
    (
        TrafficShape(name="diurnal_knn", rate_qps=500.0, duration_s=1.0,
                     process="poisson", diurnal_amplitude=0.6,
                     diurnal_period_s=0.5, seed=12),
        "knn",
        BatchPolicy(max_batch=64, max_wait_s=0.002, max_queue=4096),
    ),
    (
        TrafficShape(name="zipf_kv", rate_qps=1500.0, duration_s=1.0,
                     process="poisson", seed=13),
        "kv",
        BatchPolicy(max_batch=128, max_wait_s=0.001, max_queue=8192),
    ),
)


def _scaled(shape: TrafficShape, duration_s: float | None) -> TrafficShape:
    """``shape`` over ``duration_s`` seconds, or (``None``) over the
    shortest window holding :data:`SMOKE_REQUESTS` of its arrivals."""
    from dataclasses import replace

    if duration_s is not None:
        return replace(shape, duration_s=duration_s)
    scaled = replace(shape, duration_s=SMOKE_REQUESTS / shape.rate_qps)
    while arrival_times(scaled).size < SMOKE_REQUESTS:
        scaled = replace(scaled, duration_s=scaled.duration_s * 1.05)
    return scaled


async def _run_scenarios(duration_s: float | None) -> dict[str, object]:
    service = QueryService()
    rows = []
    models = {}
    for shape, kind, policy in SCENARIOS:
        endpoint = build_endpoint(kind)
        cost = calibrate(endpoint.family, endpoint.abbr, variant="hsu")
        service.add_endpoint(endpoint, policy, cost=cost)
        models[endpoint.name] = cost.to_json_dict()

    for shape, kind, _policy in SCENARIOS:
        endpoint = build_endpoint(kind)
        run_shape = _scaled(shape, duration_s)
        queries = endpoint.sample_queries(
            max(1, int(run_shape.rate_qps * run_shape.duration_s * 2)),
            seed=run_shape.seed,
        )
        report = await run_open_loop(
            service, endpoint.name, run_shape, queries=queries
        )
        direct = endpoint.run_batch(list(queries[: report.offered]))
        mismatches = sum(
            1
            for served, expected in zip(report.answers, direct)
            if served is not None and served != expected
        )
        row = report.to_json_dict()
        row["identical_to_query_batch"] = mismatches == 0
        row["mismatches"] = mismatches
        rows.append(row)
        print(
            f"  {report.shape} ({run_shape.duration_s:.2f}s, "
            f"{report.offered} offered): {report.qps:.0f} qps, "
            f"p50 {report.p50_ms:.2f}ms p99 {report.p99_ms:.2f}ms, "
            f"mean batch {report.mean_batch:.1f}, "
            f"rejected {report.rejected}, mismatches {mismatches}",
            flush=True,
        )
    await service.close()
    window = (f"duration_s={duration_s}" if duration_s is not None
              else f"{SMOKE_REQUESTS} arrivals per shape")
    return {
        "benchmark": "serving-open-loop",
        "protocol": f"open-loop asyncio, {window}, "
        "answers replayed through query_batch",
        "duration_s": duration_s,
        "shapes": rows,
        "cost_models": models,
    }


def _committed_shapes(output: Path) -> dict[str, dict[str, float]]:
    """``{shape: row}`` from the committed JSON; ``{}`` when it is absent
    or malformed."""
    try:
        committed = json.loads(Path(output).read_text())
        return {row["shape"]: row for row in committed.get("shapes", [])}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def _gate(result: dict[str, object], reference: dict[str, dict[str, float]],
          tolerance: float, p99_bound_ms: float) -> bool:
    failures = []
    for row in result["shapes"]:
        shape = row["shape"]
        if row["answered"] <= 0 or row["qps"] <= 0.0:
            failures.append(
                f"{shape}: no sustained throughput ({row['qps']} qps)"
            )
        if row["errors"]:
            failures.append(f"{shape}: {row['errors']} executor errors")
        if not row["identical_to_query_batch"]:
            failures.append(f"{shape}: {row['mismatches']} answers differ "
                            "from query_batch")
        if row["p99_ms"] > p99_bound_ms:
            failures.append(f"{shape}: p99 {row['p99_ms']}ms exceeds "
                            f"absolute bound {p99_bound_ms}ms")
        committed = reference.get(shape)
        if committed is None:
            print(f"gate ok [{shape}]: no committed reference (first run)")
            continue
        budget = committed["p99_ms"] * (1.0 + tolerance)
        if row["p99_ms"] > budget:
            failures.append(
                f"{shape}: p99 {row['p99_ms']:.2f}ms exceeds {budget:.2f}ms "
                f"({committed['p99_ms']:.2f}ms committed +{tolerance:.0%})"
            )
        else:
            print(f"gate ok [{shape}]: p99 {row['p99_ms']:.2f}ms within "
                  f"{budget:.2f}ms")
        floor = committed["qps"] / (1.0 + tolerance)
        if row["qps"] < floor:
            failures.append(
                f"{shape}: qps {row['qps']:.0f} below floor {floor:.0f} "
                f"({committed['qps']:.0f} committed /{1 + tolerance:.2f})"
            )
        else:
            print(f"gate ok [{shape}]: qps {row['qps']:.0f} >= {floor:.0f}")
    for message in failures:
        print(f"REGRESSION: {message}", file=sys.stderr)
    return not failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=1.0, metavar="S",
                        help="virtual seconds per traffic shape (default 1.0)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI mode: {SMOKE_REQUESTS} arrivals per shape "
                        "plus the full gate set")
    parser.add_argument("--check", action="store_true",
                        help="run the gates against the committed "
                        "BENCH_serving.json without shortening the run")
    parser.add_argument("--tolerance", type=float, default=1.0,
                        help="allowed fractional p99 regression / QPS drop vs "
                        "the committed JSON (default 1.0 — wall-clock "
                        "latency on shared runners is noisy)")
    parser.add_argument("--p99-bound", type=float,
                        default=DEFAULT_P99_BOUND_MS, metavar="MS",
                        help="absolute p99 backstop in ms (default 250)")
    parser.add_argument("--output", type=Path, default=None,
                        help="result JSON path (default: BENCH_serving.json "
                        "at the repo root; results/BENCH_serving.json with "
                        "--smoke/--check, which gate against the former)")
    args = parser.parse_args(argv)

    duration = None if args.smoke else args.duration
    check = args.check or args.smoke
    output = args.output or (GATE_OUTPUT if check else DEFAULT_OUTPUT)
    reference = _committed_shapes(DEFAULT_OUTPUT)

    print("open-loop serving benchmark, "
          + (f"{duration}s" if duration else f"{SMOKE_REQUESTS} arrivals")
          + " per shape:")
    result = asyncio.run(_run_scenarios(duration))

    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    if check and not _gate(result, reference, args.tolerance, args.p99_bound):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
