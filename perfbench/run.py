"""The repository benchmark: a cold campaign slice and an open-loop
serving mix, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics from the traced one, plus the tracing overhead as the
difference between the two.  Every pass is a fresh process with fresh
temporary cache and results directories under ``.perfbench_out/``; the
kernel-backend and engine overrides are cleared.  Each run's record
(environment, metrics, checks) is written to ``.perfbench_out/`` and every
metric is printed by name with its unit; the last line of standard output
is the JSON result.  ``README.md`` beside this file defines the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402 - after the path bootstrap
    CAMPAIGN_SLICES,
    LATENCY_LIMIT_MS,
    P99_WINDOW_S,
    SERVE_SESSIONS,
    SERVE_WORKLOAD,
    WORKLOADS,
    load_reference,
    simstats_mismatches,
)

#: Set-up samples per campaign run (the measured passes count towards it).
SETUP_SAMPLES = 5
#: Serving cold-start samples per serve-mixed run (the sessions count
#: towards it), spread evenly over the run.
COLD_SAMPLES = 12
#: Cold passes per campaign run, at least.
MIN_PASSES = 3
#: Wall budget (s) after which no further cold pass starts.
PASS_BUDGET_S = 120.0
#: Per-process timeout (s).
PROCESS_TIMEOUT_S = 170.0
#: Environment overrides a run must not inherit.
CLEARED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_SIM_ENGINE", "REPRO_MANIFESTS",
               "REPRO_CACHE_DIR", "REPRO_RESULTS_DIR")


class BenchError(Exception):
    """The benchmark could not run (not a failed check)."""


def spawn(root: Path, temp_dir: Path, worker_args: list[str]) -> dict:
    """Run one worker process in fresh cache/results directories."""
    run_dir = Path(tempfile.mkdtemp(dir=temp_dir))
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    env["REPRO_RESULTS_DIR"] = str(run_dir / "results")
    out = run_dir / "result.json"
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *worker_args,
         "--out", str(out), "--spawned", repr(spawned)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=PROCESS_TIMEOUT_S,
    )
    try:
        if proc.returncode != 0:
            raise BenchError(
                f"worker exited {proc.returncode}:\n{proc.stdout[-4000:]}"
            )
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def pct(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------


def check_campaign(workload: str, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every cold and warm job."""
    reference = load_reference()[workload]
    attempted = failed = 0
    problems = []
    for number, result in enumerate(passes, 1):
        cold = {r["run_id"]: r for r in result["cold"]}
        warm = {r["run_id"]: r for r in result["warm"]}
        bad_cold = set(simstats_mismatches(
            {k: r["simstats"] if r["ok"] else None for k, r in cold.items()},
            reference,
        ))
        bad_warm = {
            run_id for run_id, r in warm.items()
            if not (r["ok"] and r["cached"])
            or r["simstats"] != (cold.get(run_id) or {}).get("simstats")
        } | (set(reference) - set(warm))
        attempted += len(reference) * 2
        failed += len(bad_cold) + len(bad_warm)
        for run_id in sorted(bad_cold):
            error = (cold.get(run_id) or {}).get("error")
            problems.append(f"pass {number} cold {run_id}: "
                            + (error or "SimStats differ from the reference"))
        for run_id in sorted(bad_warm):
            problems.append(f"pass {number} warm {run_id}: not a cache hit "
                            "with identical SimStats")
    return attempted, failed, problems


def run_campaign(args, root: Path, temp_dir: Path, record: dict) -> dict:
    base = ["--kind", "campaign", "--workload", args.workload]
    passes: list[dict] = []
    started = time.monotonic()
    if args.trace:
        passes.append(spawn(root, temp_dir, [*base, "--trace", "0"]))
        traced = spawn(root, temp_dir, [*base, "--trace", "1", "--spans",
                                       str(record["spans_path"])])
        passes.append(traced)
    else:
        # Whole cold passes, at least MIN_PASSES, until --seconds of pass
        # wall has been measured.
        while True:
            passes.append(spawn(root, temp_dir, base))
            measured = sum(p["cold_s"] for p in passes)
            elapsed = time.monotonic() - started
            if elapsed + passes[-1]["cold_s"] > PASS_BUDGET_S:
                break
            if len(passes) >= MIN_PASSES and measured >= args.seconds:
                break
    setups = [p["setup_s"] for p in passes]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(root, temp_dir, [*base, "--setup-only"])["setup_s"])

    attempted, failed, problems = check_campaign(args.workload, passes)
    record["passes"] = [
        {**{k: p[k] for k in ("setup_s", "cold_s", "warm_s", "rss_mb", "model")},
         "job_wall_s": [r["wall"] for r in p["cold"]]}
        for p in passes
    ]
    record["env"] = passes[0]["env"]
    record["setup_samples"] = setups
    if args.trace:
        untraced = passes[0]
        overhead = (traced["trace"]["wall_s"] - untraced["cold_s"]) / untraced["cold_s"]
        metrics = layer_metrics(traced, untraced, overhead)
        record["trace"] = traced["trace"]
    else:
        metrics = campaign_end_to_end(passes, setups)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}


def campaign_end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics of a campaign run: medians over its passes.

    A job is the operation served.  Every job of a cold pass is due when
    the pass starts, and the pass is serial, so a job's latency is the sum
    of its own wall and the walls of the jobs before it.  The goodput is
    successful jobs per second of the pass.
    """
    done_ms = [list(itertools.accumulate(r["wall"] * 1e3 for r in p["cold"]))
               for p in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cold_s": (statistics.median(p["cold_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "serve_p50_ms": (statistics.median(pct(d, 50) for d in done_ms), "ms"),
        "serve_goodput_qps": (statistics.median(
            sum(r["ok"] for r in p["cold"]) / p["cold_s"] for p in passes), "1/s"),
    }


def _self(layers: dict, *names: str) -> float:
    return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)


def _calls(layers: dict, *names: str) -> int:
    return sum(layers.get(n, {}).get("calls", 0) for n in names)


def _pct_or_0(values: list[float], q: float) -> float:
    return pct(values, q) if values else 0.0


#: A serving phase with no requests, for the workloads that serve none.
EMPTY_PHASE = {"status": [], "latency_ms": [], "endpoints": [], "lag_ms": []}
EMPTY_SPLIT = {"queue_wait_ms": [], "execute_ms": [], "pace_ms_sum": 0.0,
               "batched_requests": 0, "batches": 0, "wait_execute_frac": 0.0}


def layer_metrics(traced: dict, untraced: dict, overhead: float) -> dict:
    """Every per-layer metric, from one traced pass or session and the
    untraced one beside it.  A layer the workload does not run reads 0.
    ``serving.nominal.p99_ms`` comes from the untraced session, so that
    tracing does not inflate it."""
    trace = traced["trace"]
    layers = trace["layers"]
    kernels = [n for n in layers if n.startswith("kernels.")]
    model = traced["model"]
    run_s = layers.get("gpusim.run", {}).get("total_s", 0.0)
    campaigns = [p for p in (traced, untraced) if "cold" in p]
    jobs = [r for p in campaigns for r in p["cold"] + p["warm"]]
    hits = sum(r["cached"] for r in jobs)
    metrics = {
        "gpusim.lane_allocate_s": (_self(layers, "gpusim.lane_allocate"), "s"),
        "gpusim.lane_allocate_calls": (_calls(layers, "gpusim.lane_allocate"), "count"),
        "gpusim.run_self_s": (_self(layers, "gpusim.run"), "s"),
        "gpusim.run_calls": (_calls(layers, "gpusim.run"), "count"),
        "gpusim.pack_s": (_self(layers, "gpusim.pack"), "s"),
        "gpusim.fingerprint_s": (_self(layers, "gpusim.fingerprint"), "s"),
        "gpusim.fingerprint_calls": (_calls(layers, "gpusim.fingerprint"), "count"),
        "search.build_s": (_self(layers, "search.build"), "s"),
        "search.build_calls": (_calls(layers, "search.build"), "count"),
        "search.query_batch_s": (_self(layers, "search.query_batch"), "s"),
        "search.query_batch_calls": (_calls(layers, "search.query_batch"), "count"),
        "search.queries": (trace["queries"], "count"),
        "datasets.load_s": (_self(layers, "datasets.load"), "s"),
        "workloads.self_s": (_self(layers, "workloads.run"), "s"),
        "compiler.lower_s": (_self(layers, "compiler.lower"), "s"),
        "compiler.assemble_s": (_self(layers, "compiler.assemble"), "s"),
        "kernels.calls": (_calls(layers, *kernels), "count"),
        "kernels.s": (_self(layers, *kernels), "s"),
        "campaign.cache_read_s": (_self(layers, "campaign.cache_read"), "s"),
        "campaign.cache_write_s": (_self(layers, "campaign.cache_write"), "s"),
        "campaign.manifest_s": (_self(layers, "campaign.manifest"), "s"),
        "campaign.self_s": (_self(layers, "campaign.job"), "s"),
        "campaign.cache_hits": (hits, "count"),
        "campaign.cache_misses": (len(jobs) - hits, "count"),
        "campaign.warm_s": (untraced.get("warm_s", 0.0), "s"),
        "gpusim.us_per_event": (
            run_s / model["events"] * 1e6 if model["events"] else 0.0, "us"
        ),
        "gpusim.events": (model["events"], "count"),
        "gpusim.idle_cycles_skipped": (model["idle_cycles_skipped"], "count"),
        "gpusim.sim_cycles": (model["sim_cycles"], "count"),
        "gpusim.warp_instructions": (model["warp_instructions"], "count"),
        "serving.calibrate_s": (
            layers.get("serving.calibrate", {}).get("total_s", 0.0), "s"
        ),
        "serving.nominal.p99_ms": (
            statistics.median(serve_headline(untraced)["window_p99_ms"])
            if "phases" in untraced else 0.0, "ms"
        ),
        "other_s": (trace["wall_s"] - trace["covered_s"], "s"),
        "trace_overhead_frac": (overhead, "ratio"),
    }
    for name in ("nominal", "peak"):
        phase = traced["phases"][name] if "phases" in traced else EMPTY_PHASE
        split = trace["requests"][name] if "requests" in trace else EMPTY_SPLIT
        prefix = f"serving.{name}"
        metrics.update({
            f"{prefix}.queue_wait_ms_p50": (_pct_or_0(split["queue_wait_ms"], 50), "ms"),
            f"{prefix}.queue_wait_ms_p99": (_pct_or_0(split["queue_wait_ms"], 99), "ms"),
            f"{prefix}.execute_ms_p50": (_pct_or_0(split["execute_ms"], 50), "ms"),
            f"{prefix}.execute_ms_p99": (_pct_or_0(split["execute_ms"], 99), "ms"),
            f"{prefix}.pace_ms_sum": (split["pace_ms_sum"], "ms"),
            f"{prefix}.batch_size_mean": (
                split["batched_requests"] / max(1, split["batches"]), "count"
            ),
            f"{prefix}.batches": (split["batches"], "count"),
            f"{prefix}.gen_lag_ms_p99": (_pct_or_0(phase["lag_ms"], 99), "ms"),
            f"{prefix}.wait_execute_frac": (split["wait_execute_frac"], "ratio"),
            f"{prefix}.rejected": (sum(1 for s in phase["status"] if s != 0), "count"),
        })
        for kind in ("point", "knn", "kv"):
            mine = [
                v for v, s, e in zip(phase["latency_ms"], phase["status"],
                                     phase["endpoints"])
                if s == 0 and e.startswith(kind + "_")
            ]
            metrics[f"{prefix}.{kind}_p99_ms"] = (_pct_or_0(mine, 99), "ms")
    return metrics


# ---------------------------------------------------------------------------
# Serving workload
# ---------------------------------------------------------------------------


def serve_outcome(result: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for name, phase in result["phases"].items():
        status = phase["status"]
        attempted += len(status)
        refused = sum(1 for s in status if s != 0)
        failed += refused + phase["mismatches"]
        if refused:
            problems.append(f"{name}: {refused} requests rejected or errored")
        if phase["mismatches"]:
            problems.append(f"{name}: {phase['mismatches']} answers differ "
                            "from query_batch")
    return attempted, failed, problems


def _answered_ms(phase: dict) -> list[float]:
    return [v for v, s in zip(phase["latency_ms"], phase["status"]) if s == 0]


def serve_headline(result: dict) -> dict[str, object]:
    """One session's serving figures: the nominal p50, the p99 of each
    whole window of the nominal phase, and the peak-phase goodput."""
    phase = result["phases"]["nominal"]
    answered = [
        (offset, ms) for offset, ms, status
        in zip(phase["offset_s"], phase["latency_ms"], phase["status"])
        if status == 0
    ]
    windows = [
        [ms for offset, ms in answered
         if k * P99_WINDOW_S <= offset < (k + 1) * P99_WINDOW_S]
        for k in range(max(1, int(phase["duration_s"] / P99_WINDOW_S)))
    ]
    peak = result["phases"]["peak"]
    good = sum(
        1 for ms, status in zip(peak["latency_ms"], peak["status"])
        if status == 0 and ms <= LATENCY_LIMIT_MS
    )
    return {
        "serve_p50_ms": pct([ms for _offset, ms in answered], 50),
        "window_p99_ms": [pct(window, 99) for window in windows if window],
        "serve_goodput_qps": good / peak["duration_s"],
    }


def serve_metrics(headlines: list[dict]) -> dict[str, tuple[float, str]]:
    """End-to-end serving metrics over sessions: medians of the session
    p50s and goodputs."""
    return {
        "serve_p50_ms": (statistics.median(h["serve_p50_ms"] for h in headlines), "ms"),
        "serve_goodput_qps": (
            statistics.median(h["serve_goodput_qps"] for h in headlines), "1/s"),
    }


def serve_end_to_end(measured: list[dict], colds: list[float]) -> dict:
    """End-to-end metrics of a serve-mixed run: medians over its sessions,
    and for ``cold_s`` over every cold start it made."""
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in measured), "s"),
        "cold_s": (statistics.median(colds), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in measured), "MB"),
        **serve_metrics([serve_headline(r) for r in measured]),
    }


def run_serve(args, root: Path, temp_dir: Path, record: dict) -> dict:
    base = ["--kind", "serve", "--workload", args.workload,
            "--seconds", str(args.seconds / SERVE_SESSIONS)]

    def session(number: int, *extra: str) -> dict:
        seed = str(args.seed * SERVE_SESSIONS + number)
        return spawn(root, temp_dir, [*base, "--seed", seed, *extra])

    colds: list[float] = []
    if args.trace:
        untraced = session(0)
        traced = session(0, "--trace", "1", "--spans", str(record["spans_path"]))
        measured = [untraced, traced]
    else:
        # Cold-start-only processes before each session, so that the cold
        # starts sample the host over the whole run.
        measured = []
        for number in range(SERVE_SESSIONS):
            colds += [
                spawn(root, temp_dir, [*base, "--setup-only"])["cold_s"]
                for _ in range(COLD_SAMPLES // SERVE_SESSIONS - 1)
            ]
            measured.append(session(number))
    attempted = failed = 0
    problems: list[str] = []
    for result in measured:
        a, f, p = serve_outcome(result)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    headlines = [serve_headline(r) for r in measured]
    record["env"] = measured[0]["env"]
    record["sessions"] = [
        {"setup_s": r["setup_s"], "cold_s": r["cold_s"], "rss_mb": r["rss_mb"],
         "nominal_samples": len(_answered_ms(r["phases"]["nominal"])), **h}
        for r, h in zip(measured, headlines)
    ]
    if args.trace:
        base_p50 = headlines[0]["serve_p50_ms"]
        overhead = (headlines[1]["serve_p50_ms"] - base_p50) / base_p50
        metrics = layer_metrics(traced, untraced, overhead)
        record["trace"] = {
            k: traced["trace"][k] for k in ("wall_s", "covered_s", "layers")
        }
    else:
        colds += [r["cold_s"] for r in measured]
        record["cold_samples"] = colds
        metrics = serve_end_to_end(measured, colds)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def manifest_units(manifest: dict, trace: int) -> dict[str, str]:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` asks every run
    to print: the end-to-end ones untraced, the per-layer ones traced."""
    section = manifest["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def in_manifest_order(metrics: dict, units: dict[str, str]) -> dict:
    """``metrics`` in the manifest's order.  A metric missing, extra or in
    another unit than the manifest's is an error of the benchmark."""
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if got != units:
        wrong = sorted(set(got.items()) ^ set(units.items()))
        raise BenchError(f"metrics differ from BENCHMARK.json: {wrong}")
    return {name: metrics[name] for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} is not a checkout of this repository "
              "(src/repro is missing); run from its root", file=sys.stderr)
        return 2
    try:
        units = manifest_units(
            json.loads((root / "BENCHMARK.json").read_text()), args.trace
        )
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot read BENCHMARK.json: {error!r}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record: dict[str, object] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "spans_path": out_dir / f"{stem}-spans.jsonl.gz",
    }
    temp_dir = Path(tempfile.mkdtemp(dir=out_dir, prefix="tmp-"))
    try:
        if args.workload in CAMPAIGN_SLICES:
            outcome = run_campaign(args, root, temp_dir, record)
        else:
            outcome = run_serve(args, root, temp_dir, record)
    except (BenchError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(temp_dir, ignore_errors=True)

    attempted, failed = outcome["attempted"], outcome["failed"]
    metrics = dict(outcome["metrics"])
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    try:
        metrics = in_manifest_order(metrics, units)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed "
          f"(fail_frac {failed / attempted:.6f})")
    env = record["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.workload == SERVE_WORKLOAD:
        samples = [r["nominal_samples"] for r in record["sessions"]]
        print(f"nominal-phase latency samples per session: {samples}")
    if args.trace:
        trace = record["trace"]
        self_s = sum(row["self_s"] for row in trace["layers"].values())
        print(f"spans: self times {self_s:.6f} s + other_s "
              f"{trace['wall_s'] - trace['covered_s']:.6f} s = traced wall "
              f"{trace['wall_s']:.6f} s")
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    record["spans_path"] = str(record["spans_path"])
    record.update(attempted=attempted, failed=failed,
                  problems=outcome["problems"],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not outcome["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
