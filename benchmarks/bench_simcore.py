"""Wall-clock benchmark for the simulation core: the cold smoke campaign.

Measures the end-to-end cost of ``campaign.execute(smoke_jobs(), jobs_n=1)``
against empty cache/results directories — workload execution, trace
lowering, and four simulator runs — the exact work the CI smoke campaign
performs on a cold cache.  Each sample runs in a **fresh subprocess** with
its own temporary ``REPRO_CACHE_DIR``/``REPRO_RESULTS_DIR`` (manifests
off), so no process-local or on-disk cache can leak between samples; the
recorded number is the best of N samples (the minimum is the noise-free
estimate of a deterministic workload).

Results land in ``BENCH_simcore.json`` at the repo root::

    python benchmarks/bench_simcore.py              # 3 samples, write JSON
    python benchmarks/bench_simcore.py --smoke      # CI: 2 samples + gate
    python benchmarks/bench_simcore.py --check      # gate only (see below)
    python benchmarks/bench_simcore.py --profile    # + cProfile report

Each sample also records the campaign's *phase split* — trace generation
(workload execution + lowering + fingerprinting) vs simulation
(``GpuSimulator.run``) — as accumulated by
:data:`repro.experiments.campaign.phase_stats`.  The phases are gated
independently: a trace-gen regression can't hide inside a simulator win.

**Engine microbenchmark** (``engine_micro`` JSON section): the smoke
campaign is memory-bound, so the event engine's singleton chain barely
engages there.  ``engine_micro`` therefore records the simulate time of
a synthetic compute-bound kernel (pure ALU/SFU/LDS warps — the workload
shape the chain carries), best-of-N inside one fresh process.

``--check`` compares the fresh measurement against the *committed*
``BENCH_simcore.json`` (falling back to :data:`BASELINE_COLD_SECONDS` and
the per-phase baseline constants) and exits non-zero when cold wall-clock,
either phase, or the engine-micro simulate time regressed more than
``--tolerance`` (default 20%).  ``BASELINE_COLD_SECONDS`` is the same
benchmark measured at the commit before the skip-to-next-event engine and
the vectorized workload kernels landed; ``speedup_vs_baseline`` in the
JSON tracks the cumulative win (the acceptance bar is >= 2x).
``BASELINE_TRACEGEN_SECONDS`` / ``BASELINE_SIMULATE_SECONDS`` anchor the
phase split at the commit before the batched query engine;
``PRE_ENGINE_SIMULATE_SECONDS`` anchors the smoke simulate phase at the
commit before the warp-batched event engine, and
``simulate_speedup_vs_pre_engine`` tracks that win.

``--profile`` additionally runs one profiled cold sample under
``cProfile`` and writes the top-25 cumulative-time functions to
``results/profile-<label>.txt`` (label via ``--profile-label``, default
``simcore``) — see docs/CAMPAIGN.md for reading the report.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Cold smoke-campaign wall-clock (best of 5, this benchmark's protocol)
#: measured immediately before the event-horizon engine / vectorization
#: work, on the reference container.  The regression gate prefers the
#: committed BENCH_simcore.json; this constant is the fallback anchor and
#: the denominator of ``speedup_vs_baseline``.
BASELINE_COLD_SECONDS = 0.553

#: Phase split of the cold smoke campaign measured immediately before the
#: batched query engine landed (same protocol, reference container): the
#: trace-generation phase dominated the cold wall-clock.  These anchor the
#: per-phase regression gates when no committed JSON carries phase fields,
#: and ``BASELINE_TRACEGEN_SECONDS`` is the denominator of
#: ``tracegen_speedup_vs_baseline``.
BASELINE_TRACEGEN_SECONDS = 0.157
BASELINE_SIMULATE_SECONDS = 0.066

#: Smoke simulate phase committed immediately before the warp-batched
#: event engine landed (scalar per-instruction dispatch, same protocol);
#: denominator of ``simulate_speedup_vs_pre_engine``.
PRE_ENGINE_SIMULATE_SECONDS = 0.0588

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_simcore.json"

#: Shape of the engine microbenchmark's synthetic kernel: enough warps
#: that the cycle-0 admission wave is a mass horizon and the steady state
#: exercises the singleton ``heapreplace`` chain.
ENGINE_MICRO_WARPS = 1024
ENGINE_MICRO_INSTRS = 32
ENGINE_MICRO_SMS = 4


def _engine_micro_kernel():
    """The synthetic compute-bound kernel ``engine_micro`` times.

    Pure ALU/SFU/LDS instructions only — no memory traffic — so the
    measurement isolates event-engine dispatch cost from the (shared)
    memory-system model.  Repeat/chain vary deterministically per warp so
    completion times fragment into realistic small horizons after the
    admission wave.
    """
    from repro.gpusim.trace import KernelTrace, WarpInstr, WarpTrace

    warps = []
    for w in range(ENGINE_MICRO_WARPS):
        instrs = []
        for i in range(ENGINE_MICRO_INSTRS):
            instrs.append(
                WarpInstr(
                    ("alu", "sfu", "lds")[i % 3],
                    repeat=1 + (i + w) % 4,
                    chain=1 + i % 2,
                    hsu_able=(i % 5 == 0),
                )
            )
        warps.append(WarpTrace(instructions=instrs))
    return KernelTrace(name="engine-micro", warps=warps)


def _engine_child(runs: int) -> None:
    """Best-of-N simulate time of the micro kernel, inside this process
    (floor of 4 reps — the first rep pays numpy warmup and a 1-vCPU
    container needs a few shots at a quiet slice).
    """
    from repro.gpusim.config import GpuConfig
    from repro.gpusim.gpu import GpuSimulator

    kernel = _engine_micro_kernel()
    config = GpuConfig(num_sms=ENGINE_MICRO_SMS)
    best = float("inf")
    for _rep in range(max(runs, 4)):
        sim = GpuSimulator(config, kernel)
        start = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - start)
    print(json.dumps({"simulate_seconds": best}))


def _child(jobs_n: int) -> None:
    """One cold sample: time the smoke campaign inside this process.

    Imports happen before the clock starts — the benchmark targets the
    simulation core, not interpreter startup.  With
    ``REPRO_BENCH_PROFILE_OUT`` set, the campaign additionally runs under
    ``cProfile`` and the top-25 cumulative functions land at that path
    (the sample's timings are then profiler-inflated — profiled samples
    are never recorded in the JSON).
    """
    from repro.experiments import campaign

    profile_out = os.environ.get("REPRO_BENCH_PROFILE_OUT")
    profiler = None
    if profile_out:
        import cProfile

        profiler = cProfile.Profile()

    jobs = campaign.smoke_jobs()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    summary = campaign.execute(jobs, jobs_n=jobs_n, mode="on")
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - start
    if not summary.ok:
        failures = "; ".join(r.error or "?" for r in summary.failed)
        print(json.dumps({"error": failures}))
        raise SystemExit(1)
    if profiler is not None and profile_out:
        import io
        import pstats

        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats(
            "cumulative"
        ).print_stats(25)
        out = Path(profile_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(buffer.getvalue())
    print(json.dumps({
        "seconds": wall,
        "tracegen_seconds": summary.tracegen_seconds,
        "simulate_seconds": summary.simulate_seconds,
        "jobs": len(jobs),
    }))


def _spawn_child(
    extra_args: list[str], extra_env: dict[str, str]
) -> dict[str, float]:
    """Run this file as a fresh subprocess with isolated cache dirs."""
    with tempfile.TemporaryDirectory(prefix="bench-simcore-") as tmp:
        env = os.environ.copy()
        env["REPRO_CACHE_DIR"] = str(Path(tmp) / "cache")
        env["REPRO_RESULTS_DIR"] = str(Path(tmp) / "results")
        env["REPRO_MANIFESTS"] = "0"
        env.update(extra_env)
        src = str(REPO_ROOT / "src")
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
        proc = subprocess.run(
            [sys.executable, __file__, *extra_args],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"bench child failed:\n{proc.stdout}\n{proc.stderr}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_cold_sample(
    jobs_n: int,
    profile_out: Path | None = None,
) -> dict[str, float]:
    """Spawn one fresh-process, fresh-cache sample; returns phase timings."""
    env: dict[str, str] = {}
    if profile_out is not None:
        env["REPRO_BENCH_PROFILE_OUT"] = str(profile_out)
    payload = _spawn_child(["--child", "--jobs", str(jobs_n)], env)
    return {
        "seconds": float(payload["seconds"]),
        "tracegen_seconds": float(payload.get("tracegen_seconds", 0.0)),
        "simulate_seconds": float(payload.get("simulate_seconds", 0.0)),
    }


def measure(runs: int, jobs_n: int) -> dict[str, object]:
    samples = []
    for index in range(runs):
        sample = _run_cold_sample(jobs_n)
        samples.append(sample)
        print(
            f"  sample {index + 1}/{runs}: {sample['seconds']:.3f}s "
            f"(tracegen {sample['tracegen_seconds']:.3f}s, "
            f"simulate {sample['simulate_seconds']:.3f}s)",
            flush=True,
        )
    best = min(samples, key=lambda s: s["seconds"])
    cold = best["seconds"]
    tracegen = best["tracegen_seconds"]
    simulate = best["simulate_seconds"]
    return {
        "benchmark": "simcore-smoke-campaign-cold",
        "protocol": "best-of-N fresh-subprocess, fresh-cache, jobs_n=%d"
        % jobs_n,
        "samples": [round(s["seconds"], 4) for s in samples],
        "cold_seconds": round(cold, 4),
        "tracegen_seconds": round(tracegen, 4),
        "simulate_seconds": round(simulate, 4),
        "baseline_cold_seconds": BASELINE_COLD_SECONDS,
        "baseline_tracegen_seconds": BASELINE_TRACEGEN_SECONDS,
        "baseline_simulate_seconds": BASELINE_SIMULATE_SECONDS,
        "pre_engine_simulate_seconds": PRE_ENGINE_SIMULATE_SECONDS,
        "speedup_vs_baseline": round(BASELINE_COLD_SECONDS / cold, 3),
        "tracegen_speedup_vs_baseline": (
            round(BASELINE_TRACEGEN_SECONDS / tracegen, 3) if tracegen else None
        ),
        "simulate_speedup_vs_pre_engine": (
            round(PRE_ENGINE_SIMULATE_SECONDS / simulate, 3)
            if simulate
            else None
        ),
    }


def measure_engine(runs: int) -> dict[str, object]:
    """Engine-microbenchmark simulate time (``engine_micro`` JSON
    section), measured in one fresh subprocess."""
    payload = _spawn_child(["--engine-child", "--runs", str(runs)], {})
    seconds = float(payload["simulate_seconds"])
    print(f"  engine micro: simulate {seconds:.4f}s", flush=True)
    return {
        "engine_micro": {
            "warps": ENGINE_MICRO_WARPS,
            "instructions_per_warp": ENGINE_MICRO_INSTRS,
            "num_sms": ENGINE_MICRO_SMS,
            "simulate_seconds": round(seconds, 4),
        },
    }


def _reference_numbers(output: Path) -> dict[str, float]:
    """The committed numbers the regression gates compare against.

    Falls back field-by-field to the baseline constants, so a committed
    JSON from before the phase split still gates the total.
    """
    from _gate import load_committed_fields

    return load_committed_fields(
        output,
        {
            "cold_seconds": BASELINE_COLD_SECONDS,
            "tracegen_seconds": BASELINE_TRACEGEN_SECONDS,
            "simulate_seconds": BASELINE_SIMULATE_SECONDS,
        },
    )


def _committed_section(output: Path, section: str) -> dict:
    """A committed JSON's nested mapping ``section`` (``{}`` on a first
    run or pre-section committed file — gates then auto-pass)."""
    try:
        committed = json.loads(Path(output).read_text())
        value = committed.get(section)
        return value if isinstance(value, dict) else {}
    except (OSError, ValueError):
        return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=3, metavar="N",
                        help="cold samples to take (default 3)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="campaign worker processes per sample")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: 2 samples and the regression gate")
    parser.add_argument("--check", action="store_true",
                        help="fail when cold wall-clock, either phase, or "
                        "the engine-micro simulate time regresses beyond "
                        "--tolerance vs the committed BENCH_simcore.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--profile", action="store_true",
                        help="also run one profiled cold sample and write "
                        "the cProfile top-25 (cumulative) to "
                        "results/profile-<label>.txt")
    parser.add_argument("--profile-label", default="simcore", metavar="LABEL",
                        help="label for the --profile report file "
                        "(default: simcore)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="result JSON path (default: repo root)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--engine-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        _child(args.jobs)
        return 0
    if args.engine_child:
        _engine_child(args.runs)
        return 0

    runs = 2 if args.smoke and args.runs == 3 else args.runs
    check = args.check or args.smoke
    reference = _reference_numbers(args.output)
    committed_micro = _committed_section(args.output, "engine_micro")

    print(f"cold smoke campaign, {runs} fresh-process samples:")
    result = measure(runs, args.jobs)
    print("engine microbenchmark (simulate phase):")
    result.update(measure_engine(runs))

    cold = float(result["cold_seconds"])
    print(
        f"cold {cold:.3f}s — {result['speedup_vs_baseline']}x vs "
        f"pre-event-engine baseline ({BASELINE_COLD_SECONDS}s)"
    )
    print(
        f"phases: tracegen {result['tracegen_seconds']}s "
        f"({result['tracegen_speedup_vs_baseline']}x vs pre-batch "
        f"{BASELINE_TRACEGEN_SECONDS}s), "
        f"simulate {result['simulate_seconds']}s "
        f"({result['simulate_speedup_vs_pre_engine']}x vs pre-engine "
        f"{PRE_ENGINE_SIMULATE_SECONDS}s)"
    )
    args.output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if args.profile:
        profile_out = (
            REPO_ROOT / "results" / f"profile-{args.profile_label}.txt"
        )
        print(f"profiled cold sample (not recorded) -> {profile_out}")
        _run_cold_sample(args.jobs, profile_out=profile_out)

    if check:
        from _gate import RegressionGate

        gate = RegressionGate(args.tolerance)
        gate.check_upper(
            "cold", "wall", cold, reference["cold_seconds"], unit="s"
        )
        gate.check_upper(
            "tracegen", "wall", float(result["tracegen_seconds"]),
            reference["tracegen_seconds"], unit="s",
        )
        gate.check_upper(
            "simulate", "wall", float(result["simulate_seconds"]),
            reference["simulate_seconds"], unit="s",
        )
        micro = float(result["engine_micro"]["simulate_seconds"])
        if "simulate_seconds" in committed_micro:
            gate.check_upper(
                "engine_micro", "simulate", micro,
                float(committed_micro["simulate_seconds"]),
                unit="s", fmt="{:.4f}",
            )
        else:
            gate.first_run("engine_micro")
        if not gate.ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
