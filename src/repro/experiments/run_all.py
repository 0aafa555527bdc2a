"""Regenerate every table and figure in one pass.

Usage::

    python -m repro.experiments.run_all            # everything, cached+parallel
    python -m repro.experiments.run_all --jobs 4   # explicit worker count
    python -m repro.experiments.run_all --no-cache # ignore results/cache
    python -m repro.experiments.run_all --rebuild  # recompute, refresh cache
    python -m repro.experiments.run_all --light    # tables + RTL only (<1 s)
    python -m repro.experiments.run_all --smoke    # CI: light + tiny end-to-end sim

The heavy figures route through the campaign runner
(:mod:`repro.experiments.campaign`): with ``--jobs N`` (default: CPU count)
the full §V job set is first executed across a process pool to populate the
persistent result cache under ``results/cache/``, then each figure renders
from cache hits.  A warm re-run costs seconds instead of minutes; see
``docs/CAMPAIGN.md`` for the cache keying and invalidation rules and
``EXPERIMENTS.md`` for measured cold/warm/parallel wall-clock numbers.

Every timing simulation stamps a run manifest to ``results/<run-id>.json``
(see ``docs/METRICS.md``); compare two manifests with
``python -m repro.gpusim.report a.json b.json``.  ``--smoke`` runs the
light experiments plus one small paired baseline/HSU simulation end-to-end
— workload, trace lowering, simulator, metrics registry, manifest writing
and the report diff — in well under a minute, which is what the CI
workflow executes on every push.

The closing summary reports per-experiment wall time and cache hit/miss
counts, so a run always shows where the time went and what the cache
saved.
"""

from __future__ import annotations

import argparse
import os
import time

from repro.experiments import (
    ablations,
    campaign,
    fig07_hsu_fraction,
    fig08_roofline,
    fig09_speedup,
    fig10_width,
    fig11_warp_buffer,
    fig12_l1_accesses,
    fig13_miss_rate,
    fig14_row_locality,
    fig15_area,
    fig16_power,
    metric_search,
    rtindex_comparison,
    table1_isa,
    table2_datasets,
    table3_config,
)

LIGHT = (table1_isa, table2_datasets, table3_config, fig15_area, fig16_power)
HEAVY = (
    fig09_speedup,
    fig07_hsu_fraction,
    fig08_roofline,
    fig12_l1_accesses,
    fig13_miss_rate,
    fig14_row_locality,
    fig10_width,
    fig11_warp_buffer,
    rtindex_comparison,
    ablations,
    metric_search,
)


def smoke() -> str:
    """One tiny paired simulation through the full observability path."""
    from repro import api
    from repro.experiments.common import config_for
    from repro.gpusim.observability import manifests_enabled, results_dir
    from repro.gpusim.report import diff_manifests, load_manifest, render_report
    from repro.workloads import to_traces

    bundle = to_traces(api.run_workload("bvhnn", "R10K", 64))
    config = config_for("bvhnn")
    base = campaign.cached_simulate(
        "smoke", "R10K", "baseline", config, bundle.baseline
    )
    hsu = campaign.cached_simulate("smoke", "R10K", "hsu", config, bundle.hsu)
    lines = [
        f"baseline cycles: {base.cycles}",
        f"hsu cycles:      {hsu.cycles}",
        f"speedup:         {base.cycles / hsu.cycles:.3f}",
        "",
        "component ablations (HSU trace):",
    ]
    for row in ablations.scheduler_policies(smoke=True):
        lines.append(f"  scheduler {row['policy']:<12} cycles: {row['hsu_cycles']}")
    for row in ablations.memory_idealization(smoke=True):
        if row["memory"] != "real":
            lines.append(f"  memory    {row['memory']:<12} cycles: {row['hsu_cycles']}")
    if manifests_enabled():
        old = load_manifest(results_dir() / "smoke-r10k-baseline.json")
        new = load_manifest(results_dir() / "smoke-r10k-hsu.json")
        lines.append(f"manifests:       {results_dir()}/smoke-r10k-*.json")
        lines.append("")
        lines.append(render_report(old, new, diff_manifests(old, new)))
    return "\n".join(lines)


def _render_summary(rows: list[tuple[str, float, int, int]], wall: float) -> str:
    """Per-experiment wall time and cache traffic (the closing summary)."""
    from repro.analysis.tables import format_table

    table = format_table(
        ["Experiment", "Wall s", "Cache hits", "Cache misses"],
        [(name, f"{secs:.2f}", hits, misses) for name, secs, hits, misses in rows],
        title="run_all summary (per experiment)",
    )
    hits = sum(r[2] for r in rows)
    misses = sum(r[3] for r in rows)
    return (
        table
        + f"\ntotal wall {wall:.1f}s — {hits} cache hits, {misses} misses "
        f"(cache mode: {campaign.cache_mode()})"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--light",
        action="store_true",
        help="only the table/RTL experiments (no timing simulations)",
    )
    group.add_argument(
        "--smoke",
        action="store_true",
        help="light experiments plus one tiny end-to-end paired simulation "
        "(manifest + report included); the CI entry point",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        metavar="N",
        help="worker processes for the campaign prewarm (default: CPU "
        "count; 1 disables the pool)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the persistent result cache",
    )
    cache_group.add_argument(
        "--rebuild",
        action="store_true",
        help="ignore existing cache entries but write fresh ones",
    )
    args = parser.parse_args(argv)
    campaign.set_cache_mode(
        "off" if args.no_cache else ("rebuild" if args.rebuild else "on")
    )
    modules = LIGHT if (args.light or args.smoke) else LIGHT + HEAVY
    start = time.time()
    if not (args.light or args.smoke) and args.jobs > 1:
        print("=" * 78)
        print(f"campaign prewarm  (--jobs {args.jobs})")
        summary = campaign.execute(
            campaign.default_jobs(), jobs_n=args.jobs, label="run-all"
        )
        print(summary.render())
        print()
    rows = []
    for module in modules:
        print("=" * 78)
        print(f"{module.__name__}  (t+{time.time() - start:.0f}s)")
        before = campaign.cache_stats.snapshot()
        t0 = time.perf_counter()
        print(module.render())
        wall = time.perf_counter() - t0
        delta = campaign.cache_stats.delta(before)
        rows.append((module.__name__, wall, delta.hits, delta.misses))
        print()
    if args.smoke:
        print("=" * 78)
        print(f"smoke simulation  (t+{time.time() - start:.0f}s)")
        before = campaign.cache_stats.snapshot()
        t0 = time.perf_counter()
        print(smoke())
        delta = campaign.cache_stats.delta(before)
        rows.append(("smoke", time.perf_counter() - t0, delta.hits, delta.misses))
        print()
    print("=" * 78)
    print(_render_summary(rows, time.time() - start))


if __name__ == "__main__":
    main()
