"""Ablations for the design alternatives the paper discusses but defers.

Three studies, each anchored to a specific passage of §VI:

* **BVH variants** (§VI-E) — the evaluated BVH-NN uses a fast-but-coarse
  binary LBVH with no query preprocessing.  The paper argues a BVH4 "would
  likely have better performance" (the unit tests four boxes per
  instruction), a SAH build "would further improve performance", and RTNN's
  query sorting would reduce incoherence.  We build all four variants and
  measure them.
* **RT fetch path** (§VI-I) — HSU fetches can crowd the shared L1/MSHRs;
  the paper suggests "a private cache dedicated to the RT unit" or
  "bypassing the L1 data cache".  We simulate shared, bypass and private
  configurations.
* **Build quality** (§VI-E) — SAH-vs-LBVH tree quality (SAH cost and box
  tests per query), the structural reason behind the first study.

Two more studies exercise the simulator's pluggable components on the same
workload (the paper evaluates GTO scheduling on real memory only, Table
III; these bound how much those choices matter):

* **Scheduler policy** — the HSU trace under GTO (paper), loose
  round-robin, and oldest-instruction-first warp scheduling.
* **Memory idealization** — the HSU trace against a perfect
  (always-hitting) L1 and against contention-free DRAM, isolating
  cache-miss stalls from DRAM-scheduling stalls.

These two read the campaign's ablation jobs
(:func:`repro.experiments.campaign.ablation_jobs`) through
:func:`repro.api.simulate`, so ``python -m repro.experiments.campaign
--families ablations`` warms exactly the cache entries they print.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis.tables import format_table
from repro.bvh.lbvh import build_lbvh_for_points
from repro.bvh.quality import sah_cost
from repro.bvh.sah import build_sah
from repro.bvh.traversal import TraversalStats, radius_search_batch
from repro.datasets.registry import load_dataset
from repro import api
from repro.experiments import campaign
from repro.experiments.common import config_for, default_config
from repro.gpusim.stats import SimStats
from repro.workloads import run_bvhnn, run_ggnn, to_trace
from repro.workloads.bvhnn import choose_radius

#: Datasets used by the ablation studies (kept small; these sweep variants).
BVH_DATASETS = ("R10K", "BUN")


@lru_cache(maxsize=1)
def bvh_variants(datasets: tuple[str, ...] = BVH_DATASETS) -> list[dict[str, object]]:
    """§VI-E study: HSU cycles per BVH-NN configuration."""
    config = default_config()
    rows = []
    variants = (
        ("lbvh-bvh2 (paper)", {"builder": "lbvh", "arity": 2}),
        ("lbvh-bvh4", {"builder": "lbvh", "arity": 4}),
        ("sah-bvh2", {"builder": "sah", "arity": 2}),
        ("lbvh-bvh2 + sorted queries",
         {"builder": "lbvh", "arity": 2, "sort_queries": True}),
    )
    for abbr in datasets:
        for label, kwargs in variants:
            run = run_bvhnn(abbr, num_queries=campaign.ABLATION_QUERIES, **kwargs)
            slug = "ablation-" + "".join(
                c if c.isalnum() else "-" for c in label
            ).strip("-")
            stats = campaign.cached_simulate(
                "bvhnn", abbr, slug, config, to_trace(run, "hsu")
            )
            rows.append(
                {
                    "dataset": abbr,
                    "variant": label,
                    "hsu_cycles": stats.cycles,
                    "hsu_thread_beats": stats.hsu_thread_beats,
                    "l1_accesses": stats.l1_accesses,
                }
            )
    return rows


@lru_cache(maxsize=1)
def rt_fetch_paths() -> list[dict[str, object]]:
    """§VI-I study: shared L1 vs bypass vs private RT cache."""
    rows = []
    cases = (
        ("bvhnn", "R10K", run_bvhnn, {"num_queries": campaign.ABLATION_QUERIES}),
        ("ggnn", "S10K", run_ggnn, {"num_queries": 16}),
    )
    for family, abbr, maker, kwargs in cases:
        run = maker(abbr, **kwargs)
        hsu_trace = to_trace(run, "hsu")
        base_config = config_for(family)
        for label, config in (
            ("shared L1 (paper)", base_config),
            ("bypass L1", base_config.with_rt_bypass()),
            ("private 32KB", base_config.with_rt_private_cache(32 * 1024)),
        ):
            slug = "fetch-" + "".join(
                c if c.isalnum() else "-" for c in label
            ).strip("-")
            stats = campaign.cached_simulate(
                family, abbr, slug, config, hsu_trace
            )
            rows.append(
                {
                    "app": family,
                    "dataset": abbr,
                    "fetch_path": label,
                    "hsu_cycles": stats.cycles,
                    "l1_accesses": stats.l1_accesses,
                }
            )
    return rows


@lru_cache(maxsize=1)
def build_quality(abbr: str = "R10K", num_queries: int = 256) -> dict[str, object]:
    """§VI-E study: LBVH vs binned-SAH tree quality."""
    from repro.geometry.aabb import Aabb

    dataset = load_dataset(abbr)
    points = dataset.points.astype(np.float64)
    radius = choose_radius(points)
    lbvh = build_lbvh_for_points(points, radius)
    sah = build_sah(
        [Aabb.around_point(p, radius) for p in points], leaf_size=1
    )
    rng = np.random.default_rng(9)
    picks = rng.choice(points.shape[0], size=num_queries)
    queries = points[picks] + rng.normal(scale=radius * 0.3,
                                         size=(num_queries, 3))
    stats = {}
    for label, bvh in (("lbvh", lbvh), ("sah", sah)):
        traversal = TraversalStats()
        radius_search_batch(bvh, points, queries, radius, stats=traversal)
        stats[label] = {
            "sah_cost": sah_cost(bvh),
            "box_tests_per_query": traversal.box_tests / num_queries,
            "dist_tests_per_query": traversal.prim_tests / num_queries,
        }
    return {"dataset": abbr, "radius": radius, **stats}


def _simulate_job(job: campaign.Job) -> SimStats:
    return api.simulate(
        (job.family, job.abbr), variant=job.variant, queries=job.queries,
        scheduler=job.scheduler, memory=job.memory,
    )


@lru_cache(maxsize=2)
def scheduler_policies(smoke: bool = False) -> list[dict[str, object]]:
    """Component study: HSU cycles per warp-scheduler policy (the
    real-memory ablation jobs; ``smoke`` reads the CI-sized ones)."""
    rows = []
    for job in campaign.ablation_jobs(smoke):
        if job.memory != "real":
            continue
        stats = _simulate_job(job)
        rows.append(
            {
                "dataset": job.abbr,
                "policy": job.scheduler,
                "hsu_cycles": stats.cycles,
                "l1_misses": stats.l1_misses,
            }
        )
    return rows


@lru_cache(maxsize=2)
def memory_idealization(smoke: bool = False) -> list[dict[str, object]]:
    """Component study: HSU cycles under each memory model (the GTO
    ablation jobs, the ``real`` row being the scheduler study's GTO job;
    ``smoke`` reads the CI-sized ones)."""
    rows = []
    for job in campaign.ablation_jobs(smoke):
        if job.scheduler != "gto":
            continue
        stats = _simulate_job(job)
        rows.append(
            {
                "dataset": job.abbr,
                "memory": job.memory,
                "hsu_cycles": stats.cycles,
                "l1_misses": stats.l1_misses,
                "dram_accesses": stats.dram_accesses,
            }
        )
    return rows


def compute() -> dict[str, object]:
    """All five ablation studies (BVH arity, fetch path, build quality,
    scheduler policy, memory idealization)."""
    return {
        "bvh_variants": bvh_variants(),
        "rt_fetch_paths": rt_fetch_paths(),
        "build_quality": build_quality(),
        "scheduler_policies": scheduler_policies(),
        "memory_idealization": memory_idealization(),
    }


def render() -> str:
    variant_rows = [
        (r["dataset"], r["variant"], r["hsu_cycles"], r["l1_accesses"])
        for r in bvh_variants()
    ]
    fetch_rows = [
        (r["app"], r["dataset"], r["fetch_path"], r["hsu_cycles"])
        for r in rt_fetch_paths()
    ]
    quality = build_quality()
    quality_rows = [
        (label,
         quality[label]["sah_cost"],
         quality[label]["box_tests_per_query"],
         quality[label]["dist_tests_per_query"])
        for label in ("lbvh", "sah")
    ]
    sched_rows = [
        (r["dataset"], r["policy"], r["hsu_cycles"], r["l1_misses"])
        for r in scheduler_policies()
    ]
    memory_rows = [
        (r["dataset"], r["memory"], r["hsu_cycles"], r["dram_accesses"])
        for r in memory_idealization()
    ]
    return "\n\n".join(
        [
            format_table(
                ["Dataset", "BVH variant", "HSU cycles", "L1 accesses"],
                variant_rows,
                title="Ablation A (§VI-E): BVH-NN structure variants",
                float_format="{:.0f}",
            ),
            format_table(
                ["App", "Dataset", "RT fetch path", "HSU cycles"],
                fetch_rows,
                title="Ablation B (§VI-I): RT-unit operand fetch path",
                float_format="{:.0f}",
            ),
            format_table(
                ["Builder", "SAH cost", "Box tests/query", "Dist tests/query"],
                quality_rows,
                title="Ablation C (§VI-E): build quality (LBVH vs binned SAH)",
            ),
            format_table(
                ["Dataset", "Scheduler policy", "HSU cycles", "L1 misses"],
                sched_rows,
                title="Ablation D: warp-scheduler policy (Table III uses GTO)",
                float_format="{:.0f}",
            ),
            format_table(
                ["Dataset", "Memory model", "HSU cycles", "DRAM accesses"],
                memory_rows,
                title="Ablation E: idealized memory (perfect L1 / "
                "contention-free DRAM)",
                float_format="{:.0f}",
            ),
        ]
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
