"""Multi-device scaling curve: shards × dataset scale for BVH-NN.

The paper (§VI) evaluates the HSU on one GPU; this sweep asks the natural
scale-out question — what happens when the dataset outgrows one device?
Each sweep point partitions the (Morton-ordered) point set across N
simulated GPUs, runs one campaign job per shard through
:func:`repro.sharding.simulate_sharded`, and composes the modeled batch
time as ``max(shard cycles) + scatter/gather + merge`` (the
:class:`~repro.sharding.Interconnect` cost model; docs/SHARDING.md).

Expected shape: near-linear makespan reduction while per-shard BVHs stay
deep enough to amortize traversal setup, with the interconnect + merge
overhead growing as the gathered result volume and ``log2(N)`` tournament
depth — so the speedup curve bends where partitioning stops paying.

The sweep is also a campaign family: ``python -m repro.experiments.campaign
--families scaling`` runs the same jobs (and warms the same cache) without
the interconnect composition.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments.campaign import SCALING_DATASET, scaling_jobs
from repro.sharding import ShardedSimResult, simulate_sharded


def compute(
    smoke: bool = False,
    jobs_n: int = 1,
    abbr: str = SCALING_DATASET,
) -> list[ShardedSimResult]:
    """Run the sweep; one :class:`ShardedSimResult` per (scale, shards).

    The sweep points are those of ``campaign.scaling_jobs(smoke)``, so
    both warm the same cache entries; ``jobs_n`` is the per-point
    process-pool width.
    """
    points = dict.fromkeys(
        (job.scale, job.shards, job.queries) for job in scaling_jobs(smoke)
    )
    return [
        simulate_sharded(
            abbr, shards=shards, scale=scale, queries=queries, jobs_n=jobs_n
        )
        for scale, shards, queries in points
    ]


def render(smoke: bool = False, jobs_n: int = 1) -> str:
    points = compute(smoke=smoke, jobs_n=jobs_n)
    singles = {
        p.scale: p.total_cycles for p in points if p.shards == 1
    }
    rows = []
    for point in points:
        single = singles.get(point.scale, point.total_cycles)
        rows.append(
            (
                point.scale,
                point.shards,
                point.makespan_cycles,
                point.interconnect_cycles + point.merge_cycles,
                point.total_cycles,
                f"{single / point.total_cycles:.2f}x",
                f"{point.load_imbalance:.3f}",
            )
        )
    return format_table(
        ["Scale", "Shards", "Makespan", "IC+merge", "Total", "Speedup",
         "Imbalance"],
        rows,
        title="Scaling curve: multi-device BVH-NN (cycles)",
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
