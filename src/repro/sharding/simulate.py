"""Multi-device simulation: per-shard campaign jobs + interconnect model.

:func:`simulate_sharded` is the scaling experiment's engine.  One sweep
point (dataset × scale × shard count) becomes one campaign
:class:`~repro.experiments.campaign.Job` **per shard** — the job
``repro.api.simulate`` would build for that device's partition trace —
executed through :func:`repro.experiments.campaign.execute`, so the
campaign's process pool is the shard executor and its persistent cache
makes warm sweeps free.  The Job checks the point's axes when it is
built; this module keeps no checks of its own.  Devices run
concurrently, so the modeled batch time is::

    total = max(shard cycles)            # the slowest device (makespan)
          + scatter + gather cycles      # Interconnect critical path
          + merge cycles                 # host-side k-way tournament

The scatter/gather/merge volumes come from replaying the *same* broadcast
radius query batch the per-shard traces executed (same dataset, radius
artifact, Morton partition and query stream), so the cost model accounts
the exact result counts the devices produced.  ``experiments/scaling.py``
prints the sweep, ``tests/goldens/gpusim_smoke.json`` pins the R10K curve
exactly, and docs/SHARDING.md walks the recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import builds
from repro.errors import ConfigError
from repro.sharding.index import COORD_BYTES, RESULT_BYTES
from repro.sharding.interconnect import Interconnect, InterconnectConfig
from repro.sharding.metrics import ShardingMetrics


@dataclass(frozen=True)
class ShardedSimResult:
    """One scaling sweep point: per-shard cycles + interconnect breakdown."""

    abbr: str
    scale: float
    shards: int
    queries: int
    variant: str
    #: Simulated cycles per shard, in shard order.
    shard_cycles: tuple[int, ...]
    #: Slowest shard — devices run concurrently, so this is compute time.
    makespan_cycles: int
    scatter_bytes: int
    gather_bytes: int
    #: Scatter + gather critical-path cycles under the topology.
    interconnect_cycles: int
    merge_ops: int
    merge_cycles: int
    #: makespan + interconnect + merge: the modeled multi-device batch time.
    total_cycles: int
    #: max/mean shard cycles (1.0 = perfectly balanced).
    load_imbalance: float
    #: Campaign cache hits scored by the per-shard jobs (warmth signal).
    cache_hits: int


def _query_counts(abbr: str, scale: float, shards: int,
                  queries: int) -> tuple[list[int], list[int]]:
    """(per-shard query counts, per-shard result counts) of the broadcast
    batch — replayed bit-identically to the per-shard workload traces."""
    from repro.workloads import bvhnn

    points, radius, _shard_ids = bvhnn._sharded_parts(abbr, scale, 0, shards)
    batch = bvhnn.query_stream(points, radius, queries, seed=0)
    results = []
    for shard in range(shards):
        index = bvhnn._build_shard(abbr, scale, 0, shards, shard)
        hits = index.query_batch(batch).neighbors
        results.append(int(sum(len(row) for row in hits)))
    return [queries] * shards, results


def simulate_sharded(
    abbr: str = "R10K",
    shards: int = 1,
    scale: float = 1.0,
    queries: int = 256,
    variant: str = "hsu",
    jobs_n: int = 1,
    interconnect: InterconnectConfig | None = None,
    metrics: ShardingMetrics | None = None,
    label: str | None = None,
) -> ShardedSimResult:
    """Simulate one multi-device sweep point; returns the cycle breakdown.

    Spawns one campaign job per shard (``jobs_n`` workers run them in
    parallel through the process pool; warm runs hit the persistent
    cache), replays the broadcast query batch for the interconnect
    volumes, and composes the makespan + scatter/gather + merge total.
    The point runs as one build-store group (:func:`repro.builds.group`):
    the replay reuses the shard indexes the jobs built in this process,
    and the point's builds are dropped when it returns.
    Raises :class:`~repro.errors.ConfigError` if any shard job fails.
    Pass a :class:`~repro.sharding.metrics.ShardingMetrics` to publish the
    point under ``sharding/<label>/...``.
    """
    from repro.experiments import campaign

    # Building shard 0's Job checks every axis (the shard count included),
    # so a bad point raises ConfigError before it reaches the process pool.
    first = campaign.Job(
        "bvhnn", abbr, variant, queries=queries, scale=scale, shards=shards
    )
    jobs = [replace(first, shard=shard) for shard in range(shards)]
    run_label = label or f"scaling-{abbr.replace('+', '')}-x{scale:g}-" \
        f"n{shards}".lower()
    with builds.group():
        summary = campaign.execute(jobs, jobs_n=jobs_n, label=run_label)
        if not summary.ok:
            errors = "; ".join(
                f"{r.job.run_id}: {r.error}" for r in summary.failed
            )
            raise ConfigError(f"sharded simulation failed: {errors}")
        per_shard_queries, per_shard_results = _query_counts(
            abbr, scale, shards, queries
        )
    shard_cycles = []
    for job in jobs:
        stats = summary.stats_for(job)
        assert stats is not None
        shard_cycles.append(int(stats.cycles))
    makespan = max(shard_cycles)
    fabric = Interconnect(shards, config=interconnect)
    scatter_bytes, scatter_cycles = fabric.scatter(
        per_shard_queries, 3 * COORD_BYTES
    )
    gather_bytes, gather_cycles = fabric.gather(
        per_shard_results, RESULT_BYTES
    )
    merge_ops, merge_cycles = fabric.merge(sum(per_shard_results))
    interconnect_cycles = scatter_cycles + gather_cycles
    total = makespan + interconnect_cycles + merge_cycles
    mean = sum(shard_cycles) / len(shard_cycles)
    result = ShardedSimResult(
        abbr=abbr,
        scale=scale,
        shards=shards,
        queries=queries,
        variant=variant,
        shard_cycles=tuple(shard_cycles),
        makespan_cycles=makespan,
        scatter_bytes=scatter_bytes,
        gather_bytes=gather_bytes,
        interconnect_cycles=interconnect_cycles,
        merge_ops=merge_ops,
        merge_cycles=merge_cycles,
        total_cycles=total,
        load_imbalance=float(makespan / mean),
        cache_hits=summary.hits,
    )
    if metrics is not None:
        import re

        slug = re.sub(r"[^a-z0-9_]", "_", run_label.lower())
        point = metrics.index(slug, shards=shards)
        point.on_batch(
            queries, sum(per_shard_queries), scatter_bytes, gather_bytes,
            interconnect_cycles, merge_ops, merge_cycles,
        )
        for shard, (cycles, count) in enumerate(
            zip(shard_cycles, per_shard_results)
        ):
            point.on_shard_cycles(shard, cycles)
            point.on_shard_results(shard, count)
    return result
