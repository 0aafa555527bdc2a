"""The supported programmatic entry point: ``repro.api.simulate``.

A named simulation is one campaign :class:`~repro.experiments.campaign.Job`:

    from repro import api

    stats = api.simulate(("bvhnn", "R10K"), variant="baseline")
    stats = api.simulate(("ggnn", "S10K"), variant="hsu", euclid_width=32)

:func:`simulate` hands its keyword axes straight to ``Job``, so the Job's
fields are the one definition of the axes, their defaults and their
checks.  It then runs the job through the campaign runner's two-tier
persistent cache (:mod:`repro.experiments.campaign`), so warm calls skip
workload execution entirely, and the results share cache keys, run ids
and manifests with the campaign CLI.  A recorded, pre-lowered
:class:`~repro.gpusim.trace.KernelTrace` is not a named workload: simulate
it under an explicit config with
:func:`repro.experiments.campaign.cached_simulate`.

The build store (:mod:`repro.builds`) keeps the last workload run
(:func:`run_workload`), from which each job of a campaign workload group
lowers the one trace it simulates.  A campaign runs one workload group at
a time and empties the store's group scope when each group ends, so a
finished group's run, datasets and indexes do not outlive it.
"""

from __future__ import annotations

from functools import lru_cache

from repro import builds
from repro.errors import ConfigError
from repro.experiments import campaign
from repro.gpusim.stats import SimStats
from repro.workloads.base import WorkloadRun

__all__ = [
    "simulate",
    "run_workload",
    "clear_caches",
]


def run_workload(
    family: str, abbr: str, queries: int | None = None,
    metric: str = "euclid", scale: float = 1.0, shards: int = 1,
    shard: int = 0,
) -> WorkloadRun:
    """Execute one named workload (stored: the last run, which every job
    of a campaign workload group lowers its trace from).

    ``metric`` selects the distance metric for the ``arkade`` family
    (every other family is Euclidean-only — see docs/WORKLOADS.md), and
    ``scale``/``shards``/``shard`` one device of a multi-device BVH-NN run
    (:func:`repro.workloads.bvhnn.run_bvhnn_sharded`, docs/SHARDING.md).
    The guards below protect direct calls; a campaign ``Job`` has already
    checked its axes.  The run is stored under the normalized arguments
    (the resolved query count), so every spelling of one run — keyword
    or positional, ``None`` or the default count — executes it once;
    ``builds.build_counts["run"]`` counts the executions.
    """
    from repro.experiments import common  # deferred: registry lives there

    if metric != "euclid" and family != "arkade":
        raise ConfigError(
            f"non-Euclidean metrics are only lowered for the arkade "
            f"family (got {family!r} with metric={metric!r})"
        )
    if (shards != 1 or scale != 1.0) and family != "bvhnn":
        raise ConfigError(
            f"sharded/scaled workloads are only lowered for the bvhnn "
            f"family (got {family!r})"
        )
    return _execute(
        family, abbr, common.resolved_queries(family, abbr, queries), metric,
        scale, shards, shard,
    )


@builds.stored("run", latest=True)
def _execute(
    family: str, abbr: str, count: int, metric: str, scale: float,
    shards: int, shard: int,
) -> WorkloadRun:
    """:func:`run_workload` over normalized arguments."""
    if shards != 1 or scale != 1.0:
        from repro.workloads.bvhnn import run_bvhnn_sharded

        return run_bvhnn_sharded(
            abbr, num_queries=count, scale=scale, shards=shards, shard=shard
        )
    if family == "ggnn":
        from repro.workloads.ggnn import run_ggnn

        return run_ggnn(abbr, num_queries=count)
    if family == "flann":
        from repro.workloads.flann import run_flann

        return run_flann(abbr, num_queries=count)
    if family == "bvhnn":
        from repro.workloads.bvhnn import run_bvhnn

        return run_bvhnn(abbr, num_queries=count)
    if family == "btree":
        from repro.workloads.btree_kv import run_btree

        return run_btree(abbr, num_queries=count)
    if family == "arkade":
        from repro.workloads.arkade import run_arkade

        return run_arkade(abbr, num_queries=count, metric=metric)
    raise ConfigError(f"unknown workload family {family!r}")


@lru_cache(maxsize=256)
def _job_stats(job: campaign.Job) -> SimStats:
    """Process-level memoization of named simulations (cache mode
    ``on``), in front of the persistent campaign cache."""
    return campaign.run_job(job).stats


def clear_caches() -> None:
    """Drop the process-level memoization (the workload run, job stats).
    Built datasets, indexes and graphs stay in the build store, and the
    persistent on-disk campaign cache is unaffected."""
    builds.drop("run")
    _job_stats.cache_clear()


def simulate(
    workload: tuple[str, str],
    *,
    variant: str = "hsu",
    cache: str | None = None,
    **axes: object,
) -> SimStats:
    """Simulate one named workload variant and return its :class:`SimStats`.

    ``workload`` is a ``(family, abbr)`` tuple.  ``variant`` and the
    keyword ``axes`` (``queries``, ``warp_buffer``, ``euclid_width``,
    ``scheduler``, ``memory``, ``scale``, ``shards``, ``shard``,
    ``metric``) are the fields of
    :class:`~repro.experiments.campaign.Job`, which checks them: a bad
    value raises :class:`~repro.errors.ConfigError` and an unknown keyword
    ``TypeError``, both before any workload runs.

    ``cache`` overrides the campaign cache mode for this call only
    (``"on"`` / ``"off"`` / ``"rebuild"``; default: inherit the mode set
    via :func:`repro.experiments.campaign.set_cache_mode`).
    """
    if not (isinstance(workload, tuple) and len(workload) == 2):
        raise ConfigError(
            "api.simulate takes a (family, abbr) tuple, got a "
            f"{type(workload).__name__}; simulate a recorded KernelTrace "
            "with repro.experiments.campaign.cached_simulate"
        )
    job = campaign.Job(*workload, variant, **axes)
    if cache is None:
        return _simulate_job(job)
    prior = campaign.cache_mode()
    campaign.set_cache_mode(cache)
    try:
        return _simulate_job(job)
    finally:
        campaign.set_cache_mode(prior)


def _simulate_job(job: campaign.Job) -> SimStats:
    if campaign.cache_mode() == "on":
        return _job_stats(job)
    return campaign.run_job(job).stats
