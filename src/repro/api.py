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

The module also memoizes the last workload run (:func:`run_workload`)
and the last lowered traces (:func:`trace_bundle` /
:func:`sharded_trace_bundle`), which consecutive calls on one workload
reuse.  A campaign runs one workload group at a time and empties these
memos when each group ends (:func:`release_workloads`), so a finished
group's run and traces do not outlive it.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.isa import EUCLID_WIDTH
from repro.errors import ConfigError
from repro.experiments import campaign
from repro.gpusim.stats import SimStats
from repro.workloads.base import TraceBundle, WorkloadRun, to_traces

__all__ = [
    "simulate",
    "run_workload",
    "trace_bundle",
    "sharded_trace_bundle",
    "release_workloads",
    "clear_caches",
]


def run_workload(
    family: str, abbr: str, queries: int | None = None,
    metric: str = "euclid",
) -> WorkloadRun:
    """Execute one named workload (memoized: the last run, which
    :func:`trace_bundle` lowers again at each Fig. 10 width).

    ``metric`` selects the distance metric for the ``arkade`` family
    (every other family is Euclidean-only — see docs/WORKLOADS.md).  The
    guard below protects direct calls; a campaign ``Job`` has already
    checked its axes.  The memo is keyed on the normalized arguments
    (the resolved query count), so every spelling of one run — keyword
    or positional, ``None`` or the default count — executes it once.
    """
    from repro.experiments import common  # deferred: registry lives there

    if metric != "euclid" and family != "arkade":
        raise ConfigError(
            f"non-Euclidean metrics are only lowered for the arkade "
            f"family (got {family!r} with metric={metric!r})"
        )
    return _execute(
        family, abbr, common.resolved_queries(family, abbr, queries), metric
    )


@lru_cache(maxsize=1)
def _execute(family: str, abbr: str, count: int, metric: str) -> WorkloadRun:
    """:func:`run_workload`'s memo over normalized arguments."""
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


#: The memo's probes under the public name: ``cache_info().misses``
#: counts workload executions.
run_workload.cache_info = _execute.cache_info
run_workload.cache_clear = _execute.cache_clear


@lru_cache(maxsize=1)
def trace_bundle(
    family: str,
    abbr: str,
    queries: int | None = None,
    euclid_width: int = EUCLID_WIDTH,
    metric: str = "euclid",
) -> TraceBundle:
    """Lowered paired traces for one named workload (memoized: the last
    bundle, whose baseline and HSU jobs run back to back)."""
    run = run_workload(family, abbr, queries, metric)
    return to_traces(run, euclid_width=euclid_width)


@lru_cache(maxsize=1)
def sharded_trace_bundle(
    abbr: str,
    queries: int | None = None,
    euclid_width: int = EUCLID_WIDTH,
    scale: float = 1.0,
    shards: int = 1,
    shard: int = 0,
) -> TraceBundle:
    """Lowered paired traces for one shard of a multi-device BVH-NN run.

    The trace models device ``shard`` of ``shards``: its BVH covers only
    its Morton-range partition of the (optionally ``scale``-d) dataset,
    and the full query batch is broadcast to it — see
    :func:`repro.workloads.bvhnn.run_bvhnn_sharded` and docs/SHARDING.md.
    The campaign runner routes sharded :class:`~repro.experiments.campaign.Job`\\ s
    here, so the scaling sweep reuses its process pool and caches as the
    shard executor.
    """
    from repro.experiments import common  # deferred: registry lives there
    from repro.workloads.bvhnn import run_bvhnn_sharded

    count = common.resolved_queries("bvhnn", abbr, queries)
    run = run_bvhnn_sharded(
        abbr, num_queries=count, scale=scale, shards=shards, shard=shard
    )
    return to_traces(run, euclid_width=euclid_width)


@lru_cache(maxsize=256)
def _job_stats(job: campaign.Job) -> SimStats:
    """Process-level memoization of named simulations (cache mode
    ``on``), in front of the persistent campaign cache."""
    return campaign.run_job(job).stats


#: The memos :func:`release_workloads` empties, bound here so that a
#: wrapper installed over a module name (a tracer's) cannot hide them.
_WORKLOAD_MEMOS = (_execute, trace_bundle, sharded_trace_bundle)


def release_workloads() -> None:
    """Empty the memos of workload runs and trace bundles; the campaign
    calls this when a workload group's last job ends.  The process-lifetime
    memos of built datasets, indexes and graphs are kept."""
    for memo in _WORKLOAD_MEMOS:
        memo.cache_clear()


def clear_caches() -> None:
    """Drop the process-level memoization (workload runs, trace bundles,
    job stats).  The persistent on-disk campaign cache is unaffected."""
    release_workloads()
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
