"""The supported programmatic entry point: ``repro.api.simulate``.

Historically the experiment layer grew a grab-bag of entry points in
:mod:`repro.experiments.common` — ``workload_run`` / ``baseline_stats`` /
``hsu_stats`` / ``simulate_recorded`` — each wiring a slightly different
slice of the workload → trace → simulator pipeline.  This module replaces
them with one facade:

    from repro import api

    stats = api.simulate(("bvhnn", "R10K"), variant="baseline")
    stats = api.simulate("ggnn/S10K", variant="hsu", euclid_width=32)
    stats = api.simulate(recorded_trace, variant="sched-lrr",
                         config=config, label=("bvhnn", "R10K"))

``simulate`` accepts every input shape the experiments produce:

* a **named workload** — a ``(family, abbr)`` tuple, a ``"family/abbr"``
  string, or a :class:`Workload` — routed through the campaign runner's
  two-tier persistent cache (:mod:`repro.experiments.campaign`), so warm
  calls skip workload execution entirely;
* a :class:`~repro.workloads.base.WorkloadRun` — lowered with
  :func:`~repro.workloads.base.to_traces` and simulated under an explicit
  ``config``;
* a :class:`~repro.workloads.base.TraceBundle` or a bare
  :class:`~repro.gpusim.trace.KernelTrace` — simulated as recorded (the
  ablation/figure path for pre-lowered traces).

Results are :class:`~repro.gpusim.stats.SimStats` and are bit-exact with
the legacy entry points this facade replaced: it builds the same campaign
cache keys, run ids, and manifests, so existing ``results/cache/``
contents keep hitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.isa import EUCLID_WIDTH, check_euclid_width
from repro.errors import ConfigError
from repro.experiments import campaign
from repro.gpusim import GpuConfig
from repro.gpusim.stats import SimStats
from repro.gpusim.trace import KernelTrace
from repro.workloads.base import TraceBundle, WorkloadRun, to_traces

__all__ = [
    "Workload",
    "simulate",
    "run_workload",
    "trace_bundle",
    "sharded_trace_bundle",
    "validate_simulate_args",
    "clear_caches",
]


@dataclass(frozen=True)
class Workload:
    """A named workload of the evaluation campaign.

    ``queries=None`` means the family's default query budget
    (:func:`repro.experiments.common.resolved_queries`).
    """

    family: str
    abbr: str
    queries: int | None = None


def _parse_workload(spec: object) -> Workload:
    """Normalize a named-workload spec (Workload | "family/abbr" | tuple)."""
    if isinstance(spec, Workload):
        return spec
    if isinstance(spec, str):
        family, sep, abbr = spec.partition("/")
        if not sep or not family or not abbr:
            raise ConfigError(
                f"workload string must look like 'family/abbr', got {spec!r}"
            )
        return Workload(family, abbr)
    if isinstance(spec, tuple) and len(spec) in (2, 3):
        return Workload(*spec)
    raise ConfigError(
        f"cannot interpret {spec!r} as a workload: want a (family, abbr) "
        "tuple, a 'family/abbr' string, a Workload, a WorkloadRun, a "
        "TraceBundle, or a KernelTrace"
    )


def _parse_label(label: object, kernel: KernelTrace) -> tuple[str, str]:
    """(family, abbr) identity a recorded trace simulates under."""
    if label is None:
        return ("adhoc", kernel.name or "trace")
    if isinstance(label, str):
        family, sep, abbr = label.partition("/")
        if sep and family and abbr:
            return (family, abbr)
        return ("adhoc", label)
    if isinstance(label, tuple) and len(label) == 2:
        return (str(label[0]), str(label[1]))
    raise ConfigError(
        f"label must be a (family, abbr) tuple or 'family/abbr', got {label!r}"
    )


#: Cache-mode names ``simulate(cache=...)`` accepts (None inherits).
_CACHE_MODES = ("on", "off", "rebuild")
#: Variant names a *named* workload accepts (recorded traces take
#: free-form design-point slugs instead).
_NAMED_VARIANTS = ("baseline", "hsu")


def validate_simulate_args(
    *,
    variant: str = "hsu",
    config: GpuConfig | None = None,
    cache: str | None = None,
    euclid_width: int = EUCLID_WIDTH,
    scale: float = 1.0,
    shards: int = 1,
    shard: int = 0,
    metric: str = "euclid",
    named: bool = True,
) -> None:
    """Eagerly validate the ``simulate`` kwarg surface in one place.

    Every axis check raises :class:`~repro.errors.ConfigError` *before*
    any workload executes or any cache entry is touched — the single
    error path both :func:`simulate` and
    :func:`repro.sharding.simulate.simulate_sharded` route through.
    ``named=False`` relaxes the ``variant`` check (recorded traces name
    free-form design points such as ``"sched-lrr"``).
    """
    if named and variant not in _NAMED_VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r} (want one of {_NAMED_VARIANTS})"
        )
    if config is not None and not isinstance(config, GpuConfig):
        raise ConfigError(
            f"config must be a GpuConfig, got {type(config).__name__}"
        )
    if cache is not None and cache not in _CACHE_MODES:
        raise ConfigError(
            f"unknown cache mode {cache!r} (want one of {_CACHE_MODES})"
        )
    check_euclid_width(euclid_width)
    if scale <= 0:
        raise ConfigError(f"scale must be > 0, got {scale}")
    if shards < 1 or not 0 <= shard < shards:
        raise ConfigError(
            f"shard {shard} out of range for {shards} shard(s)"
        )
    if metric != "euclid":
        from repro.metrics.transforms import validate_metric

        validate_metric(metric, context="simulate")


@lru_cache(maxsize=64)
def run_workload(
    family: str, abbr: str, queries: int | None = None,
    metric: str = "euclid",
) -> WorkloadRun:
    """Execute one named workload once per process (memoized).

    The supported replacement for the removed
    ``repro.experiments.common.workload_run``.  ``metric`` selects the
    distance metric for the ``arkade`` family (every other family is
    Euclidean-only — see docs/WORKLOADS.md).
    """
    from repro.experiments import common  # deferred: registry lives there

    if metric != "euclid" and family != "arkade":
        raise ConfigError(
            f"non-Euclidean metrics are only lowered for the arkade "
            f"family (got {family!r} with metric={metric!r})"
        )
    count = common.resolved_queries(family, abbr, queries)
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


@lru_cache(maxsize=2)
def trace_bundle(
    family: str,
    abbr: str,
    queries: int | None = None,
    euclid_width: int = EUCLID_WIDTH,
    metric: str = "euclid",
) -> TraceBundle:
    """Lowered paired traces for one named workload (small per-process
    cache — GGNN bundles are large)."""
    run = run_workload(family, abbr, queries, metric)
    return to_traces(run, euclid_width=euclid_width)


@lru_cache(maxsize=4)
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
    """Process-level memoization of named-workload simulations (the lru
    tier the removed ``baseline_stats``/``hsu_stats`` provided)."""
    return campaign.run_job(job).stats


def clear_caches() -> None:
    """Drop the process-level memoization (workload runs, trace bundles,
    job stats).  The persistent on-disk campaign cache is unaffected."""
    run_workload.cache_clear()
    trace_bundle.cache_clear()
    sharded_trace_bundle.cache_clear()
    _job_stats.cache_clear()


def simulate(
    workload: object,
    *,
    variant: str = "hsu",
    config: GpuConfig | None = None,
    cache: str | None = None,
    queries: int | None = None,
    warp_buffer: int = 8,
    euclid_width: int = EUCLID_WIDTH,
    scheduler: str = "gto",
    memory: str = "real",
    scale: float = 1.0,
    shards: int = 1,
    shard: int = 0,
    metric: str = "euclid",
    label: object = None,
) -> SimStats:
    """Simulate one workload variant and return its :class:`SimStats`.

    ``workload`` selects the pipeline entry point (see the module
    docstring): a named workload runs end-to-end through the campaign
    cache; a ``WorkloadRun`` is lowered here; a ``TraceBundle`` or
    ``KernelTrace`` is simulated as recorded.

    ``variant`` is ``"baseline"`` or ``"hsu"`` for named workloads and
    bundles; for recorded traces it is a free-form slug naming the design
    point in manifests and cache keys (``"sched-lrr"``, ``"mem-ideal"``).

    ``config`` overrides the per-family Table III configuration.  It is
    required when simulating a recorded trace (there is no family to
    derive a config from) and optional for named workloads, where the
    design-point knobs (``warp_buffer``, ``euclid_width``, ``scheduler``,
    ``memory``) otherwise shape the config exactly like a campaign
    :class:`~repro.experiments.campaign.Job`.

    ``cache`` temporarily overrides the campaign cache mode for this call
    (``"on"`` / ``"off"`` / ``"rebuild"``; default: inherit the mode set
    via :func:`repro.experiments.campaign.set_cache_mode`).

    ``scale`` / ``shards`` / ``shard`` select the multi-device axes for
    named ``bvhnn`` workloads: the dataset scale factor and which shard
    of how many to simulate (docs/SHARDING.md; defaults reproduce the
    single-device run and its pre-existing cache keys).

    ``metric`` selects the distance metric for named ``arkade`` workloads
    (``"euclid"`` / ``"l1"`` / ``"linf"`` / ``"cosine"`` — the Arkade
    reductions, docs/WORKLOADS.md; the default reproduces every
    pre-existing cache key byte-for-byte).

    The whole kwarg surface is validated eagerly through
    :func:`validate_simulate_args` — a bad axis raises
    :class:`~repro.errors.ConfigError` before anything executes.

    ``label`` names a recorded trace's (family, abbr) identity for
    manifests and cache keys; ignored for named workloads.
    """
    named = not isinstance(workload, (KernelTrace, TraceBundle, WorkloadRun))
    validate_simulate_args(
        variant=variant,
        config=config,
        cache=cache,
        euclid_width=euclid_width,
        scale=scale,
        shards=shards,
        shard=shard,
        metric=metric,
        named=named,
    )
    prior = campaign.cache_mode()
    if cache is not None:
        campaign.set_cache_mode(cache)
    try:
        if isinstance(workload, KernelTrace):
            return _simulate_trace(workload, variant, config, label)
        if isinstance(workload, TraceBundle):
            kernel = (
                workload.baseline if variant == "baseline" else workload.hsu
            )
            return _simulate_trace(kernel, variant, config, label)
        if isinstance(workload, WorkloadRun):
            bundle = to_traces(workload, euclid_width=euclid_width)
            kernel = bundle.baseline if variant == "baseline" else bundle.hsu
            if label is None:
                label = ("adhoc", workload.name)
            return _simulate_trace(kernel, variant, config, label)
        return _simulate_named(
            _parse_workload(workload),
            variant=variant,
            config=config,
            queries=queries,
            warp_buffer=warp_buffer,
            euclid_width=euclid_width,
            scheduler=scheduler,
            memory=memory,
            scale=scale,
            shards=shards,
            shard=shard,
            metric=metric,
        )
    finally:
        if cache is not None:
            campaign.set_cache_mode(prior)


def _simulate_trace(
    kernel: KernelTrace,
    variant: str,
    config: GpuConfig | None,
    label: object,
) -> SimStats:
    if config is None:
        raise ConfigError(
            "simulating a recorded trace requires an explicit config="
        )
    family, abbr = _parse_label(label, kernel)
    return campaign.cached_simulate(family, abbr, variant, config, kernel)


def _simulate_named(
    spec: Workload,
    *,
    variant: str,
    config: GpuConfig | None,
    queries: int | None,
    warp_buffer: int,
    euclid_width: int,
    scheduler: str,
    memory: str,
    scale: float = 1.0,
    shards: int = 1,
    shard: int = 0,
    metric: str = "euclid",
) -> SimStats:
    job = campaign.Job(
        spec.family,
        spec.abbr,
        variant,
        warp_buffer=warp_buffer,
        euclid_width=euclid_width,
        queries=queries if queries is not None else spec.queries,
        scheduler=scheduler,
        memory=memory,
        scale=scale,
        shards=shards,
        shard=shard,
        metric=metric,
    )
    if config is not None:
        # Explicit config: resolve the trace through the bundle cache and
        # simulate it verbatim (the design-point knobs that shape a Job's
        # config do not apply — the caller owns the config).
        from repro.experiments import common  # deferred: registry lives there

        params = common.workload_params(
            job.family, job.abbr, job.queries,
            scale=job.scale, shards=job.shards, shard=job.shard,
            metric=job.metric,
        )
        return campaign.cached_simulate(
            job.family,
            job.abbr,
            job.variant_label,
            config,
            campaign.job_trace(job),
            run_id=job.run_id,
            workload=params | {"variant": job.variant_label},
        )
    if campaign.cache_mode() == "on":
        return _job_stats(job)
    return campaign.run_job(job).stats
