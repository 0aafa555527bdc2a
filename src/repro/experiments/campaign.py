"""Parallel campaign runner with a persistent on-disk result cache.

The paper's evaluation (§V, Figs. 7-16) is a *campaign*: dozens of paired
baseline/HSU simulations over four workload families, their datasets, and
the Fig. 10/11 design-point sweeps.  This module turns that campaign into a
job graph:

* every simulation is a deterministically keyed :class:`Job`
  (family, dataset, variant, design point),
* jobs execute across a ``ProcessPoolExecutor`` (``--jobs N``), grouped by
  workload so each worker runs a workload once and simulates all of its
  variants, and a process holds one workload group in memory at a time,
* every result lands in a persistent content-addressed cache under
  ``results/cache/`` keyed by (workload key, trace fingerprint,
  ``GpuConfig`` hash, cache schema version), storing the serialized
  :class:`~repro.gpusim.stats.SimStats` plus the run-manifest snapshot,
* each job gets a timeout and a single retry, and a failed job (or a
  worker that dies) is reported in the campaign summary without aborting
  the rest.

Two cache tiers live under the cache directory (see ``docs/CAMPAIGN.md``
for the layout and the invalidation rules):

* ``sims/<key>.json`` — the simulation results, content-addressed by the
  trace fingerprint and config hash, so any change to the emitted trace or
  to any ``GpuConfig`` field busts the entry;
* ``traces/<key>.json`` — workload parameters -> trace fingerprint, which
  lets a warm run map a job to its simulation entry *without re-running
  the workload* (GGNN trace collection alone costs minutes).  Trace-tier
  entries are keyed by the workload parameters and
  :data:`CACHE_SCHEMA_VERSION`; whenever a workload *is* re-executed the
  entry is rewritten if the fresh fingerprint differs, so stale mappings
  self-heal on any cold or ``rebuild`` run.

Corrupted or schema-incompatible entries are treated as misses and
recomputed (then overwritten).  Every cache entry and manifest goes
through one writer,
:func:`~repro.gpusim.observability.write_if_changed`, which leaves a file
that already holds the same bytes untouched.

Within a campaign each trace is ingested once (:class:`TraceIngest`): the
design points that share a trace reuse its fingerprint and, per pack key,
its SoA pack, and the group's run, traces, pack, datasets and indexes
are released when its last job ends.  ``python -m repro.experiments.campaign``
runs the default §V campaign from the command line; ``run_all`` uses the
same machinery to prewarm the cache before rendering the figures.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro import builds
from repro.core.isa import EUCLID_WIDTH, check_euclid_width
from repro.errors import ConfigError
from repro.gpusim import GpuConfig, GpuSimulator, engine
from repro.gpusim.observability import (
    build_manifest,
    manifests_enabled,
    results_dir,
    write_if_changed,
    write_manifest,
)
from repro.gpusim.soa import PackedKernel, pack_key
from repro.gpusim.stats import SimStats
from repro.gpusim.trace import KernelTrace

#: Bump to invalidate every cache entry (stored in, and hashed into, every
#: key).  Bump it whenever simulator/workload code changes results without
#: changing the emitted trace or the config (e.g. a timing-model fix).
#: v2: timestamps normalized to integer cycles at component boundaries
#: (fractional L2/DRAM port budgets now accumulate inside
#: ``repro.gpusim.resource.Port``), which shifts cycle counts slightly;
#: ``GpuConfig`` also gained the ``scheduler``/``memory`` fields.
#: v3: trace fingerprints digest the trace's columns instead of the
#: ``repr`` of every instruction, so every trace fingerprint moved.
CACHE_SCHEMA_VERSION = 3

#: Default per-job timeout (seconds) for pool execution; a group's budget
#: is ``timeout * len(group)``.
DEFAULT_JOB_TIMEOUT = 900.0

_VARIANTS = ("baseline", "hsu")

_MODES = ("on", "off", "rebuild")
_mode = "on"


def set_cache_mode(mode: str) -> None:
    """Select cache behaviour: ``on`` (default), ``off``, or ``rebuild``.

    ``off`` neither reads nor writes (``--no-cache``); ``rebuild`` ignores
    existing entries but still writes fresh ones (``--rebuild``).
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown cache mode {mode!r} (want one of {_MODES})")
    global _mode
    _mode = mode


def cache_mode() -> str:
    return _mode


def cache_dir() -> Path:
    """Cache root: ``REPRO_CACHE_DIR``, else ``<results_dir>/cache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else results_dir() / "cache"


@dataclass
class CacheStats:
    """Process-local cache traffic counters (run_all's summary reads these)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.stores, self.corrupt)

    def delta(self, since: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.hits - since.hits,
            self.misses - since.misses,
            self.stores - since.stores,
            self.corrupt - since.corrupt,
        )


#: Global counters for this process (workers keep their own; the campaign
#: summary aggregates across workers from the returned job results).
cache_stats = CacheStats()


@dataclass
class PhaseStats:
    """Process-local wall-clock split between the two campaign phases.

    ``tracegen`` is time spent producing simulator input — workload
    execution, trace lowering, and fingerprinting; ``simulate`` is time
    spent inside :meth:`GpuSimulator.run`.  Cache bookkeeping, manifest
    I/O, and pool overhead are in neither bucket, so the phases do not sum
    to the campaign wall-clock.  The campaign manifest records both
    (``tracegen_seconds``, ``simulate_seconds``).
    """

    tracegen: float = 0.0
    simulate: float = 0.0

    def snapshot(self) -> "PhaseStats":
        return PhaseStats(self.tracegen, self.simulate)

    def delta(self, since: "PhaseStats") -> "PhaseStats":
        return PhaseStats(
            self.tracegen - since.tracegen,
            self.simulate - since.simulate,
        )


#: Global phase timers for this process (workers report theirs through the
#: per-job records, like the cache counters).
phase_stats = PhaseStats()


@dataclass(frozen=True)
class Job:
    """One deterministically keyed simulation of the evaluation campaign.

    The fields are the one definition of a simulation's axes and their
    defaults (:func:`repro.api.simulate` hands its keywords straight
    here), and construction is their one check: a bad axis raises
    :class:`~repro.errors.ConfigError` before any workload runs.
    """

    family: str
    abbr: str
    variant: str  # "baseline" | "hsu"
    warp_buffer: int = 8
    #: HSU datapath width the trace is lowered for (the Fig. 10 axis).
    euclid_width: int = EUCLID_WIDTH
    #: Override the family's default query count (smoke/test campaigns).
    queries: int | None = None
    #: Warp-scheduler policy and memory model (the ablation-family axes):
    #: names from ``gpusim.config.SCHEDULER_POLICIES`` / ``MEMORY_MODELS``.
    scheduler: str = "gto"
    memory: str = "real"
    #: Multi-device axes (the ``scaling`` pseudo-family, bvhnn only):
    #: dataset scale factor and which shard of how many this job
    #: simulates.  Defaults keep every pre-sharding cache key and run id
    #: byte-identical.
    scale: float = 1.0
    shards: int = 1
    shard: int = 0
    #: Distance-metric axis (the ``metrics`` pseudo-family, arkade only).
    #: The default keeps every pre-metric cache key and run id
    #: byte-identical.
    metric: str = "euclid"

    def __post_init__(self) -> None:
        from repro.experiments.common import datasets_for  # the registry
        from repro.gpusim.config import MEMORY_MODELS, SCHEDULER_POLICIES

        if self.variant not in _VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r} (want one of {_VARIANTS})"
            )
        if self.scheduler not in SCHEDULER_POLICIES:
            raise ConfigError(
                f"unknown scheduler policy {self.scheduler!r} "
                f"(want one of {SCHEDULER_POLICIES})"
            )
        if self.memory not in MEMORY_MODELS:
            raise ConfigError(
                f"unknown memory model {self.memory!r} "
                f"(want one of {MEMORY_MODELS})"
            )
        if self.abbr not in datasets_for(self.family):
            raise ConfigError(f"unknown {self.family} dataset {self.abbr!r}")
        if self.queries is not None and self.queries < 1:
            raise ConfigError(f"queries must be >= 1, got {self.queries}")
        if self.shards < 1 or not 0 <= self.shard < self.shards:
            raise ConfigError(
                f"shard {self.shard} out of range for {self.shards} shard(s)"
            )
        if self.scale <= 0:
            raise ConfigError(f"scale must be > 0, got {self.scale}")
        if (self.shards != 1 or self.scale != 1.0) and self.family != "bvhnn":
            raise ConfigError(
                f"sharded/scaled workloads are only lowered for the bvhnn "
                f"family (got {self.family!r})"
            )
        check_euclid_width(self.euclid_width)
        if self.metric != "euclid":
            from repro.metrics.transforms import validate_metric

            validate_metric(self.metric, context="campaign Job")
            if self.family != "arkade":
                raise ConfigError(
                    f"non-Euclidean metrics are only lowered for the arkade "
                    f"family (got {self.family!r} with "
                    f"metric={self.metric!r})"
                )

    @property
    def group(self) -> tuple:
        """Jobs sharing a group share one workload execution."""
        return (
            self.family, self.abbr, self.queries,
            self.scale, self.shards, self.shard, self.metric,
        )

    @property
    def sweep_point(self) -> tuple:
        """The group without its shard: the shards of one multi-device
        sweep point share their dataset, radius and partition."""
        return (
            self.family, self.abbr, self.queries,
            self.scale, self.shards, self.metric,
        )

    @property
    def variant_label(self) -> str:
        label = (
            "baseline"
            if self.variant == "baseline"
            else f"hsu-wb{self.warp_buffer}-ew{self.euclid_width}"
        )
        if self.scheduler != "gto":
            label += f"-sched_{self.scheduler}"
        if self.memory != "real":
            label += f"-{self.memory}"
        return label

    @property
    def run_id(self) -> str:
        stem = f"{self.family}-{self.abbr.replace('+', '')}-{self.variant_label}"
        if self.metric != "euclid":
            stem += f"-{self.metric}"
        if self.scale != 1.0:
            stem += f"-x{self.scale:g}"
        if self.shards != 1:
            stem += f"-s{self.shard}of{self.shards}"
        if self.queries is not None:
            stem += f"-q{self.queries}"
        return stem.lower()


@dataclass
class JobOutcome:
    """What running (or cache-hitting) one job produced."""

    job: Job
    stats: SimStats
    cached: bool
    wall: float
    key: str


@dataclass
class JobRecord:
    """One job's row in a campaign summary (worker-safe plain data)."""

    job: Job
    ok: bool
    cached: bool = False
    wall: float = 0.0
    key: str = ""
    attempts: int = 1
    error: str | None = None
    simstats: dict[str, object] | None = None
    #: Phase split for this job (see :class:`PhaseStats`): zero on warm
    #: cache hits, where neither phase executes.
    tracegen_wall: float = 0.0
    sim_wall: float = 0.0


# ---------------------------------------------------------------------------
# Keys and on-disk entries
# ---------------------------------------------------------------------------


def _sha(payload: dict[str, object]) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stats_key(
    workload: dict[str, object], trace_sha: str, config_sha: str
) -> str:
    """Content address of one simulation result.

    Hashes the workload key, the trace fingerprint, the config hash, and
    :data:`CACHE_SCHEMA_VERSION` — the complete invalidation surface: a
    config change, a trace change, or a schema bump each produce a new key.
    """
    return _sha(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": workload,
            "trace_sha": trace_sha,
            "config_sha": config_sha,
        }
    )


def trace_key(workload: dict[str, object], variant: str, euclid_width: int) -> str:
    """Key of the workload-params -> trace-fingerprint mapping entry."""
    return _sha(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": workload,
            "variant": variant,
            "euclid_width": euclid_width if variant == "hsu" else None,
        }
    )


def _stats_path(key: str) -> Path:
    return cache_dir() / "sims" / f"{key}.json"


def _trace_path(key: str) -> Path:
    return cache_dir() / "traces" / f"{key}.json"


def _write_entry(path: Path, payload: dict[str, object]) -> None:
    write_if_changed(path, json.dumps(payload, sort_keys=True) + "\n")
    cache_stats.stores += 1


def _load_entry(path: Path, key: str, required: tuple[str, ...]) -> dict | None:
    """Load a cache entry, treating any corruption as a miss.

    A partially written file, invalid JSON, a wrong-schema payload, or a
    payload whose recorded key disagrees with its filename all return
    ``None`` (and count as ``corrupt``); the caller recomputes and the
    store overwrites the bad entry (its bytes differ from the fresh ones).
    """
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        cache_stats.corrupt += 1
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != CACHE_SCHEMA_VERSION
        or payload.get("key") != key
        or any(name not in payload for name in required)
    ):
        cache_stats.corrupt += 1
        return None
    return payload


def load_stats_entry(key: str) -> tuple[SimStats, dict] | None:
    """Cached (SimStats, entry) for a stats key, or ``None`` on miss."""
    payload = _load_entry(_stats_path(key), key, ("simstats",))
    if payload is None:
        return None
    try:
        stats = SimStats.from_json_dict(payload["simstats"])
    except (TypeError, ValueError):
        cache_stats.corrupt += 1
        return None
    return stats, payload


def store_stats_entry(
    key: str,
    workload: dict[str, object],
    trace_sha: str,
    config_sha: str,
    stats: SimStats,
    manifest: dict[str, object] | None,
) -> None:
    _write_entry(
        _stats_path(key),
        {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "workload": workload,
            "trace_sha": trace_sha,
            "config_sha": config_sha,
            "simstats": stats.to_json_dict(),
            "manifest": manifest,
        },
    )


def load_trace_entry(key: str) -> dict | None:
    return _load_entry(_trace_path(key), key, ("trace_sha",))


def store_trace_entry(
    key: str, workload: dict[str, object], variant: str, kernel: KernelTrace,
    trace_sha: str,
) -> None:
    _write_entry(
        _trace_path(key),
        {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "workload": workload,
            "variant": variant,
            "trace_sha": trace_sha,
            "num_warps": kernel.num_warps,
            "total_instructions": kernel.total_instructions(),
        },
    )


def artifact_key(kind: str, params: dict[str, object]) -> str:
    """Key of a build-artifact entry (e.g. a tuned search radius)."""
    return _sha(
        {"schema": CACHE_SCHEMA_VERSION, "artifact": kind, "params": params}
    )


def _artifact_path(key: str) -> Path:
    return cache_dir() / "traces" / f"artifact-{key}.json"


def load_artifact(kind: str, params: dict[str, object]) -> object | None:
    """Cached build artifact for ``params``, or None on miss/cache-off.

    Artifacts are small derived values of an index build (a tuned radius,
    a sampled parameter) that are expensive to recompute but cheap to
    store; they live in the ``traces/`` tier so every variant of a
    workload — and every worker process of a parallel campaign — shares
    one computation.
    """
    if cache_mode() == "off":
        return None
    key = artifact_key(kind, params)
    payload = _load_entry(_artifact_path(key), key, ("value",))
    if payload is None:
        return None
    cache_stats.hits += 1
    return payload["value"]


def store_artifact(kind: str, params: dict[str, object], value: object) -> None:
    if cache_mode() == "off":
        return
    key = artifact_key(kind, params)
    _write_entry(
        _artifact_path(key),
        {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "artifact": kind,
            "params": params,
            "value": value,
        },
    )


# ---------------------------------------------------------------------------
# Cached simulation
# ---------------------------------------------------------------------------


def cached_simulate(
    family: str,
    abbr: str,
    variant: str,
    config: GpuConfig,
    kernel: KernelTrace,
    run_id: str | None = None,
    workload: dict[str, object] | None = None,
    trace_sha: str | None = None,
    ingest: TraceIngest | None = None,
) -> SimStats:
    """Simulate one recorded trace under ``config`` through the persistent
    cache: the entry point for a pre-lowered :class:`KernelTrace` (named
    workloads go through :func:`run_job`, which calls this on a miss).

    Content-addressed: the key hashes the actual ``kernel`` fingerprint and
    ``config``, so a hit is guaranteed to correspond to a bit-identical
    simulation input.  On a hit the cached run-manifest snapshot is
    re-stamped to ``results/`` (original timestamp and git SHA — it
    documents the run that actually computed the numbers); on a miss the
    simulation runs, stamps its manifest, and stores the entry.  Callers
    that already fingerprinted the kernel pass ``trace_sha`` to skip the
    (non-trivial) re-hash, and callers holding ``kernel``'s
    :class:`TraceIngest` pass it so a miss reuses its pack.
    """
    mode = cache_mode()
    wkey = dict(workload) if workload is not None else {
        "family": family, "dataset": abbr, "variant": variant,
    }
    run_id = run_id or f"{family}-{abbr.replace('+', '')}-{variant}".lower()
    if trace_sha is None:
        fp_start = time.perf_counter()
        trace_sha = kernel.fingerprint()
        phase_stats.tracegen += time.perf_counter() - fp_start
    config_sha = config.stable_hash()
    key = stats_key(wkey, trace_sha, config_sha)
    if mode == "on":
        stats = _stats_hit(key)
        if stats is not None:
            return stats
    cache_stats.misses += 1
    packed = ingest.pack(config) if ingest is not None else None
    sim = GpuSimulator(config, kernel, packed=packed)
    sim_start = time.perf_counter()
    stats = sim.run()
    phase_stats.simulate += time.perf_counter() - sim_start
    manifest = build_manifest(
        run_id=run_id,
        config=config,
        registry=sim.registry,
        stats=stats,
        workload={"family": family, "dataset": abbr, "variant": variant},
    )
    if manifests_enabled():
        write_manifest(manifest)
    if mode != "off":
        store_stats_entry(
            key, wkey, trace_sha, config_sha, stats, manifest.to_json_dict()
        )
    return stats


def _stats_hit(key: str) -> SimStats | None:
    """The one stats-cache hit path: load the entry, count the hit, and
    re-stamp its run manifest to ``results/``; ``None`` on a miss."""
    cached = load_stats_entry(key)
    if cached is None:
        return None
    stats, payload = cached
    cache_stats.hits += 1
    if manifests_enabled() and payload.get("manifest"):
        from repro.gpusim.observability import RunManifest

        try:
            write_manifest(RunManifest.from_json_dict(dict(payload["manifest"])))
        except (ConfigError, TypeError, OSError):
            pass  # the manifest is an audit artifact; a hit must not fail on it
    return stats


#: Workload family -> defining module (lazy since repro.workloads uses
#: PEP 562); imported up front so the tracegen phase times generation, not
#: module loading.
_FAMILY_MODULES = {
    "arkade": "repro.workloads.arkade",
    "bvhnn": "repro.workloads.bvhnn",
    "flann": "repro.workloads.flann",
    "ggnn": "repro.workloads.ggnn",
    "btree": "repro.workloads.btree_kv",
}


def _warm_workload_module(family: str) -> None:
    module = _FAMILY_MODULES.get(family)
    if module is not None:
        import importlib

        importlib.import_module(module)


class TraceIngest:
    """One workload group in memory: the trace its jobs simulate, that
    trace's fingerprint and pack, and (through the build store's group
    scope, :mod:`repro.builds`) its run, datasets and indexes.

    The jobs of a workload group lower their traces from one stored run
    (:func:`repro.api.run_workload`) and simulate them under several
    configs, so :func:`run_job` lowers and fingerprints each trace once
    and :meth:`pack` packs it once per pack key
    (:data:`repro.gpusim.soa.PACK_FIELDS`) instead of once per job.  At
    most one trace is held, with at most one
    :class:`~repro.gpusim.soa.PackedKernel`; both are released before
    the next trace is lowered.  Entering the ``with`` block that
    :func:`execute` opens per group (serial or in a pool worker) opens
    the store's group scope, and leaving it calls :meth:`release`; a
    :func:`run_job` without an ingest ingests afresh and leaves what it
    builds in the store's process scope.
    """

    def __init__(self) -> None:
        self._source: tuple | None = None
        self._kernel: KernelTrace | None = None
        self._trace_sha = ""
        self._packed: PackedKernel | None = None

    def __enter__(self) -> TraceIngest:
        builds.open_group()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def release(self) -> None:
        """Drop the held trace and pack, and end the build store's group:
        unless it nests in an outer group (a sweep point), that empties
        the group scope, the group's run, datasets, indexes and graphs."""
        self._source = self._kernel = self._packed = None
        builds.release_group()

    def fetch(self, job: Job) -> tuple[KernelTrace, str]:
        """``job``'s trace and its fingerprint: the held ones if ``job``
        simulates the held trace, else (after releasing those) fresh ones."""
        source = (job.group, job.euclid_width, job.variant)
        if source != self._source:
            self._source = self._kernel = self._packed = None
            self._kernel = job_trace(job)
            self._trace_sha = self._kernel.fingerprint()
            self._source = source
        return self._kernel, self._trace_sha

    def pack(self, config: GpuConfig) -> PackedKernel:
        """The held trace's SoA pack under ``config``'s pack key."""
        if self._packed is None or self._packed.key != pack_key(config):
            self._packed = None  # release the old pack before building
            self._packed = engine.pack_kernel(self._kernel, config)
        return self._packed


def job_trace(job: Job) -> KernelTrace:
    """The job's trace: ``job.variant`` lowered at ``job.euclid_width``
    from its group's stored run (:func:`repro.api.run_workload`)."""
    from repro import api  # deferred: the facade wires onto us
    from repro.workloads import base

    run = api.run_workload(
        job.family, job.abbr, job.queries, job.metric,
        job.scale, job.shards, job.shard,
    )
    return base.to_trace(run, job.variant, euclid_width=job.euclid_width)


def job_config(job: Job) -> GpuConfig:
    """The config the job simulates under: its family's configuration
    with the job's warp buffer (HSU jobs), scheduler and memory model."""
    from repro.experiments import common  # deferred: the registry

    config = common.config_for(job.family)
    if job.variant == "hsu":
        config = config.with_warp_buffer(job.warp_buffer)
    return config.with_scheduler(job.scheduler).with_memory(job.memory)


def run_job(
    job: Job, mode: str | None = None, ingest: TraceIngest | None = None
) -> JobOutcome:
    """Run one campaign job, consulting both cache tiers.

    Fast path (warm): the trace-tier entry maps the job's workload
    parameters to a trace fingerprint without executing the workload; the
    stats tier then supplies the result.  Cold path: execute the workload
    (the build store shares the run across the group's jobs), lower the
    job's variant, fingerprint, simulate, and populate both tiers.  ``ingest``
    carries the trace, fingerprint and pack over from the previous job
    when this job simulates the same trace.
    """
    from repro.experiments import common  # deferred: the registry

    _warm_workload_module(job.family)
    if mode is not None:
        set_cache_mode(mode)
    mode = cache_mode()
    start = time.perf_counter()
    params = common.workload_params(job)
    wkey = params | {"variant": job.variant_label}
    config = job_config(job)
    config_sha = config.stable_hash()
    tkey = trace_key(params, job.variant, job.euclid_width)
    if mode == "on":
        tentry = load_trace_entry(tkey)
        if tentry is not None:
            skey = stats_key(wkey, tentry["trace_sha"], config_sha)
            stats = _stats_hit(skey)
            if stats is not None:
                return JobOutcome(
                    job, stats, True, time.perf_counter() - start, skey
                )
    gen_start = time.perf_counter()
    ingest = ingest if ingest is not None else TraceIngest()
    kernel, trace_sha = ingest.fetch(job)
    phase_stats.tracegen += time.perf_counter() - gen_start
    if mode != "off":
        store_trace_entry(tkey, params, job.variant, kernel, trace_sha)
    skey = stats_key(wkey, trace_sha, config_sha)
    before = cache_stats.snapshot()
    stats = cached_simulate(
        job.family,
        job.abbr,
        job.variant_label,
        config,
        kernel,
        run_id=job.run_id,
        workload=wkey,
        trace_sha=trace_sha,
        ingest=ingest,
    )
    hit = cache_stats.hits > before.hits
    return JobOutcome(job, stats, hit, time.perf_counter() - start, skey)


# ---------------------------------------------------------------------------
# Campaign enumeration
# ---------------------------------------------------------------------------


#: Query budget of the ablation studies (``experiments/ablations.py``).
ABLATION_QUERIES = 1024


def ablation_jobs(smoke: bool = False) -> list[Job]:
    """The scheduler-policy + memory-idealization ablation family.

    One HSU workload (BVH-NN R10K at :data:`ABLATION_QUERIES`) swept over
    every warp-scheduler policy and both idealized memory models; the
    GTO/real job is the reference point of both sweeps.  These are the
    jobs Ablation Tables D and E read, so ``--families ablations`` warms
    exactly their cache entries.  ``smoke=True`` shrinks the query budget
    to the CI size (the ``run_all --smoke`` ablation lines).
    """
    from repro.gpusim.config import MEMORY_MODELS, SCHEDULER_POLICIES

    queries = 64 if smoke else ABLATION_QUERIES
    jobs = [
        Job("bvhnn", "R10K", "hsu", queries=queries, scheduler=policy)
        for policy in SCHEDULER_POLICIES
    ]
    jobs += [
        Job("bvhnn", "R10K", "hsu", queries=queries, memory=model)
        for model in MEMORY_MODELS
        if model != "real"
    ]
    return jobs


#: Shard counts of the scaling-curve sweep (docs/SHARDING.md, §VI scale-out).
SCALING_SHARD_COUNTS = (1, 2, 4, 8)
#: Dataset scale factors of the full sweep: 10x and 100x R10K — the 10^5
#: and 10^6 point counts the paper's datasets were scaled down from.
SCALING_SCALES = (10.0, 100.0)
SCALING_DATASET = "R10K"
SCALING_QUERIES = 512


def scaling_jobs(smoke: bool = False) -> list[Job]:
    """The multi-device scaling-curve family: shards × dataset scale.

    One HSU job per shard per sweep point — every shard is its own
    workload group, so ``--jobs N`` genuinely simulates devices in
    parallel (the campaign pool is the shard executor).  ``smoke=True``
    shrinks to scale 1.0, shard counts (1, 2) and a CI query budget;
    the full sweep covers :data:`SCALING_SHARD_COUNTS` ×
    :data:`SCALING_SCALES` on :data:`SCALING_DATASET`.
    """
    shard_counts = (1, 2) if smoke else SCALING_SHARD_COUNTS
    scales = (1.0,) if smoke else SCALING_SCALES
    queries = 96 if smoke else SCALING_QUERIES
    return [
        Job(
            "bvhnn", SCALING_DATASET, "hsu", queries=queries,
            scale=scale, shards=shards, shard=shard,
        )
        for scale in scales
        for shards in shard_counts
        for shard in range(shards)
    ]


#: The metric sweep (the ``metrics`` pseudo-family): every non-Euclidean
#: query metric, paired HSU vs baseline, on one shared dataset.
METRIC_SWEEP = ("l1", "linf", "cosine")
METRICS_DATASET = "R10K"


def metrics_jobs(smoke: bool = False) -> list[Job]:
    """The non-Euclidean metric family: Arkade reductions, HSU vs baseline.

    One paired (baseline, HSU) measurement per query metric on
    :data:`METRICS_DATASET`.  All three metrics share the exact-search
    substrate, so the table isolates what the metric itself costs — the
    cosine epilogue's SFU traffic vs the filter metrics' plain beats.
    ``smoke=True`` shrinks the query budget to the CI size.
    """
    queries = 64 if smoke else None
    return [
        Job("arkade", METRICS_DATASET, variant, queries=queries, metric=m)
        for m in METRIC_SWEEP
        for variant in ("baseline", "hsu")
    ]


def default_jobs(families: tuple[str, ...] | None = None) -> list[Job]:
    """The §V campaign: every pair plus the Fig. 10/11 design-point sweeps.

    ``"ablations"``, ``"scaling"``, and ``"metrics"`` are accepted as
    pseudo-families selecting the scheduler/memory ablation jobs
    (:func:`ablation_jobs`), the multi-device scaling sweep
    (:func:`scaling_jobs`), and the non-Euclidean metric sweep
    (:func:`metrics_jobs`) alongside any real workload families.
    """
    from repro.experiments import fig10_width, fig11_warp_buffer
    from repro.experiments.common import FAMILIES, datasets_for

    families = tuple(families) if families else FAMILIES
    jobs: list[Job] = []
    if "ablations" in families:
        jobs.extend(ablation_jobs())
        families = tuple(f for f in families if f != "ablations")
    if "scaling" in families:
        jobs.extend(scaling_jobs())
        families = tuple(f for f in families if f != "scaling")
    if "metrics" in families:
        jobs.extend(metrics_jobs())
        families = tuple(f for f in families if f != "metrics")
    for family in families:
        for abbr in datasets_for(family):
            jobs.append(Job(family, abbr, "baseline"))
            jobs.append(Job(family, abbr, "hsu"))
    if "ggnn" in families:
        for abbr in fig10_width.DATASETS:
            for width in fig10_width.WIDTHS:
                jobs.append(Job("ggnn", abbr, "hsu", euclid_width=width))
    for family, datasets in fig11_warp_buffer.PANELS.items():
        if family not in families:
            continue
        for abbr in datasets:
            for size in fig11_warp_buffer.SIZES:
                jobs.append(Job(family, abbr, "hsu", warp_buffer=size))
    return list(dict.fromkeys(jobs))


def smoke_jobs() -> list[Job]:
    """Tiny paired campaign (the CI entry point).

    Two workload groups (BVH-NN R10K and B+10K at 64 queries each) so that
    ``--jobs 2`` genuinely exercises the process pool — a single group
    would fall back to serial execution.
    """
    return [
        Job("bvhnn", "R10K", "baseline", queries=64),
        Job("bvhnn", "R10K", "hsu", queries=64),
        Job("btree", "B+10K", "baseline", queries=64),
        Job("btree", "B+10K", "hsu", queries=64),
    ]


# ---------------------------------------------------------------------------
# Execution across a process pool
# ---------------------------------------------------------------------------


def _worker(
    jobs: tuple[Job, ...],
    mode: str,
    cache: str,
    results: str,
    manifests: bool,
) -> list[JobRecord]:
    """Pool entry point: run one workload group's jobs in a worker process."""
    os.environ["REPRO_CACHE_DIR"] = cache
    os.environ["REPRO_RESULTS_DIR"] = results
    if not manifests:
        os.environ["REPRO_MANIFESTS"] = "0"
    set_cache_mode(mode)
    return _run_group(jobs)


def _run_group(jobs: tuple[Job, ...]) -> list[JobRecord]:
    """Run one workload group's jobs, then release the group: nothing of
    its run, traces, pack, datasets or indexes outlives its last job."""
    with TraceIngest() as ingest:
        return [_run_recorded(job, ingest) for job in jobs]


def _run_recorded(job: Job, ingest: TraceIngest) -> JobRecord:
    start = time.perf_counter()
    phases_before = phase_stats.snapshot()
    try:
        outcome = run_job(job, ingest=ingest)
    except Exception as exc:  # noqa: BLE001 - a job failure must not abort the campaign
        return JobRecord(
            job,
            ok=False,
            wall=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    phases = phase_stats.delta(phases_before)
    return JobRecord(
        job,
        ok=True,
        cached=outcome.cached,
        wall=outcome.wall,
        key=outcome.key,
        simstats=outcome.stats.to_json_dict(),
        tracegen_wall=phases.tracegen,
        sim_wall=phases.simulate,
    )


@dataclass
class CampaignSummary:
    """Everything one campaign execution produced, failures included."""

    records: list[JobRecord] = field(default_factory=list)
    wall: float = 0.0
    jobs_n: int = 1
    label: str = "campaign"

    @property
    def hits(self) -> int:
        return sum(1 for r in self.records if r.ok and r.cached)

    @property
    def misses(self) -> int:
        return sum(1 for r in self.records if r.ok and not r.cached)

    @property
    def failed(self) -> list[JobRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def tracegen_seconds(self) -> float:
        """Total workload-generation phase time across all job records."""
        return sum(r.tracegen_wall for r in self.records)

    @property
    def simulate_seconds(self) -> float:
        """Total simulator-run phase time across all job records."""
        return sum(r.sim_wall for r in self.records)

    @property
    def ok(self) -> bool:
        return not self.failed

    def stats_for(self, job: Job) -> SimStats | None:
        for record in self.records:
            if record.job == job and record.simstats is not None:
                return SimStats.from_json_dict(record.simstats)
        return None

    def render(self) -> str:
        from repro.analysis.tables import format_table

        rows = []
        for record in sorted(self.records, key=lambda r: r.job.run_id):
            status = "FAILED" if not record.ok else (
                "hit" if record.cached else "miss"
            )
            rows.append(
                (
                    record.job.run_id,
                    status,
                    f"{record.wall:.2f}",
                    record.attempts,
                    record.error or "",
                )
            )
        table = format_table(
            ["Job", "Cache", "Wall s", "Attempts", "Error"],
            rows,
            title=f"Campaign {self.label!r}: {len(self.records)} jobs, "
            f"--jobs {self.jobs_n}",
        )
        totals = (
            f"total wall {self.wall:.1f}s — {self.hits} cache hits, "
            f"{self.misses} misses, {len(self.failed)} failed"
        )
        return table + "\n" + totals


def write_campaign_manifest(summary: CampaignSummary) -> Path:
    """Merge per-job records into one campaign manifest in ``results/``.

    Workers stamp their own per-run manifests as they go; this rolls the
    campaign up into a single auditable artifact referencing each of them.
    """
    payload = {
        "campaign": summary.label,
        "schema": CACHE_SCHEMA_VERSION,
        "jobs_n": summary.jobs_n,
        "wall_seconds": summary.wall,
        "cache_hits": summary.hits,
        "cache_misses": summary.misses,
        "tracegen_seconds": summary.tracegen_seconds,
        "simulate_seconds": summary.simulate_seconds,
        "failed": len(summary.failed),
        "jobs": [
            {
                "run_id": r.job.run_id,
                "ok": r.ok,
                "cached": r.cached,
                "wall_seconds": r.wall,
                "attempts": r.attempts,
                "key": r.key,
                "error": r.error,
                "manifest": f"{r.job.run_id}.json" if r.ok else None,
            }
            for r in sorted(summary.records, key=lambda r: r.job.run_id)
        ],
    }
    path = results_dir() / f"campaign-{summary.label}.json"
    write_if_changed(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _group_jobs(jobs: list[Job]) -> list[tuple[Job, ...]]:
    """The distinct ``jobs`` by workload group, largest group first (for
    load balance across the pool).  Within a group the jobs of one
    Fig. 10 width run back to back, baseline first, so a group lowers and
    ingests each trace once."""
    groups: dict[tuple, list[Job]] = {}
    for job in dict.fromkeys(jobs):
        groups.setdefault(job.group, []).append(job)
    ordered = []
    for group in groups.values():
        widths = list(dict.fromkeys(job.euclid_width for job in group))
        group.sort(key=lambda job: (widths.index(job.euclid_width), job.variant))
        ordered.append(tuple(group))
    return sorted(ordered, key=len, reverse=True)


def execute(
    jobs: list[Job],
    jobs_n: int | None = None,
    mode: str | None = None,
    per_job_timeout: float = DEFAULT_JOB_TIMEOUT,
    retries: int = 1,
    label: str = "campaign",
) -> CampaignSummary:
    """Run a campaign, serially or across a process pool.

    Each distinct job runs (and is recorded) once.  Jobs are grouped by
    workload (family, dataset, query count) so one worker executes the
    workload once and simulates every variant, and a process holds one
    group in memory at a time (:func:`_run_group`); run serially, the
    shards of one sweep point share one build-store group.  A group
    whose future times out (``per_job_timeout * len(group)``) or whose
    worker dies, and a job that raises, are retried once, job-by-job;
    jobs still failing are reported in the summary without aborting the
    others.
    """
    if mode is not None:
        set_cache_mode(mode)
    mode = cache_mode()
    jobs_n = jobs_n if jobs_n is not None else (os.cpu_count() or 1)
    start = time.perf_counter()
    groups = _group_jobs(jobs)
    by_job: dict[Job, JobRecord] = {}

    def absorb(records: list[JobRecord], attempt: int) -> None:
        for record in records:
            record.attempts = attempt
            by_job[record.job] = record

    if jobs_n <= 1 or len(groups) <= 1:
        for attempt in range(1, retries + 2):
            # One build-store group per sweep point: its shards build
            # the point's dataset and partition once.
            for _point, point_groups in itertools.groupby(
                groups, key=lambda group: group[0].sweep_point
            ):
                with builds.group():
                    for group in point_groups:
                        pending = tuple(
                            job for job in group
                            if job not in by_job or not by_job[job].ok
                        )
                        if pending:
                            absorb(_run_group(pending), attempt)
    else:
        _execute_pool(
            groups, by_job, jobs_n, mode, per_job_timeout, retries, absorb
        )

    summary = CampaignSummary(
        records=[by_job[job] for group in groups for job in group],
        wall=time.perf_counter() - start,
        jobs_n=jobs_n,
        label=label,
    )
    if manifests_enabled():
        write_campaign_manifest(summary)
    return summary


def _execute_pool(
    groups: list[tuple[Job, ...]],
    by_job: dict[Job, JobRecord],
    jobs_n: int,
    mode: str,
    per_job_timeout: float,
    retries: int,
    absorb,
) -> None:
    """Run ``groups`` across a process pool, one group per worker call.

    First attempts keep at most one group in flight per worker.  Retries
    run after them, one job at a time, so a job that kills its worker
    fails no other job.  A dead worker breaks the whole
    ``ProcessPoolExecutor``: every group in flight on it fails its attempt
    with ``BrokenProcessPool``, and a fresh pool takes over.  A group past
    its deadline takes the same path: a running future cannot be
    cancelled, so the pool's workers are stopped, and the campaign never
    waits on a timed-out worker.
    """
    args = (mode, str(cache_dir()), str(results_dir()), manifests_enabled())
    workers = min(jobs_n, len(groups))
    pending = deque((group, 1) for group in groups)
    futures: dict = {}  # future -> (group, attempt, deadline)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while pending or futures:
            while pending:
                group, attempt = pending[0]
                if len(futures) >= (workers if attempt == 1 else 1):
                    break
                pending.popleft()
                future = pool.submit(_worker, group, *args)
                deadline = time.monotonic() + per_job_timeout * len(group)
                futures[future] = (group, attempt, deadline)
            soonest = min(due for _group, _attempt, due in futures.values())
            done, _ = wait(
                futures,
                timeout=max(0.0, soonest - time.monotonic()),
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            expired = {
                future for future, (_group, _attempt, due) in futures.items()
                if due <= now and future not in done
            }
            if expired:
                # A running future cannot be cancelled: stop the workers
                # (no public way before Python 3.14), breaking the pool.
                for process in list(pool._processes.values()):
                    process.terminate()
            if expired or any(
                isinstance(f.exception(), BrokenProcessPool) for f in done
            ):
                # A dead or stopped worker fails every future of its pool.
                done, _ = wait(futures)
                pool.shutdown()
                pool = ProcessPoolExecutor(max_workers=workers)
            for future, (group, attempt, _due) in list(futures.items()):
                if future in expired:
                    records = [
                        JobRecord(
                            job, ok=False,
                            wall=per_job_timeout * len(group),
                            error=f"timeout after {per_job_timeout:.0f}s/job",
                        )
                        for job in group
                    ]
                elif future in done:
                    records = _group_result(future, group)
                else:
                    continue
                del futures[future]
                absorb(records, attempt)
                if attempt <= retries:
                    pending.extend(
                        ((job,), attempt + 1)
                        for job in group if not by_job[job].ok
                    )
    finally:
        pool.shutdown(cancel_futures=True)


def _group_result(future, group: tuple[Job, ...]) -> list[JobRecord]:
    """A finished pool future's records; a worker that raised or died
    fails every job of its group."""
    try:
        return future.result()
    except Exception as exc:  # noqa: BLE001 - a lost group must not abort the campaign
        return [
            JobRecord(job, ok=False, error=f"worker: {type(exc).__name__}: {exc}")
            for job in group
        ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.campaign",
        description="Run the paper's evaluation campaign through the "
        "parallel runner and persistent result cache.",
    )
    parser.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, metavar="N",
        help="worker processes (default: CPU count; 1 = serial)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the persistent cache",
    )
    cache_group.add_argument(
        "--rebuild", action="store_true",
        help="ignore existing cache entries but write fresh ones",
    )
    parser.add_argument(
        "--families", nargs="+", metavar="FAM",
        help="restrict to these workload families ('ablations' selects "
        "the scheduler/memory ablation jobs, 'scaling' the multi-device "
        "shard sweep, 'metrics' the non-Euclidean metric sweep)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the tiny CI campaign instead of the full §V job set",
    )
    parser.add_argument(
        "--timeout", type=float, default=DEFAULT_JOB_TIMEOUT, metavar="S",
        help="per-job timeout in seconds",
    )
    parser.add_argument(
        "--expect-hits", type=int, default=None, metavar="K",
        help="exit non-zero unless the campaign scored >= K cache hits "
        "(CI warm-cache assertion)",
    )
    parser.add_argument(
        "--label", default=None, help="campaign manifest label",
    )
    args = parser.parse_args(argv)
    mode = "off" if args.no_cache else ("rebuild" if args.rebuild else "on")
    if args.smoke:
        jobs = smoke_jobs()
        # --smoke --families ablations/scaling/metrics: ride those
        # pseudo-family points along at the CI query budget.
        if args.families and "ablations" in args.families:
            jobs += ablation_jobs(smoke=True)
        if args.families and "scaling" in args.families:
            jobs += scaling_jobs(smoke=True)
        if args.families and "metrics" in args.families:
            jobs += metrics_jobs(smoke=True)
    else:
        jobs = default_jobs(tuple(args.families) if args.families else None)
    label = args.label or ("smoke" if args.smoke else "default")
    summary = execute(
        jobs,
        jobs_n=args.jobs,
        mode=mode,
        per_job_timeout=args.timeout,
        label=label,
    )
    print(summary.render())
    if not summary.ok:
        return 1
    if args.expect_hits is not None and summary.hits < args.expect_hits:
        print(
            f"expected >= {args.expect_hits} cache hits, got {summary.hits}",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
