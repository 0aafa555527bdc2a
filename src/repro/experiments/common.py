"""Shared experiment infrastructure: configs, workload registry, run cache.

The evaluation methodology mirrors §V: run each workload once to collect its
op stream, lower it into paired baseline/HSU traces, and simulate both on
the Table III configuration.  We simulate a single-SM slice of the V100
(:func:`default_config`) with the chip's per-SM bandwidth shares; all
reported numbers are HSU/baseline ratios of identical configurations.

GGNN runs with a 16-warp residency cap: its shared-memory priority cache
bounds occupancy well below the architectural 64 warps (§V-A describes the
per-query cache; our cap models the resulting occupancy limit).

What lives here is the campaign *registry*: the family/dataset tables,
query budgets, and per-family configurations that
:mod:`repro.experiments.campaign` and :mod:`repro.api` key their caches
on, plus the paired default-design-point measurement the figures read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import api
from repro.errors import ConfigError
from repro.experiments.campaign import Job
from repro.gpusim import GpuConfig, VOLTA_V100
from repro.gpusim.stats import SimStats

#: Datasets per workload family, matching Fig. 9's grouping.
GGNN_DATASETS = (
    "D1B", "FMNT", "MNT", "GST", "GLV", "LFM", "NYT", "S1M", "S10K",
)
FLANN_DATASETS = ("R10K", "BUN", "DRG", "BUD", "COS")
BVHNN_DATASETS = ("R10K", "BUN", "DRG", "BUD", "COS")
BTREE_DATASETS = ("B+1M", "B+10K")
#: The Arkade metric-kNN family shares the FLANN 3-D datasets (it rides
#: the same k-d substrate with the metric axis swept instead of fixed).
ARKADE_DATASETS = FLANN_DATASETS

#: The §V figure families (the paper's four workloads).
FAMILIES = ("ggnn", "flann", "bvhnn", "btree")

#: Fig. 9 dataset label prefixes: the 3-D datasets are shared between FLANN
#: and BVH-NN, distinguished by "F"/"B" prefixes in the paper's figures.
FAMILY_PREFIX = {
    "ggnn": "", "flann": "F-", "bvhnn": "B-", "btree": "", "arkade": "A-",
}

#: Query counts, budgeted so the full suite runs in minutes: GGNN traces
#: are long per query (hundreds of distance chains); parallel workloads
#: need many thread-queries to occupy a full SM.
_GGNN_QUERIES = {"MNT": 20, "FMNT": 20, "GST": 20, "D1B": 20}
_GGNN_DEFAULT_QUERIES = 32
_PARALLEL_QUERIES = 1536
_BTREE_QUERIES = {"B+1M": 2048, "B+10K": 512}
#: Arkade searches exactly (max_checks = N), so its per-query traces are
#: long; a smaller budget keeps the family's campaign in the same
#: wall-clock class as the others.
_ARKADE_QUERIES = 256

#: GGNN occupancy cap (see module docstring).
GGNN_MAX_WARPS = 16


def default_config(num_sms: int = 1) -> GpuConfig:
    """The Table III configuration scaled to a simulable SM count."""
    return VOLTA_V100.scaled(num_sms)


def config_for(family: str, base: GpuConfig | None = None) -> GpuConfig:
    """Per-family configuration (GGNN gets the occupancy cap)."""
    config = base if base is not None else default_config()
    if family == "ggnn":
        return replace(config, max_warps_per_sm=GGNN_MAX_WARPS)
    return config


def datasets_for(family: str) -> tuple[str, ...]:
    """Datasets of a runnable family: the §V four, or ``arkade`` (the
    metric family, campaigned through the ``metrics`` pseudo-family)."""
    table = {
        "ggnn": GGNN_DATASETS,
        "flann": FLANN_DATASETS,
        "bvhnn": BVHNN_DATASETS,
        "btree": BTREE_DATASETS,
        "arkade": ARKADE_DATASETS,
    }
    try:
        return table[family]
    except KeyError:
        raise ConfigError(f"unknown workload family {family!r}") from None


def resolved_queries(family: str, abbr: str, queries: int | None = None) -> int:
    """The query count a workload runs with (explicit override wins)."""
    if queries is not None:
        return queries
    if family == "ggnn":
        return _GGNN_QUERIES.get(abbr, _GGNN_DEFAULT_QUERIES)
    if family in ("flann", "bvhnn"):
        return _PARALLEL_QUERIES
    if family == "btree":
        return _BTREE_QUERIES[abbr]
    if family == "arkade":
        return _ARKADE_QUERIES
    raise ConfigError(f"unknown workload family {family!r}")


def workload_params(job: Job) -> dict[str, object]:
    """The fully resolved workload key the campaign cache hashes for ``job``.

    Everything that parameterizes trace *generation* goes here — family,
    dataset, and the resolved query count — so changing a query budget in
    this module busts the relevant cache entries.  The multi-device axes
    (``scale``, ``shards``/``shard`` — the scaling-curve campaign,
    docs/SHARDING.md) and the distance-metric axis (``metric`` — the
    ``arkade`` family, docs/WORKLOADS.md) are appended **only when
    non-default**, so every pre-existing cache key is byte-identical to
    what it was before those axes existed.  ``job`` checked every axis
    when it was built.
    """
    params: dict[str, object] = {
        "family": job.family,
        "dataset": job.abbr,
        "num_queries": resolved_queries(job.family, job.abbr, job.queries),
    }
    if job.scale != 1.0:
        params["scale"] = job.scale
    if job.shards != 1:
        params["shards"] = job.shards
        params["shard"] = job.shard
    if job.metric != "euclid":
        params["metric"] = job.metric
    return params


@dataclass(frozen=True)
class PairResult:
    """One paired baseline/HSU measurement."""

    family: str
    abbr: str
    baseline: SimStats
    hsu: SimStats

    @property
    def label(self) -> str:
        return f"{FAMILY_PREFIX[self.family]}{self.abbr}"

    @property
    def speedup(self) -> float:
        return self.baseline.cycles / self.hsu.cycles


def run_pair(family: str, abbr: str) -> PairResult:
    """Paired default-design-point measurement for one (family, dataset)."""
    return PairResult(
        family=family,
        abbr=abbr,
        baseline=api.simulate((family, abbr), variant="baseline"),
        hsu=api.simulate((family, abbr), variant="hsu"),
    )


def all_pairs(families: tuple[str, ...] = FAMILIES) -> list[PairResult]:
    """Every Fig. 9 (family, dataset) pair at the default design point."""
    return [
        run_pair(family, abbr)
        for family in families
        for abbr in datasets_for(family)
    ]
