"""Observability for the GPU simulator: metrics, timelines, run manifests.

Three cooperating pieces, all optional-overhead:

* :mod:`~repro.gpusim.observability.registry` — a hierarchical
  :class:`MetricsRegistry` every simulator component registers its counters
  into under scoped names (``sm0/l1/misses``, ``dram/activations``), with
  fnmatch rollups and derived ratios.  :class:`~repro.gpusim.stats.SimStats`
  is a thin aggregation view built from this registry.
* :mod:`~repro.gpusim.observability.tracer` — a cycle-sampled, ring-buffer
  bounded :class:`TimelineTracer` for warp-occupancy / HSU-busy /
  MSHR-pressure / DRAM-row-hit series, exportable as JSON or Chrome trace.
* :mod:`~repro.gpusim.observability.manifest` — :class:`RunManifest`
  writers/loaders that stamp every experiment run to ``results/*.json``
  (config hash, git SHA, full metric snapshot), diffable with
  ``python -m repro.gpusim.report``.

See ``docs/METRICS.md`` for the glossary of every registered metric and
``docs/ARCHITECTURE.md`` for where each component sits in the dataflow.
"""

from repro.gpusim.observability.manifest import (
    RunManifest,
    build_manifest,
    config_hash,
    git_sha,
    load_manifest,
    manifests_enabled,
    results_dir,
    write_if_changed,
    write_manifest,
)
from repro.gpusim.observability.registry import (
    Counter,
    Derived,
    Gauge,
    Histogram,
    MetricScope,
    MetricsRegistry,
    MetricSpec,
    Probe,
    canonical_name,
)
from repro.gpusim.observability.tracer import (
    MODE_LAST,
    MODE_MAX,
    MODE_MEAN,
    MODE_SUM,
    TimelineTracer,
)

__all__ = [
    "Counter",
    "Derived",
    "Gauge",
    "Histogram",
    "MetricScope",
    "MetricSpec",
    "MetricsRegistry",
    "MODE_LAST",
    "MODE_MAX",
    "MODE_MEAN",
    "MODE_SUM",
    "Probe",
    "RunManifest",
    "TimelineTracer",
    "build_manifest",
    "canonical_name",
    "config_hash",
    "git_sha",
    "load_manifest",
    "manifests_enabled",
    "results_dir",
    "write_if_changed",
    "write_manifest",
]
