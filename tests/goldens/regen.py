"""Regenerate the committed simulator goldens (``gpusim_smoke.json``).

The golden file pins, exactly, every deterministic output the model's
figures, scaling curve and serving cost models rest on:

* ``JOBS`` — one entry per campaign job, replayed through
  ``campaign.job_trace`` under ``campaign.job_config``: its trace
  fingerprint, config hash and :class:`~repro.gpusim.stats.SimStats`.
  The jobs are the recorded smoke pairs plus one Euclidean (S10K) and
  one angular (LFM) GGNN dataset, baseline and HSU at 64 queries; the
  Arkade metric grid (R10K, 64 queries, euclid/l1/linf/cosine, baseline
  and HSU); every shard of the sharded BVH-NN curve (R10K, 96 queries,
  1/2/4/8 shards); and the six HSU simulations the serving cost models
  calibrate on (32 and 128 queries per endpoint).
* ``GRAPHS`` — a digest of each pinned GGNN dataset's HNSW graph (every
  layer's adjacency plus the entry point), built with ``run_ggnn``'s
  parameters.  It catches a build change that leaves a small query
  block's trace unchanged.
* ``SHARDED_POINTS`` — each sharded point's ``makespan_cycles`` and
  ``total_cycles`` from :func:`repro.sharding.simulate_sharded`.
* ``COST_MODELS`` — each serving endpoint's
  :func:`repro.serving.calibrate` result.

``tests/test_gpusim_scheduler.py::TestGoldenBitExact`` asserts that the
live code reproduces every entry exactly and that the file holds exactly
the declared keys, so any change to the timing model, a workload, the
interconnect model or the calibration shows up as a diff of this file
rather than as silent drift.

Regenerate (and eyeball the diff!) after an *intentional* change::

    PYTHONPATH=src python tests/goldens/regen.py

A timing change — one that moves any ``simstats`` — must come with a
``CACHE_SCHEMA_VERSION`` bump in ``repro.experiments.campaign``, so cached
results computed by the old model stop hitting.  A change that moves only
``config_sha`` (a ``GpuConfig`` field added or removed) needs no bump:
``sims/`` cache keys contain the config hash and move on their own.  See
docs/CAMPAIGN.md.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import tempfile
from pathlib import Path
from unittest.mock import patch

from repro.experiments import campaign
from repro.experiments.campaign import METRIC_SWEEP, METRICS_DATASET, Job
from repro.gpusim import GpuSimulator
from repro.serving import calibrate
from repro.sharding import simulate_sharded
from repro.workloads import ggnn

GOLDEN_PATH = Path(__file__).resolve().parent / "gpusim_smoke.json"

#: Query budget of the paired entries; a job at another budget carries a
#: ``-q<queries>`` key suffix.
QUERIES = 64
VARIANTS = ("baseline", "hsu")

#: (family, dataset) pairs pinned baseline + HSU at :data:`QUERIES`.
PAIRS = (
    ("bvhnn", "R10K"),
    ("btree", "B+10K"),
    ("flann", "R10K"),
    ("ggnn", "S10K"),
    ("ggnn", "LFM"),
)

#: The sharded BVH-NN curve: shard counts on one dataset at one budget.
SHARDED_ABBR = "R10K"
SHARDED_QUERIES = 96
SHARD_COUNTS = (1, 2, 4, 8)

#: Endpoints the serving benchmark calibrates (point, kNN, KV), and the
#: query counts ``calibrate`` fits its line through.
CALIBRATED = (("bvhnn", "R10K"), ("flann", "R10K"), ("btree", "B+10K"))
CALIBRATION_QUERIES = (32, 128)


def job_key(job: Job) -> str:
    """``family-abbr-variant``, then a suffix for each axis the pinned jobs
    vary (metric, shard, query budget) where it is not the default."""
    key = f"{job.family}-{job.abbr}-{job.variant}"
    if job.metric != "euclid":
        key += f"-{job.metric}"
    if job.shards != 1:
        key += f"-s{job.shard}of{job.shards}"
    if job.queries != QUERIES:
        key += f"-q{job.queries}"
    return key


def _jobs() -> list[Job]:
    jobs = [
        Job(family, abbr, variant, queries=QUERIES)
        for family, abbr in PAIRS
        for variant in VARIANTS
    ]
    jobs += [
        Job("arkade", METRICS_DATASET, variant, queries=QUERIES, metric=metric)
        for metric in ("euclid",) + METRIC_SWEEP
        for variant in VARIANTS
    ]
    jobs += [
        Job("bvhnn", SHARDED_ABBR, "hsu", queries=SHARDED_QUERIES,
            shards=shards, shard=shard)
        for shards in SHARD_COUNTS
        for shard in range(shards)
    ]
    jobs += [
        Job(family, abbr, "hsu", queries=queries)
        for family, abbr in CALIBRATED
        for queries in CALIBRATION_QUERIES
    ]
    return jobs


JOBS = {job_key(job): job for job in _jobs()}
GRAPHS = {
    f"ggnn-{abbr}-graph": abbr for family, abbr in PAIRS if family == "ggnn"
}
SHARDED_POINTS = {
    f"bvhnn-{SHARDED_ABBR}-sharded-n{shards}-q{SHARDED_QUERIES}": shards
    for shards in SHARD_COUNTS
}
COST_MODELS = {
    f"{family}-{abbr}-cost": (family, abbr) for family, abbr in CALIBRATED
}


def replay(job: Job) -> dict[str, object]:
    """The job's trace and config hashes and its simulated SimStats."""
    trace = campaign.job_trace(job)
    config = campaign.job_config(job)
    return {
        "trace_sha": trace.fingerprint(),
        "config_sha": config.stable_hash(),
        "simstats": GpuSimulator(config, trace).run().to_json_dict(),
    }


def graph_digest(abbr: str) -> str:
    """SHA-256 of the HNSW graph the GGNN workload searches on ``abbr``.

    The graph is the one ``run_ggnn`` builds with its default parameters
    (``_build_graph`` is in the build store, so this reuses the workload's
    build).
    """
    defaults = {
        name: param.default
        for name, param in inspect.signature(ggnn.run_ggnn).parameters.items()
    }
    _dataset, index = ggnn._build_graph(
        abbr, defaults["m"], defaults["ef_construction"], defaults["scale"],
        defaults["seed"],
    )
    graph = index._graph
    payload = {
        "entry_point": graph.entry_point,
        "layers": [sorted(layer.items()) for layer in graph.layers],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def sharded_point(shards: int):
    """One point of the pinned sharded curve, through the campaign cache
    (``capture`` points ``REPRO_CACHE_DIR`` at a fresh directory)."""
    return simulate_sharded(
        SHARDED_ABBR, shards=shards, queries=SHARDED_QUERIES
    )


def sharded_pin(point) -> dict[str, int]:
    """The cycle totals pinned for a sharded point."""
    return {
        "makespan_cycles": point.makespan_cycles,
        "total_cycles": point.total_cycles,
    }


def cost_model(family: str, abbr: str) -> dict[str, object]:
    """The serving cost model calibrated for ``(family, abbr)``, through
    the campaign cache like :func:`sharded_point`."""
    return calibrate(family, abbr, variant="hsu").to_json_dict()


def capture() -> dict[str, dict[str, object]]:
    """Every declared golden entry, computed on a fresh campaign cache."""
    golden: dict[str, dict[str, object]] = {}
    with tempfile.TemporaryDirectory(prefix="goldens-") as tmp, patch.dict(
        os.environ,
        REPRO_CACHE_DIR=str(Path(tmp) / "cache"),
        REPRO_RESULTS_DIR=str(Path(tmp) / "results"),
    ):
        for key, job in JOBS.items():
            golden[key] = replay(job)
        for key, abbr in GRAPHS.items():
            golden[key] = {"graph_sha": graph_digest(abbr)}
        for key, shards in SHARDED_POINTS.items():
            golden[key] = sharded_pin(sharded_point(shards))
        for key, (family, abbr) in COST_MODELS.items():
            golden[key] = cost_model(family, abbr)
    return golden


def main() -> None:
    golden = capture()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} entries)")


if __name__ == "__main__":
    main()
