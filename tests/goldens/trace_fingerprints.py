"""Print the fingerprint of every trace the evaluation lowers, as JSON.

Covers every campaign job's trace (the default families plus the
ablation, scaling and metric pseudo-families) and the traces no golden
pins: the RTIndeX triangle-key and point-key runs, the ray-traced scene,
the four §VI-E BVH variants and the §VI-I fetch-path workloads.  A change
that must leave traces byte-identical runs this in a fresh process in
both checkouts and compares the outputs::

    PYTHONPATH=src python tests/goldens/trace_fingerprints.py > after.json

It lowers traces only (nothing is simulated), one workload group at a
time; the GGNN graph builds dominate its run time.
"""

from __future__ import annotations

import json
import sys

from repro.experiments import campaign
from repro.experiments.common import FAMILIES
from repro.workloads import run_bvhnn, run_ggnn, to_traces
from repro.workloads.raytrace import run_raytrace
from repro.workloads.rtindex import run_rtindex

#: The §VI-E BVH variants of ``experiments/ablations.py::bvh_variants``.
BVH_VARIANTS = {
    "lbvh-bvh2": {"builder": "lbvh", "arity": 2},
    "lbvh-bvh4": {"builder": "lbvh", "arity": 4},
    "sah-bvh2": {"builder": "sah", "arity": 2},
    "lbvh-bvh2-sorted": {"builder": "lbvh", "arity": 2, "sort_queries": True},
}


def _bundle(prints: dict[str, str], label: str, run) -> None:
    bundle = to_traces(run)
    prints[f"{label}/baseline"] = bundle.baseline.fingerprint()
    prints[f"{label}/hsu"] = bundle.hsu.fingerprint()


def fingerprints() -> dict[str, str]:
    families = (*FAMILIES, "ablations", "scaling", "metrics")
    prints: dict[str, str] = {}
    for group in campaign._group_jobs(campaign.default_jobs(families)):
        with campaign.TraceIngest():
            for job in group:
                prints[job.run_id] = campaign.job_trace(job).fingerprint()
    triangle_run, point_run = run_rtindex(num_keys=8192, num_lookups=2048)
    _bundle(prints, "rtindex-triangle-keys", triangle_run)
    _bundle(prints, "rtindex-point-keys", point_run)
    _bundle(prints, "raytrace", run_raytrace())
    for abbr in ("R10K", "BUN"):
        for label, kwargs in BVH_VARIANTS.items():
            run = run_bvhnn(abbr, num_queries=campaign.ABLATION_QUERIES, **kwargs)
            _bundle(prints, f"bvh-variant-{abbr}-{label}", run)
    _bundle(
        prints, "fetch-bvhnn-R10K",
        run_bvhnn("R10K", num_queries=campaign.ABLATION_QUERIES),
    )
    _bundle(prints, "fetch-ggnn-S10K", run_ggnn("S10K", num_queries=16))
    return prints


if __name__ == "__main__":
    json.dump(fingerprints(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
