"""Metric-search table: HSU vs baseline across non-Euclidean metrics.

The ``metrics`` campaign family (docs/WORKLOADS.md): exact kNN over the
``arkade`` workload under every query metric, paired HSU vs baseline on
the Table III configuration.  All four metrics execute the *same*
traversal substrate — the k-d tree with Euclidean split planes — so the
table isolates what each Arkade reduction costs on the unit:

* ``euclid`` — the reduction-free control;
* ``l1`` / ``linf`` — filter metrics: identical op stream, plain
  ``POINT_EUCLID`` beats (only the CPU-side leaf kernel differs);
* ``cosine`` — transform metric: leaf tests lower as ``POINT_ANGULAR``,
  whose SFU epilogue models the dot/norm recombination.

``compute()`` routes through the campaign cache like every figure module;
the companion workload-side counters (plane/distance tests, transform
rows, verified queries) come from the stored workload run itself.
"""

from __future__ import annotations

from functools import lru_cache

from repro import api
from repro.analysis.tables import format_table

#: Metric sweep rendered by this table: the Euclidean control plus the
#: campaign's :data:`repro.experiments.campaign.METRIC_SWEEP`.
METRICS = ("euclid", "l1", "linf", "cosine")
DATASET = "R10K"


@lru_cache(maxsize=1)
def compute(abbr: str = DATASET) -> list[dict[str, object]]:
    """One row per query metric: paired cycles plus workload counters."""
    rows = []
    for metric in METRICS:
        base = api.simulate(("arkade", abbr), variant="baseline",
                            metric=metric)
        hsu = api.simulate(("arkade", abbr), variant="hsu", metric=metric)
        run = api.run_workload("arkade", abbr, metric=metric)
        scope = run.extras["metric_search"]
        prefix = f"metric_search/{metric}/"
        rows.append(
            {
                "dataset": abbr,
                "metric": metric,
                "baseline_cycles": base.cycles,
                "hsu_cycles": hsu.cycles,
                "speedup": base.cycles / hsu.cycles,
                "plane_tests": scope.get(prefix + "plane_tests", 0),
                "dist_tests": scope.get(prefix + "dist_tests", 0),
                "transform_rows": scope.get(prefix + "transform_rows", 0),
                "verified_queries": run.extras["verified_queries"],
            }
        )
    return rows


def render() -> str:
    rows = [
        (
            r["metric"],
            r["baseline_cycles"],
            r["hsu_cycles"],
            f"{r['speedup']:.2f}x",
            r["dist_tests"],
            r["transform_rows"],
            r["verified_queries"],
        )
        for r in compute()
    ]
    return format_table(
        ["Metric", "Baseline cycles", "HSU cycles", "Speedup",
         "Dist tests", "Transform rows", "Verified"],
        rows,
        title=f"Metric search ({DATASET}): Arkade reductions, "
        "HSU vs baseline",
        float_format="{:.0f}",
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
