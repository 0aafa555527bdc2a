"""§VI-G — RTIndeX: triangle-encoded keys vs native point keys.

The triangle variant runs on the baseline RT instructions (keys as 288-bit
triangle primitives); the point variant uses the HSU's native point support.
The paper reports a 36.6% speedup for point keys, driven by the 9:1 leaf
memory reduction.  Both variants simulate on the same HSU hardware — the
comparison isolates the data representation.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments import campaign
from repro.experiments.common import default_config
from repro.workloads.base import to_trace
from repro.workloads.rtindex import run_rtindex

#: Paper's reported speedup of point keys over triangle keys.
PAPER_SPEEDUP = 1.366


def compute(num_keys: int = 8192, num_lookups: int = 2048) -> dict[str, object]:
    triangle_run, point_run = run_rtindex(
        num_keys=num_keys, num_lookups=num_lookups
    )
    config = default_config()
    abbr = f"K{num_keys}"
    triangle_stats = campaign.cached_simulate(
        "rtindex", abbr, "triangle-keys", config, to_trace(triangle_run, "hsu")
    )
    point_stats = campaign.cached_simulate(
        "rtindex", abbr, "point-keys", config, to_trace(point_run, "hsu")
    )
    return {
        "triangle_cycles": triangle_stats.cycles,
        "point_cycles": point_stats.cycles,
        "speedup": triangle_stats.cycles / point_stats.cycles,
        "paper_speedup": PAPER_SPEEDUP,
        "triangle_l1_accesses": triangle_stats.l1_accesses,
        "point_l1_accesses": point_stats.l1_accesses,
        "memory_ratio": (
            triangle_run.extras["triangle_leaf_bytes"]
            / point_run.extras["point_leaf_bytes"]
        ),
        "hit_rate": point_run.extras["hit_rate"],
    }


def render() -> str:
    result = compute()
    rows = [
        ("triangle keys (baseline RT)", result["triangle_cycles"], result["triangle_l1_accesses"]),
        ("point keys (HSU native)", result["point_cycles"], result["point_l1_accesses"]),
    ]
    table = format_table(
        ["Variant", "Cycles", "L1 accesses"],
        rows,
        title="RTIndeX re-implementation (§VI-G)",
        float_format="{:.0f}",
    )
    return table + (
        f"\n\nPoint-key speedup: {result['speedup']:.3f} "
        f"(paper: {result['paper_speedup']}); "
        f"leaf memory ratio {result['memory_ratio']:.0f}:1"
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
