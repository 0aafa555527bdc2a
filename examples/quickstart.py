"""Quickstart: the HSU in five minutes.

Covers the three layers of the library:

1. the functional HSU intrinsics (`euclid_dist`, `angular_dist`,
   `key_compare`) — the §III-B programming interface;
2. the datapath's functional-unit budget: what the HSU adds to the
   baseline RT unit (Fig. 6);
3. a paired baseline/HSU timing simulation of a real workload.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    additional_fus_for_hsu,
    angular_dist,
    angular_distance_from_sums,
    beat_count,
    euclid_dist,
    key_compare,
    key_compare_child_index,
)
from repro.core.ops import query_norm
from repro.gpusim import VOLTA_V100, simulate
from repro.workloads import run_bvhnn, to_traces


def demo_intrinsics() -> None:
    print("== 1. HSU intrinsics (the __euclid_dist / __angular_dist API) ==")
    rng = np.random.default_rng(7)
    query = rng.normal(size=96).astype(np.float32)
    candidate = rng.normal(size=96).astype(np.float32)

    d2 = euclid_dist(query, candidate)
    beats = beat_count(96, 16)
    print(f"squared euclidean distance (dim 96): {d2:.4f}")
    print(f"  computed as {beats} POINT_EUCLID beats "
          f"({beats - 1} with the accumulate bit set)")

    dot_sum, norm_sum = angular_dist(query, candidate)
    angle = angular_distance_from_sums(dot_sum, norm_sum, query_norm(query))
    print(f"angular distance: {angle:.4f} "
          f"(dot_sum={dot_sum:.3f}, norm_sum={norm_sum:.3f} from POINT_ANGULAR)")

    separators = np.arange(10.0, 370.0, 10.0)  # 36 sorted separators
    bits = key_compare(128.0, separators)
    child = key_compare_child_index(bits, len(separators))
    print(f"KEY_COMPARE(128.0, 36 separators) -> child index {child}\n")


def demo_datapath() -> None:
    print("== 2. The unified 9-stage datapath (Fig. 5, Fig. 6) ==")
    extra = additional_fus_for_hsu()
    for stage, units in sorted(extra.items()):
        added = ", ".join(f"{count} {kind.value}" for kind, count in units.items())
        print(f"  stage {stage}: +{added}")
    total = sum(sum(units.values()) for units in extra.values())
    print(f"  {total} extra units over the baseline RT datapath "
          "(§IV-C claims five extra adders)\n")


def demo_simulation() -> None:
    print("== 3. Paired timing simulation (BVH-NN on random10k) ==")
    run = run_bvhnn("R10K", num_queries=256)
    bundle = to_traces(run)
    config = VOLTA_V100.scaled(1)
    baseline = simulate(config, bundle.baseline)
    hsu = simulate(config, bundle.hsu)
    print(f"  search radius: {run.extras['radius']:.4f}, "
          f"mean neighbors found: {run.extras['mean_hits']:.1f}")
    print(f"  baseline: {baseline.cycles:,.0f} cycles, "
          f"{baseline.l1_accesses:,} L1 accesses")
    print(f"  HSU:      {hsu.cycles:,.0f} cycles, "
          f"{hsu.l1_accesses:,} L1 accesses")
    print(f"  speedup:  {baseline.cycles / hsu.cycles:.3f}x")


def main() -> None:
    demo_intrinsics()
    demo_datapath()
    demo_simulation()


if __name__ == "__main__":
    main()
