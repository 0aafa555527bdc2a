"""BVH-NN ablation knobs: SAH builder, BVH4, sorted queries."""

import numpy as np
import pytest

from repro.compiler.ops import PACKED_TBOX
from repro.errors import BuildError
from repro.workloads.bvhnn import run_bvhnn


class TestVariants:
    def test_sah_builder_same_search_semantics(self):
        """The builder changes the tree, not the answers: the same queries
        find the same neighbor counts."""
        lbvh = run_bvhnn("R10K", num_queries=128, builder="lbvh")
        sah = run_bvhnn("R10K", num_queries=128, builder="sah")
        assert lbvh.extras["mean_hits"] == pytest.approx(
            sah.extras["mean_hits"]
        )

    def test_bvh4_fewer_node_visits(self):
        """Four-wide nodes halve the tree depth, so per-query box-node
        visits drop."""
        bvh2 = run_bvhnn("R10K", num_queries=128, arity=2)
        bvh4 = run_bvhnn("R10K", num_queries=128, arity=4)
        def box_visits(run):
            # Thread-level node visits (warp-op counts depend on zipping).
            ops = run.warp_ops
            return int(ops.active[ops.select(PACKED_TBOX)].sum())
        assert box_visits(bvh4) < box_visits(bvh2)
        assert bvh4.extras["mean_hits"] == pytest.approx(
            bvh2.extras["mean_hits"]
        )

    def test_bvh4_nodes_carry_up_to_four_children(self):
        bvh4 = run_bvhnn("R10K", num_queries=64, arity=4)
        ops = bvh4.warp_ops
        max_children = int(ops.a[ops.select(PACKED_TBOX)].max())
        assert 2 < max_children <= 4

    def test_sorted_queries_share_lines(self):
        """Morton-sorted query batches put adjacent threads in adjacent
        regions: warp-level box fetch addresses get closer together."""
        unsorted = run_bvhnn("BUN", num_queries=256, sort_queries=False)
        sorted_run = run_bvhnn("BUN", num_queries=256, sort_queries=True)

        def mean_addr_spread(run):
            ops = run.warp_ops
            spreads = []
            for op in ops.select(PACKED_TBOX).tolist():
                addrs = ops.addrs[ops.addr_offsets[op]:ops.addr_offsets[op + 1]]
                if len(addrs) > 1:
                    spreads.append(np.std(addrs))
            return float(np.mean(spreads))

        assert mean_addr_spread(sorted_run) < mean_addr_spread(unsorted)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(BuildError):
            run_bvhnn("R10K", num_queries=8, builder="magic")
        with pytest.raises(BuildError):
            run_bvhnn("R10K", num_queries=8, arity=3)
