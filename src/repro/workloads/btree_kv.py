"""B-tree workload: Rodinia-style key-value lookups, block-per-query.

Bulk-loads a branch-factor-256 B-tree over the dataset's key set and runs
point lookups.  Each internal node visit is the ``KEY_COMPARE`` use case:
the baseline warp compares separators in parallel and ballots; the HSU
issues ``ceil(separators/36)`` CISC compares from one lane (§IV-E).  Leaf
binary search and child-pointer chasing stay on the SIMD units — which is
why the B+ tree shows the smallest HSU-able fraction (Fig. 7).
"""

from __future__ import annotations

import numpy as np

from repro import builds
from repro.btree.btree import (
    EVENT_KEY_COMPARE,
    EVENT_LEAF_SCAN,
    BTreeStats,
)
from repro.compiler.layout import AddressSpace
from repro.compiler.lowering import STYLE_COOPERATIVE
from repro.compiler.ops import WarpOp, WarpOps
from repro.datasets.registry import load_dataset
from repro.search import BTreeKvIndex

#: Bytes per internal node (255 separators + 256 child pointers).
_NODE_BYTES = 255 * 4 + 256 * 4
#: Bytes per leaf (keys + values at the branch factor).
_LEAF_BYTES = 256 * 8
#: ALU cost of the leaf binary search + result select.
_LEAF_ALU = 10


#: The default B+ tree build, which the serving kv endpoint shares.
BUILD = {"branch": 256}


@builds.stored("btree-index")
def _build(abbr: str, branch: int, scale: float, seed: int):
    dataset = load_dataset(abbr, num_queries=1024, scale=scale, seed=seed)
    keys = dataset.points.astype(np.float64).reshape(-1)
    return keys, BTreeKvIndex(branch=branch).build(keys)


def run_btree(
    abbr: str = "B+1M",
    num_queries: int = 256,
    branch: int = BUILD["branch"],
    hit_fraction: float = 0.75,
    scale: float = 1.0,
    seed: int = 0,
):
    """Execute B-tree lookups over one key set; returns a WorkloadRun."""
    from repro.workloads.base import WorkloadRun

    keys, index = _build(abbr, branch, scale, seed)
    tree = index.tree
    rng = np.random.default_rng(seed + 2)
    # Mix of present keys and misses, like an index-probe workload.
    hits_wanted = int(num_queries * hit_fraction)
    present = rng.choice(keys, size=hits_wanted, replace=True)
    missing = rng.uniform(keys.min(), keys.max(), size=num_queries - hits_wanted)
    # Offset misses by 0.5: keys are integer-valued, so these never match.
    probes = np.concatenate([present, np.floor(missing) + 0.5])
    rng.shuffle(probes)

    space = AddressSpace()
    inner = space.alloc_array("btree_inner", tree.num_nodes, _NODE_BYTES)
    leaves = space.alloc_array("btree_leaves", tree.num_nodes, _LEAF_BYTES)

    # Level-synchronous batched descent; per probe the trail columns are
    # the exact event stream the scalar ``tree.lookup`` records (the
    # equivalence tests pin this), so the lowered ops are unchanged.
    _, found_mask, trail = tree.lookup_batch(probes)
    found = int(np.count_nonzero(found_mask))
    internal_levels = [
        (ids.tolist(), payloads.tolist()) for ids, payloads in trail[:-1]
    ]
    leaf_ids, leaf_counts = trail[-1]
    leaf_ids = leaf_ids.tolist()
    leaf_counts = leaf_counts.tolist()

    warp_ops: list[list[WarpOp]] = []
    for qi in range(len(probes)):
        ops: list[WarpOp] = []
        for ids, payloads in internal_levels:
            # One cooperative compare of `payload` separators; the HSU
            # issues it from a single lane (addrs length 1).
            ops.append(
                WarpOp(
                    "TKeyCmp",
                    (inner.element(ids[qi], _NODE_BYTES),),
                    32,
                    a=max(1, payloads[qi]),
                )
            )
            # Child-pointer select + chase (not HSU-able).
            ops.append(WarpOp("TAlu", (), 32, a=2))
        # Binary search touches ~log2(keys) entries — a few cache
        # lines of the leaf, not the whole 2 KB block.
        touched = min(_LEAF_BYTES, max(64, leaf_counts[qi]))
        ops.append(
            WarpOp(
                "TLoad",
                (leaves.element(leaf_ids[qi], _LEAF_BYTES),),
                32,
                a=touched,
            )
        )
        ops.append(WarpOp("TAlu", (), 32, a=_LEAF_ALU))
        warp_ops.append(ops)

    extras = {
        "dataset": abbr,
        "num_queries": len(probes),
        "hit_rate": found / len(probes),
        "tree_height": tree.height(),
    }
    return WorkloadRun(
        name=f"btree-{abbr}",
        style=STYLE_COOPERATIVE,
        warp_ops=WarpOps.from_records(warp_ops),
        extras=extras,
    )
