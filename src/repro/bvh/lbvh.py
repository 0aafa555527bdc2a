"""LBVH construction: Morton sort + radix-tree split (Karras 2012).

BVH-NN "sorts the points based on their Morton codes and a BVH is
constructed using the algorithm described in [Karras 2012]" (§V-A).  We build
the identical tree topology with a top-down highest-differing-bit split over
the sorted code array (the recursive formulation of the same radix tree),
then compute node boxes bottom-up from the leaf boxes.

Duplicate Morton codes are disambiguated by falling back to splitting the
range in half, as Karras suggests (conceptually appending the index bits).

The numeric work is vectorized: primitive boxes, centroids, leaf boxes and
the bottom-up refit all run as whole-array numpy operations, with the
Python loop reduced to the topology walk.  Every array expression mirrors
the scalar per-box arithmetic operation-for-operation (``0.5 * (lo + hi)``
centroids, per-component min/max unions), so the produced tree — node
indices, Morton order, and box coordinates — is bit-identical to the
original per-object build; the trace goldens depend on this.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.bvh.node import Bvh, PackedBoxes, PackedNodes
from repro.errors import BuildError
from repro.geometry.aabb import Aabb
from repro.geometry.morton import morton_encode_points

#: Bits in a 30-bit Morton code.
_CODE_BITS = 30


def build_lbvh(
    prim_boxes: Sequence[Aabb],
    leaf_size: int = 1,
    arity: int = 2,
) -> Bvh:
    """Build a binary LBVH over primitive bounding boxes.

    ``leaf_size`` bounds primitives per leaf (BVH-NN uses 1: "Each leaf node
    contains exactly one point", §VI-C).  ``arity`` must be 2 here; use
    :func:`repro.bvh.collapse.collapse_to_bvh4` for BVH4.
    """
    if len(prim_boxes) == 0:
        raise BuildError("cannot build a BVH over zero primitives")
    # Vec3 is a NamedTuple, so a box's corners convert to array rows directly.
    lo = np.array([box.lo for box in prim_boxes], dtype=np.float64)
    hi = np.array([box.hi for box in prim_boxes], dtype=np.float64)
    return _build_from_corners(
        lo, hi, list(prim_boxes), leaf_size=leaf_size, arity=arity
    )


def _build_from_corners(
    lo: np.ndarray,
    hi: np.ndarray,
    prim_boxes: Sequence[Aabb],
    leaf_size: int,
    arity: int,
) -> Bvh:
    """The array-based build core shared by both entry points."""
    if arity != 2:
        raise BuildError("build_lbvh builds binary trees; collapse for BVH4")
    if leaf_size < 1:
        raise BuildError(f"leaf_size must be >= 1, got {leaf_size}")
    count = lo.shape[0]

    # Same arithmetic as Aabb.centroid(): 0.5 * (lo + hi) per component.
    centroids = 0.5 * (lo + hi)
    codes = morton_encode_points(centroids)
    order = np.argsort(codes, kind="stable").astype(np.int64)
    sorted_codes = codes[order]
    sorted_lo = lo[order]
    sorted_hi = hi[order]

    # Level-synchronous topology: split every internal range of a level in
    # one vectorized pass.  Node *indices* must reproduce the legacy stack
    # walk's creation order — preorder over (node, right subtree, left
    # subtree) — because they feed trace addresses.  That order is
    # analytical: a node's right child sits at ``index + 1`` and its left
    # child at ``index + 1 + size(right subtree)``, so indices are assigned
    # top-down once subtree sizes are known.
    lv_first = [np.zeros(1, dtype=np.int64)]
    lv_last = [np.full(1, count - 1, dtype=np.int64)]
    lv_internal: list[np.ndarray] = []  # positions of split ranges per level
    while True:
        first = lv_first[-1]
        last = lv_last[-1]
        internal = np.flatnonzero(last - first + 1 > leaf_size)
        lv_internal.append(internal)
        if internal.size == 0:
            break
        fi = first[internal]
        la = last[internal]
        fc = sorted_codes[fi]
        lc = sorted_codes[la]
        split = (fi + la) >> 1  # equal-code fallback: midpoint
        differ = np.flatnonzero(fc != lc)
        if differ.size:
            # Highest differing bit via the float64 exponent (codes are 30
            # bits, exactly representable).  Codes are sorted, so that bit
            # flips 0 -> 1 exactly once inside the range: the left child
            # ends just before the first code >= pivot, the range's common
            # prefix with that bit set (Karras's common-prefix binary
            # search).  Each range is a slice of the globally sorted code
            # array — everything before ``first`` is <= first_code < pivot
            # and codes[last] >= pivot — so a single global searchsorted
            # equals a range-bounded search.
            xor = (fc[differ] ^ lc[differ]).astype(np.float64)
            diff_bit = np.frexp(xor)[1].astype(np.int64) - 1
            pivot = ((fc[differ] >> diff_bit) | np.int64(1)) << diff_bit
            split[differ] = (
                np.searchsorted(sorted_codes, pivot, side="left") - 1
            )
        next_first = np.empty(2 * internal.size, dtype=np.int64)
        next_last = np.empty(2 * internal.size, dtype=np.int64)
        next_first[0::2] = fi  # left half of range j at position 2j,
        next_last[0::2] = split
        next_first[1::2] = split + 1  # right half at 2j + 1
        next_last[1::2] = la
        lv_first.append(next_first)
        lv_last.append(next_last)

    depth_count = len(lv_first)
    # Subtree sizes bottom-up, then preorder node indices top-down.
    sizes: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * depth_count
    for k in range(depth_count - 1, -1, -1):
        sz = np.ones(lv_first[k].shape[0], dtype=np.int64)
        internal = lv_internal[k]
        if internal.size:
            child_sz = sizes[k + 1]
            sz[internal] = 1 + child_sz[0::2] + child_sz[1::2]
        sizes[k] = sz
    indices: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    for k in range(depth_count - 1):
        internal = lv_internal[k]
        own = indices[k][internal]
        child_sz = sizes[k + 1]
        nxt = np.empty(2 * internal.size, dtype=np.int64)
        nxt[1::2] = own + 1  # right subtree first,
        nxt[0::2] = own + 1 + child_sz[1::2]  # then the left subtree
        indices.append(nxt)

    num_nodes = int(sizes[0][0])
    firsts_arr = np.empty(num_nodes, dtype=np.int64)
    counts_arr = np.empty(num_nodes, dtype=np.int64)
    depths_arr = np.empty(num_nodes, dtype=np.int64)
    parents_arr = np.empty(num_nodes, dtype=np.int64)
    left_arr = np.full(num_nodes, -1, dtype=np.int64)
    right_arr = np.full(num_nodes, -1, dtype=np.int64)
    parents_arr[0] = -1
    for k in range(depth_count):
        dfs = indices[k]
        firsts_arr[dfs] = lv_first[k]
        counts_arr[dfs] = lv_last[k] - lv_first[k] + 1
        depths_arr[dfs] = k
        internal = lv_internal[k]
        if internal.size:
            own = dfs[internal]
            child_dfs = indices[k + 1]
            left_arr[own] = child_dfs[0::2]
            right_arr[own] = child_dfs[1::2]
            parents_arr[child_dfs[0::2]] = own
            parents_arr[child_dfs[1::2]] = own
    root = 0  # the preorder walk always created the root first

    node_lo = np.empty((num_nodes, 3), dtype=np.float64)
    node_hi = np.empty((num_nodes, 3), dtype=np.float64)

    # Leaf boxes: the union of each leaf's contiguous sorted-primitive range
    # (a pure per-component min/max — exact, order-independent).  Leaf
    # ranges partition [0, count), so a segmented reduce covers them all.
    is_leaf = left_arr < 0
    leaf_ids = np.flatnonzero(is_leaf)
    leaf_firsts = firsts_arr[leaf_ids]
    by_first = np.argsort(leaf_firsts)
    starts = leaf_firsts[by_first]
    ordered_leaves = leaf_ids[by_first]
    node_lo[ordered_leaves] = np.minimum.reduceat(sorted_lo, starts, axis=0)
    node_hi[ordered_leaves] = np.maximum.reduceat(sorted_hi, starts, axis=0)

    # Internal boxes bottom-up, one vectorized min/max per depth level
    # (children are always deeper than their parent).
    internal_ids = np.flatnonzero(~is_leaf)
    if internal_ids.size:
        level = depths_arr[internal_ids]
        deep_first = np.argsort(-level, kind="stable")
        bounds = np.nonzero(np.diff(level[deep_first]))[0] + 1
        for group in np.split(deep_first, bounds):
            ids = internal_ids[group]
            left = left_arr[ids]
            right = right_arr[ids]
            node_lo[ids] = np.minimum(node_lo[left], node_lo[right])
            node_hi[ids] = np.maximum(node_hi[left], node_hi[right])

    return Bvh(
        nodes=PackedNodes.from_child_arrays(
            node_lo, node_hi, firsts_arr, counts_arr,
            left_arr, right_arr, parents_arr,
        ),
        prim_indices=order,
        prim_boxes=prim_boxes,
        arity=2,
        root=root,
    )


def build_lbvh_for_points(
    points: np.ndarray, search_radius: float, leaf_size: int = 1
) -> Bvh:
    """The BVH-NN acceleration structure (§V-A).

    Each point becomes a leaf box of width ``2 * search_radius`` centered on
    it, so a query point landing inside a leaf box is within ``search_radius``
    of the point on every axis (the RTNN formulation).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise BuildError(f"expected (N,3) points, got {points.shape}")
    if search_radius <= 0.0:
        raise BuildError("search_radius must be positive")
    # Same arithmetic as Aabb.around_point: center +/- radius per component.
    lo = points - search_radius
    hi = points + search_radius
    return _build_from_corners(
        lo, hi, PackedBoxes(lo, hi), leaf_size=leaf_size, arity=2
    )
