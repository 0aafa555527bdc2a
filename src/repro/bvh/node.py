"""BVH node and tree containers.

Nodes live in a flat array; children are node indices.  A leaf holds a range
``[first_prim, first_prim + prim_count)`` into the tree's ``prim_indices``
permutation.  The same container serves BVH2 (``arity == 2``) and the BVH4
trees the hardware's four-wide box test prefers (``arity == 4``).
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceBase
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.errors import BuildError
from repro.geometry.aabb import Aabb
from repro.geometry.vec3 import Vec3


@dataclass
class BvhNode:
    """One BVH node.

    ``children`` is empty for leaves.  ``parent`` is -1 for the root.
    """

    aabb: Aabb
    children: list[int] = field(default_factory=list)
    first_prim: int = 0
    prim_count: int = 0
    parent: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children


class PackedBoxes(_SequenceBase):
    """Per-primitive ``Aabb`` objects materialized from corner arrays.

    Box coordinates live in packed ``(N, 3)`` float arrays; an ``Aabb`` is
    created (and cached) only when an index is first touched.  Traversal
    visits a small fraction of a tree's boxes, so skipping the up-front
    object construction removes most of the build cost without changing a
    single coordinate: ``tolist()`` rows convert each float64 exactly.
    """

    __slots__ = ("lo", "hi", "_cache")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        self.lo = lo
        self.hi = hi
        self._cache: list[Aabb | None] = [None] * lo.shape[0]

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index):
        if isinstance(index, slice):
            span = range(*index.indices(len(self._cache)))
            return [self[i] for i in span]
        box = self._cache[index]
        if box is None:
            box = Aabb(
                Vec3(*self.lo[index].tolist()),
                Vec3(*self.hi[index].tolist()),
            )
            self._cache[index] = box
        return box


class PackedNodes(_SequenceBase):
    """``BvhNode`` objects materialized on first access from packed arrays.

    The cache guarantees index ``i`` always yields the *same* node object,
    so in-place mutation (refits, collapse orphaning) behaves exactly as it
    would on an eager list.  The batched traversal kernels read the packed
    topology (:meth:`flat_topology`) and the corner arrays directly
    instead of materializing nodes; a materialized node aliases its
    ``child_lists`` entry, never a copy.
    """

    __slots__ = (
        "lo",
        "hi",
        "firsts",
        "counts",
        "parents",
        "_child_lists",
        "_left",
        "_right",
        "_cache",
        "_flat",
    )

    def __init__(self, lo, hi, firsts, counts, child_lists, parents) -> None:
        self.lo = lo
        self.hi = hi
        self.firsts = firsts
        self.counts = counts
        self._child_lists = child_lists
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self.parents = parents
        self._cache: list[BvhNode | None] = [None] * len(parents)
        self._flat: tuple | None = None

    @classmethod
    def from_child_arrays(
        cls, lo, hi, firsts, counts, left, right, parents
    ) -> "PackedNodes":
        """Binary-tree constructor taking per-node child index arrays
        (``-1`` marks a leaf) instead of a list of child lists; the list
        form materializes lazily on first :attr:`child_lists` access."""
        nodes = cls(lo, hi, firsts, counts, None, parents)
        nodes._left = left
        nodes._right = right
        return nodes

    @property
    def child_lists(self) -> list:
        """Per node: list of child indices, or None for a leaf."""
        if self._child_lists is None:
            pairs = np.stack((self._left, self._right), axis=1).tolist()
            self._child_lists = [
                pair if pair[0] >= 0 else None for pair in pairs
            ]
        return self._child_lists

    def flat_topology(self) -> tuple:
        """Topology as flat arrays for the batched traversal kernels.

        Returns ``(is_leaf, child_off, child_cnt, child_idx, firsts,
        counts)`` where children of internal node ``n`` occupy
        ``child_idx[child_off[n] : child_off[n] + child_cnt[n]]`` in child
        order.  The snapshot is taken (and cached) on first call — after
        any build-time mutation such as ``collapse_to_bvh4``; batched
        queries must not run concurrently with further topology edits.
        """
        if self._flat is None:
            if self._child_lists is None:
                # Array form: children come straight from the index arrays.
                is_leaf = self._left < 0
                internal = np.flatnonzero(~is_leaf)
                child_cnt = np.where(is_leaf, 0, 2).astype(np.int64)
                child_idx = np.empty(2 * internal.size, dtype=np.int64)
                child_idx[0::2] = self._left[internal]
                child_idx[1::2] = self._right[internal]
            else:
                child_lists = self._child_lists
                child_cnt = np.array(
                    [0 if c is None else len(c) for c in child_lists],
                    dtype=np.int64,
                )
                is_leaf = np.array(
                    [c is None for c in child_lists], dtype=bool
                )
                flat_children = [c for c in child_lists if c]
                child_idx = (
                    np.concatenate(
                        [np.asarray(c, dtype=np.int64) for c in flat_children]
                    )
                    if flat_children
                    else np.empty(0, dtype=np.int64)
                )
            child_off = np.zeros(len(self._cache), dtype=np.int64)
            np.cumsum(child_cnt[:-1], out=child_off[1:])
            self._flat = (
                is_leaf,
                child_off,
                child_cnt,
                child_idx,
                np.asarray(self.firsts, dtype=np.int64),
                np.asarray(self.counts, dtype=np.int64),
            )
        return self._flat

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index):
        if isinstance(index, slice):
            span = range(*index.indices(len(self._cache)))
            return [self[i] for i in span]
        node = self._cache[index]
        if node is None:
            box = Aabb(
                Vec3(*self.lo[index].tolist()),
                Vec3(*self.hi[index].tolist()),
            )
            children = self.child_lists[index]
            if children is None:
                node = BvhNode(
                    aabb=box,
                    first_prim=self.firsts[index],
                    prim_count=self.counts[index],
                    parent=self.parents[index],
                )
            else:
                node = BvhNode(
                    aabb=box, children=children, parent=self.parents[index]
                )
            self._cache[index] = node
        return node


@dataclass
class Bvh:
    """A flat-array bounding volume hierarchy.

    ``prim_boxes`` are the per-primitive bounding boxes in *original*
    primitive order; ``prim_indices`` is the Morton-sorted permutation leaf
    ranges index into.  Both ``nodes`` and ``prim_boxes`` may be lazy
    sequences that materialize objects on first access (the LBVH builder
    uses these); indexing is stable — the same index always returns the
    same object, so in-place node mutation behaves like a plain list.
    """

    nodes: Sequence[BvhNode]
    prim_indices: np.ndarray
    prim_boxes: Sequence[Aabb]
    arity: int = 2
    root: int = 0

    @property
    def num_prims(self) -> int:
        return len(self.prim_boxes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, index: int) -> BvhNode:
        return self.nodes[index]

    def leaf_prims(self, node: BvhNode) -> np.ndarray:
        """Original primitive ids stored in a leaf."""
        if not node.is_leaf:
            raise BuildError("leaf_prims called on an internal node")
        return self.prim_indices[
            node.first_prim : node.first_prim + node.prim_count
        ]

    def iter_leaves(self) -> Iterator[tuple[int, BvhNode]]:
        for index, node in enumerate(self.nodes):
            if node.is_leaf and self._reachable(index):
                yield index, node

    def _reachable(self, index: int) -> bool:
        # All nodes in a freshly built tree are reachable; collapse() marks
        # absorbed nodes by orphaning them (parent == -2).
        return self.nodes[index].parent != -2

    def depth(self) -> int:
        """Maximum root-to-leaf depth (root at depth 1)."""
        max_depth = 0
        stack = [(self.root, 1)]
        while stack:
            index, depth = stack.pop()
            node = self.nodes[index]
            if node.is_leaf:
                max_depth = max(max_depth, depth)
            else:
                for child in node.children:
                    stack.append((child, depth + 1))
        return max_depth

    def validate(self) -> None:
        """Check structural invariants; raises :class:`BuildError` on failure.

        Invariants: every primitive appears in exactly one leaf; every child
        box is contained (within float tolerance) by its parent box; arity
        respected; parent pointers consistent.
        """
        seen = np.zeros(self.num_prims, dtype=bool)
        stack = [self.root]
        visited_nodes = 0
        while stack:
            index = stack.pop()
            node = self.nodes[index]
            visited_nodes += 1
            if node.is_leaf:
                if node.prim_count <= 0:
                    raise BuildError(f"leaf {index} holds no primitives")
                for prim in self.leaf_prims(node):
                    if seen[prim]:
                        raise BuildError(f"primitive {prim} in multiple leaves")
                    seen[prim] = True
            else:
                if len(node.children) > self.arity:
                    raise BuildError(
                        f"node {index} has {len(node.children)} children, "
                        f"arity is {self.arity}"
                    )
                for child_index in node.children:
                    child = self.nodes[child_index]
                    if child.parent not in (index, -2):
                        raise BuildError(
                            f"child {child_index} parent pointer inconsistent"
                        )
                    if not _contains(node.aabb, child.aabb):
                        raise BuildError(
                            f"child {child_index} box escapes parent {index}"
                        )
                    stack.append(child_index)
        if not seen.all():
            missing = int(np.count_nonzero(~seen))
            raise BuildError(f"{missing} primitives unreachable from the root")


_EPS = 1e-6


def _contains(outer: Aabb, inner: Aabb) -> bool:
    return (
        outer.lo.x <= inner.lo.x + _EPS
        and outer.lo.y <= inner.lo.y + _EPS
        and outer.lo.z <= inner.lo.z + _EPS
        and outer.hi.x >= inner.hi.x - _EPS
        and outer.hi.y >= inner.hi.y - _EPS
        and outer.hi.z >= inner.hi.z - _EPS
    )
