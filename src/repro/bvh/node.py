"""BVH node and tree containers.

Nodes live in a flat array; children are node indices.  A leaf holds a range
``[first_prim, first_prim + prim_count)`` into the tree's ``prim_indices``
permutation.  The same container serves BVH2 (``arity == 2``) and the BVH4
trees the hardware's four-wide box test prefers (``arity == 4``).
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceBase
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

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
    would on an eager list.  The batched walk reads the packed topology
    (:meth:`child_table`, through :meth:`Bvh.flat_topology`) and the corner
    arrays directly instead of materializing nodes; a materialized node
    aliases its ``child_lists`` entry, never a copy.
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

    def child_table(self) -> np.ndarray:
        """Pop-order child table (see :class:`FlatTopology`)."""
        if self._child_lists is None:
            # Array form: a binary node pops its right child first; a
            # leaf's row is (-1, -1) in both arrays.
            return np.stack((self._right, self._left), axis=1)
        return _child_table(self._child_lists)

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


class FlatTopology(NamedTuple):
    """A BVH as flat arrays: the input of the batched walk.

    Row ``n`` of ``children`` holds node ``n``'s children in *pop order*:
    the scalar walk pushes a node's children in child order, so the last
    child pops first.  Rows are padded with ``-1``; ``uniform`` is true
    when no internal row is.  ``rank[n]`` is ``n``'s position in the whole
    tree's depth-first order under that pop order (``-1`` if the root does
    not reach it).  A pruned walk visits a subsequence of that order, so
    one query's visited nodes sorted by rank are its visit order.
    """

    is_leaf: np.ndarray
    children: np.ndarray
    fanout: np.ndarray
    rank: np.ndarray
    firsts: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    uniform: bool


def _child_table(child_lists: Sequence) -> np.ndarray:
    """Pop-order child table of per-node child lists (``None`` or empty
    for a leaf)."""
    count = len(child_lists)
    fanout = np.fromiter(
        (len(c) if c else 0 for c in child_lists), np.int64, count
    )
    flat = np.fromiter(
        (i for c in child_lists if c for i in reversed(c)), np.int64,
        int(fanout.sum()),
    )
    table = np.full((count, max(1, int(fanout.max()))), -1, dtype=np.int64)
    starts = np.cumsum(fanout) - fanout
    table[
        np.repeat(np.arange(count), fanout),
        np.arange(flat.size) - np.repeat(starts, fanout),
    ] = flat
    return table


def _pop_order_rank(
    children: np.ndarray, is_leaf: np.ndarray, root: int
) -> np.ndarray:
    """Each node's depth-first rank under pop order, one level at a time:
    subtree sizes bottom-up, then a child's rank is its parent's plus one
    plus the sizes of the siblings that pop before it."""
    count = children.shape[0]
    inner_levels = []
    level = np.array([root], dtype=np.int64)
    while True:
        inner = level[~is_leaf[level]]
        if not inner.size:
            break
        inner_levels.append(inner)
        kids = children[inner]
        level = kids[kids >= 0]
    size = np.ones(count + 1, dtype=np.int64)
    size[-1] = 0  # the slot a -1 padding entry reads
    for inner in reversed(inner_levels):
        size[inner] = 1 + size[children[inner]].sum(axis=1)
    rank = np.full(count, -1, dtype=np.int64)
    rank[root] = 0
    for inner in inner_levels:
        kids = children[inner]
        sizes = size[kids]
        ranks = rank[inner][:, None] + 1 + np.cumsum(sizes, axis=1) - sizes
        real = kids >= 0
        rank[kids[real]] = ranks[real]
    return rank


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
    _flat: FlatTopology | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def flat_topology(self) -> FlatTopology:
        """The tree as a :class:`FlatTopology`, built with numpy on first
        call and cached.

        The snapshot is taken after any build-time mutation (the builders
        and ``collapse_to_bvh4`` return finished trees); batched queries
        must not run concurrently with further topology edits.
        """
        if self._flat is None:
            nodes = self.nodes
            if isinstance(nodes, PackedNodes):
                children = nodes.child_table()
                firsts = np.asarray(nodes.firsts, dtype=np.int64)
                counts = np.asarray(nodes.counts, dtype=np.int64)
                lo, hi = nodes.lo, nodes.hi
            else:
                children = _child_table([n.children for n in nodes])
                firsts = np.array([n.first_prim for n in nodes], np.int64)
                counts = np.array([n.prim_count for n in nodes], np.int64)
                lo = np.array(
                    [(n.aabb.lo.x, n.aabb.lo.y, n.aabb.lo.z) for n in nodes],
                    dtype=np.float64,
                )
                hi = np.array(
                    [(n.aabb.hi.x, n.aabb.hi.y, n.aabb.hi.z) for n in nodes],
                    dtype=np.float64,
                )
            fanout = np.count_nonzero(children >= 0, axis=1).astype(np.int64)
            is_leaf = fanout == 0
            self._flat = FlatTopology(
                is_leaf, children, fanout,
                _pop_order_rank(children, is_leaf, self.root),
                firsts, counts, lo, hi,
                bool(np.all(fanout[~is_leaf] == children.shape[1])),
            )
        return self._flat

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
