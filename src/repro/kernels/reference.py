"""The ``reference`` kernel backend: pinned numpy ground truth.

Every kernel here is the numpy hot loop that used to be inlined at its
call site — moved, not rewritten — so trace fingerprints, campaign cache
keys, and the committed goldens are *defined* by this module.

Kernels take flat arrays and scalars only (no tree objects, no event
buffers); the thin wrappers that own validation, event-log
finalization, and stats accounting stay at the call sites
(``repro/core/ops.py``, ``repro/bvh/traversal.py``, ``repro/kdtree``,
``repro/graph``, ``repro/btree``, ``repro/compiler``, ``repro/gpusim``).
"""

from __future__ import annotations

import numpy as np

from repro.core.multibeat import iter_beat_slices

_INT = np.int64


def _segmented_arange(counts: np.ndarray, total: int) -> np.ndarray:
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated (CSR expansion).

    Local twin of :func:`repro.search.events.segmented_arange`, kept here
    so the kernel layer depends on nothing above :mod:`repro.core`.
    """
    if total == 0:
        return np.empty(0, dtype=_INT)
    starts = np.zeros(counts.shape[0], dtype=_INT)
    np.cumsum(counts[:-1], out=starts[1:])
    return np.arange(total, dtype=_INT) - np.repeat(starts, counts)


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenated int parts (empty when there are none)."""
    return np.concatenate(parts) if parts else np.empty(0, dtype=_INT)


class ReferenceBackend:
    """Numpy implementations of every registered hot kernel."""

    name = "reference"

    # -- HSU distance kernels (beat-structured, repro/core/ops.py) --------

    def euclid_beats(
        self, q: np.ndarray, block: np.ndarray, width: int
    ) -> np.ndarray:
        """Squared L2 from one float32 query row to an ``(M, dim)`` block.

        Beat loop of :func:`repro.core.ops.batch_euclid_dist`: each beat's
        lanes square-and-reduce in float32 along the contiguous axis and
        beats accumulate in float32 (the datapath's §IV-F semantics).
        """
        total = np.zeros(block.shape[0], dtype=np.float32)
        for lo, hi in iter_beat_slices(q.size, width):
            diff = q[lo:hi] - block[:, lo:hi]
            total = total + np.sum(diff * diff, axis=1, dtype=np.float32)
        return total

    def euclid_beats_rowwise(
        self, qrows: np.ndarray, crows: np.ndarray, width: int
    ) -> np.ndarray:
        """Per-row squared L2 between paired float32 row blocks.

        Beat loop of :func:`repro.core.ops.rowwise_euclid_dist` — the
        merged-pool form the batched engines use.
        """
        total = np.zeros(qrows.shape[0], dtype=np.float32)
        for lo, hi in iter_beat_slices(qrows.shape[1], width):
            diff = qrows[:, lo:hi] - crows[:, lo:hi]
            total = total + np.sum(diff * diff, axis=1, dtype=np.float32)
        return total

    def l1_beats(
        self, q: np.ndarray, block: np.ndarray, width: int
    ) -> np.ndarray:
        """L1 (Manhattan) distance from one float32 query row to a block.

        Same beat structure as :meth:`euclid_beats` — each beat's lanes
        take absolute differences and reduce in float32, beats accumulate
        in float32 — so the Arkade filter-metric refine shares the
        datapath's summation semantics with the Euclidean kernel.
        """
        total = np.zeros(block.shape[0], dtype=np.float32)
        for lo, hi in iter_beat_slices(q.size, width):
            diff = np.abs(q[lo:hi] - block[:, lo:hi])
            total = total + np.sum(diff, axis=1, dtype=np.float32)
        return total

    def l1_beats_rowwise(
        self, qrows: np.ndarray, crows: np.ndarray, width: int
    ) -> np.ndarray:
        """Per-row L1 distance between paired float32 row blocks
        (the merged-pool twin of :meth:`l1_beats`)."""
        total = np.zeros(qrows.shape[0], dtype=np.float32)
        for lo, hi in iter_beat_slices(qrows.shape[1], width):
            diff = np.abs(qrows[:, lo:hi] - crows[:, lo:hi])
            total = total + np.sum(diff, axis=1, dtype=np.float32)
        return total

    def linf_beats(
        self, q: np.ndarray, block: np.ndarray, width: int
    ) -> np.ndarray:
        """L-infinity (Chebyshev) distance from one query row to a block.

        Beats reduce with ``max`` instead of ``+``; float32 ``max`` is
        exact and order-independent, so the beat structure cannot move a
        bit regardless of ``width``.
        """
        total = np.zeros(block.shape[0], dtype=np.float32)
        for lo, hi in iter_beat_slices(q.size, width):
            diff = np.abs(q[lo:hi] - block[:, lo:hi])
            total = np.maximum(total, np.max(diff, axis=1))
        return total

    def linf_beats_rowwise(
        self, qrows: np.ndarray, crows: np.ndarray, width: int
    ) -> np.ndarray:
        """Per-row L-infinity distance between paired float32 row blocks
        (the merged-pool twin of :meth:`linf_beats`)."""
        total = np.zeros(qrows.shape[0], dtype=np.float32)
        for lo, hi in iter_beat_slices(qrows.shape[1], width):
            diff = np.abs(qrows[:, lo:hi] - crows[:, lo:hi])
            total = np.maximum(total, np.max(diff, axis=1))
        return total

    def normalize_rows(self, rows: np.ndarray) -> np.ndarray:
        """Project float32 rows onto the unit sphere (zero rows unchanged).

        The Arkade cosine transform: after normalization, squared
        Euclidean distance is monotone in angular distance
        (``|u - v|^2 = 2 (1 - cos theta)``), so cosine kNN reduces to
        Euclidean kNN over the transformed points.  Row norms square and
        reduce in float32 (the same contiguous-axis reduction the
        distance kernels use) and rows scale by the float32 reciprocal
        square root.
        """
        norms_sq = np.sum(rows * rows, axis=1, dtype=np.float32)
        scale = np.ones_like(norms_sq)
        nonzero = norms_sq > np.float32(0.0)
        scale[nonzero] = np.float32(1.0) / np.sqrt(norms_sq[nonzero])
        return rows * scale[:, None]

    def sq_l2_f32(self, candidates: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Un-beaten float32 squared L2 (the HNSW build/search kernel).

        ``query`` is either one ``(dim,)`` row (broadcast against every
        candidate — :func:`repro.graph.hnsw.batch_distances`) or an
        ``(M, dim)`` row block paired with the candidates (the merged
        candidate pool of :func:`repro.graph.search.search_batch`).
        """
        diff = candidates - query
        return np.sum(diff * diff, axis=1, dtype=np.float32)

    # -- geometry kernels (repro/geometry/aabb.py) ------------------------

    def aabb_contains_points(
        self, lo_rows: np.ndarray, hi_rows: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """Row ``i``: is ``points[i]`` inside the box ``[lo_rows[i],
        hi_rows[i]]`` (closed on every axis, like ``Aabb.contains_point``)?
        """
        return np.all((lo_rows <= points) & (points <= hi_rows), axis=1)

    def aabb_distance_sq(
        self, lo_rows: np.ndarray, hi_rows: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """Row ``i``: squared distance from ``points[i]`` to its box
        (0 inside) — the batched ``Aabb.distance_squared_to_point``."""
        delta = np.maximum(lo_rows - points, 0.0) + np.maximum(
            points - hi_rows, 0.0
        )
        return np.sum(delta * delta, axis=1)

    # -- BVH level-synchronous walk (repro/bvh/traversal.py) --------------

    def bvh_point_query(
        self,
        queries: np.ndarray,
        is_leaf: np.ndarray,
        children: np.ndarray,
        fanout: np.ndarray,
        rank: np.ndarray,
        firsts: np.ndarray,
        counts: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        uniform: bool,
        prim_indices: np.ndarray,
        root: int,
        record_events: bool,
        box_code: int,
        stack_code: int,
    ) -> tuple:
        """Level-synchronous point containment over a flat BVH, returned
        in each query's depth-first order.

        Each step expands every live (query, node) pair one tree level
        down, so a batch of any size takes at most one step per level.  The
        tree arrays are a :class:`~repro.bvh.node.FlatTopology`: the
        scalar ``point_query`` visits a query's nodes in ``rank`` order,
        so sorting leaf visits and internal visits by (query, rank)
        restores its candidate order and box/stack event stream exactly.
        When a query pops a node, its stack holds that node plus the
        node's *pending* entries: siblings of the node and of its
        ancestors that were pushed before them and not yet popped.  A
        passing child's pending count is its parent's plus the passing
        siblings pushed before it, and the largest count plus one is the
        maximum stack depth.

        Returns ``(cand_starts, cand_prims, ev_codes, ev_idents,
        ev_payloads, ev_starts, counters)``: query-major CSR candidate and
        event arrays (event arrays are ``None`` unless ``record_events``)
        plus the aggregate counter tuple ``(nodes_visited,
        box_nodes_visited, box_tests, leaf_visits, max_stack_depth)``.
        """
        num_queries = queries.shape[0]
        width = children.shape[1]
        qid = np.arange(num_queries, dtype=_INT)
        node = np.full(num_queries, root, dtype=_INT)
        pending = np.zeros(num_queries, dtype=_INT)
        leaf_qids: list[np.ndarray] = []
        leaf_nodes: list[np.ndarray] = []
        box_qids: list[np.ndarray] = []
        box_nodes: list[np.ndarray] = []
        box_pushes: list[np.ndarray] = []
        nodes_visited = 0
        box_visits = 0
        box_tests = 0
        max_pending = 0
        while qid.size:
            nodes_visited += qid.size
            max_pending = max(max_pending, int(pending.max()))
            leaf = is_leaf[node]
            inner = ~leaf
            leaf_qids.append(qid[leaf])
            leaf_nodes.append(node[leaf])
            parent_q = qid[inner]
            if not parent_q.size:
                break
            parents = node[inner]
            kids = children[parents]
            rows = queries[parent_q][:, None, :]
            inside = ((lo[kids] <= rows) & (rows <= hi[kids])).all(axis=2)
            if uniform:
                box_tests += width * parent_q.size
            else:
                inside &= kids >= 0
                box_tests += int(fanout[parents].sum())
            box_visits += parent_q.size
            pushes = inside.sum(axis=1)
            if record_events:
                box_qids.append(parent_q)
                box_nodes.append(parents)
                box_pushes.append(pushes)
            # Columns run in pop order, so a child's siblings pushed
            # before it sit to its right.
            pushed_before = np.cumsum(inside[:, ::-1], axis=1)[:, ::-1] - inside
            pending = (pending[inner][:, None] + pushed_before)[inside]
            node = kids[inside]
            qid = np.repeat(parent_q, pushes)

        # (query, rank) packed into one int is unique per visit, so one
        # argsort orders the visits query-major, each query in rank order.
        span = rank.shape[0]
        bounds = np.arange(num_queries + 1, dtype=_INT) * span
        leaves = _cat(leaf_nodes)
        keys = _cat(leaf_qids) * span + rank[leaves]
        order = np.argsort(keys, kind="stable")
        leaves = leaves[order]
        leaf_counts = counts[leaves]
        ends = np.zeros(leaves.size + 1, dtype=_INT)
        np.cumsum(leaf_counts, out=ends[1:])
        cand_starts = ends[np.searchsorted(keys[order], bounds)]
        cand_prims = prim_indices[
            np.repeat(firsts[leaves], leaf_counts)
            + _segmented_arange(leaf_counts, int(ends[-1]))
        ]

        ev_codes = ev_idents = ev_payloads = ev_starts = None
        if record_events:
            # Each internal visit emits its box event, then its stack event.
            visited = _cat(box_nodes)
            keys = _cat(box_qids) * span + rank[visited]
            order = np.argsort(keys, kind="stable")
            visited = visited[order]
            ev_codes = np.empty(2 * visited.size, dtype=_INT)
            ev_codes[0::2] = box_code
            ev_codes[1::2] = stack_code
            ev_idents = np.full(2 * visited.size, -1, dtype=_INT)
            ev_idents[0::2] = visited
            ev_payloads = np.empty(2 * visited.size, dtype=_INT)
            ev_payloads[0::2] = fanout[visited]
            ev_payloads[1::2] = _cat(box_pushes)[order]
            ev_starts = 2 * np.searchsorted(keys[order], bounds)

        counters = (
            nodes_visited, box_visits, box_tests, int(leaves.size),
            max_pending + 1,
        )
        return (
            cand_starts, cand_prims,
            ev_codes, ev_idents, ev_payloads, ev_starts,
            counters,
        )

    # -- k-d level-synchronous descent (repro/kdtree/search.py) -----------

    def kd_plane_step(
        self,
        queries: np.ndarray,
        internal: np.ndarray,
        node: np.ndarray,
        split_dim: np.ndarray,
        split_value: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One lockstep plane-test step of the batched k-d descent.

        Advances ``node[internal]`` to each query's near child (mutated in
        place) and returns ``(axes, far, far_contrib)``: the split axis,
        the unexplored far sibling, and its squared plane offset — the
        inputs of the Arya & Mount incremental-distance bookkeeping the
        caller maintains per query.
        """
        ni = node[internal]
        axes = split_dim[ni]
        diff = queries[internal, axes] - split_value[ni]
        far_contrib = diff * diff
        goes_left = diff < 0.0
        node[internal] = np.where(goes_left, left[ni], right[ni])
        far = np.where(goes_left, right[ni], left[ni])
        return axes, far, far_contrib

    def segmented_gather(
        self, firsts: np.ndarray, counts: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Concatenated ``indices[firsts[i] : firsts[i] + counts[i]]`` rows.

        The leaf-point gather both tree engines use: segment ``i``'s
        elements appear contiguously, in index order.
        """
        total = int(counts.sum())
        offsets = np.repeat(firsts, counts) + _segmented_arange(counts, total)
        return indices[offsets]

    # -- B-tree level-synchronous descent (repro/btree/btree.py) ----------

    def btree_descend(
        self,
        probes: np.ndarray,
        root: int,
        is_leaf: np.ndarray,
        sep_off: np.ndarray,
        sep_cnt: np.ndarray,
        sep_vals: np.ndarray,
        child_off: np.ndarray,
        child_idx: np.ndarray,
        key_cnt: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level-synchronous descent of every probe to its leaf.

        Returns ``(trail_nodes, trail_payloads)``, each ``(levels, Q)``:
        row ``l`` is the node each probe visits at depth ``l`` and its
        event payload (separator count for internal levels, key count for
        the final leaf row) — exactly the KEY_COMPARE/leaf-scan trail the
        scalar ``lookup`` records.  Bulk-loaded trees have uniform leaf
        depth, so every probe walks the same number of levels.
        """
        count = probes.shape[0]
        trail_nodes: list[np.ndarray] = []
        trail_payloads: list[np.ndarray] = []
        current = np.full(count, root, dtype=_INT)
        while not is_leaf[current[0]]:
            payloads = np.empty(count, dtype=_INT)
            nxt = np.empty(count, dtype=_INT)
            # Few distinct nodes per level (the branch factor is 256).
            for node_id in sorted(set(current.tolist())):
                seps = sep_vals[sep_off[node_id] : sep_off[node_id]
                                + sep_cnt[node_id]]
                mask = current == node_id
                payloads[mask] = seps.size
                child = np.searchsorted(seps, probes[mask], side="right")
                nxt[mask] = child_idx[child_off[node_id] + child]
            trail_nodes.append(current)
            trail_payloads.append(payloads)
            current = nxt
        trail_nodes.append(current)
        trail_payloads.append(key_cnt[current])
        return np.stack(trail_nodes), np.stack(trail_payloads)

    def sorted_membership(
        self, sorted_keys: np.ndarray, probes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-batch membership probe against a sorted key array.

        Returns ``(clipped_positions, found)``: the insertion position of
        each probe clipped into range, and whether the key at that
        position matches — the B-tree leaf resolution kernel.
        """
        position = np.searchsorted(sorted_keys, probes)
        clipped = np.minimum(position, sorted_keys.size - 1)
        found = (position < sorted_keys.size) & (
            sorted_keys[clipped] == probes
        )
        return clipped, found

    # -- packed-stream warp grouping (repro/compiler/assembler.py) --------

    def warp_group_order(
        self,
        warp: np.ndarray,
        pos: np.ndarray,
        kinds: np.ndarray,
        k1: np.ndarray,
        k2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sort a run's packed ops into emission groups, every warp at once.

        Rows arrive thread-major: each thread's ops in stream order, the
        threads in lane order.  A stable sort by (position, shape key)
        keeps equal ops in that order, so each warp's members of a group
        are contiguous and in lane order; group boundaries fall where the
        warp or any key component changes; groups order by (warp,
        position, first member's row) — reproducing the scalar bucketer's
        first-appearance order.  Returns ``(order, group_lo, group_hi,
        group_order)`` over the sorted view.
        """
        count = pos.shape[0]
        order = np.lexsort((k2, k1, kinds, pos))
        new_group = np.zeros(count, dtype=bool)
        new_group[:1] = True
        # Compare one sorted key at a time: a whole run's grouping then
        # holds one sorted copy of a key, not one per key.
        for key in (warp, pos, kinds, k1, k2):
            ordered = key[order]
            new_group[1:] |= ordered[1:] != ordered[:-1]
            del ordered
        group_lo = np.flatnonzero(new_group)
        group_hi = np.append(group_lo, count)[1:]
        # Rows are thread-major, so at one (warp, position) the first
        # members' rows order the groups by first lane.
        first = order[group_lo]
        group_order = np.lexsort((first, pos[first], warp[first]))
        return order, group_lo, group_hi, group_order

    # -- warp-load coalescing (repro/gpusim/gpu.py) -----------------------

    def coalesce_lines(
        self, addrs: tuple[int, ...], bytes_per_thread: int, line_bytes: int
    ) -> list[int]:
        """Unique cache-line addresses touched by a warp load, sorted.

        The per-cycle path's scalar oracle (:meth:`SmCore.issue
        <repro.gpusim.gpu.SmCore.issue>`): it works from the raw
        addresses, one at a time, independently of the event engine's
        vectorized pack (:mod:`repro.gpusim.soa`).
        """
        span = max(1, bytes_per_thread)
        lines = set()
        add = lines.add
        if span <= line_bytes:
            # Common case: each access straddles at most two lines.
            for base in addrs:
                first = base - base % line_bytes
                add(first)
                last = base + span - 1
                add(last - last % line_bytes)
        else:
            for base in addrs:
                first = (base // line_bytes) * line_bytes
                last = ((base + span - 1) // line_bytes) * line_bytes
                lines.update(range(first, last + 1, line_bytes))
        return sorted(lines)
