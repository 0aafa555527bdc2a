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


#: Child-slot offsets of a binary node (the fanout-2 traversal fast path).
_PAIR = np.array([0, 1], dtype=_INT)


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

    # -- BVH lockstep DFS (repro/bvh/traversal.py) ------------------------

    def bvh_point_query(
        self,
        queries: np.ndarray,
        is_leaf: np.ndarray,
        child_off: np.ndarray,
        child_cnt: np.ndarray,
        child_idx: np.ndarray,
        firsts: np.ndarray,
        counts: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        prim_indices: np.ndarray,
        root: int,
        record_events: bool,
        box_code: int,
        stack_code: int,
    ) -> tuple:
        """Lockstep per-query DFS point containment over a flat BVH.

        Every query keeps its own stack; each step pops one node per
        still-active query and the box tests, candidate gathers, and event
        appends for the whole front run as single vectorized operations.
        Per query the visit order — hence the candidate order and event
        stream — is identical to the scalar ``point_query`` loop.

        Returns ``(cand_starts, cand_prims, ev_codes, ev_idents,
        ev_payloads, ev_starts, counters)``: query-major CSR candidate and
        event arrays (event arrays are ``None`` unless ``record_events``)
        plus the aggregate counter tuple ``(nodes_visited,
        box_nodes_visited, box_tests, leaf_visits, max_stack_depth)``.
        """
        num_queries = queries.shape[0]
        capacity = 64
        stack = np.empty((num_queries, capacity), dtype=_INT)
        stack[:, 0] = root
        depth = np.ones(num_queries, dtype=_INT)
        # Binary trees (the default LBVH) take a constant-fanout fast path
        # below: every internal node pushes from exactly 2 children, so
        # the CSR expansions collapse into fixed (n, 2) reshapes.
        uniform2 = bool(np.all(child_cnt[~is_leaf] == 2))
        cand_q_parts: list[np.ndarray] = []
        cand_p_parts: list[np.ndarray] = []
        ev_parts: list[tuple[int, np.ndarray, object, np.ndarray]] = []
        nodes_visited = 0
        box_nodes = 0
        box_tests = 0
        leaf_visits = 0
        max_depth = 1

        active = np.arange(num_queries, dtype=_INT)
        while active.size:
            top = stack[active, depth[active] - 1]
            depth[active] -= 1
            leaf_mask = is_leaf[top]
            leaf_q = active[leaf_mask]
            internal_q = active[~leaf_mask]
            if leaf_q.size:
                leaf_n = top[leaf_mask]
                leaf_counts = counts[leaf_n]
                total = int(leaf_counts.sum())
                offsets = np.repeat(
                    firsts[leaf_n], leaf_counts
                ) + _segmented_arange(leaf_counts, total)
                cand_q_parts.append(np.repeat(leaf_q, leaf_counts))
                cand_p_parts.append(prim_indices[offsets])
                nodes_visited += int(leaf_q.size)
                leaf_visits += int(leaf_q.size)
            if internal_q.size:
                internal_n = top[~leaf_mask]
                fanouts = child_cnt[internal_n]
                if record_events:
                    ev_parts.append((box_code, internal_q, internal_n, fanouts))
                if uniform2:
                    # Constant fanout 2: the CSR expansion degenerates
                    # into (n, 2)-shaped reshapes.  Values are identical
                    # to the general path below — child order is
                    # (left, right) per node either way, and the
                    # within-node pass ranks match segmented_arange.
                    n_int = internal_q.size
                    total = 2 * n_int
                    children = child_idx[
                        (child_off[internal_n][:, None] + _PAIR).ravel()
                    ]
                    boxes_lo = lo[children].reshape(n_int, 2, 3)
                    boxes_hi = hi[children].reshape(n_int, 2, 3)
                    rows = queries[internal_q][:, None, :]
                    inside2 = ((boxes_lo <= rows) & (rows <= boxes_hi)).all(
                        axis=2
                    )
                    pushes = inside2.sum(axis=1, dtype=_INT)
                    inside = inside2.ravel()
                else:
                    total = int(fanouts.sum())
                    children = child_idx[
                        np.repeat(child_off[internal_n], fanouts)
                        + _segmented_arange(fanouts, total)
                    ]
                    query_rows = queries[np.repeat(internal_q, fanouts)]
                    inside = np.all(
                        (lo[children] <= query_rows)
                        & (query_rows <= hi[children]),
                        axis=1,
                    )
                    segment = np.repeat(
                        np.arange(internal_q.size, dtype=_INT), fanouts
                    )
                    pushes = np.bincount(
                        segment[inside], minlength=internal_q.size
                    )
                if record_events:
                    ev_parts.append((stack_code, internal_q, -1, pushes))
                nodes_visited += int(internal_q.size)
                box_nodes += int(internal_q.size)
                box_tests += total
                passing = children[inside]
                if passing.size:
                    base_depth = depth[internal_q]
                    need = int((base_depth + pushes).max())
                    if need > capacity:
                        while capacity < need:
                            capacity *= 2
                        grown = np.empty((num_queries, capacity), dtype=_INT)
                        grown[:, : stack.shape[1]] = stack
                        stack = grown
                    if uniform2:
                        hits = np.flatnonzero(inside)
                        seg_pass = hits >> 1
                        # The right child ranks second only when the left
                        # child also passed.
                        rank = (hits & 1) * inside2[seg_pass, 0]
                    else:
                        seg_pass = segment[inside]
                        rank = _segmented_arange(pushes, passing.size)
                    stack[
                        internal_q[seg_pass], base_depth[seg_pass] + rank
                    ] = passing
                    depth[internal_q] = base_depth + pushes
            active = np.flatnonzero(depth > 0)
            if active.size:
                step_max = int(depth[active].max())
                if step_max > max_depth:
                    max_depth = step_max

        cand_qids = (
            np.concatenate(cand_q_parts) if cand_q_parts
            else np.empty(0, _INT)
        )
        cand_prims = (
            np.concatenate(cand_p_parts) if cand_p_parts
            else np.empty(0, _INT)
        )
        # Stable sort by query id: per query, step order == scalar pop
        # order (the same finalize the EventBuffer applies to events).
        order = np.argsort(cand_qids, kind="stable")
        cand_prims = cand_prims[order]
        cand_counts = np.bincount(cand_qids, minlength=num_queries)
        cand_starts = np.zeros(num_queries + 1, dtype=_INT)
        np.cumsum(cand_counts, out=cand_starts[1:])

        ev_codes = ev_idents = ev_payloads = ev_starts = None
        if record_events:
            sizes = [part[1].shape[0] for part in ev_parts]
            total_ev = int(sum(sizes))
            ev_qids = np.empty(total_ev, dtype=_INT)
            ev_codes = np.empty(total_ev, dtype=_INT)
            ev_idents = np.empty(total_ev, dtype=_INT)
            ev_payloads = np.empty(total_ev, dtype=_INT)
            at = 0
            for (code, qids, idents, payloads), size in zip(ev_parts, sizes):
                span = slice(at, at + size)
                ev_qids[span] = qids
                ev_codes[span] = code
                ev_idents[span] = idents
                ev_payloads[span] = payloads
                at += size
            ev_order = np.argsort(ev_qids, kind="stable")
            ev_codes = ev_codes[ev_order]
            ev_idents = ev_idents[ev_order]
            ev_payloads = ev_payloads[ev_order]
            ev_counts = np.bincount(ev_qids, minlength=num_queries)
            ev_starts = np.zeros(num_queries + 1, dtype=_INT)
            np.cumsum(ev_counts, out=ev_starts[1:])

        counters = (nodes_visited, box_nodes, box_tests, leaf_visits, max_depth)
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
