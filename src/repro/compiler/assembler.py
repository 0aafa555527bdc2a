"""Zip per-query thread op streams into warp-level op streams.

Thread-per-query kernels (FLANN, BVH-NN, B-tree lookups) put 32 queries in a
warp; the warp executes in lockstep over op positions.  When the queries'
streams diverge — different op kinds at the same position, or streams of
different lengths — the SIMT hardware serializes: we emit one warp op per
distinct op shape at each position, with the active mask of the threads on
that path.  Later positions naturally thin out the active mask, which is
exactly the sparse-mask regime the single-lane HSU datapath is built for
(§IV-B).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compiler.ops import (
    PACKED_TALU,
    PACKED_TBOX,
    PACKED_TDIST,
    PACKED_TSFU,
    PACKED_TSHARED,
    PACKED_TTRI,
    TAlu,
    TBox,
    TDist,
    TKeyCmp,
    TLoad,
    TSfu,
    TShared,
    TTri,
    ThreadOp,
    WarpOp,
    WarpOps,
)
from repro.errors import TraceError
from repro.kernels import get_backend
from repro.search.events import segmented_arange

WARP_SIZE = 32


class PackedStreams:
    """Array-backed thread-op streams (the batch-engine op IR).

    Thread ``i``'s ops are rows ``[starts[i], starts[i + 1])`` in stream
    order.  Per row: ``kinds`` is a
    :data:`~repro.compiler.ops.PACKED_KINDS` code; ``k1``/``k2``
    mirror the scalar assembler's shape key (TDist: dim / metric code;
    TBox: num_boxes / node_bytes; TKeyCmp and TLoad: k1 only); ``addr`` is
    the memory address of addressed kinds; ``cnt`` the instruction count
    of uniform kinds (TAlu/TShared/TSfu).
    """

    __slots__ = ("starts", "kinds", "k1", "k2", "addr", "cnt")

    def __init__(self, starts, kinds, k1, k2, addr, cnt) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.kinds = kinds
        self.k1 = k1
        self.k2 = k2
        self.addr = addr
        self.cnt = cnt

    @property
    def num_threads(self) -> int:
        return self.starts.shape[0] - 1


def assemble_warps_packed(
    streams: PackedStreams, warp_size: int = WARP_SIZE
) -> WarpOps:
    """:func:`assemble_warps` over packed streams, straight into columns:
    the table :meth:`WarpOps.from_records` builds from the scalar
    assembler's records, column for column.

    One grouping pass covers every warp of the run: ops sort stably by
    (position, shape key) and split where the warp or the key changes,
    so members stay in lane order; groups order by (warp, position, first
    member lane), reproducing the scalar bucketer's first-appearance
    order.  The equivalence tests and the trace goldens pin the table
    against the scalar assembler.
    """
    num_threads = streams.num_threads
    if num_threads == 0:
        raise TraceError("no thread streams to assemble")
    if not 1 <= warp_size <= WARP_SIZE:
        raise TraceError(f"warp_size {warp_size} outside [1, {WARP_SIZE}]")
    starts = streams.starts
    span = slice(int(starts[0]), int(starts[-1]))
    lengths = np.diff(starts)
    warp = np.repeat(np.arange(num_threads, dtype=np.int32) // warp_size, lengths)
    kind, k1, k2 = streams.kinds[span], streams.k1[span], streams.k2[span]
    order, group_lo, group_hi, group_order = get_backend().warp_group_order(
        warp, segmented_arange(lengths), kind, k1, k2
    )
    # One op per group, in emission order; ``head`` is its first member.
    lo = group_lo[group_order]
    active = group_hi[group_order] - lo
    head = order[lo]
    op_kind = kind[head]
    uniform = np.isin(op_kind, (PACKED_TALU, PACKED_TSHARED, PACKED_TSFU))
    a = np.where(op_kind == PACKED_TTRI, 0, k1[head])
    if uniform.any():
        # Lockstep: the warp spends max(count) instructions.
        most = np.maximum.reduceat(streams.cnt[span][order], group_lo)
        a[uniform] = most[group_order][uniform]
    num_addrs = np.where(uniform, 0, active)
    members = np.repeat(lo, num_addrs) + segmented_arange(num_addrs)
    per_warp = np.bincount(warp[head], minlength=-(-num_threads // warp_size))
    return WarpOps(
        op_kind,
        active,
        a,
        np.where(op_kind == PACKED_TBOX, k2[head], 0),
        np.where(op_kind == PACKED_TDIST, k2[head], 0),
        np.concatenate(([0], np.cumsum(num_addrs))),
        streams.addr[span][order[members]],
        np.concatenate(([0], np.cumsum(per_warp))),
    )


def _shape_key(op: ThreadOp) -> tuple:
    """Ops with the same key execute together as one warp instruction."""
    if isinstance(op, TDist):
        return ("TDist", op.dim, op.metric)
    if isinstance(op, TBox):
        return ("TBox", op.num_boxes, op.node_bytes)
    if isinstance(op, TTri):
        return ("TTri",)
    if isinstance(op, TKeyCmp):
        return ("TKeyCmp", op.num_separators)
    if isinstance(op, TAlu):
        return ("TAlu",)
    if isinstance(op, TShared):
        return ("TShared",)
    if isinstance(op, TSfu):
        return ("TSfu",)
    if isinstance(op, TLoad):
        return ("TLoad", op.num_bytes)
    raise TraceError(f"unknown thread op {op!r}")


def _to_warp_op(key: tuple, ops: list[ThreadOp]) -> WarpOp:
    kind, active = key[0], len(ops)
    if kind in ("TAlu", "TShared", "TSfu"):
        # Lockstep: the warp spends max(count) instructions.
        count = max(op.count for op in ops)  # type: ignore[union-attr]
        return WarpOp(kind, (), active, a=count)
    addrs = tuple(op.addr for op in ops)  # type: ignore[union-attr]
    if kind == "TDist":
        return WarpOp(kind, addrs, active, a=key[1], meta=key[2])
    if kind == "TBox":
        return WarpOp(kind, addrs, active, a=key[1], b=key[2])
    # TTri carries no payload; TKeyCmp and TLoad carry one count.
    return WarpOp(kind, addrs, active, a=key[1] if len(key) > 1 else 0)


def assemble_warps(
    thread_streams: Sequence[Sequence[ThreadOp]], warp_size: int = WARP_SIZE
) -> list[list[WarpOp]]:
    """Group thread streams into warps and zip each warp's streams.

    Returns one warp-op list per warp of up to ``warp_size`` consecutive
    thread streams.
    """
    if not thread_streams:
        raise TraceError("no thread streams to assemble")
    if not 1 <= warp_size <= WARP_SIZE:
        raise TraceError(f"warp_size {warp_size} outside [1, {WARP_SIZE}]")
    warps: list[list[WarpOp]] = []
    for base in range(0, len(thread_streams), warp_size):
        group = thread_streams[base : base + warp_size]
        warps.append(_zip_group(group))
    return warps


def _zip_group(group: Sequence[Sequence[ThreadOp]]) -> list[WarpOp]:
    warp_ops: list[WarpOp] = []
    longest = max(len(stream) for stream in group)
    for position in range(longest):
        buckets: dict[tuple, list[ThreadOp]] = {}
        order: list[tuple] = []
        for stream in group:
            if position >= len(stream):
                continue  # thread has exited: inactive lane
            op = stream[position]
            key = _shape_key(op)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [op]
                order.append(key)
            else:
                bucket.append(op)
        # Serialized execution of divergent paths, deterministic order.
        for key in order:
            warp_ops.append(_to_warp_op(key, buckets[key]))
    return warp_ops
