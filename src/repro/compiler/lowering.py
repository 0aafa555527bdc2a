"""Lower warp-op streams into baseline SIMD and HSU instruction traces.

``lower_baseline`` expands every HSU-able op into the SIMD sequence the
CUDA kernel executes without RT hardware — operand loads, FMA chains, warp
reductions, slab tests, compare loops — tagging those instructions
``hsu_able`` (the Fig. 7 attribution).  ``lower_hsu`` replaces the same ops
with HSU CISC instructions (Table I) and leaves everything else identical.

Two execution styles (§V-A):

* ``cooperative`` — a thread block serves one query (GGNN, Rodinia b+tree):
  the warp computes one candidate distance at a time with coalesced loads
  and a warp reduction; with the HSU, each lane instead takes one candidate.
* ``parallel`` — one thread serves one query (FLANN, BVH-NN): per-thread
  scalar sequences with scattered loads; active masks thin as queries
  finish (the divergence regime the single-lane datapath targets).

Each warp-op kind lowers to a fixed instruction pattern, like the fixed
SASS sequences the paper's trace post-processor rewrites (§V), so a whole
run lowers in one numpy pass over its op table
(:class:`~repro.compiler.ops.WarpOps`): :class:`_Rows` emits each
pattern's instructions for all ops of its kind at once, straight into the
columns of a :class:`~repro.gpusim.trace.KernelTrace` (validated once,
there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.compiler.ops import (
    METRIC_ANGULAR,
    PACKED_METRICS,
    PACKED_TALU,
    PACKED_TBOX,
    PACKED_TDIST,
    PACKED_TKEYCMP,
    PACKED_TLOAD,
    PACKED_TSFU,
    PACKED_TSHARED,
    PACKED_TTRI,
    WarpOps,
)
from repro.core.isa import (
    EUCLID_WIDTH,
    KEY_COMPARE_WIDTH,
    Opcode,
    angular_width,
)
from repro.core.multibeat import beat_count
from repro.errors import TraceError
from repro.gpusim.trace import (
    COLUMNS,
    KIND_ALU,
    KIND_CODES,
    KIND_HSU,
    KIND_LDG,
    KIND_LDS,
    KIND_SFU,
    OPCODES,
    KernelTrace,
)
from repro.search.events import segmented_arange

STYLE_COOPERATIVE = "cooperative"
STYLE_PARALLEL = "parallel"


@dataclass(frozen=True)
class CostModel:
    """Instruction-count model for the baseline SIMD expansions.

    Counts approximate the SASS a compiler emits for each operation; the
    experiments' results are ratios, so only relative magnitudes matter.
    """

    #: Lanes cooperating on one distance (warp width).
    coop_width: int = 32
    #: Warp-reduction instructions (shuffle + add per tree level).
    reduce_alu: int = 10
    #: Slab-test instructions per box: translate (6), scale by inverse
    #: direction (6), min/max trees (9), interval clamp + hit test (3).
    box_alu_per_box: int = 28
    #: Watertight triangle-test instructions (translate, shear, edge
    #: functions, determinant, interval tests, plus address math).
    tri_alu: int = 48
    #: Cooperative key-compare overhead: ballot, popcount, shared-flag
    #: reduction and the two block-wide __syncthreads of the Rodinia kernel
    #: (which runs 256-thread blocks — 8 warps of overhead per node).
    keycmp_alu_base: int = 8
    #: Instructions per 32-separator block of a cooperative key-compare
    #: (load-to-register shuffle, compare, predicate update, index math).
    keycmp_alu_per_block: int = 4
    #: SFU ops for the angular epilogue (rsqrt + divide) — outside the HSU
    #: in both designs (§IV-E).
    angular_epilogue_sfu: int = 2
    #: Separate load instructions per child box in the baseline slab test
    #: (vec4 halves of the 6 plane floats + the child pointer).  Each load
    #: re-touches the node's cache lines — the sequential accesses a single
    #: HSU CISC fetch coalesces away (§VI-J, Fig. 12).
    box_loads_per_child: int = 3
    #: Separate loads of a triangle's three vertices.
    tri_loads: int = 3
    #: Separate loads of a low-dimensional point in scalar code.
    scalar_dist_loads: int = 2

    def scalar_dist_alu(self, dim: int) -> int:
        """Per-thread scalar distance: subs, FMAs, compare, address math."""
        return 2 * dim + 5

    def scalar_dist_chain(self, dim: int) -> int:
        """Dependent chain of the scalar distance (serial FMA accumulate)."""
        return dim + 3

    def coop_dist_alu(self, dim: int, metric: str) -> int:
        """Cooperative distance: FMA chain plus warp reduction."""
        chains = 2 if metric == METRIC_ANGULAR else 1
        fma = math.ceil(dim / self.coop_width) * chains
        return fma + self.reduce_alu * chains

    def coop_dist_chain(self, dim: int, metric: str) -> int:
        """Dependent chain: serial per-thread FMA accumulation, then the
        shuffle/add reduction tree (dot and norm chains run in parallel)."""
        del metric  # independent chains overlap; length set by one chain
        return math.ceil(dim / self.coop_width) + self.reduce_alu

    def box_chain(self, num_boxes: int) -> int:
        """Dependent chain of the slab test (boxes overlap via ILP)."""
        return 6 + 3 * num_boxes

    #: Dependent chain of the watertight triangle test.
    tri_chain: int = 12
    #: Dependent chain of a key-compare block (compare -> ballot -> popc).
    keycmp_chain: int = 4


def lower_baseline(
    table: WarpOps,
    style: str,
    cost: CostModel | None = None,
    name: str = "",
    labels: list[str] | None = None,
) -> KernelTrace:
    """Expand every warp's op stream into the non-RT SIMD trace."""
    cost = cost if cost is not None else CostModel()
    rows = _Rows(table)
    a, active = table.a, table.active
    dist = table.select(PACKED_TDIST)
    if dist.size:
        if style == STYLE_COOPERATIVE:
            _coop_dist(rows, dist, cost)
        elif style == STYLE_PARALLEL:
            _parallel_dist(rows, dist, cost)
        else:
            raise TraceError(f"unknown lowering style {style!r}")
    box = table.select(PACKED_TBOX)
    loads = rows.split_loads(box, table.b[box], cost.box_loads_per_child * a[box])
    rows.emit(
        box, loads, KIND_ALU, active[box],
        repeat=cost.box_alu_per_box * a[box], able=1,
        chain=_per_value(cost.box_chain, a[box]),
    )
    tri = table.select(PACKED_TTRI)
    loads = rows.split_loads(tri, 48, cost.tri_loads)
    rows.emit(
        tri, loads, KIND_ALU, active[tri],
        repeat=cost.tri_alu, able=1, chain=cost.tri_chain,
    )
    keycmp = table.select(PACKED_TKEYCMP)
    separators = a[keycmp]
    rows.emit(
        keycmp, 0, KIND_LDG, active[keycmp],
        addrs=_ALL, size=separators * 4, able=1,
    )
    if style == STYLE_COOPERATIVE:
        compares = (
            _ceil_div(separators, cost.coop_width) * cost.keycmp_alu_per_block
            + cost.keycmp_alu_base
        )
    else:
        compares = separators + cost.keycmp_alu_base
    rows.emit(
        keycmp, 1, KIND_ALU, active[keycmp],
        repeat=compares, able=1, chain=cost.keycmp_chain,
    )
    _lower_common(rows)
    return rows.trace(name, labels)


def lower_hsu(
    table: WarpOps,
    style: str,
    cost: CostModel | None = None,
    euclid_width: int = EUCLID_WIDTH,
    name: str = "",
    labels: list[str] | None = None,
) -> KernelTrace:
    """Replace HSU-able ops with HSU CISC instructions (Table I).

    ``euclid_width`` is the Euclidean datapath width (Fig. 10 sweeps it);
    the angular mode runs at :func:`~repro.core.isa.angular_width` of it.
    A distance chain fetches exactly the candidate's ``dim * 4`` bytes,
    split evenly over its beats; the last beat's lanes beyond ``dim`` are
    disabled, not fetched.  Every HSU instruction has one active thread
    per fetch address.
    """
    cost = cost if cost is not None else CostModel()
    dist_modes = (
        (Opcode.POINT_EUCLID, euclid_width),
        (Opcode.POINT_ANGULAR, angular_width(euclid_width)),
    )
    rows = _Rows(table)
    a, lanes = table.a, table.num_addrs
    dist = table.select(PACKED_TDIST)
    for metric, (opcode, width) in enumerate(dist_modes):
        ops = dist[table.metric[dist] == metric]
        dim = a[ops]
        beats = _per_value(lambda d, width=width: beat_count(d, width), dim)
        rows.emit(
            ops, 0, KIND_HSU, lanes[ops], addrs=_ALL,
            size=_ceil_div(dim * 4, beats), opcode=opcode, beats=beats,
        )
        if metric == _ANGULAR:
            # Scalar rsqrt + divide stay on the SFU (§IV-E); with the
            # HSU every lane holds its own candidate, so the epilogue
            # runs thread-parallel.
            rows.emit(
                ops, 1, KIND_SFU, lanes[ops],
                repeat=cost.angular_epilogue_sfu,
            )
    box = table.select(PACKED_TBOX)
    rows.emit(
        box, 0, KIND_HSU, lanes[box], addrs=_ALL,
        size=table.b[box], opcode=Opcode.RAY_INTERSECT,
    )
    tri = table.select(PACKED_TTRI)
    rows.emit(
        tri, 0, KIND_HSU, lanes[tri], addrs=_ALL,
        size=48, opcode=Opcode.RAY_INTERSECT,
    )
    keycmp = table.select(PACKED_TKEYCMP)
    separators = a[keycmp]
    beats = _per_value(lambda s: beat_count(s, KEY_COMPARE_WIDTH), separators)
    rows.emit(
        keycmp, 0, KIND_HSU, lanes[keycmp], addrs=_ALL,
        size=_ceil_div(separators * 4, beats), opcode=Opcode.KEY_COMPARE,
        beats=beats,
    )
    _lower_common(rows)
    return rows.trace(name, labels)


def _coop_dist(rows: _Rows, ops: np.ndarray, cost: CostModel) -> None:
    """The warp processes candidates one at a time: a coalesced load of
    the candidate vector, an FMA chain, and a warp reduction each."""
    table = rows.table
    per_op = table.num_addrs[ops]
    each = np.repeat(ops, per_op)  # one entry per candidate
    candidate = segmented_arange(per_op)
    dim = table.a[each]
    angular = table.metric[each] == _ANGULAR
    slot = candidate * (2 + angular)
    # One record standing for the ceil(bytes/128) vectorized load
    # instructions the warp issues; completion waits for all lines (first
    # use), issue slots charged via repeat.
    rows.emit(
        each, slot, KIND_LDG, 32, addrs=table.addr_offsets[each] + candidate,
        size=dim * 4, repeat=np.maximum(1, _ceil_div(dim * 4, 128)), able=1,
    )
    shape = dim * 2 + angular  # (dim, metric) of the cost model
    rows.emit(
        each, slot + 1, KIND_ALU, 32, able=1,
        repeat=_per_value(
            lambda key: cost.coop_dist_alu(key >> 1, PACKED_METRICS[key & 1]),
            shape,
        ),
        chain=_per_value(
            lambda key: cost.coop_dist_chain(key >> 1, PACKED_METRICS[key & 1]),
            shape,
        ),
    )
    rows.emit(
        each[angular], slot[angular] + 2, KIND_SFU, 32,
        repeat=cost.angular_epilogue_sfu,
    )


def _parallel_dist(rows: _Rows, ops: np.ndarray, cost: CostModel) -> None:
    """Each thread computes its own candidate's distance: scattered loads
    plus a scalar arithmetic sequence."""
    table = rows.table
    dim = table.a[ops]
    loads = rows.split_loads(ops, dim * 4, cost.scalar_dist_loads)
    rows.emit(
        ops, loads, KIND_ALU, table.active[ops], able=1,
        repeat=_per_value(cost.scalar_dist_alu, dim),
        chain=_per_value(cost.scalar_dist_chain, dim),
    )
    angular = table.metric[ops] == _ANGULAR
    rows.emit(
        ops[angular], loads[angular] + 1, KIND_SFU, table.active[ops[angular]],
        repeat=cost.angular_epilogue_sfu,
    )


def _lower_common(rows: _Rows) -> None:
    """Ops that lower identically in both traces."""
    table = rows.table
    for code, kind in (
        (PACKED_TALU, KIND_ALU),
        (PACKED_TSHARED, KIND_LDS),
        (PACKED_TSFU, KIND_SFU),
    ):
        ops = table.select(code)
        rows.emit(
            ops, 0, kind, table.active[ops], repeat=np.maximum(1, table.a[ops])
        )
    load = table.select(PACKED_TLOAD)
    rows.emit(
        load, 0, KIND_LDG, table.active[load], addrs=_ALL, size=table.a[load]
    )


#: The angular metric's code in the op table.
_ANGULAR = PACKED_METRICS.index(METRIC_ANGULAR)
#: ``addrs=`` marker of :meth:`_Rows.emit`: the op's own addresses.
_ALL = "all"


def _ceil_div(num, den):
    return -(-num // den)


def _per_value(fn: Callable[[int], int], values: np.ndarray) -> np.ndarray:
    """``fn`` of every entry of ``values``, calling ``fn`` once per
    distinct value, so the cost-model and beat formulas stay scalar."""
    distinct = sorted(set(values.tolist()))
    table = np.array([fn(value) for value in distinct], dtype=np.int64)
    return table[np.searchsorted(np.array(distinct, dtype=np.int64), values)]


class _Rows:
    """The instruction rows of one trace, emitted pattern by pattern.

    Each op lowers to instructions at slots 0, 1, ... of its own stream
    position, so :meth:`emit` places a row at its op's first row plus its
    slot; the rows of different patterns never collide.
    """

    def __init__(self, table: WarpOps) -> None:
        self.table = table
        self.parts: list[tuple[np.ndarray, object, dict[str, object]]] = []

    def emit(
        self,
        ops: np.ndarray,
        slot,
        kind: str,
        active,
        *,
        addrs=None,
        shift=0,
        size=0,
        repeat=1,
        chain=1,
        able=0,
        opcode: Opcode | None = None,
        beats=1,
    ) -> None:
        """One ``kind`` instruction per entry of ``ops`` at ``slot``.

        ``addrs`` is ``None`` (no addresses), :data:`_ALL` (the op's
        addresses, each plus ``shift``) or an array of single op-address
        indices.  The other arguments are column values, scalars or one
        per entry of ``ops``.
        """
        if not ops.size:
            return
        if addrs is None:
            first, count = 0, 0
        elif addrs is _ALL:
            first, count = self.table.addr_offsets[ops], self.table.num_addrs[ops]
        else:
            first, count = addrs, 1
        self.parts.append((ops, slot, {
            "kind": KIND_CODES[kind],
            "active": active,
            "repeat": repeat,
            "chain": chain,
            "hsu_able": able,
            "opcode": -1 if opcode is None else OPCODES.index(opcode),
            "beats": beats,
            "bytes_per_thread": size,
            "first": first,
            "count": count,
            "shift": shift,
        }))

    def split_loads(self, ops: np.ndarray, total_bytes, num_loads) -> np.ndarray:
        """Baseline node/point fetch as up to ``num_loads`` separate load
        instructions per op, at slots 0, 1, ...; returns how many each op
        got.

        Real SASS loads a structure with several vectorized loads; with
        per-thread scattered bases, each load re-touches the same cache
        lines, so the L1 sees up to ``num_loads`` accesses per line where
        the HSU's CISC fetch sees one (Fig. 12).  Chunks never shrink
        below 4 bytes.
        """
        total_bytes = np.broadcast_to(total_bytes, ops.shape)
        num_loads = np.maximum(1, np.minimum(num_loads, _ceil_div(total_bytes, 4)))
        chunk = _ceil_div(total_bytes, num_loads)
        loads = np.where(total_bytes > 0, _ceil_div(total_bytes, np.maximum(chunk, 1)), 0)
        each = np.repeat(ops, loads)
        index = segmented_arange(loads)
        offset = index * np.repeat(chunk, loads)
        self.emit(
            each, index, KIND_LDG, self.table.active[each], addrs=_ALL,
            shift=offset, able=1,
            size=np.minimum(np.repeat(chunk, loads),
                            np.repeat(total_bytes, loads) - offset),
        )
        return loads

    def trace(self, name: str, labels: list[str] | None) -> KernelTrace:
        table = self.table
        per_op = np.zeros(table.kind.shape[0], dtype=np.int64)
        for ops, _slot, _values in self.parts:
            per_op += np.bincount(ops, minlength=per_op.shape[0])
        op_rows = np.concatenate(([0], np.cumsum(per_op)))
        columns = {
            key: np.empty(op_rows[-1], dtype=np.int64)
            for key in (*COLUMNS, "first", "count", "shift")
        }
        for ops, slot, values in self.parts:
            at = op_rows[ops] + slot
            for key, value in values.items():
                columns[key][at] = value
        first, count = columns.pop("first"), columns.pop("count")
        shift = columns.pop("shift")
        addrs = (
            table.addrs[np.repeat(first, count) + segmented_arange(count)]
            + np.repeat(shift, count)
        )
        warp_offsets = op_rows[table.warp_offsets]
        if labels is None:
            labels = [""] * (warp_offsets.shape[0] - 1)
        return KernelTrace.from_columns(
            name, labels, warp_offsets, np.concatenate(([0], np.cumsum(count))),
            addrs, **columns,
        )
