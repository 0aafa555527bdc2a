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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compiler.ops import METRIC_ANGULAR, METRIC_EUCLID, WarpOp
from repro.core.isa import (
    EUCLID_WIDTH,
    KEY_COMPARE_WIDTH,
    Opcode,
    angular_width,
)
from repro.core.multibeat import beat_count
from repro.errors import TraceError
from repro.gpusim.trace import (
    KIND_ALU,
    KIND_HSU,
    KIND_LDG,
    KIND_LDS,
    KIND_SFU,
    WarpInstr,
    WarpTrace,
)

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
    warp_ops: list[WarpOp],
    style: str,
    cost: CostModel | None = None,
    label: str = "",
) -> WarpTrace:
    """Expand a warp-op stream into the non-RT SIMD trace."""
    cost = cost if cost is not None else CostModel()
    trace = WarpTrace(label=label)
    emit = trace.append
    for op in warp_ops:
        if op.kind == "TDist":
            _baseline_dist(emit, op, style, cost)
        elif op.kind == "TBox":
            _emit_split_loads(
                emit, op.addrs, op.active, op.b,
                cost.box_loads_per_child * op.a,
            )
            emit(
                WarpInstr(
                    KIND_ALU,
                    active=op.active,
                    repeat=cost.box_alu_per_box * op.a,
                    hsu_able=True,
                    chain=cost.box_chain(op.a),
                )
            )
        elif op.kind == "TTri":
            _emit_split_loads(emit, op.addrs, op.active, 48, cost.tri_loads)
            emit(
                WarpInstr(
                    KIND_ALU,
                    active=op.active,
                    repeat=cost.tri_alu,
                    hsu_able=True,
                    chain=cost.tri_chain,
                )
            )
        elif op.kind == "TKeyCmp":
            emit(
                WarpInstr(
                    KIND_LDG,
                    active=op.active,
                    addrs=op.addrs,
                    bytes_per_thread=op.a * 4,
                    hsu_able=True,
                )
            )
            if style == STYLE_COOPERATIVE:
                compares = (
                    math.ceil(op.a / cost.coop_width) * cost.keycmp_alu_per_block
                    + cost.keycmp_alu_base
                )
            else:
                compares = op.a + cost.keycmp_alu_base
            emit(
                WarpInstr(
                    KIND_ALU,
                    active=op.active,
                    repeat=compares,
                    hsu_able=True,
                    chain=cost.keycmp_chain,
                )
            )
        else:
            _lower_common(emit, op)
    return trace


def lower_hsu(
    warp_ops: list[WarpOp],
    style: str,
    cost: CostModel | None = None,
    euclid_width: int = EUCLID_WIDTH,
    label: str = "",
) -> WarpTrace:
    """Replace HSU-able ops with HSU CISC instructions (Table I).

    ``euclid_width`` is the Euclidean datapath width (Fig. 10 sweeps it);
    the angular mode runs at :func:`~repro.core.isa.angular_width` of it.
    A distance chain fetches exactly the candidate's ``dim * 4`` bytes,
    split evenly over its beats; the last beat's lanes beyond ``dim`` are
    disabled, not fetched.
    """
    cost = cost if cost is not None else CostModel()
    dist_modes = {
        METRIC_EUCLID: (Opcode.POINT_EUCLID, euclid_width),
        METRIC_ANGULAR: (Opcode.POINT_ANGULAR, angular_width(euclid_width)),
    }
    trace = WarpTrace(label=label)
    emit = trace.append
    for op in warp_ops:
        if op.kind == "TDist":
            if op.meta not in dist_modes:
                raise TraceError(f"unknown metric {op.meta!r}")
            opcode, width = dist_modes[op.meta]
            beats = beat_count(op.a, width)
            emit(
                WarpInstr(
                    KIND_HSU,
                    active=len(op.addrs),
                    addrs=op.addrs,
                    bytes_per_thread=math.ceil(op.a * 4 / beats),
                    opcode=opcode,
                    beats=beats,
                )
            )
            if op.meta == METRIC_ANGULAR:
                # Scalar rsqrt + divide stay on the SFU (§IV-E); with the
                # HSU every lane holds its own candidate, so the epilogue
                # runs thread-parallel.
                emit(
                    WarpInstr(
                        KIND_SFU,
                        active=len(op.addrs),
                        repeat=cost.angular_epilogue_sfu,
                    )
                )
        elif op.kind == "TBox":
            emit(
                WarpInstr(
                    KIND_HSU,
                    active=len(op.addrs),
                    addrs=op.addrs,
                    bytes_per_thread=op.b,
                    opcode=Opcode.RAY_INTERSECT,
                )
            )
        elif op.kind == "TTri":
            emit(
                WarpInstr(
                    KIND_HSU,
                    active=len(op.addrs),
                    addrs=op.addrs,
                    bytes_per_thread=48,
                    opcode=Opcode.RAY_INTERSECT,
                )
            )
        elif op.kind == "TKeyCmp":
            beats = beat_count(op.a, KEY_COMPARE_WIDTH)
            emit(
                WarpInstr(
                    KIND_HSU,
                    active=len(op.addrs),
                    addrs=op.addrs,
                    bytes_per_thread=math.ceil(op.a * 4 / beats),
                    opcode=Opcode.KEY_COMPARE,
                    beats=beats,
                )
            )
        else:
            _lower_common(emit, op)
    return trace


def _baseline_dist(emit, op: WarpOp, style: str, cost: CostModel) -> None:
    if style == STYLE_COOPERATIVE:
        # The warp processes candidates one at a time: a coalesced load of
        # the candidate vector, an FMA chain, and a warp reduction each.
        for addr in op.addrs:
            # One record standing for the ceil(bytes/128) vectorized load
            # instructions the warp issues; completion waits for all lines
            # (first use), issue slots charged via repeat.
            emit(
                WarpInstr(
                    KIND_LDG,
                    active=32,
                    addrs=(addr,),
                    bytes_per_thread=op.a * 4,
                    repeat=max(1, math.ceil(op.a * 4 / 128)),
                    hsu_able=True,
                )
            )
            emit(
                WarpInstr(
                    KIND_ALU,
                    active=32,
                    repeat=cost.coop_dist_alu(op.a, op.meta),
                    hsu_able=True,
                    chain=cost.coop_dist_chain(op.a, op.meta),
                )
            )
            if op.meta == METRIC_ANGULAR:
                emit(WarpInstr(KIND_SFU, active=32, repeat=cost.angular_epilogue_sfu))
    elif style == STYLE_PARALLEL:
        # Each thread computes its own candidate's distance: scattered
        # loads plus a scalar arithmetic sequence.
        _emit_split_loads(
            emit, op.addrs, op.active, op.a * 4, cost.scalar_dist_loads
        )
        emit(
            WarpInstr(
                KIND_ALU,
                active=op.active,
                repeat=cost.scalar_dist_alu(op.a),
                hsu_able=True,
                chain=cost.scalar_dist_chain(op.a),
            )
        )
        if op.meta == METRIC_ANGULAR:
            emit(
                WarpInstr(
                    KIND_SFU, active=op.active, repeat=cost.angular_epilogue_sfu
                )
            )
    else:
        raise TraceError(f"unknown lowering style {style!r}")


def _lower_common(emit, op: WarpOp) -> None:
    """Ops that lower identically in both traces."""
    if op.kind == "TAlu":
        emit(WarpInstr(KIND_ALU, active=op.active, repeat=max(1, op.a)))
    elif op.kind == "TShared":
        emit(WarpInstr(KIND_LDS, active=op.active, repeat=max(1, op.a)))
    elif op.kind == "TSfu":
        emit(WarpInstr(KIND_SFU, active=op.active, repeat=max(1, op.a)))
    elif op.kind == "TLoad":
        emit(
            WarpInstr(
                KIND_LDG,
                active=op.active,
                addrs=op.addrs,
                bytes_per_thread=op.a,
            )
        )
    else:
        raise TraceError(f"unknown warp op kind {op.kind!r}")


def _emit_split_loads(
    emit, addrs: tuple[int, ...], active: int, total_bytes: int, num_loads: int
) -> None:
    """Baseline node/point fetch as ``num_loads`` separate load instructions.

    Real SASS loads a structure with several vectorized loads; with
    per-thread scattered bases, each load re-touches the same cache lines,
    so the L1 sees up to ``num_loads`` accesses per line where the HSU's
    CISC fetch sees one (Fig. 12).  Chunks never shrink below 4 bytes.
    """
    num_loads = max(1, min(num_loads, math.ceil(total_bytes / 4)))
    chunk = math.ceil(total_bytes / num_loads)
    offset = 0
    for _ in range(num_loads):
        size = min(chunk, total_bytes - offset)
        if size <= 0:
            break
        emit(
            WarpInstr(
                KIND_LDG,
                active=active,
                addrs=addrs if offset == 0 else tuple(map(offset.__add__, addrs)),
                bytes_per_thread=size,
                hsu_able=True,
            )
        )
        offset += size
