"""The trace compiler: one workload execution, two instruction traces.

The paper evaluates by post-processing SASS traces, "replac[ing] sequences
of SASS instructions with our HSU instructions" (§V-C).  We mirror the
methodology: workloads emit an abstract **op stream** while executing the
real algorithm once, assembled into one column table of warp ops
(:class:`~repro.compiler.ops.WarpOps`);
:func:`~repro.compiler.lowering.lower_baseline` expands each HSU-able op
into the SIMD instruction sequence a CUDA kernel would execute, and
:func:`~repro.compiler.lowering.lower_hsu` emits the equivalent HSU CISC
instructions.  Everything not HSU-able lowers identically in both
traces, so any cycle difference is attributable to the unit.
"""

from repro.compiler.assembler import assemble_warps
from repro.compiler.layout import AddressSpace
from repro.compiler.lowering import CostModel, lower_baseline, lower_hsu
from repro.compiler.ops import (
    TAlu,
    TBox,
    TDist,
    TKeyCmp,
    TLoad,
    TSfu,
    TShared,
    TTri,
    WarpOp,
    WarpOps,
)

__all__ = [
    "AddressSpace",
    "CostModel",
    "TAlu",
    "TBox",
    "TDist",
    "TKeyCmp",
    "TLoad",
    "TSfu",
    "TShared",
    "TTri",
    "WarpOp",
    "WarpOps",
    "assemble_warps",
    "lower_baseline",
    "lower_hsu",
]
