"""Common workload plumbing: runs, trace bundles, lowering glue."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.compiler.lowering import CostModel, lower_baseline, lower_hsu
from repro.compiler.ops import WarpOp
from repro.core.isa import EUCLID_WIDTH
from repro.errors import TraceError
from repro.gpusim.trace import KernelTrace


@dataclass
class WorkloadRun:
    """One executed workload: warp-level op streams plus metadata.

    ``style`` selects the lowering convention (``cooperative`` for
    block-per-query kernels, ``parallel`` for thread-per-query kernels).
    ``extras`` carries workload-specific results (recall, hit counts, ...)
    so tests can check the algorithm did real work.
    """

    name: str
    style: str
    warp_ops: list[list[WarpOp]]
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.warp_ops:
            raise TraceError(f"workload {self.name!r} produced no warps")


@dataclass(frozen=True)
class TraceBundle:
    """The paired traces one workload run lowers into."""

    baseline: KernelTrace
    hsu: KernelTrace


def to_traces(
    run: WorkloadRun,
    cost: CostModel | None = None,
    euclid_width: int = EUCLID_WIDTH,
) -> TraceBundle:
    """Lower a workload run into its baseline and HSU kernel traces.

    ``euclid_width`` is the HSU datapath width :func:`lower_hsu` targets.
    """
    labels = [f"{run.name}/w{index}" for index in range(len(run.warp_ops))]
    return TraceBundle(
        baseline=lower_baseline(
            run.warp_ops, run.style, cost=cost,
            name=f"{run.name}-baseline", labels=labels,
        ),
        hsu=lower_hsu(
            run.warp_ops, run.style, cost=cost, euclid_width=euclid_width,
            name=f"{run.name}-hsu", labels=labels,
        ),
    )
