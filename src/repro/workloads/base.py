"""Common workload plumbing: runs, their lowering into traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.compiler.lowering import CostModel, lower_baseline, lower_hsu
from repro.compiler.ops import WarpOps
from repro.core.isa import EUCLID_WIDTH
from repro.errors import TraceError
from repro.gpusim.trace import KernelTrace


@dataclass
class WorkloadRun:
    """One executed workload: its warp-op table plus metadata.

    ``style`` selects the lowering convention (``cooperative`` for
    block-per-query kernels, ``parallel`` for thread-per-query kernels).
    ``extras`` carries workload-specific results (recall, hit counts, ...)
    so tests can check the algorithm did real work.
    """

    name: str
    style: str
    warp_ops: WarpOps
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.warp_ops.num_warps:
            raise TraceError(f"workload {self.name!r} produced no warps")


@dataclass(frozen=True)
class TraceBundle:
    """The paired traces one workload run lowers into."""

    baseline: KernelTrace
    hsu: KernelTrace


def to_trace(
    run: WorkloadRun,
    variant: str,
    cost: CostModel | None = None,
    euclid_width: int = EUCLID_WIDTH,
) -> KernelTrace:
    """Lower a workload run into its ``"baseline"`` or ``"hsu"`` trace.

    ``euclid_width`` is the HSU datapath width :func:`lower_hsu` targets;
    the baseline does not read it.
    """
    labels = [f"{run.name}/w{index}" for index in range(run.warp_ops.num_warps)]
    name = f"{run.name}-{variant}"
    if variant == "baseline":
        return lower_baseline(
            run.warp_ops, run.style, cost=cost, name=name, labels=labels
        )
    if variant == "hsu":
        return lower_hsu(
            run.warp_ops, run.style, cost=cost, euclid_width=euclid_width,
            name=name, labels=labels,
        )
    raise TraceError(f"unknown trace variant {variant!r}")


def to_traces(
    run: WorkloadRun,
    cost: CostModel | None = None,
    euclid_width: int = EUCLID_WIDTH,
) -> TraceBundle:
    """Lower a workload run into both of its traces (:func:`to_trace`)."""
    return TraceBundle(
        baseline=to_trace(run, "baseline", cost),
        hsu=to_trace(run, "hsu", cost, euclid_width),
    )
