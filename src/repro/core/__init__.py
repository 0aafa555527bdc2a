"""The Hierarchical Search Unit (HSU) — the paper's primary contribution.

This package holds the one definition of the HSU datapath:

* **Instructions** — :mod:`~repro.core.isa` lists the four instructions of
  Table I (``RAY_INTERSECT``, ``POINT_EUCLID``, ``POINT_ANGULAR``,
  ``KEY_COMPARE``) and the datapath widths (16-wide Euclidean, 8-wide
  angular, 36-key compare).
* **Beats** — :mod:`~repro.core.multibeat` holds ``ceil(dim / width)``, the
  multi-beat accumulation scheme of §IV-F.
* **Datapath** — :mod:`~repro.core.modes` holds the pipeline depth and the
  per-stage functional-unit allocation of Fig. 6 for the unified
  single-lane 9-stage datapath (Fig. 5).
* **Semantics** — :mod:`~repro.core.ops` gives the instructions their exact
  functional results.

The lowering (:mod:`repro.compiler.lowering`) counts each instruction's
beats from these widths, the GPU timing model (:mod:`repro.gpusim.rtunit`)
holds the datapath for ``active x beats`` cycles plus the pipeline depth,
and the RTL cost model (:mod:`repro.rtl`) prices the Fig. 6 table.
"""

from repro.core.isa import Opcode, instruction_table
from repro.core.modes import (
    FuKind,
    OperatingMode,
    PIPELINE_DEPTH,
    additional_fus_for_hsu,
    fu_requirements,
    stage_maxima,
)
from repro.core.multibeat import beat_count
from repro.core.ops import (
    angular_dist,
    angular_distance_from_sums,
    euclid_dist,
    key_compare,
    key_compare_child_index,
)

__all__ = [
    "FuKind",
    "Opcode",
    "OperatingMode",
    "PIPELINE_DEPTH",
    "additional_fus_for_hsu",
    "angular_dist",
    "angular_distance_from_sums",
    "beat_count",
    "euclid_dist",
    "fu_requirements",
    "instruction_table",
    "key_compare",
    "key_compare_child_index",
    "stage_maxima",
]
