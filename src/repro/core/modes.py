"""Operating modes and the Fig. 6 stage-by-stage functional-unit table.

The unified single-lane datapath (Fig. 5) has nine stages.  Each operating
mode enables a subset of functional units (FUs) in each stage; the physical
datapath must provision the *maximum* across modes per stage (the bold totals
in Fig. 6).  The paper's headline claim is that extending the baseline
(ray-box + ray-triangle) datapath to the full HSU requires only **five extra
adders** — two in stage 3 and one each in stages 5, 8 and 9 — and no extra
multipliers or comparators (§IV-C).

The table below is our reconstruction of Fig. 6.  Counts follow the
computations each mode performs:

* **Ray-box** (4 boxes): 24 translate subtractions, 24 interval multiplies,
  36 comparators for the tmin/tmax min/max trees (which is exactly why
  ``KEY_COMPARE`` is 36 wide and free), hit tests, and a 4-element sorting
  network.
* **Ray-triangle** (watertight Woop): 9 translate subtractions, 9 shear/scale
  multiplies, 6 shear subtractions, 6 edge-function multiplies and 4 adds,
  determinant and hit-distance accumulation, division-free interval tests.
* **Euclid** (16-wide): 16 subtractions, 16 multiplies, a 16→1 adder tree
  (8/4/2/1 across stages 3–6), and an accumulator add in stage 8.
* **Angular** (8-wide, two values): 2×8 multiplies, two 8→1 adder trees
  (8/4/2 across stages 3–5), and accumulator adds in stages 8 and 9.
* **Key-compare**: the 36-wide comparator bank of stage 3, nothing else.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError

#: Depth of the unified datapath pipeline (§IV-B): the cycles from a
#: thread-beat's issue to its result, which the timing model
#: (:mod:`repro.gpusim.rtunit`) adds to every HSU instruction and the RTL
#: cost model (:mod:`repro.rtl`) prices as pipeline registers.
PIPELINE_DEPTH = 9


class OperatingMode(enum.Enum):
    """The five operating modes of the HSU datapath (Fig. 6 columns)."""

    RAY_BOX = "ray_box"
    RAY_TRI = "ray_tri"
    EUCLID = "euclid"
    ANGULAR = "angular"
    KEY_COMPARE = "key_compare"


class FuKind(enum.Enum):
    """Functional-unit classes provisioned in the datapath."""

    FP_ADD = "fp_add"  # fused adder/subtractor
    FP_MUL = "fp_mul"
    FP_CMP = "fp_cmp"  # comparator / min-max
    INT_ALU = "int_alu"  # id handling, mux select, bit-vector packing


BASELINE_MODES = (OperatingMode.RAY_BOX, OperatingMode.RAY_TRI)
HSU_MODES = tuple(OperatingMode)

# stage index (1..9) -> {FuKind: count}; omitted stages use no FUs.
_StageTable = dict[int, dict[FuKind, int]]

_FU_TABLE: dict[OperatingMode, _StageTable] = {
    OperatingMode.RAY_BOX: {
        1: {FuKind.FP_ADD: 24},  # translate 4 boxes (6 planes each) to origin
        2: {FuKind.FP_MUL: 24},  # scale by inverse ray direction
        3: {FuKind.FP_CMP: 36},  # tmin/tmax min-max trees (9 per box)
        4: {FuKind.FP_CMP: 8},  # clamp intervals against [t_min, t_max]
        5: {FuKind.FP_CMP: 4},  # hit = tmin <= tmax per box
        6: {FuKind.FP_CMP: 2, FuKind.INT_ALU: 2},  # sort network layer 1
        7: {FuKind.FP_CMP: 2, FuKind.INT_ALU: 2},  # sort network layer 2
        8: {FuKind.FP_CMP: 1, FuKind.INT_ALU: 1},  # sort network layer 3
        9: {FuKind.INT_ALU: 4},  # pack sorted child pointers / nulls
    },
    OperatingMode.RAY_TRI: {
        1: {FuKind.FP_ADD: 9},  # translate 3 vertices to ray origin
        2: {FuKind.FP_MUL: 9},  # shear (6) and scale-z (3) multiplies
        3: {FuKind.FP_ADD: 6},  # shear subtractions (x,y of 3 vertices)
        4: {FuKind.FP_ADD: 4, FuKind.FP_MUL: 6},  # edge funcs u,v,w
        5: {FuKind.FP_ADD: 1, FuKind.FP_MUL: 3},  # det partial; t_i = bary*z_i
        6: {FuKind.FP_ADD: 1},  # det = u+v+w (final add)
        7: {FuKind.FP_ADD: 2, FuKind.FP_MUL: 2},  # t_num sum; t_min/max * det
        8: {FuKind.FP_CMP: 2},  # interval tests (division-free)
        9: {FuKind.FP_CMP: 2, FuKind.INT_ALU: 2},  # sign agreement, hit pack
    },
    OperatingMode.EUCLID: {
        1: {FuKind.FP_ADD: 16},  # 16-wide subtraction q_i - c_i
        2: {FuKind.FP_MUL: 16},  # 16-wide square
        3: {FuKind.FP_ADD: 8},  # adder tree level 1
        4: {FuKind.FP_ADD: 4},  # adder tree level 2
        5: {FuKind.FP_ADD: 2},  # adder tree level 3
        6: {FuKind.FP_ADD: 1},  # adder tree level 4
        8: {FuKind.FP_ADD: 1},  # accumulate running distance sum (§IV-F)
        9: {FuKind.INT_ALU: 1},  # result select / writeback mux
    },
    OperatingMode.ANGULAR: {
        2: {FuKind.FP_MUL: 16},  # 2x 8-wide: c_i*q_i and c_i*c_i
        3: {FuKind.FP_ADD: 8},  # two 8->4 tree levels
        4: {FuKind.FP_ADD: 4},  # two 4->2 tree levels
        5: {FuKind.FP_ADD: 2},  # two 2->1 tree levels
        8: {FuKind.FP_ADD: 1},  # accumulate dot_sum
        9: {FuKind.FP_ADD: 1},  # accumulate norm_sum
    },
    OperatingMode.KEY_COMPARE: {
        3: {FuKind.FP_CMP: 36},  # reuse ray-box comparator bank (§IV-C)
        9: {FuKind.INT_ALU: 2},  # pack the 36-bit result vector
    },
}


def fu_requirements(mode: OperatingMode) -> _StageTable:
    """Stage -> FU counts for one operating mode (one Fig. 6 column)."""
    return {stage: dict(units) for stage, units in _FU_TABLE[mode].items()}


def stage_maxima(
    modes: tuple[OperatingMode, ...] = HSU_MODES,
) -> _StageTable:
    """Per-stage FU provisioning (the bold totals of Fig. 6).

    The physical datapath provisions, for each stage, the maximum count of
    each FU kind required by any of ``modes``.
    """
    if not modes:
        raise ConfigError("stage_maxima requires at least one mode")
    maxima: _StageTable = {stage: {} for stage in range(1, PIPELINE_DEPTH + 1)}
    for mode in modes:
        for stage, units in _FU_TABLE[mode].items():
            for kind, count in units.items():
                current = maxima[stage].get(kind, 0)
                maxima[stage][kind] = max(current, count)
    return maxima


def additional_fus_for_hsu() -> _StageTable:
    """FUs the HSU adds on top of the baseline datapath, per stage.

    The paper's claim (§IV-C): only two additional adders in stage 3 and one
    each in stages 5, 8 and 9.  A unit test pins this module to that claim.
    """
    hsu = stage_maxima(HSU_MODES)
    base = stage_maxima(BASELINE_MODES)
    delta: _StageTable = {}
    for stage in range(1, PIPELINE_DEPTH + 1):
        stage_delta = {}
        kinds = set(hsu[stage]) | set(base[stage])
        for kind in kinds:
            extra = hsu[stage].get(kind, 0) - base[stage].get(kind, 0)
            if extra > 0:
                stage_delta[kind] = extra
        if stage_delta:
            delta[stage] = stage_delta
    return delta


def total_fu_counts(modes: tuple[OperatingMode, ...] = HSU_MODES) -> dict[FuKind, int]:
    """Total FUs of each kind across all stages for a provisioned datapath."""
    totals: dict[FuKind, int] = {kind: 0 for kind in FuKind}
    for units in stage_maxima(modes).values():
        for kind, count in units.items():
            totals[kind] += count
    return totals


def active_fu_counts(mode: OperatingMode) -> dict[FuKind, int]:
    """FUs that actually toggle when the datapath runs ``mode``.

    Drives the per-mode dynamic-power model (Fig. 16).
    """
    totals: dict[FuKind, int] = {kind: 0 for kind in FuKind}
    for units in _FU_TABLE[mode].values():
        for kind, count in units.items():
            totals[kind] += count
    return totals
