"""Cross-checks between the Fig. 6 FU table and the RTL cost model.

These tests pin the *consistency* of the reconstruction: the area and power
models must be pure functions of the one Fig. 6 FU table in ``core.modes``,
so a change to one that breaks the paper's claims fails loudly.
"""

import pytest

from repro.core.modes import (
    BASELINE_MODES,
    FuKind,
    HSU_MODES,
    OperatingMode,
    active_fu_counts,
    stage_maxima,
    total_fu_counts,
)
from repro.rtl.area import datapath_area
from repro.rtl.power import mode_power_mw
from repro.rtl.process import PROCESS_15NM


class TestAreaDerivesFromFuTable:
    def test_adder_area_matches_counts(self):
        counts = total_fu_counts(HSU_MODES)
        breakdown = datapath_area(HSU_MODES)
        expected = counts[FuKind.FP_ADD] * PROCESS_15NM.area_um2[FuKind.FP_ADD]
        assert breakdown.adders == pytest.approx(expected)

    def test_five_adders_cost_delta(self):
        base = datapath_area(BASELINE_MODES)
        hsu = datapath_area(HSU_MODES)
        adder_area = PROCESS_15NM.area_um2[FuKind.FP_ADD]
        assert hsu.adders - base.adders == pytest.approx(5 * adder_area)


class TestPowerDerivesFromFuTable:
    def test_mode_energy_ordering_follows_fu_activity(self):
        """A mode activating strictly more FUs of every kind cannot be
        cheaper (register/mux terms held equal)."""
        euclid = active_fu_counts(OperatingMode.EUCLID)
        angular = active_fu_counts(OperatingMode.ANGULAR)
        assert all(euclid[k] >= angular[k] for k in FuKind)
        assert mode_power_mw(OperatingMode.EUCLID, 5) > mode_power_mw(
            OperatingMode.ANGULAR, 5
        ) - 5.0  # register-width difference allowed a few mW

    def test_key_compare_activates_no_fp_arithmetic(self):
        counts = active_fu_counts(OperatingMode.KEY_COMPARE)
        assert counts[FuKind.FP_ADD] == 0
        assert counts[FuKind.FP_MUL] == 0
        assert counts[FuKind.FP_CMP] == 36


class TestPipelineWidthConsistency:
    def test_euclid_stage1_matches_isa_width(self):
        from repro.core.isa import EUCLID_WIDTH

        maxima = stage_maxima((OperatingMode.EUCLID,))
        assert maxima[1][FuKind.FP_ADD] == EUCLID_WIDTH

    def test_angular_mul_matches_two_times_width(self):
        from repro.core.isa import ANGULAR_WIDTH

        maxima = stage_maxima((OperatingMode.ANGULAR,))
        assert maxima[2][FuKind.FP_MUL] == 2 * ANGULAR_WIDTH

    def test_keycompare_width_matches_isa(self):
        from repro.core.isa import KEY_COMPARE_WIDTH

        maxima = stage_maxima((OperatingMode.KEY_COMPARE,))
        assert maxima[3][FuKind.FP_CMP] == KEY_COMPARE_WIDTH
