"""HSU ISA definitions (Table I) and the datapath widths."""

import pytest

from repro.core.isa import (
    ANGULAR_WIDTH,
    EUCLID_WIDTH,
    KEY_COMPARE_WIDTH,
    MAX_BOX_TESTS,
    angular_width,
    check_euclid_width,
    instruction_table,
)
from repro.errors import ConfigError


class TestWidths:
    def test_paper_widths(self):
        assert EUCLID_WIDTH == 16
        assert ANGULAR_WIDTH == 8
        assert KEY_COMPARE_WIDTH == 36
        assert MAX_BOX_TESTS == 4

    @pytest.mark.parametrize("euclid, angular", [(2, 1), (16, 8), (32, 16)])
    def test_angular_is_half_of_euclid(self, euclid, angular):
        assert angular_width(euclid) == angular

    @pytest.mark.parametrize("width", [0, -4, 7, 1, 16.0, True])
    def test_invalid_euclid_width_rejected(self, width):
        with pytest.raises(ConfigError, match="euclid_width"):
            check_euclid_width(width)
        with pytest.raises(ConfigError, match="euclid_width"):
            angular_width(width)


class TestTable:
    def test_four_instructions(self):
        table = instruction_table()
        assert len(table) == 4
        assert [name for name, _ in table] == [
            "RAY_INTERSECT", "POINT_EUCLID", "POINT_ANGULAR", "KEY_COMPARE",
        ]

    def test_descriptions_mention_key_facts(self):
        described = dict(instruction_table())
        assert "four ray-box" in described["RAY_INTERSECT"]
        assert "16-wide" in described["POINT_EUCLID"]
        assert "dot_sum" in described["POINT_ANGULAR"]
        assert "36" in described["KEY_COMPARE"]
