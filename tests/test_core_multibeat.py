"""Multi-beat planning (§IV-F)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.multibeat import beat_count, iter_beat_slices
from repro.errors import IsaError


class TestBeatPlanning:
    def test_paper_example(self):
        """'9 instructions would be generated for an angular distance test
        on a point with a dimension of 65 because ceil(65/8) = 9. The first
        8 instructions would have the accumulate bit set, and the last
        instruction would have it cleared.'"""
        beats = list(iter_beat_slices(65, 8))
        assert beat_count(65, 8) == len(beats) == 9
        assert beats[-1] == (64, 65)  # 65 = 8*8 + 1

    def test_single_beat_has_no_accumulate(self):
        assert beat_count(16, 16) == 1
        assert list(iter_beat_slices(16, 16)) == [(0, 16)]

    def test_slices_cover_dimension_exactly(self):
        covered = []
        for lo, hi in iter_beat_slices(100, 16):
            covered.extend(range(lo, hi))
        assert covered == list(range(100))

    def test_invalid_inputs(self):
        with pytest.raises(IsaError):
            list(iter_beat_slices(0, 16))
        with pytest.raises(IsaError):
            list(iter_beat_slices(16, 0))
        with pytest.raises(IsaError):
            beat_count(-1, 8)

    @given(st.integers(1, 2048), st.integers(1, 64))
    def test_beat_count_matches_plan(self, dim, width):
        beats = list(iter_beat_slices(dim, width))
        assert len(beats) == beat_count(dim, width)
        assert sum(hi - lo for lo, hi in beats) == dim
        # Every beat but the last is full width.
        assert all(hi - lo == width for lo, hi in beats[:-1])
