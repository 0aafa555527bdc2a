"""Multi-beat distance instructions (§IV-F).

A ``POINT_EUCLID``/``POINT_ANGULAR`` instruction processes at most the
datapath's native width of coordinates (16 / 8).  Higher-dimensional points
are handled by the *compiler* emitting ``ceil(dim / width)`` consecutive
instructions; all but the last carry the accumulate bit, and the unit folds
partial results into an accumulator, writing the result buffer only when the
final (accumulate=0) beat retires.

The paper's example: an angular test on a 65-dimensional point emits
``ceil(65/8) = 9`` instructions — 8 with the accumulate bit set, then one
without.

:func:`beat_count` is the one beat formula: the lowering charges the timing
model with it, and :func:`iter_beat_slices` walks the same beats for the
functional kernels.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.errors import IsaError


def beat_count(dim: int, width: int) -> int:
    """Number of instructions needed for a ``dim``-dimensional point."""
    if dim < 1:
        raise IsaError(f"point dimension must be >= 1, got {dim}")
    if width < 1:
        raise IsaError(f"datapath width must be >= 1, got {width}")
    return math.ceil(dim / width)


def iter_beat_slices(dim: int, width: int) -> Iterator[tuple[int, int]]:
    """Yield the coordinate slice ``(lo, hi)`` each beat consumes."""
    for index in range(beat_count(dim, width)):
        lo = index * width
        yield lo, min(lo + width, dim)
