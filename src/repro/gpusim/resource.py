"""Shared occupancy primitives for every contended structure in the model.

Before this module existed, each component hand-rolled its own
``next_free_cycle`` bookkeeping: the sub-core issue ports in ``gpu.py``, the
cache tag port in ``cache.py``, the DRAM data bus and per-bank timelines in
``dram.py``, and the RT unit's warp buffer and single-lane pipeline in
``rtunit.py``.  The four primitives here replace all of them, so occupancy
semantics live (and are tested) in exactly one place:

* :class:`Port` — a serial port granting one access per ``interval``
  cycles.  Fractional intervals (the chip-share L2/DRAM bandwidths) are
  supported by accumulating the budget internally while granting *integer*
  start cycles — timestamps are ints at every component boundary.
* :class:`Timeline` — a single-slot resource reserved to an explicit
  busy-until time (a sub-core issue port holding a repeat burst, a DRAM
  bank serving a row access).
* :class:`SlotPool` — a bounded pool of slots tracked by release time
  (the RT unit's warp buffer): acquiring from a full pool waits for the
  earliest release.
* :class:`PipelinedLane` — a fully pipelined single lane with first-fit
  gap backfill: work is appended at the tail, but an allocation whose
  operands were ready earlier may claim an idle gap a late-ready
  predecessor left behind (work-conserving, no head-of-line blocking).
  The first fit is found by bisect over an unbounded, start-ordered gap
  list.

All primitives take and return **integer** cycles; :class:`Port` is the
only one that carries fractional state, and it never leaks it.

Every primitive also exposes ``next_event_cycle()``: the earliest cycle at
which its occupancy state can next change an acquirer's outcome (a grant
becoming available, a reservation expiring, a slot releasing).  Components
compose their children's horizons the same way, and the
skip-to-next-event engine in :meth:`GpuSimulator.run` advances the clock
directly to the minimum horizon instead of ticking every cycle.  Horizons
are *observational*: calling ``next_event_cycle()`` never mutates state.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from operator import itemgetter

from repro.errors import ConfigError

_gap_end = itemgetter(1)


class Port:
    """Serial port: one grant per ``interval`` cycles, integer start times.

    The fractional bandwidth budget (e.g. the L2's ``80/15`` cycles per
    line on a one-SM slice) accumulates in ``_next_free``; the granted
    start cycle is ``ceil`` of the accumulator so callers only ever see
    integer timestamps while long-run throughput matches the configured
    interval exactly.
    """

    __slots__ = ("interval", "_next_free")

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0.0:
            raise ConfigError("port interval must be positive")
        self.interval = interval
        self._next_free = 0.0

    def acquire(self, time: int) -> int:
        """Grant the next slot at or after ``time``; returns the start cycle."""
        base = self._next_free
        if base < time:
            base = time
        self._next_free = base + self.interval
        return math.ceil(base)

    def next_event_cycle(self) -> int:
        """Earliest integer cycle the next grant could start."""
        return math.ceil(self._next_free)


class Timeline:
    """Single-slot resource reserved through explicit busy-until times."""

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0

    def begin(self, time: int) -> int:
        """Earliest start at or after ``time`` (does not reserve)."""
        busy = self.busy_until
        return busy if busy > time else time

    def hold_until(self, time: int) -> None:
        """Reserve the resource until ``time``."""
        self.busy_until = time

    def next_event_cycle(self) -> int:
        """Cycle the current reservation expires (0 when never reserved)."""
        return self.busy_until


class SlotPool:
    """Bounded pool of slots, each occupied until an explicit release time.

    Models the RT unit's warp buffer: ``acquire`` returns the cycle a slot
    is actually available (waiting for the earliest release when the pool
    is full), and the caller later records the slot's release time with
    :meth:`occupy`.
    """

    __slots__ = ("capacity", "_releases")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError("slot pool capacity must be >= 1")
        self.capacity = capacity
        # Min-heap of in-flight release times.
        self._releases: list[int] = []

    def acquire(self, time: int) -> int:
        """Cycle a slot is free at or after ``time`` (pops the earliest
        release when full, mirroring hardware freeing the oldest entry)."""
        if len(self._releases) >= self.capacity:
            earliest = heapq.heappop(self._releases)
            if earliest > time:
                return earliest
        return time

    def occupy(self, release: int) -> None:
        """Record one acquired slot's release time."""
        heapq.heappush(self._releases, release)

    def next_event_cycle(self) -> int:
        """Earliest in-flight release (0 when the pool is idle)."""
        return self._releases[0] if self._releases else 0

    @property
    def outstanding(self) -> int:
        return len(self._releases)


class PipelinedLane:
    """Single-lane pipeline allocator with first-fit gap backfill.

    Allocations normally extend the tail, but an entry whose operands were
    ready before the tail (because a *later-dispatched* entry's fetch
    stalled on DRAM) may backfill an idle gap left behind — the
    work-conserving, out-of-order entry scheduling of the RT unit's
    datapath.  Gaps are disjoint and start-ordered, so their ends ascend
    and a bisect on the ends finds the first gap that could hold the
    entry.  The list is not bounded: the ``_MAX_GAPS`` trim runs only when
    a gap is appended, so splits grow it past 64 (to 4,335 gaps on the
    bvhnn/flann R10K/BUN campaign jobs, 18,411 on bvhnn COS).  Bounding it
    changes the timing model (ROADMAP item 2, Option B).
    """

    __slots__ = ("_tail", "_gaps")

    _MAX_GAPS = 64

    def __init__(self) -> None:
        self._tail = 0
        self._gaps: list[tuple[int, int]] = []

    def allocate(self, ready: int, busy: int) -> int:
        """Earliest start giving ``busy`` back-to-back single-lane slots at
        or after ``ready``."""
        gaps = self._gaps
        # Every gap lies strictly before the tail (gaps are carved out of
        # the region behind it and splits only shrink them), so an entry
        # ready at or past the tail can never backfill — skip the search.
        if gaps and ready < self._tail:
            first = bisect_left(gaps, ready + busy, key=_gap_end)
            for index in range(first, len(gaps)):
                gap_start, gap_end = gaps[index]
                start = gap_start if gap_start >= ready else ready
                if start + busy <= gap_end:
                    replacement = []
                    if start > gap_start:
                        replacement.append((gap_start, start))
                    if start + busy < gap_end:
                        replacement.append((start + busy, gap_end))
                    gaps[index : index + 1] = replacement
                    return start
        start = max(self._tail, ready)
        if start > self._tail:
            gaps.append((self._tail, start))
            if len(gaps) > self._MAX_GAPS:
                gaps.pop(0)
        self._tail = start + busy
        return start

    def next_event_cycle(self) -> int:
        """Earliest cycle new work could start: the first backfillable gap
        if one exists, else the pipeline tail."""
        if self._gaps:
            return self._gaps[0][0]
        return self._tail

    @property
    def tail(self) -> int:
        return self._tail
