"""Set-associative cache with MSHRs, as a latency oracle.

``access(line_addr, time)`` returns the cycle the data is available and
whether the access hit.  Contention is modeled with a single tag-port
timeline (one access per cycle — the L1D port the LSU and RT unit time-share,
§VI-H) and a bounded miss-status-holding-register file: a miss to a line
already outstanding merges into the existing MSHR (counted as a hit, matching
the paper's accounting in §VI-J); when all MSHRs are busy the access stalls
until one retires — the contention mechanism behind the Fig. 11 plateau.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.errors import ConfigError

#: Unit per cache probe; the same probe set serves every cache level.
_PROBE_UNITS = {
    "accesses": "lines",
    "hits": "lines",
    "misses": "lines",
    "mshr_merges": "lines",
    "mshr_stalls": "events",
    "miss_rate": "ratio",
}


class CacheStats:
    """Counters for one cache instance."""

    __slots__ = ("accesses", "hits", "misses", "mshr_merges", "mshr_stalls")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.mshr_merges = 0
        self.mshr_stalls = 0

    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Cache:
    """One cache level.

    ``next_level`` maps ``(line_addr, time) -> completion_time`` — another
    cache's :meth:`access` (hit time only) or the DRAM model.
    """

    def __init__(
        self,
        name: str,
        sets: int,
        ways: int,
        line_bytes: int,
        hit_latency: int,
        mshr_entries: int,
        next_level: Callable[[int, int], int],
        port_interval: float = 1.0,
        tracer=None,
        trace_channel: str | None = None,
    ) -> None:
        if sets < 1 or ways < 1:
            raise ConfigError(f"{name}: sets/ways must be >= 1")
        if mshr_entries < 1:
            raise ConfigError(f"{name}: mshr_entries must be >= 1")
        if port_interval <= 0.0:
            raise ConfigError(f"{name}: port_interval must be positive")
        self.name = name
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.mshr_entries = mshr_entries
        self.next_level = next_level
        self.stats = CacheStats()
        # set index -> {line_addr: None} in recency order: a touch moves
        # the line to the end, so the first key is the LRU victim.
        self._tags: list[dict[int, None]] = [dict() for _ in range(sets)]
        # line_addr -> fill completion time (outstanding misses).
        self._pending: dict[int, int] = {}
        # Min-heap of (completion_time, line_addr) mirroring _pending.
        self._pending_heap: list[tuple[int, int]] = []
        self.port_interval = port_interval
        # Tag-port accumulator, inlined from resource.Port (same math:
        # ``base = max(free, time); free = base + interval; grant
        # ceil(base)``) — the cache access path is the simulator's hottest
        # loop and the extra method call plus attribute hops measurably
        # cost.  resource.Port remains the tested reference semantics.
        self._port_free = 0.0
        # Optional timeline tracer: per-bucket peak of outstanding MSHRs.
        self._tracer = tracer
        self._trace_channel = None
        if tracer is not None:
            from repro.gpusim.observability.tracer import MODE_MAX

            self._trace_channel = tracer.channel(
                trace_channel or f"{name.lower()}/mshr_pending",
                mode=MODE_MAX,
                unit="mshrs",
            )

    def access(self, line_addr: int, time: int) -> tuple[int, bool]:
        """Access one cache line; returns (data_ready_time, hit).

        The tag-hit path is the simulator's hottest loop, so the LRU touch
        (move the line to the end of its set) and the set-index arithmetic
        are written inline.
        """
        stats = self.stats
        stats.accesses += 1
        pending = self._pending
        pending_heap = self._pending_heap
        # Tag port: one access per port_interval cycles.  The fractional
        # bandwidth budget stays in ``_port_free``; granted start cycles
        # are integers (timestamps are ints at component boundaries).
        base = self._port_free
        if base < time:
            base = time
        self._port_free = base + self.port_interval
        start = math.ceil(base)
        while pending_heap and pending_heap[0][0] <= start:
            pending.pop(heapq.heappop(pending_heap)[1], None)

        tag_set = self._tags[(line_addr // self.line_bytes) % self.sets]
        if line_addr in tag_set:
            del tag_set[line_addr]
            tag_set[line_addr] = None
            stats.hits += 1
            ready = start + self.hit_latency
            if pending:
                pending_fill = pending.get(line_addr)
                if pending_fill is not None:
                    # The line is tagged but its fill is still in flight:
                    # merge into the outstanding MSHR — counted as a hit
                    # (§VI-J) but the data arrives no earlier than the fill.
                    stats.mshr_merges += 1
                    if pending_fill > ready:
                        ready = pending_fill
            return ready, True

        if line_addr in pending:
            # Pending but evicted from the tags: still merge into the MSHR.
            stats.hits += 1
            stats.mshr_merges += 1
            return max(pending[line_addr], start + self.hit_latency), True

        # True miss: need a free MSHR.
        if len(pending) >= self.mshr_entries:
            stats.mshr_stalls += 1
            earliest = pending_heap[0][0]
            if earliest > start:
                start = earliest
            while pending_heap and pending_heap[0][0] <= start:
                pending.pop(heapq.heappop(pending_heap)[1], None)
        stats.misses += 1
        fill_time = self.next_level(line_addr, start + self.hit_latency)
        pending[line_addr] = fill_time
        heapq.heappush(pending_heap, (fill_time, line_addr))
        if len(tag_set) >= self.ways:
            del tag_set[next(iter(tag_set))]  # the least recently used
        tag_set[line_addr] = None
        if self._trace_channel is not None:
            self._tracer.record(
                self._trace_channel, start, len(pending)
            )
        return fill_time, False

    def access_lines(self, lines, time: int) -> int:
        """Access a batch of lines requested at the same cycle; returns
        the cycle the *last* line's data is available.

        Semantically identical to
        ``max(self.access(line, time)[0] for line in lines)`` — same
        per-line port grants, stats, MSHR behavior, and tracer records —
        with the attribute lookups hoisted, the stats accumulated locally
        and flushed once, and a pure-integer port grant when
        ``port_interval == 1.0`` (the L1 case: an integral accumulator
        plus 1.0 per grant stays exactly integral, so ``ceil`` is the
        identity).  This is the warp-load fetch path (one call per
        LDG/HSU instruction instead of one per line), so it is written for
        speed.
        """
        stats = self.stats
        tags = self._tags
        pending = self._pending
        pending_heap = self._pending_heap
        line_bytes = self.line_bytes
        sets = self.sets
        ways = self.ways
        hit_latency = self.hit_latency
        mshr_entries = self.mshr_entries
        next_level = self.next_level
        heappop = heapq.heappop
        heappush = heapq.heappush
        interval = self.port_interval
        unit = interval == 1.0
        free = int(self._port_free) if unit else self._port_free
        ceil = math.ceil
        accesses = hits = misses = merges = stalls = 0
        worst = 0
        for line_addr in lines:
            accesses += 1
            if unit:
                start = free if free > time else time
                free = start + 1
            else:
                base = free if free > time else time
                free = base + interval
                start = ceil(base)
            while pending_heap and pending_heap[0][0] <= start:
                pending.pop(heappop(pending_heap)[1], None)
            tag_set = tags[(line_addr // line_bytes) % sets]
            if line_addr in tag_set:
                del tag_set[line_addr]
                tag_set[line_addr] = None
                hits += 1
                ready = start + hit_latency
                if pending:
                    pending_fill = pending.get(line_addr)
                    if pending_fill is not None:
                        merges += 1
                        if pending_fill > ready:
                            ready = pending_fill
            elif line_addr in pending:
                hits += 1
                merges += 1
                ready = pending[line_addr]
                alt = start + hit_latency
                if alt > ready:
                    ready = alt
            else:
                if len(pending) >= mshr_entries:
                    stalls += 1
                    earliest = pending_heap[0][0]
                    if earliest > start:
                        start = earliest
                    while pending_heap and pending_heap[0][0] <= start:
                        pending.pop(heappop(pending_heap)[1], None)
                misses += 1
                ready = next_level(line_addr, start + hit_latency)
                pending[line_addr] = ready
                heappush(pending_heap, (ready, line_addr))
                if len(tag_set) >= ways:
                    del tag_set[next(iter(tag_set))]
                tag_set[line_addr] = None
                if self._trace_channel is not None:
                    self._tracer.record(
                        self._trace_channel, start, len(pending)
                    )
            if ready > worst:
                worst = ready
        self._port_free = float(free) if unit else free
        stats.accesses += accesses
        stats.hits += hits
        stats.misses += misses
        stats.mshr_merges += merges
        stats.mshr_stalls += stalls
        return worst

    def next_event_cycle(self) -> int:
        """Earliest cycle this cache's state next changes on its own: the
        earliest outstanding fill completing, else the tag port freeing."""
        if self._pending_heap:
            return self._pending_heap[0][0]
        return math.ceil(self._port_free)

    def register_metrics(
        self, scope, docs: dict[str, tuple[str, str]]
    ) -> None:
        """Expose this cache's counters as registry probes under ``scope``.

        The probe set is identical for every cache level; ``docs`` maps
        each probe name to its ``(doc, figure)`` pair, since an L1 and the
        L2 describe the same counter differently (zero entries default to
        undocumented).  Probes read the live ``stats`` object, so the hot
        path stays free of registry overhead.
        """
        stats = self.stats
        readers: dict[str, Callable[[], float]] = {
            "accesses": lambda: stats.accesses,
            "hits": lambda: stats.hits,
            "misses": lambda: stats.misses,
            "mshr_merges": lambda: stats.mshr_merges,
            "mshr_stalls": lambda: stats.mshr_stalls,
            "miss_rate": stats.miss_rate,
        }
        for name, fn in readers.items():
            doc, figure = docs.get(name, ("", ""))
            scope.probe(
                name, fn, unit=_PROBE_UNITS[name], doc=doc, figure=figure
            )
