"""The per-SM RT/HSU unit: warp buffer, fetch path, single-lane pipeline.

Follows §IV-A/§IV-B: a dispatched HSU warp instruction occupies a *warp
buffer* entry; each active thread's node data is fetched through the FIFO
memory-access queue into the L1 (one access per cycle, port shared with the
LSU); once every active thread's data has arrived, the entry is scheduled to
the single-lane datapath, which consumes one thread-beat per cycle and
retires results :data:`~repro.core.modes.PIPELINE_DEPTH` stages later.

A multi-beat chain (§IV-F) is one instruction record whose ``beats`` the
lowering counts with :func:`~repro.core.multibeat.beat_count`; the record
holds the datapath for ``active * beats`` consecutive cycles, so no other
warp's beat can interleave with the chain.  On an idle unit an instruction's
result is ready at fetch completion + ``active * beats`` +
``PIPELINE_DEPTH``.

Occupancy is modeled with the shared resource primitives: the warp buffer
is a :class:`~repro.gpusim.resource.SlotPool` (bounded entries, freed at
pipeline-issue completion) and the datapath a
:class:`~repro.gpusim.resource.PipelinedLane` (work-conserving gap
backfill, since entries issue as their data arrives, not in dispatch
order).
"""

from __future__ import annotations

from repro.core.modes import PIPELINE_DEPTH
from repro.gpusim.cache import Cache
from repro.gpusim.config import GpuConfig
from repro.gpusim.resource import PipelinedLane, SlotPool
from repro.gpusim.trace import WarpInstr


def hsu_coalesced_lines(instr: WarpInstr, line_bytes: int) -> list[int]:
    """The sorted operand-line set one HSU instruction fetches.

    Duplicate lines across threads merge into one request in the memory
    access FIFO — the CISC coalescing behind Fig. 12.  This is the
    per-cycle path's scalar oracle over raw addresses
    (:meth:`RtUnit.execute`); the event engine's pack computes the same
    sets vectorized (:mod:`repro.gpusim.soa`).
    """
    total_bytes = max(1, instr.beats * instr.bytes_per_thread)
    lines = set()
    for base in instr.addrs[: instr.active]:
        first_line = (base // line_bytes) * line_bytes
        last_line = ((base + total_bytes - 1) // line_bytes) * line_bytes
        lines.update(range(first_line, last_line + 1, line_bytes))
    return sorted(lines)


class RtUnitStats:
    """Counters for one RT/HSU unit."""

    __slots__ = (
        "warp_instructions",
        "thread_beats",
        "fetch_line_accesses",
        "entry_stall_cycles",
        "busy_until",
    )

    def __init__(self) -> None:
        self.warp_instructions = 0
        self.thread_beats = 0
        self.fetch_line_accesses = 0
        self.entry_stall_cycles = 0
        self.busy_until = 0


class RtUnit:
    """One RT/HSU unit, shared by the SM's four sub-cores.

    By default operand fetches time-share the SM's L1D port with the LSU
    (§VI-H).  The §VI-I alternatives are also modeled: with
    ``config.rt_fetch_bypass_l1`` fetches skip the L1 and refill through
    ``fill_path`` (the memory system's
    :meth:`~repro.gpusim.memory.MemorySystem.l1_fill_path`); with
    ``config.rt_private_cache_bytes`` they go through a dedicated cache in
    front of that same path.
    """

    def __init__(
        self,
        config: GpuConfig,
        l1: Cache,
        fill_path=None,
        tracer=None,
    ) -> None:
        self.config = config
        self.l1 = l1
        self._fill_path = fill_path
        # Optional timeline tracer: per-bucket sum of datapath busy beats.
        self._tracer = tracer
        self._trace_channel = None
        if tracer is not None:
            from repro.gpusim.observability.tracer import MODE_SUM

            self._trace_channel = tracer.channel(
                "hsu/busy_beats", mode=MODE_SUM, unit="thread-beats"
            )
        self._private: Cache | None = None
        if config.rt_private_cache_bytes and fill_path is not None:
            ways = 4
            sets = max(
                1, config.rt_private_cache_bytes // (config.line_bytes * ways)
            )
            self._private = Cache(
                name="RT$",
                sets=sets,
                ways=ways,
                line_bytes=config.line_bytes,
                hit_latency=config.l1_hit_latency,
                mshr_entries=config.l1_mshr_entries,
                next_level=fill_path,
            )
        self.stats = RtUnitStats()
        # Warp buffer: a bounded slot pool whose entries free at pipeline
        # issue completion (§IV-B), and the single-lane datapath: entries
        # are scheduled as they become ready (valid mask == active mask),
        # not in dispatch order, so an entry whose fetch stalls on DRAM
        # must not block a later entry whose data already arrived.
        self._buffer = SlotPool(config.warp_buffer_size)
        self._pipe = PipelinedLane()

    def execute(self, instr: WarpInstr, issue_time: int) -> int:
        """Run one HSU warp instruction; returns result-ready cycle."""
        return self.execute_packed(
            hsu_coalesced_lines(instr, self.config.line_bytes),
            instr.active * instr.beats,
            issue_time,
        )

    def execute_packed(self, lines, busy: int, issue_time: int) -> int:
        """:meth:`execute` with the line set and beat count precomputed.

        ``lines`` is the sorted coalesced line list
        (:func:`hsu_coalesced_lines`), ``busy`` the datapath occupancy
        (``active * beats``).  The engine's HSU path: identical semantics
        to :meth:`execute`, minus the per-call set rebuild.
        """
        # Warp buffer admission: wait for a free entry when full.
        dispatch = self._buffer.acquire(issue_time)
        if dispatch > issue_time:
            self.stats.entry_stall_cycles += dispatch - issue_time
        # Per-thread node-data fetch through the shared L1 port.
        fetch_done = dispatch
        if self._private is not None:
            fetch_done = self._private.access_lines(lines, dispatch)
        elif self.config.rt_fetch_bypass_l1 and self._fill_path is not None:
            fill_path = self._fill_path
            for line in lines:
                ready = fill_path(line, dispatch)
                if ready > fetch_done:
                    fetch_done = ready
        else:
            fetch_done = self.l1.access_lines(lines, dispatch)
        if fetch_done < dispatch:
            fetch_done = dispatch
        self.stats.fetch_line_accesses += len(lines)
        # Single-lane datapath: one thread-beat per cycle.
        pipe_start = self._pipe.allocate(fetch_done, busy)
        pipe_end = pipe_start + busy + PIPELINE_DEPTH
        # "After all of the active threads within the warp buffer entry have
        # been issued to the datapath pipeline the warp buffer entry is
        # cleared" (§IV-B) — the entry frees at issue completion, not
        # retirement, which is what lets 8 entries sustain memory-level
        # parallelism.
        self._buffer.occupy(pipe_start + busy)
        if self._trace_channel is not None:
            self._tracer.record(self._trace_channel, pipe_start, busy)
        self.stats.warp_instructions += 1
        self.stats.thread_beats += busy
        self.stats.busy_until = max(self.stats.busy_until, pipe_end)
        return pipe_end

    def next_event_cycle(self) -> int:
        """Earliest cycle this unit next frees a contended resource: a warp
        buffer entry releasing, a datapath slot opening, or (when
        configured) the private cache's next fill."""
        horizon = self._buffer.next_event_cycle()
        pipe = self._pipe.next_event_cycle()
        if pipe < horizon:
            horizon = pipe
        if self._private is not None:
            private = self._private.next_event_cycle()
            if private < horizon:
                horizon = private
        return horizon

    def register_metrics(self, scope) -> None:
        """Expose this unit's counters as registry probes under ``scope``."""
        stats = self.stats
        scope.probe(
            "warp_instructions",
            lambda s=stats: s.warp_instructions,
            unit="instructions",
            doc="HSU CISC warp instructions executed by this RT unit.",
        )
        scope.probe(
            "thread_beats",
            lambda s=stats: s.thread_beats,
            unit="thread-beats",
            doc="Single-lane datapath beats consumed (active x beats).",
            figure="Fig. 8",
        )
        scope.probe(
            "fetch_line_accesses",
            lambda s=stats: s.fetch_line_accesses,
            unit="lines",
            doc="Operand lines fetched by the RT unit (post-coalescing).",
            figure="Fig. 12",
        )
        scope.probe(
            "entry_stall_cycles",
            lambda s=stats: s.entry_stall_cycles,
            unit="cycles",
            doc="Dispatch cycles lost waiting for a warp-buffer entry.",
            figure="Fig. 11",
        )
