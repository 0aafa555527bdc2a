"""The top-level GPU simulator: pure orchestration over pluggable parts.

Execution model: each warp runs its trace in order.  A
:class:`~repro.gpusim.scheduler.WarpScheduler` (GTO by default) owns the
ready-warp event queue and dictates issue order; each
:class:`SmCore` models one SM's execution resources (sub-core issue ports,
the private L1 shared by LSU and RT unit, the RT/HSU unit); a
:class:`~repro.gpusim.memory.MemorySystem` composes the shared L2 and DRAM
(or an idealized drop-in for ablations).  Every contended structure is
built from the :mod:`repro.gpusim.resource` occupancy primitives, so
next-free-cycle bookkeeping lives in one tested place and all timestamps
crossing component boundaries are integers.

Warps beyond the per-SM residency limit (``max_warps_per_sm``) start when a
resident warp on the same SM retires, modeling wave scheduling.

Observability: every component registers its own metrics into the
simulator's hierarchical
:class:`~repro.gpusim.observability.MetricsRegistry` under scoped names
(``sm0/l1/misses``, ``dram/activations``, ``derived/l1_miss_rate``) — the
:class:`SmCore` constructor registers the per-SM families, the memory
system registers ``l2/*`` and ``dram/*``, and the simulator itself keeps
the ``gpu/*`` and ``derived/*`` roots.  The legacy :class:`SimStats`
returned by :meth:`GpuSimulator.run` is an aggregation of that registry,
and per-SM/per-component values stay queryable on the simulator afterwards
(``sim.registry.value(...)``).  An optional
:class:`~repro.gpusim.observability.TimelineTracer` collects cycle-sampled
warp-occupancy / HSU-busy / MSHR-pressure / DRAM-row-hit series.  See
``docs/METRICS.md`` for the glossary and ``docs/ARCHITECTURE.md`` for the
component diagram.
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.gpusim import engine
from repro.gpusim.config import GpuConfig
from repro.kernels import get_backend
from repro.gpusim.memory import MemorySystem, build_memory
from repro.gpusim.observability import MetricsRegistry, TimelineTracer
from repro.gpusim.resource import Timeline
from repro.gpusim.rtunit import RtUnit
from repro.gpusim.scheduler import build_scheduler
from repro.gpusim.stats import SimStats
from repro.gpusim.trace import (
    KIND_ALU,
    KIND_HSU,
    KIND_LDG,
    KIND_LDS,
    KIND_SFU,
    KernelTrace,
)

_KINDS = (KIND_ALU, KIND_SFU, KIND_LDS, KIND_LDG, KIND_HSU)

#: Doc/figure strings for an SM's L1 probe set (see Cache.register_metrics).
_L1_DOCS = {
    "accesses": ("L1D line accesses (LSU + RT-unit fetch port).", "Fig. 12"),
    "hits": ("L1D hits (MSHR merges count as hits, §VI-J).", ""),
    "misses": ("L1D true misses (MSHR allocated).", "Fig. 13"),
    "mshr_merges": ("Accesses merged into an outstanding L1 MSHR.", ""),
    "mshr_stalls": (
        "Accesses stalled waiting for a free L1 MSHR.",
        "Fig. 11",
    ),
    "miss_rate": ("This SM's L1D miss rate (misses / accesses).", "Fig. 13"),
}


class SmCore:
    """One streaming multiprocessor: the execution-unit component.

    Owns the SM's private resources (sub-core issue ports as
    :class:`~repro.gpusim.resource.Timeline` instances, the L1 built by the
    memory system, the RT/HSU unit) and the per-instruction issue logic
    (:meth:`issue`: the semantics the event engine's SoA tiers reproduce,
    driven directly by the per-cycle reference stepper in the tests).
    Scheduler attribution counters accumulate in plain slots for event-loop
    speed; :meth:`publish` flushes them into the registry counters this
    constructor registered.
    """

    __slots__ = (
        "config",
        "l1",
        "rt_unit",
        "_coalesce",
        "subcores",
        "resident",
        "retire_heap",
        "sched_wi",
        "sched_able",
        "sched_other",
        "sched_kinds",
        "_m_wi",
        "_m_able",
        "_m_other",
        "_m_kinds",
    )

    def __init__(
        self,
        index: int,
        config: GpuConfig,
        memory: MemorySystem,
        registry: MetricsRegistry,
        tracer: TimelineTracer | None = None,
    ) -> None:
        self.config = config
        self.l1 = memory.make_l1(tracer)
        self.rt_unit = RtUnit(
            config, self.l1, fill_path=memory.l1_fill_path, tracer=tracer
        )
        # The coalescing kernel runs once per LDG warp op.
        self._coalesce = get_backend().coalesce_lines
        # Sub-core issue ports: one instruction per cycle each.
        self.subcores = [Timeline() for _ in range(config.subcores_per_sm)]
        self.resident = 0
        # Completion times of resident warps (for wave admission).
        self.retire_heap: list[int] = []
        self.sched_wi = 0
        self.sched_able = 0
        self.sched_other = 0
        self.sched_kinds = dict.fromkeys(_KINDS, 0)
        self._register_metrics(registry.scope(f"sm{index}"))

    def _register_metrics(self, scope) -> None:
        sched = scope.scope("sched")
        self._m_wi = sched.counter(
            "warp_instructions",
            unit="instructions",
            doc="Warp-level instructions issued on this SM "
            "(repeat-expanded).",
        )
        self._m_able = sched.counter(
            "hsu_able_busy_cycles",
            unit="cycles",
            doc="Warp-busy cycles spent on HSU-able instructions.",
            figure="Fig. 7",
        )
        self._m_other = sched.counter(
            "other_busy_cycles",
            unit="cycles",
            doc="Warp-busy cycles spent on non-HSU-able instructions.",
            figure="Fig. 7",
        )
        kinds_scope = sched.scope("instructions")
        self._m_kinds = {
            kind: kinds_scope.counter(
                kind,
                unit="instructions",
                doc=f"Issued {kind} warp instructions "
                "(HSU chains count once).",
            )
            for kind in _KINDS
        }
        self.l1.register_metrics(scope.scope("l1"), _L1_DOCS)
        self.rt_unit.register_metrics(scope.scope("rt"))

    def issue(self, instr, subcore: int, ready: int) -> int:
        """Issue one warp instruction on a sub-core; returns its done cycle."""
        config = self.config
        port = self.subcores[subcore]
        issue = port.begin(ready)
        self.sched_kinds[instr.kind] += (
            instr.repeat if instr.kind != KIND_HSU else 1
        )
        self.sched_wi += instr.repeat

        if instr.kind == KIND_ALU:
            port.hold_until(issue + instr.repeat)
            done = issue + instr.repeat - 1 + instr.chain * config.alu_latency
        elif instr.kind == KIND_SFU:
            port.hold_until(issue + instr.repeat)
            done = issue + instr.repeat - 1 + instr.chain * config.sfu_latency
        elif instr.kind == KIND_LDS:
            port.hold_until(issue + instr.repeat)
            done = (
                issue + instr.repeat - 1 + instr.chain * config.shared_latency
            )
        elif instr.kind == KIND_LDG:
            port.hold_until(issue + instr.repeat)
            done = issue
            for line in self._coalesce(
                instr.addrs, instr.bytes_per_thread, config.line_bytes
            ):
                fill, _hit = self.l1.access(line, issue)
                if fill > done:
                    done = fill
        elif instr.kind == KIND_HSU:
            port.hold_until(issue + 1)
            done = self.rt_unit.execute(instr, issue)
        else:  # pragma: no cover - trace validation rejects this
            raise TraceError(f"unknown kind {instr.kind!r}")

        busy = done - issue + 1
        if instr.hsu_able or instr.kind == KIND_HSU:
            self.sched_able += busy
        else:
            self.sched_other += busy
        return done

    def next_event_cycle(self) -> int:
        """Earliest cycle any of this SM's resources next changes state:
        a sub-core issue port freeing, the L1's next fill (or tag-port
        grant), or the RT unit releasing a buffer/datapath slot."""
        horizon = self.l1.next_event_cycle()
        rt = self.rt_unit.next_event_cycle()
        if rt < horizon:
            horizon = rt
        for port in self.subcores:
            busy = port.busy_until
            if busy < horizon:
                horizon = busy
        return horizon

    def publish(self) -> None:
        """Flush the plain-slot attribution counters into the registry."""
        self._m_wi.add(self.sched_wi)
        self._m_able.add(self.sched_able)
        self._m_other.add(self.sched_other)
        for kind, count in self.sched_kinds.items():
            self._m_kinds[kind].add(count)


class GpuSimulator:
    """Simulate one kernel trace on one GPU configuration.

    Composition root: builds the memory system and scheduler named by the
    config, one :class:`SmCore` per SM, and the metrics registry they all
    register into; :meth:`run` runs the policy-agnostic event engine.
    """

    def __init__(
        self,
        config: GpuConfig,
        kernel: KernelTrace,
        tracer: TimelineTracer | None = None,
    ) -> None:
        kernel.validate()
        self.config = config
        self.kernel = kernel
        self.tracer = tracer
        self.registry = MetricsRegistry()
        self.memory = build_memory(config, tracer)
        self.memory.register_metrics(self.registry)
        self.sms = [
            SmCore(index, config, self.memory, self.registry, tracer)
            for index in range(config.num_sms)
        ]
        self.scheduler = build_scheduler(config.scheduler)
        self._register_metrics()
        # Trace lowering happens at ingest: the engine's SoA columns are a
        # pure function of (trace, config), so packing here keeps
        # :meth:`run` free of lowering cost (and out of the benchmarked
        # simulate phase, mirroring how trace *generation* is not
        # simulation either).
        self._packed = engine.pack_kernel(kernel, config)

    @property
    def l2(self):
        """The memory system's shared L2 (convenience passthrough)."""
        return self.memory.l2

    @property
    def dram(self):
        """The memory system's DRAM model (convenience passthrough)."""
        return self.memory.dram

    # -- metric registration ----------------------------------------------

    def _register_metrics(self) -> None:
        """Register the simulator-owned ``gpu/*`` and ``derived/*`` roots.

        Component metrics (``sm*/...``, ``l2/...``, ``dram/...``) are
        registered by the components' own constructors; only kernel-level
        gauges and the cross-component derived ratios live here.
        """
        reg = self.registry
        gpu = reg.scope("gpu")
        self._m_cycles = gpu.gauge(
            "cycles",
            unit="cycles",
            doc="Total kernel execution time (last warp retirement).",
            figure="Figs. 9-11",
        )
        self._m_warps = gpu.gauge(
            "warps_launched",
            unit="warps",
            doc="Warps in the kernel trace (resident + wave-scheduled).",
        )
        engine_scope = gpu.scope("engine")
        self._m_events = engine_scope.gauge(
            "events",
            unit="events",
            doc="Scheduler events processed by the skip-to-next-event "
            "engine (one per warp-instruction issue).",
        )
        self._m_chain_events = engine_scope.gauge(
            "chain_events",
            unit="events",
            doc="Events the engine's singleton chain issued (pure "
            "ALU/SFU/LDS events); events minus this is the scalar tier.",
        )
        self._m_idle_skipped = engine_scope.gauge(
            "idle_cycles_skipped",
            unit="cycles",
            doc="Idle cycles the event engine jumped over (cycles a "
            "per-cycle stepper would have ticked with nothing to issue).",
        )
        gpu.gauge(
            "scheduler_policy",
            doc="Active warp-scheduler policy name (string-valued).",
        ).set(self.config.scheduler)
        gpu.gauge(
            "memory_model",
            doc="Active memory model name (string-valued).",
        ).set(self.config.memory)

        derived = reg.scope("derived")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        derived.derived(
            "l1_miss_rate",
            lambda r: ratio(r.sum("sm*/l1/misses"), r.sum("sm*/l1/accesses")),
            doc="Chip-wide L1D miss rate (all SMs).",
            figure="Fig. 13",
        )
        derived.derived(
            "l2_miss_rate",
            lambda r: ratio(r.value("l2/misses"), r.value("l2/accesses")),
            doc="L2 miss rate.",
            figure="Fig. 13",
        )
        derived.derived(
            "hsu_able_fraction",
            lambda r: ratio(
                r.sum("sm*/sched/hsu_able_busy_cycles"),
                r.sum("sm*/sched/hsu_able_busy_cycles")
                + r.sum("sm*/sched/other_busy_cycles"),
            ),
            doc="Share of warp-busy time attributable to HSU-able work.",
            figure="Fig. 7",
        )
        derived.derived(
            "hsu_ops_per_cycle",
            lambda r: ratio(r.sum("sm*/rt/thread_beats"), r.value("gpu/cycles")),
            unit="beats/cycle",
            doc="Roofline y-axis: thread-beats retired per cycle (max 1).",
            figure="Fig. 8",
        )
        derived.derived(
            "hsu_ops_per_l2_line",
            lambda r: ratio(
                r.sum("sm*/rt/thread_beats"), r.value("l2/accesses")
            ),
            unit="beats/line",
            doc="Roofline x-axis: operational intensity in ops per L2 line.",
            figure="Fig. 8",
        )
        derived.derived(
            "dram_row_locality_arrival",
            lambda r: ratio(r.value("dram/accesses"), r.value("dram/activations")),
            unit="accesses/activation",
            doc="Row locality under arrival-order service.",
            figure="Fig. 14",
        )
        derived.derived(
            "dram_row_locality_frfcfs",
            lambda r: ratio(
                r.value("dram/accesses"), r.value("dram/frfcfs_activations")
            ),
            unit="accesses/activation",
            doc="Row locality under the FR-FCFS replay (§VI-J).",
            figure="Fig. 14",
        )

    # -- simulation -------------------------------------------------------

    def next_event_cycle(self) -> int | None:
        """The device-wide event horizon: the scheduler's next ready cycle.

        Every state change in the model is driven by a warp becoming
        issueable — component resources (``SmCore``, caches, DRAM) only
        advance when an instruction issues into them — so the scheduler's
        horizon is the global one.  Component horizons
        (:meth:`SmCore.next_event_cycle` and friends) bound when each
        resource next frees and are exposed for introspection and tests.
        Returns ``None`` when no work remains.
        """
        return self.scheduler.next_event_cycle()

    def run(self) -> SimStats:
        """Run the simulation on the event engine
        (:func:`repro.gpusim.engine.run_batched`)."""
        return engine.run_batched(self)


def simulate(
    config: GpuConfig,
    kernel: KernelTrace,
    tracer: TimelineTracer | None = None,
) -> SimStats:
    """Convenience wrapper: build a simulator and run it."""
    return GpuSimulator(config, kernel, tracer=tracer).run()
