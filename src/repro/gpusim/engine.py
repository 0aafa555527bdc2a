"""The warp-batched SoA event engine — the simulator's inner loop.

:func:`run_batched` runs one simulation over the flat columns
:mod:`repro.gpusim.soa` packs at ingest, jumping the clock straight to
the scheduler's event horizon.  Its :class:`~repro.gpusim.stats.SimStats`
are checked bit for bit against two independent oracles: a per-cycle
reference stepper that drives :meth:`~repro.gpusim.gpu.SmCore.issue`
one cycle at a time, across scheduler policies and memory models
(``tests/test_simcore_event_engine.py``), and the committed golden
``tests/goldens/gpusim_smoke.json``.

Two execution tiers:

1. **Singleton chain**: while the heap top is a *pure* event (ALU/SFU/LDS
   with a successor — no memory-system interaction, no retirement) due
   at the clock, issue it in place and swap it for its successor in one
   heap sift (``heapreplace``).  Safe unconditionally: a pure event
   completes strictly after the clock (``off >= 1``), so its successor
   can never precede any other same-horizon event in policy order —
   which is also why a horizon of any size (an admission wave) chains
   with the same result.  The chain attributes no counters at run time:
   every instruction issues exactly once, and a pure instruction's whole
   attribution (kind/warp-instruction counts and its ``off + 1`` busy
   span) is a pack-time constant, so the accumulators start from the
   per-SM static seeds :mod:`repro.gpusim.soa` precomputes.
2. **Scalar tier**: memory/HSU instructions, warp retirements and wave
   admissions, and deferred-admission events due before the current
   clock are processed one at a time with semantics identical to
   :meth:`~repro.gpusim.gpu.SmCore.issue` — including the same per-line
   cache port grants, via the batch
   :meth:`~repro.gpusim.cache.Cache.access_lines` fetch.  It attributes
   counters only for the non-pure events it handles; pure ones are
   already in the seed.

The ``gpu/engine/chain_events`` gauge counts the events the chain
issued; ``gpu/engine/events`` minus it is the scalar tier's share.
"""

from __future__ import annotations

import heapq

from repro.gpusim.config import GpuConfig
from repro.gpusim.observability.tracer import MODE_LAST
from repro.gpusim.scheduler import (
    GtoScheduler,
    LrrScheduler,
    OldestFirstScheduler,
)
from repro.gpusim.soa import pack_kernel
from repro.gpusim.stats import SimStats
from repro.gpusim.trace import KIND_CODES

#: ``pack_kernel`` is looked up here by :class:`~repro.gpusim.gpu.GpuSimulator`
#: at ingest, so a profiler can time packing by patching this module.
__all__ = ["pack_kernel", "resolve_engine_name", "run_batched"]

_KIND_NAMES = tuple(KIND_CODES)

#: Scheduler classes whose heap-entry layout the singleton chain inlines
#: (subclasses may change ``_key``, so exact-type match only).
_KNOWN_SCHEDULERS = (GtoScheduler, LrrScheduler, OldestFirstScheduler)


def resolve_engine_name(config: GpuConfig) -> str:
    """Name of the event engine: always ``"batched"``.  Benchmark records
    report it; ``config`` is not read."""
    return "batched"


def run_batched(sim) -> SimStats:
    """Run ``sim``'s kernel on the event engine (see the module doc)."""
    config = sim.config
    tracer = sim.tracer
    scheduler = sim.scheduler
    kernel = sim.kernel
    sms = sim.sms
    packed = sim._packed

    occupancy_channel = None
    if tracer is not None:
        occupancy_channel = tracer.channel(
            "gpu/warps_inflight", mode=MODE_LAST, unit="warps"
        )

    num_sms = config.num_sms
    subcores_per_sm = config.subcores_per_sm
    num_warps = kernel.num_warps

    # Static warp placement: round-robin over SMs, then sub-cores —
    # identical to the per-cycle stepper, flattened into per-warp columns.
    # ``warp_port`` is the flat sub-core issue-port id.
    warp_sm = [0] * num_warps
    warp_port = [0] * num_warps
    for index in range(num_warps):
        smi = index % num_sms
        subcore = (index // num_sms) % subcores_per_sm
        warp_sm[index] = smi
        warp_port[index] = smi * subcores_per_sm + subcore

    # Wave admission: a warp starts at cycle 0 if a residency slot is
    # free, else when the earliest resident warp on its SM retires.
    deferred: list[list[int]] = [[] for _ in range(num_sms)]
    max_warps = config.max_warps_per_sm
    for index in range(num_warps):
        sm = sms[warp_sm[index]]
        if sm.resident < max_warps:
            sm.resident += 1
            scheduler.push(0, index, 0)
        else:
            deferred[warp_sm[index]].append(index)

    inflight = len(scheduler)
    if occupancy_channel is not None:
        tracer.record(occupancy_channel, 0, inflight)

    # SoA engine state: flat issue-port busy-until times (the Timeline
    # mirror) and plain-int counter accumulators, seeded with the per-SM
    # static totals of every pure instruction (see the module doc).
    # Everything is flushed into the SmCore slots before publish().
    port_busy = [0] * (num_sms * subcores_per_sm)
    wi_list = list(packed.static_wi)
    able_list = list(packed.static_able)
    other_list = list(packed.static_other)
    kinds_list = [row[:] for row in packed.static_kinds]

    starts = packed.starts
    lengths = packed.lengths
    kind = packed.kind
    hold = packed.hold
    off = packed.off
    kcnt = packed.kcnt
    repeat = packed.repeat
    able = packed.able
    attrs = packed.attrs
    lines = packed.lines
    hsubusy = packed.hsubusy

    # Per-SM bound methods for the scalar tier's memory/HSU paths — one
    # list index instead of three attribute hops per event.
    l1_fetch = [sm.l1.access_lines for sm in sms]
    hsu_exec = [sm.rt_unit.execute_packed for sm in sms]

    heap = scheduler._heap
    push = scheduler.push
    replace = scheduler.replace
    heapreplace = heapq.heapreplace
    # Policy code for the singleton chain's inlined heapreplace entries
    # (-1 = unknown policy, fall back to the scheduler.replace method).
    pol = scheduler.policy_code if type(scheduler) in _KNOWN_SCHEDULERS \
        else -1
    finish = 0
    clock = 0
    chain_events = 0
    scalar_events = 0
    idle = 0

    while heap:
        top = heap[0]
        r0 = top[-3]
        w0 = top[-2]
        p0 = top[-1]
        gi0 = starts[w0] + p0
        a = attrs[gi0]

        if a is not None and r0 >= clock:
            # Tier 1: the singleton chain.  Pure events due *before* the
            # clock (deferred admissions) fall through to the scalar
            # tier — their completions may land at or before the clock,
            # so they cannot chain.
            if r0 > clock:
                idle += r0 - clock - 1
                clock = r0
            w = w0
            p = p0
            while True:
                h, o = a
                pp = warp_port[w]
                b = port_busy[pp]
                s = b if b > clock else clock
                port_busy[pp] = s + h
                done = s + o
                chain_events += 1
                p += 1
                # scheduler.replace with the entry built inline (policy
                # layouts from scheduler.py) — the method call is
                # measurable at one call per event.
                if pol == 0:
                    heapreplace(heap, (done, w, done, w, p))
                elif pol == 2:
                    heapreplace(heap, (done, p, w, done, w, p))
                elif pol == 1:
                    seq = scheduler._seq + 1
                    scheduler._seq = seq
                    heapreplace(heap, (done, seq, done, w, p))
                else:
                    replace(done, w, p)
                top = heap[0]
                if top[-3] != clock:
                    break
                w = top[-2]
                p = top[-1]
                a = attrs[starts[w] + p]
                if a is None:  # non-pure successor: scalar tier
                    break
            continue

        # Tier 2: scalar path — memory/HSU instructions, pure finals,
        # and any event due before the clock.  Identical semantics to
        # SmCore.issue plus the per-cycle stepper's retirement block.
        if r0 > clock:
            idle += r0 - clock - 1
            clock = r0
        heapq.heappop(heap)
        scalar_events += 1
        smi = warp_sm[w0]
        pp = warp_port[w0]
        kc = kind[gi0]
        b = port_busy[pp]
        s = b if b > r0 else r0
        if kc < 3:
            port_busy[pp] = s + hold[gi0]
            done = s + off[gi0]
        elif kc == 3:
            port_busy[pp] = s + hold[gi0]
            done = l1_fetch[smi](lines[gi0], s)
            if done < s:
                done = s
        else:
            port_busy[pp] = s + 1
            done = hsu_exec[smi](lines[gi0], hsubusy[gi0], s)
        if a is None:
            # Pure events are pre-attributed in the static seed.
            kinds_list[smi][kc] += kcnt[gi0]
            wi_list[smi] += repeat[gi0]
            if able[gi0]:
                able_list[smi] += done - s + 1
            else:
                other_list[smi] += done - s + 1

        p0 += 1
        if p0 < lengths[w0]:
            push(done, w0, p0)
        else:
            sm = sms[smi]
            if done > finish:
                finish = done
            heapq.heappush(sm.retire_heap, done)
            inflight -= 1
            if occupancy_channel is not None:
                tracer.record(occupancy_channel, done, inflight)
            if deferred[smi]:
                successor = deferred[smi].pop(0)
                start = heapq.heappop(sm.retire_heap)
                push(start, successor, 0)
                inflight += 1
                if occupancy_channel is not None:
                    tracer.record(occupancy_channel, start, inflight)

    # Flush the SoA accumulators into the SmCore slots, mirror the port
    # state back into the sub-core Timelines, then publish.
    sim._m_cycles.set(finish)
    sim._m_warps.set(num_warps)
    sim._m_events.set(chain_events + scalar_events)
    sim._m_chain_events.set(chain_events)
    sim._m_idle_skipped.set(idle)
    for smi, sm in enumerate(sms):
        sm.sched_wi += wi_list[smi]
        sm.sched_able += able_list[smi]
        sm.sched_other += other_list[smi]
        kinds = kinds_list[smi]
        for code, name in enumerate(_KIND_NAMES):
            sm.sched_kinds[name] += kinds[code]
        base = smi * subcores_per_sm
        for subcore in range(subcores_per_sm):
            sm.subcores[subcore].busy_until = port_busy[base + subcore]
        sm.publish()
    sim.memory.finish()

    stats = SimStats.from_registry(sim.registry)
    stats.check_dram_consistency()
    return stats
