"""Structure-of-arrays trace lowering for the event engine.

Issuing straight from :class:`~repro.gpusim.trace.WarpInstr` objects (as
:meth:`~repro.gpusim.gpu.SmCore.issue` does) costs five attribute reads,
a string compare per kind, and (for loads) a fresh coalescing pass per
issued instruction.  :func:`pack_kernel` lowers a
:class:`~repro.gpusim.trace.KernelTrace` once, at ingest, into flat
per-instruction columns indexed ``gi = starts[warp] + position`` (a CSR
layout over warps):

* ``kind`` — integer kind code (:data:`KIND_CODES`),
* ``hold`` — sub-core issue-port occupancy in cycles (``repeat``, or 1
  for an HSU chain),
* ``off`` — completion offset for *pure* kinds: ``done = issue + off``
  with ``off = repeat - 1 + chain * latency`` (0 for memory kinds, whose
  completion the memory system decides),
* ``kcnt`` / ``repeat`` — the per-kind and warp-instruction counter
  increments (HSU chains count once in ``kcnt``),
* ``able`` — HSU-able attribution flag (Fig. 7),
* ``attrs`` — fused per-instruction ``(hold, off)`` tuple for *pure*
  instructions, ``None`` otherwise.  An instruction is pure iff it is an
  ALU/SFU/LDS op with a successor in its warp and ``off >= 1``: pure
  events never touch the memory system, never retire a warp, and always
  complete strictly after they issue — the three properties that let the
  engine's singleton chain (:mod:`repro.gpusim.engine`) issue them back
  to back.  The chain pays one list index + unpack per event instead of
  per-column indexings,
* ``static_kinds`` / ``static_wi`` / ``static_able`` / ``static_other``
  — per-SM counter totals over all *pure* instructions, precomputed
  here because every instruction issues exactly once per run and a pure
  instruction's whole attribution is static: kind counts and
  warp-instruction counts are trace constants, and its issue-busy span
  is ``done - issue + 1 = off + 1`` regardless of when it issues.  The
  engine seeds its accumulators with these and never attributes pure
  events in the singleton chain (the scalar tier simply skips
  attribution for the pure events it handles, see
  :mod:`repro.gpusim.engine`).  Placement uses the same
  round-robin ``smi = warp_index % num_sms`` as the engine,
* ``lines`` — the precomputed coalesced line list (LDG: the backend's
  ``coalesce_lines`` kernel over all thread addresses; HSU:
  :func:`~repro.gpusim.rtunit.hsu_coalesced_lines` over active threads),
* ``hsubusy`` — HSU datapath occupancy (``active * beats``).

Columns are plain Python lists (fastest for the engine's scalar
indexing).  Packing reads only the config fields named in
:data:`PACK_FIELDS` (their values form the *pack key*,
:func:`pack_key`) — never warp-buffer size, scheduler or memory model —
and is a pure function of the trace, so it cannot perturb fingerprints,
goldens, or cache keys.  A pack is therefore built once per trace and
pack key and may be shared by every simulation of that trace under any
config with the same key: a caller passes it in as
``GpuSimulator(config, kernel, packed=...)``, which checks that it was
built from that kernel under that key.  The engine only reads a pack.
"""

from __future__ import annotations

from repro.gpusim.config import GpuConfig
from repro.gpusim.rtunit import hsu_coalesced_lines
from repro.gpusim.trace import KIND_CODES, KernelTrace
from repro.kernels import get_backend

_CODE_LDG = KIND_CODES["ldg"]
_CODE_HSU = KIND_CODES["hsu"]

#: The ``GpuConfig`` fields a pack reads, in :func:`pack_key` order.
PACK_FIELDS = (
    "alu_latency",
    "sfu_latency",
    "shared_latency",
    "line_bytes",
    "num_sms",
)


def pack_key(config: GpuConfig) -> tuple:
    """The values of :data:`PACK_FIELDS` in ``config``: two configs with
    equal keys lower a trace to identical columns."""
    return tuple(getattr(config, name) for name in PACK_FIELDS)


class PackedKernel:
    """One kernel trace lowered into flat per-instruction columns.

    ``kernel`` and ``key`` record what the pack was built from: the trace
    object and the :func:`pack_key` of the config.  The config is read
    only through that key.
    """

    __slots__ = (
        "kernel",
        "key",
        "starts",
        "lengths",
        "kind",
        "hold",
        "off",
        "kcnt",
        "repeat",
        "able",
        "attrs",
        "static_kinds",
        "static_wi",
        "static_able",
        "static_other",
        "lines",
        "hsubusy",
    )

    def __init__(self, kernel: KernelTrace, config: GpuConfig) -> None:
        self.kernel = kernel
        self.key = pack_key(config)
        alu, sfu, shared, line_bytes, num_sms = self.key
        latencies = (alu, sfu, shared)
        coalesce = get_backend().coalesce_lines
        starts = [0]
        lengths = []
        kind: list[int] = []
        hold: list[int] = []
        off: list[int] = []
        kcnt: list[int] = []
        repeat: list[int] = []
        able: list[int] = []
        attrs: list = []
        lines: list = []
        static_kinds = [[0] * 5 for _ in range(num_sms)]
        static_wi = [0] * num_sms
        static_able = [0] * num_sms
        static_other = [0] * num_sms
        hsubusy: list[int] = []
        total = 0
        for windex, warp in enumerate(kernel.warps):
            smi = windex % num_sms
            kinds_row = static_kinds[smi]
            instructions = warp.instructions
            last = len(instructions) - 1
            for position, instr in enumerate(instructions):
                code = KIND_CODES[instr.kind]
                rep = instr.repeat
                if code < 3:
                    h = rep
                    o = rep - 1 + instr.chain * latencies[code]
                    kc = rep
                    ln = None
                    hb = 0
                    pure = 1 if position != last and o >= 1 else 0
                elif code == _CODE_LDG:
                    h = rep
                    o = 0
                    kc = rep
                    ln = coalesce(
                        instr.addrs, instr.bytes_per_thread, line_bytes
                    )
                    hb = 0
                    pure = 0
                else:
                    h = 1
                    o = 0
                    kc = 1
                    ln = hsu_coalesced_lines(instr, line_bytes)
                    hb = instr.active * instr.beats
                    pure = 0
                ab = 1 if (instr.hsu_able or code == _CODE_HSU) else 0
                kind.append(code)
                hold.append(h)
                off.append(o)
                kcnt.append(kc)
                repeat.append(rep)
                able.append(ab)
                if pure:
                    attrs.append((h, o))
                    kinds_row[code] += kc
                    static_wi[smi] += rep
                    if ab:
                        static_able[smi] += o + 1
                    else:
                        static_other[smi] += o + 1
                else:
                    attrs.append(None)
                lines.append(ln)
                hsubusy.append(hb)
            total += len(instructions)
            starts.append(total)
            lengths.append(len(instructions))
        self.starts = starts
        self.lengths = lengths
        self.kind = kind
        self.hold = hold
        self.off = off
        self.kcnt = kcnt
        self.repeat = repeat
        self.able = able
        self.attrs = attrs
        self.static_kinds = static_kinds
        self.static_wi = static_wi
        self.static_able = static_able
        self.static_other = static_other
        self.lines = lines
        self.hsubusy = hsubusy


def pack_kernel(kernel: KernelTrace, config: GpuConfig) -> PackedKernel:
    """Lower ``kernel`` for ``config`` (see the module docstring)."""
    return PackedKernel(kernel, config)
