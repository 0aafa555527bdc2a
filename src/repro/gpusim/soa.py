"""Structure-of-arrays trace lowering for the event engine.

:func:`pack_kernel` derives, once per trace at ingest, the per-instruction
columns the engine's inner loop indexes as ``gi = starts[warp] +
position`` (a CSR layout over warps).  It reads the trace's own columns
(:mod:`repro.gpusim.trace`) with numpy: every column below is a whole-trace
array expression, except the line sets, which are cut in chunks of
instructions (:data:`CHUNK_LINES`) so their temporaries stay a few MB:

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
* ``lines`` — each LDG/HSU instruction's sorted set of distinct cache
  lines (LDG: over all thread addresses; HSU: over the active threads'),
  the sets the per-cycle path's scalar coalescers compute from the raw
  addresses (the backend's ``coalesce_lines`` and
  :func:`~repro.gpusim.rtunit.hsu_coalesced_lines`): ``addr //
  line_bytes`` over the flat address array, then one sort and an
  adjacent compare per chunk.  A pack holds one int object per distinct
  line, not one per (instruction, line) pair,
* ``hsubusy`` — HSU datapath occupancy (``active * beats``).

Columns are plain Python lists (fastest for the engine's scalar
indexing); the ``attrs`` tuples are likewise one object per distinct
pair.  Packing reads only the config fields named in
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

import numpy as np

from repro.gpusim.config import GpuConfig
from repro.gpusim.trace import KIND_CODES, KernelTrace
from repro.search.events import segmented_arange

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
        kind = kernel.kind.astype(np.int64)
        rep = kernel.repeat.astype(np.int64)
        hsu = kind == _CODE_HSU
        starts = kernel.warp_offsets
        lengths = np.diff(starts)
        hold = np.where(hsu, 1, rep)
        latency = np.array([alu, sfu, shared, 0, 0], dtype=np.int64)[kind]
        off = np.where(kind < 3, rep - 1 + kernel.chain * latency, 0)
        able = (kernel.hsu_able != 0) | hsu
        last = np.zeros(kind.shape[0], dtype=bool)
        last[starts[1:][lengths > 0] - 1] = True
        pure = (kind < 3) & ~last & (off >= 1)

        # Per-SM totals of the pure instructions (round-robin placement).
        sm = np.repeat(np.arange(kernel.num_warps) % num_sms, lengths)[pure]
        busy = off[pure] + 1
        able_pure = able[pure]

        def per_sm(weights):
            return np.bincount(sm, weights, num_sms).astype(np.int64).tolist()

        self.static_kinds = (
            np.bincount(sm * 5 + kind[pure], rep[pure], num_sms * 5)
            .astype(np.int64).reshape(num_sms, 5).tolist()
        )
        self.static_wi = per_sm(rep[pure])
        self.static_able = per_sm(np.where(able_pure, busy, 0))
        self.static_other = per_sm(np.where(able_pure, 0, busy))

        self.starts = starts.tolist()
        self.lengths = lengths.tolist()
        self.kind = kind.tolist()
        self.hold = hold.tolist()
        self.off = off.tolist()
        # Every kind counts its repeats except HSU, which counts once:
        # exactly the issue-port hold.
        self.kcnt = self.hold
        self.repeat = rep.tolist()
        self.able = able.astype(np.int64).tolist()
        self.attrs = _shared_pairs(pure, hold, off)
        self.lines = _line_sets(kernel, line_bytes)
        self.hsubusy = np.where(
            hsu, kernel.active.astype(np.int64) * kernel.beats, 0
        ).tolist()


def _shared_pairs(pure: np.ndarray, hold: np.ndarray, off: np.ndarray) -> list:
    """``(hold, off)`` per pure instruction and ``None`` per other one,
    with one tuple object per distinct pair."""
    rows = np.flatnonzero(pure)
    order = np.lexsort((off[rows], hold[rows]))
    h, o = hold[rows][order], off[rows][order]
    new = np.ones(order.shape[0], dtype=bool)
    new[1:] = (h[1:] != h[:-1]) | (o[1:] != o[:-1])
    pairs = [None, *zip(h[new].tolist(), o[new].tolist())]
    code = np.zeros(pure.shape[0], dtype=np.int64)
    code[rows[order]] = np.cumsum(new)
    return list(map(pairs.__getitem__, code.tolist()))


#: Upper bound on the (instruction, line) candidates one chunk of
#: :func:`_line_sets` expands, so its temporaries stay a few MB however
#: large the trace.
CHUNK_LINES = 1 << 16


def _line_sets(kernel: KernelTrace, line_bytes: int) -> list:
    """Each instruction's sorted set of distinct cache lines, ``None`` for
    the kinds that fetch none.

    An LDG touches every line of ``[addr, addr + max(1,
    bytes_per_thread))`` for each of its addresses, an HSU instruction the
    lines of ``[addr, addr + max(1, beats * bytes_per_thread))`` for its
    first ``active`` addresses — the sets ``coalesce_lines`` and
    :func:`~repro.gpusim.rtunit.hsu_coalesced_lines` compute one address
    at a time on the per-cycle path.  Here every address of a chunk of
    instructions is cut into lines at once, and one sort plus an
    adjacent compare drops the duplicates within each instruction.  Each
    distinct line value is one int object for the whole pack.
    """
    kind = kernel.kind
    ldg, hsu = kind == _CODE_LDG, kind == _CODE_HSU
    offsets = kernel.addr_offsets
    used = np.where(
        hsu, np.minimum(np.diff(offsets), kernel.active), np.diff(offsets)
    )
    used[~(ldg | hsu)] = 0
    span = np.maximum(
        1,
        kernel.bytes_per_thread.astype(np.int64)
        * np.where(hsu, kernel.beats, 1),
    )
    lines: list = [None] * kind.shape[0]
    canon: dict[int, int] = {}
    # At most this many lines per address, summed per instruction.
    for lo, hi in _chunks(used * ((span - 1) // line_bytes + 2)):
        per = used[lo:hi]
        row = np.repeat(np.arange(hi - lo), per)
        pick = np.repeat(offsets[lo:hi], per) + segmented_arange(per)
        base = kernel.addrs[pick]
        first = base // line_bytes
        count = (base + span[lo:hi][row] - 1) // line_bytes - first + 1
        row = np.repeat(row, count)
        line = np.repeat(first, count) + segmented_arange(count)
        # Sort by (row, line) and keep the first of each run.
        low = int(line.min()) if line.size else 0
        width = int(line.max()) - low + 1 if line.size else 1
        if (hi - lo) * width < 1 << 62:
            packed = row * width + (line - low)
            packed.sort()
            row, line = packed // width, packed % width + low
        else:
            order = np.lexsort((line, row))
            row, line = row[order], line[order]
        keep = np.ones(row.shape[0], dtype=bool)
        keep[1:] = (row[1:] != row[:-1]) | (line[1:] != line[:-1])
        row, line = row[keep], line[keep] * line_bytes
        # One object per distinct line value: sort the chunk's lines once
        # more, make each distinct value once and gather the references.
        order = np.argsort(line, kind="stable")
        ranked = line[order]
        new = np.ones(ranked.shape[0], dtype=bool)
        new[1:] = ranked[1:] != ranked[:-1]
        values = [canon.setdefault(v, v) for v in ranked[new].tolist()]
        rank = np.empty(line.shape[0], dtype=np.int64)
        rank[order] = np.cumsum(new) - 1
        objects = list(map(values.__getitem__, rank.tolist()))
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(row, minlength=hi - lo)))
        ).tolist()
        for index in np.flatnonzero(used[lo:hi]).tolist():
            lines[lo + index] = objects[bounds[index]:bounds[index + 1]]
    return lines


def _chunks(weight: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive non-empty row ranges ``(lo, hi)`` covering every row,
    cut where the running total of ``weight`` passes a multiple of
    :data:`CHUNK_LINES`: a range weighs at most that plus its first
    row."""
    ends = np.searchsorted(
        np.cumsum(weight), np.arange(CHUNK_LINES, weight.sum(), CHUNK_LINES),
        side="right",
    ).tolist()
    bounds = [0, *ends, weight.shape[0]]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def pack_kernel(kernel: KernelTrace, config: GpuConfig) -> PackedKernel:
    """Lower ``kernel`` for ``config`` (see the module docstring)."""
    return PackedKernel(kernel, config)
