"""Warp-level instruction traces — the simulator's input format.

A :class:`KernelTrace` is a list of :class:`WarpTrace`; each warp executes
its instruction list in order.  This mirrors the paper's methodology of
feeding SASS traces (with HSU-able sequences rewritten into HSU CISC
instructions) to Accel-Sim; our compiler (:mod:`repro.compiler`) produces
the paired baseline/HSU traces from one workload execution.

Instruction kinds:

* ``alu`` — ``repeat`` back-to-back SIMD arithmetic instructions;
  ``chain`` gives the length of the longest dependent chain among them, so
  the simulator can charge realistic dependency-stall latency (an
  FMA-accumulate loop or a shuffle reduction serializes even though each
  instruction issues in one cycle),
* ``sfu`` — special-function ops (sqrt/div epilogues of angular distance),
* ``lds`` — shared-memory ops (traversal stacks, GGNN's priority cache),
* ``ldg`` — a global load: per-active-thread base addresses + bytes each,
* ``hsu`` — one HSU CISC instruction (a full multi-beat chain is carried as
  one record with ``beats >= 1``, since the accumulate lock makes the chain
  atomic in the datapath anyway).

``hsu_able`` tags baseline instructions that an HSU could have absorbed —
the attribution Fig. 7 measures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.isa import Opcode
from repro.errors import TraceError

KIND_ALU = "alu"
KIND_SFU = "sfu"
KIND_LDS = "lds"
KIND_LDG = "ldg"
KIND_HSU = "hsu"

_KINDS = (KIND_ALU, KIND_SFU, KIND_LDS, KIND_LDG, KIND_HSU)

#: Kind name -> dense integer code, in :data:`_KINDS` order.  The batched
#: event engine's SoA lowering (:mod:`repro.gpusim.soa`) stores these
#: codes instead of the kind strings; the first three (alu/sfu/lds) are
#: the *pure* kinds that never touch the memory system.
KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}


class WarpInstr:
    """One warp-level instruction (compact: __slots__, shared by millions)."""

    __slots__ = (
        "kind",
        "active",
        "repeat",
        "addrs",
        "bytes_per_thread",
        "opcode",
        "beats",
        "hsu_able",
        "chain",
    )

    def __init__(
        self,
        kind: str,
        active: int = 32,
        repeat: int = 1,
        addrs: tuple[int, ...] = (),
        bytes_per_thread: int = 0,
        opcode: Opcode | None = None,
        beats: int = 1,
        hsu_able: bool = False,
        chain: int = 1,
    ) -> None:
        if kind not in _KINDS:
            raise TraceError(f"unknown instruction kind {kind!r}")
        if not 1 <= active <= 32:
            raise TraceError(f"active thread count {active} outside [1, 32]")
        if repeat < 1:
            raise TraceError("repeat must be >= 1")
        if kind == KIND_LDG and not addrs:
            raise TraceError("ldg requires per-thread addresses")
        if chain < 1:
            raise TraceError("chain must be >= 1")
        if kind == KIND_HSU:
            if opcode is None:
                raise TraceError("hsu instruction requires an opcode")
            if not addrs:
                raise TraceError("hsu instruction requires fetch addresses")
            if beats < 1:
                raise TraceError("beats must be >= 1")
        self.kind = kind
        self.active = active
        self.repeat = repeat
        self.addrs = addrs
        self.bytes_per_thread = bytes_per_thread
        self.opcode = opcode
        self.beats = beats
        self.hsu_able = hsu_able
        self.chain = chain

    def __repr__(self) -> str:
        extra = ""
        if self.kind == KIND_HSU and self.opcode is not None:
            extra = f" {self.opcode.value} beats={self.beats}"
        elif self.kind == KIND_LDG:
            extra = f" {len(self.addrs)}x{self.bytes_per_thread}B"
        return f"<{self.kind} active={self.active} repeat={self.repeat}{extra}>"


@dataclass(slots=True)
class WarpTrace:
    """One warp's instruction stream plus bookkeeping.

    ``slots=True``: a smoke campaign materializes thousands per run, and a
    full sweep millions; skipping per-instance ``__dict__`` keeps them
    compact without changing pickling or equality.
    """

    instructions: list[WarpInstr] = field(default_factory=list)
    #: Identifier for debugging (e.g. query index range).
    label: str = ""

    def append(self, instr: WarpInstr) -> None:
        self.instructions.append(instr)

    @property
    def length(self) -> int:
        return len(self.instructions)


@dataclass(slots=True)
class KernelTrace:
    """A full kernel launch: all warps of all thread blocks."""

    warps: list[WarpTrace] = field(default_factory=list)
    name: str = ""

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    def total_instructions(self) -> int:
        return sum(w.length for w in self.warps)

    def validate(self) -> None:
        if not self.warps:
            raise TraceError(f"kernel {self.name!r} has no warps")
        for index, warp in enumerate(self.warps):
            if not warp.instructions:
                raise TraceError(f"warp {index} of {self.name!r} is empty")

    def fingerprint(self) -> str:
        """Stable content hash of the whole trace (hex digest).

        Covers every field of every instruction of every warp (plus warp
        labels and the kernel name), so two traces hash equal iff the
        simulator would see identical inputs.  The campaign result cache
        (:mod:`repro.experiments.campaign`) uses this as the trace
        component of its content-addressed keys: any change to workload
        code or lowering that alters the emitted trace changes the
        fingerprint and therefore busts the cache.
        """
        digest = hashlib.blake2b(digest_size=20)
        digest.update(self.name.encode("utf-8"))
        # One update per warp: the digest streams over the same bytes as
        # one update over the whole serialized trace, holding one warp's
        # records at a time.
        for warp in self.warps:
            parts = [b"\x00warp\x00", warp.label.encode("utf-8")]
            append = parts.append
            for i in warp.instructions:
                # Formatted inline (each field through !r), byte-identical
                # to repr() of the 9-field record tuple the digest has
                # always covered — tests pin the hex digests.
                opcode = i.opcode.value if i.opcode is not None else None
                append(
                    f"({i.kind!r}, {i.active!r}, {i.repeat!r}, {i.addrs!r},"
                    f" {i.bytes_per_thread!r}, {opcode!r}, {i.beats!r},"
                    f" {i.hsu_able!r}, {i.chain!r})".encode("utf-8")
                )
            digest.update(b"".join(parts))
        return digest.hexdigest()
