"""Warp-level instruction traces — the simulator's input format.

A :class:`KernelTrace` is one kernel launch: every warp's instruction
stream, in order.  This mirrors the paper's methodology of feeding SASS
traces (with HSU-able sequences rewritten into HSU CISC instructions) to
Accel-Sim; our compiler (:mod:`repro.compiler`) produces the paired
baseline/HSU traces from one workload execution.

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

A trace is stored as flat columns, one row per instruction with the
warps back to back — never as one object per instruction:

* the int columns of :data:`COLUMNS`: ``kind`` (a :data:`KIND_CODES`
  code), ``active``, ``repeat``, ``chain``, ``hsu_able`` (0/1),
  ``opcode`` (an index into :data:`OPCODES`, ``-1`` for none), ``beats``
  and ``bytes_per_thread``;
* ``addrs``: every row's per-thread addresses, back to back; row ``i``
  owns ``addrs[addr_offsets[i]:addr_offsets[i + 1]]``;
* ``warp_offsets``: warp ``w`` owns rows
  ``[warp_offsets[w], warp_offsets[w + 1])``, and ``labels[w]`` names it.

The compiler builds traces with :meth:`KernelTrace.from_columns`; a
hand-built trace passes :class:`WarpTrace` lists of :class:`WarpInstr`
records to the constructor, which packs them into the same columns.
Either way the rows are validated once, here.  :attr:`KernelTrace.warps`
reads the columns back as read-only :class:`WarpTrace`/:class:`WarpInstr`
views, for :meth:`~repro.gpusim.gpu.SmCore.issue`, the per-cycle
reference stepper and tests; the event engine reads the columns through
:mod:`repro.gpusim.soa`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from repro.core.isa import Opcode
from repro.errors import TraceError

KIND_ALU = "alu"
KIND_SFU = "sfu"
KIND_LDS = "lds"
KIND_LDG = "ldg"
KIND_HSU = "hsu"

_KINDS = (KIND_ALU, KIND_SFU, KIND_LDS, KIND_LDG, KIND_HSU)

#: Kind name -> dense integer code, in :data:`_KINDS` order: the ``kind``
#: column.  The first three (alu/sfu/lds) are the *pure* kinds that never
#: touch the memory system.
KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_CODE_LDG = KIND_CODES[KIND_LDG]
_CODE_HSU = KIND_CODES[KIND_HSU]

#: HSU opcodes in ``opcode``-column code order (``-1`` codes "none").
OPCODES = tuple(Opcode)
_OPCODE_CODES = {opcode: code for code, opcode in enumerate(OPCODES)}

#: The per-instruction int columns and their storage dtypes, in
#: fingerprint order.
COLUMNS = {
    "kind": np.int8,
    "active": np.int8,
    "repeat": np.int32,
    "chain": np.int32,
    "hsu_able": np.int8,
    "opcode": np.int8,
    "beats": np.int32,
    "bytes_per_thread": np.int32,
}


#: First part of every fingerprint: the code tables the columns use.
_FINGERPRINT_TAG = (
    f"kernel-trace kinds={','.join(_KINDS)} "
    f"opcodes={','.join(opcode.value for opcode in OPCODES)}"
).encode("utf-8")


class WarpInstr(NamedTuple):
    """One warp-level instruction as a read-only record: a row of a
    :class:`KernelTrace` read back (:attr:`KernelTrace.warps`), or a row
    of a hand-built one."""

    kind: str
    active: int = 32
    repeat: int = 1
    addrs: tuple[int, ...] = ()
    bytes_per_thread: int = 0
    opcode: Opcode | None = None
    beats: int = 1
    hsu_able: bool = False
    chain: int = 1

    def __repr__(self) -> str:
        extra = ""
        if self.kind == KIND_HSU and self.opcode is not None:
            extra = f" {self.opcode.value} beats={self.beats}"
        elif self.kind == KIND_LDG:
            extra = f" {len(self.addrs)}x{self.bytes_per_thread}B"
        return f"<{self.kind} active={self.active} repeat={self.repeat}{extra}>"


@dataclass(slots=True)
class WarpTrace:
    """One warp's instruction records plus its label: how a hand-built
    trace is written down, and how :attr:`KernelTrace.warps` reads one
    back."""

    instructions: list[WarpInstr] = field(default_factory=list)
    #: Identifier for debugging (e.g. query index range).
    label: str = ""

    def append(self, instr: WarpInstr) -> None:
        self.instructions.append(instr)

    @property
    def length(self) -> int:
        return len(self.instructions)


def _check_rows(columns: dict[str, np.ndarray], num_addrs: np.ndarray) -> None:
    """Raise :class:`TraceError` on the first rule any row breaks."""
    kind = columns["kind"]
    ldg = kind == _CODE_LDG
    hsu = kind == _CODE_HSU
    rules = (
        ((kind < 0) | (kind >= len(_KINDS)), "kind",
         "unknown instruction kind code {}"),
        ((columns["active"] < 1) | (columns["active"] > 32), "active",
         "active thread count {} outside [1, 32]"),
        (columns["repeat"] < 1, None, "repeat must be >= 1"),
        (ldg & (num_addrs == 0), None, "ldg requires per-thread addresses"),
        (columns["chain"] < 1, None, "chain must be >= 1"),
        ((columns["opcode"] < -1) | (columns["opcode"] >= len(OPCODES)),
         "opcode", "unknown opcode code {}"),
        (hsu & (columns["opcode"] < 0), None,
         "hsu instruction requires an opcode"),
        (hsu & (num_addrs == 0), None,
         "hsu instruction requires fetch addresses"),
        (hsu & (columns["beats"] < 1), None, "beats must be >= 1"),
        ((columns["hsu_able"] < 0) | (columns["hsu_able"] > 1), "hsu_able",
         "hsu_able must be 0 or 1, got {}"),
    ) + tuple(
        ((columns[key] < np.iinfo(dtype).min)
         | (columns[key] > np.iinfo(dtype).max), key,
         f"{key} {{}} does not fit its {np.dtype(dtype).name} column")
        for key, dtype in COLUMNS.items()
    )
    for bad, name, message in rules:
        if bad.any():
            value = columns[name][bad][0] if name else None
            raise TraceError(message.format(value))


class KernelTrace:
    """A full kernel launch: all warps of all thread blocks, as columns
    (see the module docstring).

    ``KernelTrace(warps, name)`` packs hand-built :class:`WarpTrace`
    records; the compiler calls :meth:`from_columns`.
    """

    __slots__ = ("name", "labels", "warp_offsets", "addr_offsets", "addrs",
                 *COLUMNS)

    def __init__(self, warps: Iterable[WarpTrace] = (), name: str = "") -> None:
        warps = list(warps)
        rows = [instr for warp in warps for instr in warp.instructions]
        columns = {key: [] for key in COLUMNS}
        for instr in rows:
            if instr.kind not in KIND_CODES:
                raise TraceError(f"unknown instruction kind {instr.kind!r}")
            if instr.opcode is not None and instr.opcode not in _OPCODE_CODES:
                raise TraceError(f"unknown opcode {instr.opcode!r}")
            columns["kind"].append(KIND_CODES[instr.kind])
            columns["active"].append(instr.active)
            columns["repeat"].append(instr.repeat)
            columns["chain"].append(instr.chain)
            columns["hsu_able"].append(1 if instr.hsu_able else 0)
            columns["opcode"].append(
                -1 if instr.opcode is None else _OPCODE_CODES[instr.opcode]
            )
            columns["beats"].append(instr.beats)
            columns["bytes_per_thread"].append(instr.bytes_per_thread)
        self._assign(
            name,
            [warp.label for warp in warps],
            np.cumsum([0, *(len(warp.instructions) for warp in warps)]),
            np.cumsum([0, *(len(instr.addrs) for instr in rows)]),
            [addr for instr in rows for addr in instr.addrs],
            columns,
        )

    @classmethod
    def from_columns(
        cls,
        name: str,
        labels: list[str],
        warp_offsets,
        addr_offsets,
        addrs,
        **columns,
    ) -> KernelTrace:
        """A trace over ready-made columns (one array per name in
        :data:`COLUMNS`), validated like a hand-built one."""
        trace = cls.__new__(cls)
        trace._assign(name, labels, warp_offsets, addr_offsets, addrs, columns)
        return trace

    def _assign(self, name, labels, warp_offsets, addr_offsets, addrs,
                columns) -> None:
        if set(columns) != set(COLUMNS):
            raise TraceError(f"trace columns must be exactly {list(COLUMNS)}")
        wide = {key: np.asarray(columns[key], dtype=np.int64) for key in COLUMNS}
        rows = wide["kind"].shape[0]
        warp_offsets = np.array(warp_offsets, dtype=np.int64)
        addr_offsets = np.array(addr_offsets, dtype=np.int64)
        addrs = np.array(addrs, dtype=np.int64)
        if (
            any(column.shape != (rows,) for column in wide.values())
            or warp_offsets.shape != (len(labels) + 1,)
            or addr_offsets.shape != (rows + 1,)
            or warp_offsets[0] != 0 or warp_offsets[-1] != rows
            or addr_offsets[0] != 0 or addr_offsets[-1] != addrs.shape[0]
            or (np.diff(warp_offsets) < 0).any()
        ):
            raise TraceError(f"kernel {name!r} has malformed column shapes")
        num_addrs = np.diff(addr_offsets)
        if (num_addrs < 0).any():
            raise TraceError(f"kernel {name!r} has decreasing address offsets")
        _check_rows(wide, num_addrs)
        self.name = name
        self.labels = list(labels)
        self.warp_offsets = warp_offsets
        self.addr_offsets = addr_offsets
        self.addrs = addrs
        for key, dtype in COLUMNS.items():
            setattr(self, key, wide[key].astype(dtype))
        # The trace owns its arrays and they stay as validated.
        for array in (warp_offsets, addr_offsets, addrs,
                      *(getattr(self, key) for key in COLUMNS)):
            array.flags.writeable = False

    @property
    def num_warps(self) -> int:
        return len(self.labels)

    def total_instructions(self) -> int:
        return int(self.kind.shape[0])

    @property
    def warps(self) -> list[WarpTrace]:
        """Every warp as a :class:`WarpTrace` of :class:`WarpInstr` views,
        built afresh on each access (editing them leaves the trace as it
        is)."""
        flat = self.addrs.tolist()
        bounds = self.addr_offsets.tolist()
        rows = [
            WarpInstr(
                _KINDS[kind], active, repeat,
                tuple(flat[bounds[index]:bounds[index + 1]]),
                size, None if opcode < 0 else OPCODES[opcode], beats,
                bool(able), chain,
            )
            for index, (kind, active, repeat, chain, able, opcode, beats, size)
            in enumerate(zip(*(getattr(self, key).tolist() for key in COLUMNS)))
        ]
        offsets = self.warp_offsets.tolist()
        return [
            WarpTrace(rows[offsets[w]:offsets[w + 1]], label)
            for w, label in enumerate(self.labels)
        ]

    def validate(self) -> None:
        if not self.labels:
            raise TraceError(f"kernel {self.name!r} has no warps")
        empty = np.flatnonzero(np.diff(self.warp_offsets) == 0)
        if empty.size:
            raise TraceError(f"warp {int(empty[0])} of {self.name!r} is empty")

    def fingerprint(self) -> str:
        """Stable content hash of the whole trace (hex digest).

        Covers the kernel name, every warp label and offset, every
        address and its offsets, and every column of :data:`COLUMNS`, so
        two traces hash equal iff the simulator would see identical
        inputs.  Each part is digested as its byte length and its bytes,
        every int array as little-endian int64, after a tag naming the
        kind and opcode codes.  The campaign result cache
        (:mod:`repro.experiments.campaign`) uses this as the trace
        component of its content-addressed keys: any change to workload
        code or lowering that alters the emitted trace changes the
        fingerprint and therefore busts the cache.
        """
        labels = [label.encode("utf-8") for label in self.labels]
        arrays = (
            np.array([len(label) for label in labels]),
            self.warp_offsets,
            self.addr_offsets,
            self.addrs,
            *(getattr(self, key) for key in COLUMNS),
        )
        digest = hashlib.blake2b(digest_size=20)
        for part in (
            _FINGERPRINT_TAG,
            self.name.encode("utf-8"),
            b"".join(labels),
            *(np.asarray(array, dtype="<i8").tobytes() for array in arrays),
        ):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
        return digest.hexdigest()

    def __repr__(self) -> str:
        return (f"KernelTrace(name={self.name!r}, warps={self.num_warps}, "
                f"instructions={self.total_instructions()})")
