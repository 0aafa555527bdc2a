"""Columnar kernel traces: validation, fingerprint and the vectorized pack.

The pack (:mod:`repro.gpusim.soa`) derives every engine column from the
trace's columns with numpy, in chunks.  Its oracle here is the
per-instruction computation over the :class:`WarpInstr` views, with line
sets from the per-cycle path's scalar coalescers.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import TraceError
from repro.gpusim import VOLTA_V100, soa
from repro.gpusim.rtunit import hsu_coalesced_lines
from repro.gpusim.soa import PackedKernel, pack_key, pack_kernel
from repro.gpusim.trace import (
    COLUMNS,
    KIND_CODES,
    OPCODES,
    KernelTrace,
    WarpInstr,
    WarpTrace,
)
from repro.kernels import get_backend

LDG, HSU = KIND_CODES["ldg"], KIND_CODES["hsu"]
KINDS = tuple(KIND_CODES)
CONFIGS = (
    replace(VOLTA_V100, num_sms=3),
    replace(VOLTA_V100, num_sms=2, line_bytes=64, alu_latency=6),
)


def random_trace(seed: int, line_bytes: int = 128) -> KernelTrace:
    """A columnar trace of every kind, with one-instruction warps, spans
    wider than a line, addresses on and around line boundaries, repeated
    addresses, HSU fetches of several lines, HSU rows with more or fewer
    addresses than active threads, and stray addresses on pure rows."""
    rng = np.random.default_rng(seed)
    num_warps = int(rng.integers(2, 40))
    lengths = np.where(rng.random(num_warps) < 0.3, 1,
                       rng.integers(1, 14, num_warps))
    rows = int(lengths.sum())
    kind = rng.integers(0, 5, rows)
    memory = (kind == LDG) | (kind == HSU)
    num_addrs = np.where(memory, rng.integers(1, 33, rows), 0)
    num_addrs[~memory & (rng.random(rows) < 0.1)] = 3
    total = int(num_addrs.sum())
    # A small pool of lines makes repeats likely within and across rows.
    line = 0x10_0000 + rng.integers(0, 48, total)
    offset = rng.choice([0, 0, 1, line_bytes // 2, line_bytes - 4,
                         line_bytes - 1], total)
    addrs = line * line_bytes + offset
    bpt = rng.choice([0, 4, 12, line_bytes - 1, line_bytes, line_bytes + 1,
                      3 * line_bytes + 5], rows)
    hsu_bpt = rng.choice([0, 8, 32, 48, 96], rows)
    columns = {
        "kind": kind,
        "active": rng.integers(1, 33, rows),
        "repeat": rng.integers(1, 6, rows),
        "chain": rng.integers(1, 5, rows),
        "hsu_able": rng.integers(0, 2, rows),
        "opcode": np.where(kind == HSU, rng.integers(0, len(OPCODES), rows), -1),
        "beats": rng.integers(1, 5, rows),
        "bytes_per_thread": np.where(kind == HSU, hsu_bpt, bpt),
    }
    return KernelTrace.from_columns(
        f"random-{seed}",
        [f"w{w}" for w in range(num_warps)],
        np.concatenate(([0], np.cumsum(lengths))),
        np.concatenate(([0], np.cumsum(num_addrs))),
        addrs,
        **columns,
    )


def reference_pack(kernel: KernelTrace, config) -> dict[str, object]:
    """Every pack column, one instruction at a time over the views."""
    alu, sfu, shared, line_bytes, num_sms = pack_key(config)
    latency = {"alu": alu, "sfu": sfu, "lds": shared}
    coalesce = get_backend().coalesce_lines
    ref: dict[str, list] = {
        name: [] for name in ("kind", "hold", "off", "kcnt", "repeat",
                              "able", "attrs", "lines", "hsubusy")
    }
    static_kinds = [[0] * 5 for _ in range(num_sms)]
    static_wi, static_able, static_other = ([0] * num_sms for _ in range(3))
    starts, lengths = [0], []
    for index, warp in enumerate(kernel.warps):
        sm = index % num_sms
        for position, instr in enumerate(warp.instructions):
            pure_kind = instr.kind in latency
            hold = 1 if instr.kind == "hsu" else instr.repeat
            off = (instr.repeat - 1 + instr.chain * latency[instr.kind]
                   if pure_kind else 0)
            able = int(instr.hsu_able or instr.kind == "hsu")
            pure = pure_kind and position < warp.length - 1 and off >= 1
            if instr.kind == "ldg":
                lines = coalesce(instr.addrs, instr.bytes_per_thread, line_bytes)
            elif instr.kind == "hsu":
                lines = hsu_coalesced_lines(instr, line_bytes)
            else:
                lines = None
            ref["kind"].append(KIND_CODES[instr.kind])
            ref["hold"].append(hold)
            ref["off"].append(off)
            ref["kcnt"].append(1 if instr.kind == "hsu" else instr.repeat)
            ref["repeat"].append(instr.repeat)
            ref["able"].append(able)
            ref["attrs"].append((hold, off) if pure else None)
            ref["lines"].append(lines)
            ref["hsubusy"].append(
                instr.active * instr.beats if instr.kind == "hsu" else 0
            )
            if pure:
                static_kinds[sm][KIND_CODES[instr.kind]] += instr.repeat
                static_wi[sm] += instr.repeat
                (static_able if able else static_other)[sm] += off + 1
        starts.append(starts[-1] + warp.length)
        lengths.append(warp.length)
    ref.update(starts=starts, lengths=lengths, static_kinds=static_kinds,
               static_wi=static_wi, static_able=static_able,
               static_other=static_other)
    return ref


class TestPackMatchesReference:
    @pytest.mark.parametrize("chunk", [1 << 16, 64, 5, 1])
    @pytest.mark.parametrize("seed", range(6))
    def test_every_column(self, seed, chunk, monkeypatch):
        monkeypatch.setattr(soa, "CHUNK_LINES", chunk)
        for config in CONFIGS:
            kernel = random_trace(seed, config.line_bytes)
            ref = reference_pack(kernel, config)
            assert set(ref) == set(PackedKernel.__slots__) - {"kernel", "key"}
            packed = pack_kernel(kernel, config)
            for name, expected in ref.items():
                assert getattr(packed, name) == expected, (name, seed, chunk)

    def test_warps_straddle_chunk_boundaries(self, monkeypatch):
        """With a small budget, chunk ends fall inside warps, and the
        pack still equals the reference."""
        monkeypatch.setattr(soa, "CHUNK_LINES", 40)
        chunks = []
        real = soa._chunks

        def recorded(weight):
            ranges = list(real(weight))
            chunks.extend(ranges)
            return ranges

        monkeypatch.setattr(soa, "_chunks", recorded)
        kernel = random_trace(3)
        packed = pack_kernel(kernel, CONFIGS[0])
        starts = kernel.warp_offsets.tolist()
        inside = [hi for _lo, hi in chunks
                  if any(a < hi < b for a, b in zip(starts, starts[1:]))]
        assert len(chunks) > 4 and inside
        assert packed.lines == reference_pack(kernel, CONFIGS[0])["lines"]

    def test_lines_share_one_object_per_value(self):
        packed = pack_kernel(random_trace(1), CONFIGS[0])
        flat = [line for lines in packed.lines if lines for line in lines]
        assert len({id(line) for line in flat}) == len(set(flat)) < len(flat)


def _copy(kernel: KernelTrace) -> dict[str, object]:
    return {
        "name": kernel.name,
        "labels": list(kernel.labels),
        "warp_offsets": kernel.warp_offsets.copy(),
        "addr_offsets": kernel.addr_offsets.copy(),
        "addrs": kernel.addrs.copy(),
        **{key: getattr(kernel, key).astype(np.int64) for key in COLUMNS},
    }


def _build(parts: dict[str, object]) -> KernelTrace:
    return KernelTrace.from_columns(**parts)


class TestFingerprint:
    @staticmethod
    def mutations(kernel: KernelTrace) -> dict[str, dict]:
        """One valid single change per part of the trace."""
        base = _copy(kernel)
        kind = base["kind"]
        alu = int(np.flatnonzero(kind == KIND_CODES["alu"])[0])
        hsu = int(np.flatnonzero(kind == HSU)[0])
        narrow = int(np.flatnonzero(base["active"] < 32)[0])
        counts = np.diff(base["addr_offsets"])
        # A row with two or more addresses that is not the last row.
        donor = int(np.flatnonzero(counts[:-1] >= 2)[0])
        # A warp of two or more rows that is not the last warp.
        wide_warp = int(
            np.flatnonzero(np.diff(base["warp_offsets"])[:-1] >= 2)[0]
        )
        changes = {
            "kind": ("kind", alu, KIND_CODES["sfu"]),
            "active": ("active", narrow, base["active"][narrow] + 1),
            "repeat": ("repeat", 0, base["repeat"][0] + 1),
            "chain": ("chain", 0, base["chain"][0] + 1),
            "hsu_able": ("hsu_able", 0, 1 - base["hsu_able"][0]),
            "opcode": ("opcode", hsu, (base["opcode"][hsu] + 1) % len(OPCODES)),
            "beats": ("beats", 0, base["beats"][0] + 1),
            "bytes_per_thread": ("bytes_per_thread", 0,
                                 base["bytes_per_thread"][0] + 1),
            "address": ("addrs", 0, base["addrs"][0] + 1),
            # The same addresses, one of them moved to the next row.
            "address offset": ("addr_offsets", donor + 1,
                               base["addr_offsets"][donor + 1] - 1),
            # The same rows, the last of one warp moved to the next warp.
            "warp boundary": ("warp_offsets", wide_warp + 1,
                              base["warp_offsets"][wide_warp + 1] - 1),
        }
        out = {}
        for what, (key, index, value) in changes.items():
            parts = _copy(kernel)
            parts[key][index] = value
            out[what] = parts
        # Same length, so only the label bytes differ.
        relabeled = "x" + base["labels"][0][1:]
        out["label"] = {**_copy(kernel),
                        "labels": [relabeled, *base["labels"][1:]]}
        out["label split"] = {
            **_copy(kernel),
            "labels": [base["labels"][0] + base["labels"][1][:1],
                       base["labels"][1][1:], *base["labels"][2:]],
        }
        out["name"] = {**_copy(kernel), "name": kernel.name + "x"}
        return out

    def test_changes_with_any_single_change(self):
        kernel = random_trace(4)
        digest = kernel.fingerprint()
        assert _build(_copy(kernel)).fingerprint() == digest
        seen = {digest: "base"}
        for what, parts in self.mutations(kernel).items():
            other = _build(parts).fingerprint()
            assert other not in seen, (what, seen.get(other))
            seen[other] = what
        assert len(seen) == 15

    def test_hand_built_and_columnar_traces_agree(self):
        kernel = random_trace(5)
        clone = KernelTrace(kernel.warps, kernel.name)
        assert clone.fingerprint() == kernel.fingerprint()
        assert [w.instructions for w in clone.warps] == \
            [w.instructions for w in kernel.warps]


#: One valid row, and the changes that each break one validation rule.
GOOD = {"kind": 0, "active": 32, "repeat": 1, "chain": 1, "hsu_able": 0,
        "opcode": -1, "beats": 1, "bytes_per_thread": 4, "addrs": ()}
HSU_ROW = {"kind": HSU, "opcode": 1, "addrs": (4096,)}
BAD_ROWS = {
    "unknown kind": ({"kind": 5}, "unknown instruction kind"),
    "no active thread": ({"active": 0}, "active thread count 0 "),
    "33 active threads": ({"active": 33}, "active thread count 33 "),
    "repeat 0": ({"repeat": 0}, "repeat must be >= 1"),
    "chain 0": ({"chain": 0}, "chain must be >= 1"),
    "beats 0": ({**HSU_ROW, "beats": 0}, "beats must be >= 1"),
    "ldg without addresses": ({"kind": LDG}, "ldg requires"),
    "hsu without opcode": ({**HSU_ROW, "opcode": -1}, "requires an opcode"),
    "hsu without addresses": ({**HSU_ROW, "addrs": ()},
                              "requires fetch addresses"),
}


def _columnar(rows: list[dict]) -> KernelTrace:
    columns = {key: [row[key] for row in rows] for key in COLUMNS}
    addrs = [a for row in rows for a in row["addrs"]]
    return KernelTrace.from_columns(
        "rows", ["w0"], [0, len(rows)],
        np.cumsum([0, *(len(row["addrs"]) for row in rows)]), addrs,
        **columns,
    )


def _hand_built(rows: list[dict]) -> KernelTrace:
    instrs = [
        WarpInstr(
            KINDS[row["kind"]] if 0 <= row["kind"] < len(KINDS) else "bogus",
            active=row["active"], repeat=row["repeat"], addrs=row["addrs"],
            bytes_per_thread=row["bytes_per_thread"],
            opcode=None if row["opcode"] < 0 else OPCODES[row["opcode"]],
            beats=row["beats"], hsu_able=bool(row["hsu_able"]),
            chain=row["chain"],
        )
        for row in rows
    ]
    return KernelTrace([WarpTrace(instrs, "w0")], "rows")


class TestValidation:
    @pytest.mark.parametrize("build", [_columnar, _hand_built])
    def test_good_rows_accepted(self, build):
        rows = [GOOD, {**GOOD, **HSU_ROW}, {**GOOD, "kind": LDG,
                                            "addrs": (0, 4)}]
        assert build(rows).total_instructions() == 3

    @pytest.mark.parametrize("build", [_columnar, _hand_built])
    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bad_row_rejected(self, build, case):
        change, message = BAD_ROWS[case]
        with pytest.raises(TraceError, match=message):
            build([GOOD, {**GOOD, **change}])

    @pytest.mark.parametrize("change, message", [
        ({"hsu_able": 2}, "hsu_able must be 0 or 1"),
        ({"repeat": 1 << 31}, "repeat 2147483648 does not fit"),
        ({"bytes_per_thread": -(1 << 40)}, "does not fit its int32 column"),
    ])
    def test_columns_hold_only_what_they_store(self, change, message):
        with pytest.raises(TraceError, match=message):
            _columnar([GOOD, {**GOOD, **change}])

    def test_validated_columns_cannot_be_edited(self):
        kernel = random_trace(0)
        for key in ("addrs", "addr_offsets", "warp_offsets", *COLUMNS):
            with pytest.raises(ValueError):
                getattr(kernel, key)[0] = 0

    def test_malformed_offsets_rejected(self):
        with pytest.raises(TraceError, match="malformed"):
            KernelTrace.from_columns(
                "k", ["w0"], [0, 2], [0, 0],
                [], **{key: [GOOD[key]] for key in COLUMNS},
            )
