"""Simulator configuration (Table III), plus model latencies.

``VOLTA_V100`` matches Table III's structural parameters.  For tractable
pure-Python runs the experiments use :meth:`GpuConfig.scaled`, which keeps
per-SM structure identical and shrinks the SM count (all reported results
are HSU/baseline *ratios* of the same configuration, so the scaling cancels
to first order).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, replace

from repro.errors import ConfigError

#: Valid ``GpuConfig.scheduler`` policy names.  The classes live in
#: :mod:`repro.gpusim.scheduler`; the names are declared here so the config
#: can validate without importing the component layer (no import cycle).
SCHEDULER_POLICIES = ("gto", "lrr", "oldest")

#: Valid ``GpuConfig.memory`` model names (:mod:`repro.gpusim.memory`).
MEMORY_MODELS = ("real", "perfect_l1", "perfect_dram")

_SCHEDULER_LABELS = {
    "gto": "GTO (greedy-then-oldest)",
    "lrr": "LRR (loose round-robin)",
    "oldest": "Oldest-instruction-first",
}


@dataclass(frozen=True)
class GpuConfig:
    """Hardware parameters for one simulation."""

    # Table III structure.
    num_sms: int = 80
    subcores_per_sm: int = 4
    max_warps_per_sm: int = 64
    rt_units_per_sm: int = 1
    warp_buffer_size: int = 8
    l1_size_bytes: int = 128 * 1024
    l2_size_bytes: int = 6 * 1024 * 1024
    l2_ways: int = 24
    line_bytes: int = 128

    # HSU datapath (§IV-C, §VI-H).
    euclid_width: int = 16
    pipeline_depth: int = 9

    # §VI-I design alternatives for RT-unit/LSU cache contention: "a
    # private cache dedicated to the RT unit could be used, or a method of
    # bypassing the L1 data cache for accesses generated from the ray
    # tracing unit could be employed."  Defaults model the paper's shared
    # design; the ablation benches flip these.
    rt_fetch_bypass_l1: bool = False
    rt_private_cache_bytes: int = 0

    # Pluggable components: warp-scheduler policy (Table III uses GTO) and
    # memory model ("real", or an idealized drop-in for ablations).  See
    # :data:`SCHEDULER_POLICIES` / :data:`MEMORY_MODELS`.
    scheduler: str = "gto"
    memory: str = "real"

    # Chip-wide bandwidths (lines/cycle at the full SM count).  V100:
    # ~2.7 TB/s L2 and ~900 GB/s HBM at 1.4 GHz are ~15 and ~5 cache lines
    # per cycle; a scaled configuration receives its proportional share, so
    # per-SM memory pressure matches the full chip.
    full_chip_sms: int = 80
    l2_total_lines_per_cycle: float = 15.0
    dram_total_lines_per_cycle: float = 5.0

    # Latency/bandwidth model (GPGPU-Sim-like Volta numbers).
    alu_latency: int = 4
    sfu_latency: int = 16
    shared_latency: int = 24
    l1_hit_latency: int = 32
    l1_ways: int = 4
    l1_mshr_entries: int = 48
    l2_hit_latency: int = 180
    l2_mshr_entries: int = 128
    dram_channels: int = 8
    dram_banks_per_channel: int = 16
    dram_row_bytes: int = 2048
    dram_row_hit_cycles: int = 20
    dram_row_miss_cycles: int = 60
    #: Round-trip latency (interconnect + controller queueing) added to
    #: every DRAM access on top of the bank service time.
    dram_access_latency: int = 250

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise ConfigError("num_sms must be >= 1")
        if self.warp_buffer_size < 1:
            raise ConfigError("warp_buffer_size must be >= 1")
        if self.euclid_width < 1 or self.euclid_width % 2:
            raise ConfigError("euclid_width must be a positive even number")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line_bytes must be a power of two")
        if self.scheduler not in SCHEDULER_POLICIES:
            raise ConfigError(
                f"unknown scheduler policy {self.scheduler!r} "
                f"(want one of {SCHEDULER_POLICIES})"
            )
        if self.memory not in MEMORY_MODELS:
            raise ConfigError(
                f"unknown memory model {self.memory!r} "
                f"(want one of {MEMORY_MODELS})"
            )

    @property
    def l2_port_interval(self) -> float:
        """Cycles between L2 line accesses for this configuration's share."""
        share = self.l2_total_lines_per_cycle * self.num_sms / self.full_chip_sms
        return 1.0 / share

    @property
    def dram_bus_interval(self) -> float:
        """Cycles between DRAM line transfers for this config's share."""
        share = self.dram_total_lines_per_cycle * self.num_sms / self.full_chip_sms
        return 1.0 / share

    @property
    def angular_width(self) -> int:
        """Angular mode runs at half the Euclidean width (§VI-H)."""
        return self.euclid_width // 2

    @property
    def l1_sets(self) -> int:
        return self.l1_size_bytes // (self.line_bytes * self.l1_ways)

    @property
    def l2_sets(self) -> int:
        return self.l2_size_bytes // (self.line_bytes * self.l2_ways)

    def scaled(self, num_sms: int) -> "GpuConfig":
        """Same per-SM structure with a smaller SM count.

        L2 capacity scales with the SM count so per-SM cache pressure stays
        representative of the full chip.
        """
        if num_sms < 1:
            raise ConfigError("num_sms must be >= 1")
        fraction = num_sms / self.num_sms
        # Floor the scaled L2 at 2 MB: our datasets shrink faster than the
        # cache share would, and the paper's hot working sets are
        # substantially L2-resident (Fig. 8 shows high operational
        # intensity, i.e. data reuse between instructions).
        l2_size = max(2 * 1024 * 1024, int(self.l2_size_bytes * fraction))
        channels = max(1, int(self.dram_channels * fraction))
        return replace(
            self, num_sms=num_sms, l2_size_bytes=l2_size, dram_channels=channels
        )

    def with_warp_buffer(self, entries: int) -> "GpuConfig":
        """Config variant for the Fig. 11 warp-buffer sweep."""
        return replace(self, warp_buffer_size=entries)

    def with_euclid_width(self, width: int) -> "GpuConfig":
        """Config variant for the Fig. 10 datapath-width sweep."""
        return replace(self, euclid_width=width)

    def with_rt_bypass(self) -> "GpuConfig":
        """RT-unit fetches skip the L1 and go straight to the L2 (§VI-I)."""
        return replace(self, rt_fetch_bypass_l1=True, rt_private_cache_bytes=0)

    def with_rt_private_cache(self, size_bytes: int = 32 * 1024) -> "GpuConfig":
        """RT-unit fetches use a dedicated cache in front of the L2 (§VI-I)."""
        if size_bytes < self.line_bytes:
            raise ConfigError("private cache must hold at least one line")
        return replace(
            self, rt_private_cache_bytes=size_bytes, rt_fetch_bypass_l1=False
        )

    def with_scheduler(self, policy: str) -> "GpuConfig":
        """Config variant running a different warp-scheduler policy."""
        return replace(self, scheduler=policy)

    def with_memory(self, model: str) -> "GpuConfig":
        """Config variant running an idealized memory model."""
        return replace(self, memory=model)

    def stable_hash(self) -> str:
        """SHA-256 over the sorted JSON form of this configuration.

        Identical to :func:`repro.gpusim.observability.config_hash` for a
        ``GpuConfig`` (both hash ``json.dumps(asdict, sort_keys=True)``),
        but computable without the observability layer.  The campaign
        cache uses it as the config component of its keys: any field
        change — warp buffer, datapath width, fetch path, latencies —
        produces a different hash and therefore a cache miss.
        """
        fields = dataclasses.asdict(self)
        blob = json.dumps(fields, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def table_rows(self) -> list[tuple[str, str]]:
        """Rows reproducing Table III."""
        return [
            ("# SMs", str(self.num_sms)),
            ("Sub-cores / SM", str(self.subcores_per_sm)),
            ("Warp Scheduler Policy", _SCHEDULER_LABELS[self.scheduler]),
            ("Max Warps / SM", str(self.max_warps_per_sm)),
            ("RT Units / SM", str(self.rt_units_per_sm)),
            ("Warp Buffer Size", str(self.warp_buffer_size)),
            ("L1 / Shared Memory Cache", f"{self.l1_size_bytes // 1024} KB"),
            (
                "L2 Cache",
                f"{self.l2_ways}-way {self.l2_size_bytes // (1024 * 1024)}MB",
            ),
            ("Cache Line", f"{self.line_bytes} B"),
            ("HSU Euclid / Angular Width", f"{self.euclid_width} / {self.angular_width}"),
        ]


#: Table III configuration (Volta V100).
VOLTA_V100 = GpuConfig()
