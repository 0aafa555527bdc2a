"""Run manifests: one machine-readable JSON artifact per simulation run.

Every experiment simulation stamps a manifest to ``results/<run-id>.json``
recording what ran (workload family/dataset/variant), on what (the full
``GpuConfig`` plus its SHA-256), from which code (git SHA when available),
and what came out (the full metrics-registry snapshot plus the legacy
``SimStats`` aggregate view).  Manifests make figure experiments auditable
and diffable — ``python -m repro.gpusim.report a.json b.json`` compares two
of them and flags regressions.

Environment knobs:

* ``REPRO_RESULTS_DIR`` — manifest directory (default ``results/``),
* ``REPRO_MANIFESTS=0`` — disable manifest writing entirely.

Run ids are deterministic for a given (workload, config) so re-running an
experiment overwrites its previous manifest instead of accumulating files.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.errors import ConfigError

MANIFEST_VERSION = 1


def results_dir() -> Path:
    """Directory manifests are written to (``REPRO_RESULTS_DIR`` override)."""
    return Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


def manifests_enabled() -> bool:
    """Manifest writing is on unless ``REPRO_MANIFESTS=0``."""
    return os.environ.get("REPRO_MANIFESTS", "1") != "0"


def config_to_dict(config) -> dict[str, object]:
    """A plain JSON-serializable mapping of a config (dataclass or dict)."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    if isinstance(config, dict):
        return dict(config)
    raise ConfigError(f"cannot serialize config of type {type(config).__name__}")


def config_hash(config) -> str:
    """Stable SHA-256 over the sorted JSON form of a configuration
    (equal to :meth:`repro.gpusim.config.GpuConfig.stable_hash` for a
    ``GpuConfig``)."""
    fields = config_to_dict(config)
    blob = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.cache
def git_sha() -> str:
    """HEAD commit of the repository containing this file, or ``unknown``;
    resolved once per process (one ``git`` process, not one a manifest)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


@dataclass
class RunManifest:
    """Everything needed to audit (and diff) one simulation run."""

    run_id: str
    workload: dict[str, object] = field(default_factory=dict)
    config: dict[str, object] = field(default_factory=dict)
    config_sha256: str = ""
    git_sha: str = ""
    created: str = ""
    #: Flat metrics-registry snapshot ({scoped-name: value}).
    metrics: dict[str, object] = field(default_factory=dict)
    #: Legacy aggregate view (SimStats fields), kept for easy comparison.
    simstats: dict[str, object] = field(default_factory=dict)
    #: Optional timeline-tracer export (TimelineTracer.to_json()).
    timeline: dict[str, object] | None = None
    extras: dict[str, object] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def to_json_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if "run_id" not in payload:
            raise ConfigError("manifest payload has no run_id")
        if unknown:
            raise ConfigError(
                f"manifest has unknown fields: {sorted(unknown)}"
            )
        return cls(**payload)  # type: ignore[arg-type]


def build_manifest(
    run_id: str,
    config,
    registry=None,
    stats=None,
    workload: dict[str, object] | None = None,
    tracer=None,
    extras: dict[str, object] | None = None,
) -> RunManifest:
    """Assemble a manifest from a finished simulation's artifacts.

    ``registry`` is a :class:`~repro.gpusim.observability.MetricsRegistry`,
    ``stats`` a :class:`~repro.gpusim.stats.SimStats`, ``tracer`` an optional
    :class:`~repro.gpusim.observability.TimelineTracer`.
    """
    simstats: dict[str, object] = {}
    if stats is not None:
        simstats = dataclasses.asdict(stats)
        simstats["dram_row_locality_frfcfs"] = stats.dram_row_locality_frfcfs
    return RunManifest(
        run_id=run_id,
        workload=dict(workload or {}),
        config=config_to_dict(config),
        config_sha256=config_hash(config),
        git_sha=git_sha(),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        metrics=dict(registry.as_dict()) if registry is not None else {},
        simstats=simstats,
        timeline=tracer.to_json() if tracer is not None else None,
        extras=dict(extras or {}),
    )


def write_if_changed(path: Path, text: str) -> bool:
    """Atomically make ``path`` hold ``text``; returns whether it wrote.

    A file that already holds exactly these bytes is left alone — same
    inode, same mtime — so re-storing an unchanged cache entry or
    re-stamping an unchanged manifest costs one read, not a rename onto
    an existing name (which ext4 follows with a data flush).  Any other
    content, a stale or corrupt file included, is replaced through a
    per-process temporary beside it and one rename, so a reader never
    sees a partial file.
    """
    data = text.encode("utf-8")
    try:
        if path.read_bytes() == data:
            return False
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return True


def write_manifest(manifest: RunManifest, out_dir: Path | None = None) -> Path:
    """Write ``<out_dir>/<run-id>.json`` (:func:`write_if_changed`);
    returns the path."""
    directory = Path(out_dir) if out_dir is not None else results_dir()
    path = directory / f"{manifest.run_id}.json"
    write_if_changed(
        path,
        json.dumps(manifest.to_json_dict(), indent=2, sort_keys=True) + "\n",
    )
    return path


def load_manifest(path: str | Path) -> RunManifest:
    """Read a manifest back from disk."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object")
    return RunManifest.from_json_dict(payload)
