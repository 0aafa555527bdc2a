"""Record the reference SimStats the campaign checks compare against.

Runs one cold pass of each campaign slice and writes every job's SimStats
to ``reference_simstats.json``.  Run from the root of a checkout whose
simulated results are the intended reference::

    python3 perfbench/record_reference.py

A change that is meant to alter simulated results re-records the file and
says why; a speed-only change must leave it untouched.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import spawn
from workloads import CAMPAIGN_SLICES, REFERENCE_PATH


def main() -> int:
    root = Path.cwd()
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    temp_dir = Path(tempfile.mkdtemp(dir=out_dir, prefix="tmp-"))
    reference = {}
    try:
        for workload in CAMPAIGN_SLICES:
            result = spawn(root, temp_dir,
                           ["--kind", "campaign", "--workload", workload])
            failed = [r["run_id"] for r in result["cold"] if not r["ok"]]
            if failed:
                print(f"error: {workload} jobs failed: {failed}", file=sys.stderr)
                return 1
            reference[workload] = {r["run_id"]: r["simstats"] for r in result["cold"]}
    finally:
        shutil.rmtree(temp_dir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
