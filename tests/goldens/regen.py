"""Regenerate the committed simulator goldens (``gpusim_smoke.json``).

The golden file pins the exact :class:`~repro.gpusim.stats.SimStats` the
simulator produces on the recorded smoke-campaign workloads plus GGNN
(BVH-NN R10K, B+Tree B+10K, FLANN R10K and GGNN S10K at 64 queries,
baseline + HSU variants).  The refactor-guard test
``tests/test_gpusim_scheduler.py`` asserts the live simulator — GTO
scheduler + real memory system — reproduces these values bit-exactly, so
any timing-model change shows up as a diff of this file rather than as
silent drift.

Regenerate (and eyeball the diff!) after an *intentional* change::

    PYTHONPATH=src python tests/goldens/regen.py

A timing change — one that moves any ``simstats`` — must come with a
``CACHE_SCHEMA_VERSION`` bump in ``repro.experiments.campaign``, so cached
results computed by the old model stop hitting.  A change that moves only
``config_sha`` (a ``GpuConfig`` field added or removed) needs no bump:
``sims/`` cache keys contain the config hash and move on their own.  See
docs/CAMPAIGN.md.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "gpusim_smoke.json"

#: (family, dataset, query budget) triples the goldens cover.  Keep these
#: small: the point is a fast, committed, bit-exact reference.
WORKLOADS = (
    ("bvhnn", "R10K", 64),
    ("btree", "B+10K", 64),
    ("flann", "R10K", 64),
    ("ggnn", "S10K", 64),
)


def capture() -> dict[str, dict[str, object]]:
    """Run every golden workload through the simulator and collect stats."""
    from repro.experiments.common import config_for, trace_bundle
    from repro.gpusim import GpuSimulator

    golden: dict[str, dict[str, object]] = {}
    for family, abbr, queries in WORKLOADS:
        bundle = trace_bundle(family, abbr, queries)
        config = config_for(family)
        for variant, kernel in (
            ("baseline", bundle.baseline),
            ("hsu", bundle.hsu),
        ):
            stats = GpuSimulator(config, kernel).run()
            golden[f"{family}-{abbr}-{variant}"] = {
                "trace_sha": kernel.fingerprint(),
                "config_sha": config.stable_hash(),
                "simstats": stats.to_json_dict(),
            }
    return golden


def main() -> None:
    golden = capture()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} entries)")


if __name__ == "__main__":
    main()
