"""The evaluated workloads (§V-A) as op-stream generators.

Each workload builds its search structure from scratch, executes the real
search algorithm over a dataset, and emits its warp ops as one table; the
trace compiler lowers one run into the baseline or HSU kernel trace the
simulator consumes (:func:`to_trace`), or both (:func:`to_traces`).

* :mod:`~repro.workloads.ggnn` — hierarchical-graph ANN, block-per-query,
* :mod:`~repro.workloads.flann` — k-d tree ANN, thread-per-query,
* :mod:`~repro.workloads.arkade` — non-Euclidean (L1/Linf/cosine) kNN via
  Arkade space transforms over the k-d substrate, thread-per-query,
* :mod:`~repro.workloads.bvhnn` — BVH radius search (RTNN-style),
  thread-per-query,
* :mod:`~repro.workloads.btree_kv` — B-tree key-value lookups,
  block-per-query,
* :mod:`~repro.workloads.rtindex` — §VI-G: keys as triangles (baseline RT)
  vs native points (HSU),
* :mod:`~repro.workloads.raytrace` — plain ray casting on the baseline unit.
"""

from repro.workloads.base import TraceBundle, WorkloadRun, to_trace, to_traces

#: Runner attribute -> defining module, resolved on first access (PEP 562).
#: A campaign only pays the import cost of the workloads it actually runs.
_LAZY = {
    "run_arkade": "repro.workloads.arkade",
    "run_btree": "repro.workloads.btree_kv",
    "run_bvhnn": "repro.workloads.bvhnn",
    "run_flann": "repro.workloads.flann",
    "run_ggnn": "repro.workloads.ggnn",
}

__all__ = [
    "TraceBundle",
    "WorkloadRun",
    "run_arkade",
    "run_btree",
    "run_bvhnn",
    "run_flann",
    "run_ggnn",
    "to_trace",
    "to_traces",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
