"""repro — a reproduction of "Extending GPU Ray-Tracing Units for
Hierarchical Search Acceleration" (Barnes, Shen & Rogers, MICRO 2024).

The package implements, entirely in Python:

* the **Hierarchical Search Unit** (HSU) — ISA, functional semantics, and
  the one definition of the unified single-lane datapath's widths, beats,
  depth and functional units (:mod:`repro.core`);
* the four **hierarchical search substrates** the paper evaluates — an
  HNSW-style graph (:mod:`repro.graph`), a k-d tree (:mod:`repro.kdtree`),
  an LBVH (:mod:`repro.bvh`), and a B-tree (:mod:`repro.btree`) — plus the
  geometry kernels under them (:mod:`repro.geometry`);
* a **GPU timing simulator** with an RT/HSU unit per SM, L1/L2 caches, MSHRs
  and an FR-FCFS DRAM model (:mod:`repro.gpusim`);
* the **workloads** (GGNN, FLANN, BVH-NN, B-tree, RTIndeX) and the trace
  compiler that lowers each run into paired baseline/HSU instruction traces
  (:mod:`repro.workloads`, :mod:`repro.compiler`);
* the **RTL cost model** for datapath area and power (:mod:`repro.rtl`); and
* one **experiment module per paper table and figure**
  (:mod:`repro.experiments`).

Quickstart::

    from repro.core import euclid_dist
    d2 = euclid_dist([0.0] * 96, [1.0] * 96)   # multi-beat, fp32 semantics

See README.md for the full tour and EXPERIMENTS.md for paper-vs-measured
results.
"""

__version__ = "1.0.0"

from repro import errors

__all__ = ["errors", "__version__"]
