"""High-dimensional approximate nearest neighbors with every substrate.

Builds all three ANN indices the paper evaluates — the HNSW-style graph
(GGNN), the k-d tree (FLANN) and the BVH (BVH-NN, 3-D only) — over synthetic
datasets, measures recall against brute force, and compares HSU speedups.

Run:  python examples/ann_search.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.ann import brute_force_knn, recall_at_k
from repro.datasets import load_dataset
from repro.datasets.registry import perturbed_queries
from repro.gpusim import VOLTA_V100, simulate
from repro.kdtree import build_kdtree, knn_search
from repro.workloads import run_bvhnn, run_flann, run_ggnn, to_traces


def graph_recall_demo() -> None:
    print("== Graph ANN (GGNN substrate) on a last.fm-like dataset ==")
    # The GGNN workload builds (and caches) the HNSW graph once; the HSU
    # comparison below reuses it.
    run = run_ggnn("LFM", num_queries=24, ef=48, check_recall=True)
    extras = run.extras
    print(f"  {extras['num_queries']} queries, dim {extras['dim']}, "
          f"{extras['metric']} metric")
    print(f"  recall@10 = {extras['recall']:.3f}\n")


def kdtree_recall_demo() -> None:
    print("== k-d tree ANN (FLANN substrate) on the bunny point cloud ==")
    dataset = load_dataset("BUN")
    queries = perturbed_queries(dataset, 64)
    tree = build_kdtree(dataset.points, leaf_size=8)
    found = [
        [pid for pid, _d2 in knn_search(tree, q, k=5, max_checks=64)]
        for q in queries
    ]
    truth = brute_force_knn(dataset.points, queries, 5)
    print(f"  {tree.num_points} points, tree depth {tree.depth()}")
    print(f"  recall@5 (max_checks=64) = {recall_at_k(found, truth):.3f}\n")


def hsu_comparison() -> None:
    print("== HSU speedup across the three ANN substrates ==")
    config = VOLTA_V100.scaled(1)
    rows = []
    for maker, label, kwargs in (
        (run_ggnn, "graph (GGNN, last.fm-like)", {"abbr": "LFM", "num_queries": 16}),
        (run_flann, "k-d tree (FLANN, bunny)", {"abbr": "BUN", "num_queries": 512}),
        (run_bvhnn, "BVH (BVH-NN, bunny)", {"abbr": "BUN", "num_queries": 512}),
    ):
        run = maker(**kwargs)
        bundle = to_traces(run)
        baseline = simulate(config, bundle.baseline)
        hsu = simulate(config, bundle.hsu)
        rows.append((label, f"{baseline.cycles:,.0f}", f"{hsu.cycles:,.0f}",
                     baseline.cycles / hsu.cycles))
    print(format_table(
        ["Index", "Baseline cycles", "HSU cycles", "Speedup"], rows
    ))


def main() -> None:
    np.set_printoptions(precision=3)
    graph_recall_demo()
    kdtree_recall_demo()
    hsu_comparison()


if __name__ == "__main__":
    main()
