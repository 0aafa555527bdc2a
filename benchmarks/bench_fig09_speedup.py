"""Fig. 9: summary HSU speedup over the non-RT baseline."""

from repro.experiments import fig09_speedup


def test_fig09_speedup(once):
    results = once(fig09_speedup.compute)
    print("\n" + fig09_speedup.render())
    per_family = results["per_family"]
    # Every workload family improves on average.
    for family, summary in per_family.items():
        assert summary["mean_improvement_pct"] > 0.0, family
    # BVH-NN benefits the most (§VI-C: "The BVH-NN implementation benefited
    # the most from the HSU").
    means = {f: s["mean_improvement_pct"] for f, s in per_family.items()}
    assert means["bvhnn"] == max(means.values())
    # DEEP1B sits below the GGNN mean — the biggest dataset "quickly became
    # bottle-necked on the memory system" (§VI-D).  (Known fidelity gap: in
    # our model the 784/960-dim Euclidean sets land at parity and occupy the
    # very bottom; see EXPERIMENTS.md.)
    ggnn = {
        r["dataset"]: r["speedup"]
        for r in results["per_dataset"]
        if r["app"] == "ggnn"
    }
    assert ggnn["D1B"] < sum(ggnn.values()) / len(ggnn)
    # The angular and moderate-dimension datasets all gain.
    for dataset in ("LFM", "NYT", "GLV", "S1M", "S10K"):
        assert ggnn[dataset] > 1.0, dataset


def test_fig09_known_gaps(once):
    """EXPERIMENTS.md's three "Known gaps", asserted as gaps: closing one
    fails here, and the doc's gap list must then be revised."""
    results = once(fig09_speedup.compute)
    ggnn = {
        r["dataset"]: r["speedup"]
        for r in results["per_dataset"]
        if r["app"] == "ggnn"
    }
    for dataset in ("FMNT", "MNT", "GST"):
        assert ggnn[dataset] < 1.0, (
            f"gap 1 ({dataset} {ggnn[dataset]:.3f}): a 784/960-dim "
            "Euclidean GGNN set should lose to the baseline, because its "
            "49-60-beat HSU chains cannot win once the 3 KB candidate "
            "fetch is L1-port-bound against our idealized baseline SIMD"
        )
    for dataset in ("GLV", "NYT"):
        assert ggnn[dataset] < 1.15, (
            f"gap 2 ({dataset} {ggnn[dataset]:.3f}): an angular GGNN set "
            "should stay under +15%, capped by 25-32 beats per candidate "
            "at angular width 8"
        )
    for family in ("flann", "bvhnn"):
        summary = results["per_family"][family]
        assert (summary["mean_improvement_pct"]
                > summary["paper_improvement_pct"]), (
            f"gap 3 ({family} {summary['mean_improvement_pct']:.1f}%): the "
            "mean should run hotter than the paper's "
            f"+{summary['paper_improvement_pct']}%, because divergence and "
            "L1-port contention are stronger at one-SM scale than in the "
            "paper's 80-SM runs"
        )
