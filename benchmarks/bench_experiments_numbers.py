"""EXPERIMENTS.md's Figs. 7-14 numbers must be what the code produces.

Each number the doc prints for Figs. 7-14 is parsed back out and compared
with the figure module's ``compute()`` at the precision the doc prints
it with, and every dataset ``compute()`` covers must be printed.  A
documented number the code does not produce is a bug: after a model
change, rerun the figures and rewrite the doc rows.
"""

import re
from pathlib import Path

from repro.analysis.roofline import COMPUTE_BOUND_OPS_PER_CYCLE
from repro.compiler.lowering import CostModel
from repro.experiments import (
    fig07_hsu_fraction,
    fig08_roofline,
    fig09_speedup,
    fig10_width,
    fig11_warp_buffer,
    fig12_l1_accesses,
    fig13_miss_rate,
    fig14_row_locality,
)
from repro.experiments.common import datasets_for

DOC = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: One printed number (a sentence's closing period is not part of it).
NUM = r"(\d+(?:\.\d+)?)"

#: The doc's family names.
FAMILIES = {"GGNN": "ggnn", "FLANN": "flann", "BVH-NN": "bvhnn",
            "B+ tree": "btree"}


def _section(title: str) -> str:
    """The doc text from the ``## <title>`` heading to the next one."""
    text = DOC.read_text()
    start = text.index(f"## {title}")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def _prose(title: str) -> str:
    """:func:`_section` with its line breaks folded into single spaces."""
    return " ".join(_section(title).split())


def _check(printed: str, value: float, what: str) -> None:
    """``value`` rendered at ``printed``'s precision must read ``printed``."""
    decimals = len(printed.partition(".")[2])
    assert f"{value:.{decimals}f}" == printed, (
        f"EXPERIMENTS.md prints {what} as {printed}; the code gives "
        f"{value:.{decimals}f}"
    )


def _check_range(printed: tuple[str, str], values, what: str) -> None:
    """A printed ``low–high`` range must read ``min(values)–max(values)``."""
    values = list(values)
    _check(printed[0], min(values), f"{what} low end")
    _check(printed[1], max(values), f"{what} high end")


def _by_family(rows, *fields: str) -> dict[str, list[float]]:
    """{family: every value of ``fields`` over the family's rows}."""
    values: dict[str, list[float]] = {}
    for row in rows:
        values.setdefault(row["app"], []).extend(row[f] for f in fields)
    return values


def _by_dataset(rows) -> dict[str, dict]:
    """{dataset label without its F-/B- family prefix: row}."""
    return {row["dataset"].split("-", 1)[-1]: row for row in rows}


def _fig09_speedups(results) -> dict[str, dict[str, float]]:
    """{family: {dataset as the doc names it: speedup}}."""
    speedups: dict[str, dict[str, float]] = {}
    for row in results["per_dataset"]:
        # The doc drops the F-/B- family prefix of FLANN/BVH-NN labels.
        name = row["dataset"].split("-", 1)[-1]
        speedups.setdefault(row["app"], {})[name] = row["speedup"]
    return speedups


def test_fig09_family_means():
    results = fig09_speedup.compute()
    rows = re.findall(
        rf"^\| (GGNN|FLANN|BVH-NN|B\+ tree)\s*\| \+{NUM}% \| \+{NUM}% \|",
        _section("Fig. 9"), flags=re.M,
    )
    assert {FAMILIES[name] for name, _, _ in rows} == set(
        results["per_family"]
    )
    for name, paper, ours in rows:
        summary = results["per_family"][FAMILIES[name]]
        _check(paper, summary["paper_improvement_pct"], f"{name} paper mean")
        _check(ours, summary["mean_improvement_pct"], f"{name} mean")


def test_fig09_per_dataset():
    results = fig09_speedup.compute()
    speedups = _fig09_speedups(results)
    section = _section("Fig. 9")
    line = re.search(r"Per-dataset \(ours\): (.*?)\.\n\n", section, re.S)
    segments = [seg.strip() for seg in line.group(1).split(";")]
    printed: dict[str, dict[str, str]] = {}
    ranges: dict[str, tuple[str, str]] = {}
    for segment in segments:
        segment = " ".join(segment.split())
        if match := re.fullmatch(rf"(FLANN|BVH-NN) {NUM}–{NUM}", segment):
            ranges[FAMILIES[match.group(1)]] = match.group(2, 3)
            continue
        family = "ggnn" if segment.startswith("GGNN ") else "btree"
        segment = segment.removeprefix("GGNN ")
        printed[family] = dict(
            re.findall(rf"([A-Z0-9+]+) {NUM}", segment)
        )
    for family, datasets in printed.items():
        assert set(datasets) == set(speedups[family]), family
        for abbr, value in datasets.items():
            _check(value, speedups[family][abbr], f"Fig. 9 {family} {abbr}")
    assert set(ranges) == {"flann", "bvhnn"}
    for family, (low, high) in ranges.items():
        values = speedups[family].values()
        _check(low, min(values), f"Fig. 9 {family} low end")
        _check(high, max(values), f"Fig. 9 {family} high end")
    # The D1B-vs-mean comparison the shape claim cites.
    d1b, mean = re.search(
        rf"ours {NUM} vs family mean {NUM}", section
    ).groups()
    _check(d1b, speedups["ggnn"]["D1B"], "Fig. 9 D1B")
    ggnn_mean = results["per_family"]["ggnn"]["mean_improvement_pct"]
    _check(mean, 1.0 + ggnn_mean / 100.0, "Fig. 9 GGNN mean speedup")


def test_fig09_known_gap_ranges():
    speedups = _fig09_speedups(fig09_speedup.compute())["ggnn"]
    low, high = re.search(
        rf"gist\) land at {NUM}–{NUM}", _section("Fig. 9")
    ).groups()
    gap = [speedups[abbr] for abbr in ("FMNT", "MNT", "GST")]
    _check(low, min(gap), "Fig. 9 gap 1 low end")
    _check(high, max(gap), "Fig. 9 gap 1 high end")


def test_fig10_per_dataset():
    computed: dict[str, dict[int, float]] = {}
    for row in fig10_width.compute():
        computed.setdefault(row["dataset"], {})[row["euclid_width"]] = (
            row["speedup"]
        )
    section = _section("Fig. 10")
    rows = re.findall(rf"\b([A-Z0-9]+) {NUM}/{NUM}/{NUM}", section)
    assert [abbr for abbr, *_ in rows] == list(fig10_width.DATASETS)
    for abbr, *values in rows:
        for width, value in zip(fig10_width.WIDTHS, values):
            _check(value, computed[abbr][width], f"Fig. 10 {abbr}@{width}")
    share = re.search(rf"16→32 is ~{NUM}% of the 8→16 gain", section).group(1)
    gain_8_16 = sum(w[16] - w[8] for w in computed.values())
    gain_16_32 = sum(w[32] - w[16] for w in computed.values())
    _check(share, 100.0 * gain_16_32 / gain_8_16, "Fig. 10 16→32 share")


def test_fig11_per_panel():
    computed: dict[tuple[str, str], dict[int, float]] = {}
    for row in fig11_warp_buffer.compute():
        computed.setdefault((row["app"], row["dataset"]), {})[
            row["warp_buffer"]
        ] = row["speedup"]
    rows = re.findall(
        rf"\b(GGNN|BVH-NN|FLANN)-([A-Z0-9]+) {NUM}/{NUM}/{NUM}/{NUM}",
        _section("Fig. 11"),
    )
    panels = {(FAMILIES[name], abbr): values for name, abbr, *values in rows}
    assert set(panels) == set(computed)
    for key, values in panels.items():
        for size, value in zip(fig11_warp_buffer.SIZES, values):
            _check(value, computed[key][size], f"Fig. 11 {key}@{size}")


def test_fig07_ranges():
    fractions = _by_family(fig07_hsu_fraction.compute(), "hsu_able_fraction")
    line = re.search(
        rf"Ours: GGNN {NUM}–{NUM}, FLANN {NUM}–{NUM}, BVH-NN {NUM}–{NUM}, "
        rf"B\+ {NUM}/{NUM}\.", _prose("Fig. 7"),
    ).groups()
    _check_range(line[0:2], fractions["ggnn"], "Fig. 7 GGNN")
    _check_range(line[2:4], fractions["flann"], "Fig. 7 FLANN")
    _check_range(line[4:6], fractions["bvhnn"], "Fig. 7 BVH-NN")
    assert datasets_for("btree") == ("B+1M", "B+10K")
    for printed, value, abbr in zip(line[6:8], fractions["btree"],
                                    datasets_for("btree")):
        _check(printed, value, f"Fig. 7 {abbr}")


def test_fig08_utilization():
    rows = fig08_roofline.compute()
    section = _prose("Fig. 8")
    bound, peak = re.search(
        rf"below the {NUM} op/cycle compute bound \(max utilization {NUM}\)",
        section,
    ).groups()
    assert float(bound) == COMPUTE_BOUND_OPS_PER_CYCLE
    assert all(r["ops_per_cycle"] < COMPUTE_BOUND_OPS_PER_CYCLE for r in rows)
    _check(peak, max(r["utilization"] for r in rows), "Fig. 8 max utilization")
    ggnn = _by_dataset(r for r in rows if r["app"] == "ggnn")
    angular = re.search(rf"\(GLV {NUM}, NYT {NUM}\)", section).groups()
    for printed, abbr in zip(angular, ("GLV", "NYT")):
        _check(printed, ggnn[abbr]["utilization"], f"Fig. 8 {abbr}")


def test_fig12_ranges():
    normalized = _by_family(fig12_l1_accesses.compute(), "normalized")
    section = _prose("Fig. 12")
    for name in ("BVH-NN", "FLANN", "GGNN"):
        printed = re.search(rf"{name} {NUM}–{NUM}", section).groups()
        _check_range(printed, normalized[FAMILIES[name]], f"Fig. 12 {name}")
    btree = re.search(rf"B\+ {NUM} \(", section).group(1)
    for value in normalized["btree"]:
        _check(btree, value, "Fig. 12 B+")
    loads = re.search(r"re-touches node lines (\d+)× per child", section)
    assert int(loads.group(1)) == CostModel().box_loads_per_child


def test_fig13_ranges():
    """Each printed L1 miss-rate range spans both designs of a family."""
    rows = fig13_miss_rate.compute()
    misses = _by_family(rows, "baseline_l1_miss_rate", "hsu_l1_miss_rate")
    section = _prose("Fig. 13")
    for pattern, family in (
        (rf"GGNN high-dim {NUM}–{NUM} L1 miss", "ggnn"),
        (rf"3-D FLANN {NUM}–{NUM}", "flann"),
        (rf"BVH-NN {NUM}–{NUM}", "bvhnn"),
    ):
        printed = re.search(pattern, section).groups()
        _check_range(printed, misses[family], f"Fig. 13 {family}")
    # "the HSU's miss rate is higher than the baseline's wherever
    # accesses shrank"
    shrank = {
        (r["app"], r["dataset"]) for r in fig12_l1_accesses.compute()
        if r["hsu_l1_accesses"] < r["baseline_l1_accesses"]
    }
    assert shrank
    for row in rows:
        if (row["app"], row["dataset"]) in shrank:
            assert row["hsu_l1_miss_rate"] > row["baseline_l1_miss_rate"], row


def test_fig14_examples():
    rows = fig14_row_locality.compute()
    section = _prose("Fig. 14")
    ggnn = _by_dataset(r for r in rows if r["app"] == "ggnn")
    examples = re.findall(rf"\b([A-Z0-9]+) {NUM} vs {NUM}", section)
    assert [abbr for abbr, *_ in examples] == ["D1B", "FMNT"]
    for abbr, base, hsu in examples:
        _check(base, ggnn[abbr]["baseline_row_locality"], f"Fig. 14 {abbr}")
        _check(hsu, ggnn[abbr]["hsu_row_locality"], f"Fig. 14 {abbr} HSU")
    assert "B+ identical" in section
    for row in rows:
        if row["app"] == "btree":
            assert row["baseline_row_locality"] == row["hsu_row_locality"]
        # "within a few percent on every workload"
        base = row["baseline_row_locality"]
        assert abs(row["hsu_row_locality"] - base) <= 0.05 * base, row
