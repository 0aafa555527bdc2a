"""EXPERIMENTS.md's Figs. 9-11 numbers must be what the code produces.

Each number the doc prints for Figs. 9-11 is parsed back out and compared
with the figure module's ``compute()`` at the precision the doc prints
it with, and every dataset ``compute()`` covers must be printed.  A
documented number the code does not produce is a bug: after a model
change, rerun the figures and rewrite the doc rows.
"""

import re
from pathlib import Path

from repro.experiments import fig09_speedup, fig10_width, fig11_warp_buffer

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


def _check(printed: str, value: float, what: str) -> None:
    """``value`` rendered at ``printed``'s precision must read ``printed``."""
    decimals = len(printed.partition(".")[2])
    assert f"{value:.{decimals}f}" == printed, (
        f"EXPERIMENTS.md prints {what} as {printed}; the code gives "
        f"{value:.{decimals}f}"
    )


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
