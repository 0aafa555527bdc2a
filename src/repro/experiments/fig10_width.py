"""Fig. 10 — datapath width sensitivity (GGNN, high-dimension datasets).

Sweeps the Euclidean datapath width (angular runs at half, §VI-H): a wider
datapath needs fewer multi-beat instructions per distance, so latency per
candidate drops — with diminishing returns, and occasional inversions where
the larger effective warp-buffer footprint hurts cache behaviour.
"""

from __future__ import annotations

from repro import api
from repro.analysis.tables import format_table
from repro.core.isa import angular_width
from repro.experiments.common import datasets_for

#: Widths swept (Euclidean lanes; angular = half).
WIDTHS = (8, 16, 32)
#: GGNN datasets shown (the paper plots its high-dimension GGNN set).
DATASETS = ("D1B", "GLV", "LFM", "NYT", "S1M", "S10K")


def compute(
    widths: tuple[int, ...] = WIDTHS, datasets: tuple[str, ...] = DATASETS
) -> list[dict[str, object]]:
    for abbr in datasets:
        if abbr not in datasets_for("ggnn"):
            raise ValueError(f"{abbr} is not a GGNN dataset")
    rows = []
    for abbr in datasets:
        base = api.simulate(("ggnn", abbr), variant="baseline")
        for width in widths:
            hsu = api.simulate(
                ("ggnn", abbr), variant="hsu", euclid_width=width
            )
            rows.append(
                {
                    "dataset": abbr,
                    "euclid_width": width,
                    "angular_width": angular_width(width),
                    "speedup": base.cycles / hsu.cycles,
                }
            )
    return rows


def render() -> str:
    rows = [
        (r["dataset"], r["euclid_width"], r["angular_width"], r["speedup"])
        for r in compute()
    ]
    return format_table(
        ["Dataset", "Euclid width", "Angular width", "Speedup"],
        rows,
        title="Fig. 10: speedup vs datapath width (GGNN)",
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
