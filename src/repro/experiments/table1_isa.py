"""Table I — the HSU instruction set.

Reproduces the paper's four-instruction ISA: the baseline ``RAY_INTERSECT``
plus the three HSU additions ``POINT_EUCLID``, ``POINT_ANGULAR`` and
``KEY_COMPARE``, with the paper's datapath widths (16-wide Euclidean,
8-wide angular, 36-key compare, 4-box intersect).  The claim checked:
hierarchical search generalizes to exactly these four primitive
comparisons (§IV-A).
"""

from __future__ import annotations

import textwrap

from repro.analysis.tables import format_table
from repro.core.isa import instruction_table


def compute() -> list[dict[str, str]]:
    return [
        {"instruction": name, "description": description}
        for name, description in instruction_table()
    ]


def render() -> str:
    rows = [
        (row["instruction"], textwrap.shorten(row["description"], 100))
        for row in compute()
    ]
    return format_table(
        ["Instruction", "Description"], rows, title="Table I: HSU instructions"
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
