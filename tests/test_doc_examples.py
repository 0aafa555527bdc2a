"""The ``api.simulate`` examples in the docs name valid campaign jobs.

Every fenced python block of README.md and docs/*.md is parsed, and each
literal ``api.simulate((family, abbr), ...)`` call in it is turned into
the :class:`~repro.experiments.campaign.Job` the facade would build.  A
documented call that would raise ``ConfigError`` (an unknown dataset, a
bad axis) or ``TypeError`` (a removed keyword) fails here, without
running any workload.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.experiments.campaign import Job
from repro.experiments.common import datasets_for

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _simulate_calls() -> list[tuple[str, ast.Call]]:
    calls = []
    for doc in DOCS:
        for block in FENCE.findall(doc.read_text()):
            for node in ast.walk(ast.parse(block)):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "simulate"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "api"
                ):
                    where = f"{doc.relative_to(ROOT)}: {ast.unparse(node)}"
                    calls.append((where, node))
    return calls


CALLS = _simulate_calls()


def test_the_docs_show_simulate_calls():
    assert len(CALLS) >= 5


def _literal(node: ast.expr) -> object:
    try:
        return ast.literal_eval(node)
    except ValueError:
        pytest.fail(f"not a literal: {ast.unparse(node)}")


@pytest.mark.parametrize(
    "node", [node for _where, node in CALLS], ids=[w for w, _n in CALLS]
)
def test_each_call_builds_a_job(node):
    assert len(node.args) == 1
    workload = _literal(node.args[0])
    assert isinstance(workload, tuple) and len(workload) == 2, workload
    family, abbr = workload
    assert abbr in datasets_for(family), f"{abbr!r} is not a {family} dataset"
    axes = {kw.arg: _literal(kw.value) for kw in node.keywords}
    axes.pop("cache", None)
    Job(family, abbr, axes.pop("variant", "hsu"), **axes)
