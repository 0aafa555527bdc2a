"""The benchmark's traced pass patches functions by name
(``perfbench/spans.py::instrument`` reads ``owner.__dict__[attr]``), so a
renamed or moved function must fail here, not in
``perfbench/run.py --trace 1``."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    targets = worker.trace_targets()
    missing = [
        (name, getattr(owner, "__name__", owner), attr)
        for name, owner, attr, *_tag in targets
        if not callable(owner.__dict__.get(attr))
    ]
    assert targets and missing == []
