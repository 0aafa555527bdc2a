"""In-memory span recording around the public functions of each layer.

The benchmark times the program from outside: :func:`instrument` replaces
each traced function with a wrapper that records one span per call, in
the namespace where the function's caller looks it up, and
:meth:`Patches.restore` puts the originals back.  Nothing under ``src/``
knows it is being traced.

A span is ``(name, start, end, parent, tag)``: ``parent`` is the index of
the span that was open when this one started (``-1`` for a root) and
``tag`` carries request ids for serving spans and query counts for
``query_batch`` spans.  Spans stay in a list until
the run ends; :func:`layer_totals` folds them into per-name call counts,
inclusive seconds and self seconds, where a span's self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Tracer:
    """Call-stack span recorder.  Not thread-safe: one per process.

    Spans are kept in flat arrays rather than one object per span, so
    that recording adds no objects for the garbage collector to traverse
    while the traced program runs.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.tags: dict[int, object] = {}
        self._stack: list[int] = []

    def open(self, name: str, tag: object = None) -> int:
        index = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        if tag is not None:
            self.tags[index] = tag
        stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    def wrap(self, name: str, fn: Callable, tag: Callable | None = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``, tagged
        with ``tag(*args, **kwargs)`` when ``tag`` is given."""
        open_span, close_span = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name, None if tag is None else tag(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    @property
    def spans(self) -> list[tuple]:
        """Every span as ``(name, start, end, parent, tag)``."""
        tags = self.tags
        return [
            (name, start, end, parent, tags.get(index))
            for index, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            )
        ]

    def tag_sum(self, name: str) -> float:
        """Sum of the tags of every span called ``name``."""
        return sum(tag for index, tag in self.tags.items()
                   if self.names[index] == name)

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _tag in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_name, start, end, _parent, _tag) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "total_s", "self_s"}}`` over every span."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        row = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return totals


def covered_seconds(spans: list[list]) -> float:
    """Wall covered by root spans (equal to the sum of all self times)."""
    return sum(end - start for _n, start, end, parent, _t in spans if parent < 0)


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def instrument(tracer: Tracer, targets: list[tuple]) -> Patches:
    """Wrap ``owner.attr`` as span ``name`` for each ``(name, owner, attr)``
    or ``(name, owner, attr, tag)`` (see :meth:`Tracer.wrap`).

    ``owner`` is a module (patched where callers look the name up) or a
    class (patched on the class, so every instance sees the wrapper).
    One function imported into several modules is wrapped once and the
    same wrapper installed in each, so a call is recorded once.
    """
    patches = Patches()
    wrapped: dict[int, Callable] = {}
    for name, owner, attr, *tag in targets:
        original = owner.__dict__[attr]
        wrapper = wrapped.get(id(original))
        if wrapper is None:
            wrapper = tracer.wrap(name, original, *tag)
            wrapped[id(original)] = wrapper
        patches.replace(owner, attr, wrapper)
    return patches
