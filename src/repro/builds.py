"""One keyed store for what a process builds once and reuses.

Datasets, search indexes, HNSW graphs, serving endpoints and the last
workload run are *builds*: costly to make, never changed once made, and
wanted again by the next caller with the same parameters.  Each builder
is decorated with :func:`stored`, which keys a call by the builder's kind
and its arguments bound to the builder's signature with the defaults
filled in, so every spelling of one call (positional or keyword, a
default left out or written out) finds one entry.

Entries live in one of two scopes, and a lookup hits in either:

* the **group** scope holds what a campaign workload group builds while
  it runs (:func:`open_group`).  :func:`release_group`, which
  ``TraceIngest.release`` calls when the group's last job ends, empties
  it, so a finished group's datasets, indexes and graphs do not outlive
  the group (docs/CAMPAIGN.md, "Memory").  Groups nest: a group opened
  inside another adds its builds to the outer one, and only the
  outermost release empties the scope.  The shards of one multi-device
  sweep point run as one such outer group (:func:`group`), so they share
  the point's dataset and partition, and the sweep's interconnect replay
  reuses their indexes;
* the **process** scope holds what is built outside a campaign group for
  the life of the process: serving endpoints and everything they are
  built from, and the builds of direct calls.

A builder marked ``latest=True`` (the workload run) keeps only its most
recent entry.  :data:`build_counts` counts, per kind, the builds the
store ran; a lookup that hits counts nothing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import Counter
from typing import Callable, Iterator, TypeVar

__all__ = [
    "build_counts",
    "drop",
    "group",
    "open_group",
    "release_group",
    "stored",
]

_F = TypeVar("_F", bound=Callable)

#: Builds the store ran, per kind.
build_counts: Counter[str] = Counter()

_group: dict[tuple, object] = {}
_process: dict[tuple, object] = {}
#: Open campaign workload groups; while any is open, new entries
#: belong to the group scope.
_depth = 0


def stored(kind: str, *, latest: bool = False) -> Callable[[_F], _F]:
    """Decorator: keep a builder's results in the store under ``kind``."""

    def decorate(build: _F) -> _F:
        signature = inspect.signature(build)

        @functools.wraps(build)
        def lookup(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (kind, tuple(bound.arguments.items()))
            for entries in (_group, _process):
                if key in entries:
                    return entries[key]
            if latest:
                drop(kind)
            value = build(*args, **kwargs)
            build_counts[kind] += 1
            (_group if _depth else _process)[key] = value
            return value

        return lookup  # type: ignore[return-value]

    return decorate


def open_group() -> None:
    """Start a campaign workload group: builds made until the matching
    :func:`release_group` belong to it (or to the group it nests in)."""
    global _depth
    _depth += 1


def release_group() -> None:
    """End the innermost workload group; ending the outermost one drops
    every build the groups made."""
    global _depth
    _depth = max(0, _depth - 1)
    if not _depth:
        _group.clear()


@contextlib.contextmanager
def group() -> Iterator[None]:
    """A workload group as a ``with`` block (:func:`open_group` on entry,
    :func:`release_group` on exit)."""
    open_group()
    try:
        yield
    finally:
        release_group()


def drop(kind: str) -> None:
    """Drop every entry of ``kind`` from both scopes."""
    for entries in (_group, _process):
        for key in [key for key in entries if key[0] == kind]:
            del entries[key]
