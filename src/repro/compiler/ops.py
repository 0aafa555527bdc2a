"""Op-stream IR: thread-level operations and the run's warp-op table.

Workloads emit *thread ops* (one stream per query for thread-per-query
kernels) or *warp ops* directly (for block-per-query kernels like GGNN).
The assembler zips thread streams into warp ops; the lowering passes turn
warp ops into simulator instructions.  A run's warp ops live in one
column table, :class:`WarpOps`, whatever built them.

Thread ops are deliberately tiny (tuples via NamedTuple): a workload run
can emit hundreds of thousands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import TraceError

#: Distance metrics (mirrors repro.graph.hnsw).
METRIC_EUCLID = "euclid"
METRIC_ANGULAR = "angular"

#: Op kind codes of packed streams and :class:`WarpOps` (indexes into
#: this tuple).
PACKED_KINDS = (
    "TDist", "TBox", "TTri", "TKeyCmp", "TAlu", "TShared", "TSfu", "TLoad",
)
PACKED_TDIST = PACKED_KINDS.index("TDist")
PACKED_TBOX = PACKED_KINDS.index("TBox")
PACKED_TTRI = PACKED_KINDS.index("TTri")
PACKED_TKEYCMP = PACKED_KINDS.index("TKeyCmp")
PACKED_TALU = PACKED_KINDS.index("TAlu")
PACKED_TSHARED = PACKED_KINDS.index("TShared")
PACKED_TSFU = PACKED_KINDS.index("TSfu")
PACKED_TLOAD = PACKED_KINDS.index("TLoad")

#: Metric codes of ``TDist`` ops (indexes into this tuple).
PACKED_METRICS = (METRIC_EUCLID, METRIC_ANGULAR)


class TDist(NamedTuple):
    """One distance test against the candidate stored at ``addr``."""

    addr: int
    dim: int
    metric: str


class TBox(NamedTuple):
    """One BVH box-node visit: test ``num_boxes`` children fetched from addr."""

    addr: int
    num_boxes: int
    node_bytes: int


class TTri(NamedTuple):
    """One ray-triangle test against the triangle node at ``addr``."""

    addr: int


class TKeyCmp(NamedTuple):
    """One B-tree inner-node visit: ``num_separators`` compares."""

    addr: int
    num_separators: int


class TAlu(NamedTuple):
    """``count`` generic SIMD ALU instructions (queue/stack bookkeeping)."""

    count: int


class TShared(NamedTuple):
    """``count`` shared-memory operations (traversal stack, priority cache)."""

    count: int


class TSfu(NamedTuple):
    """``count`` special-function ops (sqrt/div epilogues)."""

    count: int


class TLoad(NamedTuple):
    """A non-HSU global load of ``num_bytes`` from ``addr`` (node headers,
    adjacency lists, leaf metadata)."""

    addr: int
    num_bytes: int


ThreadOp = TDist | TBox | TTri | TKeyCmp | TAlu | TShared | TSfu | TLoad


class WarpOp(NamedTuple):
    """One warp-level operation as a record (GGNN, B-tree, the scalar
    assembler, hand-built tests), read into a run's table by
    :meth:`WarpOps.from_records`.

    ``kind`` is the thread-op class name ("TDist", "TBox", ...).  ``addrs``
    holds one address per active thread (length = active count) for memory
    ops; for uniform ops it is empty and ``active`` carries the mask
    population.  ``a``/``b``/``meta`` carry kind-specific payload:

    * TDist: a=dim, meta=metric
    * TBox: a=num_boxes, b=node_bytes
    * TKeyCmp: a=num_separators
    * TAlu/TShared/TSfu: a=count
    * TLoad: a=num_bytes
    """

    kind: str
    addrs: tuple[int, ...]
    active: int
    a: int = 0
    b: int = 0
    meta: str = ""


@dataclass(eq=False)
class WarpOps:
    """Every warp op of a run as columns, warp after warp in stream order.

    Per op: ``kind`` (a :data:`PACKED_KINDS` code), ``active``, the
    ``a``/``b`` payload of :class:`WarpOp`, ``metric`` (a
    :data:`PACKED_METRICS` code for ``TDist``, 0 for every other kind) and
    its addresses ``addrs[addr_offsets[i]:addr_offsets[i + 1]]``; warp
    ``w``'s ops are rows ``warp_offsets[w]:warp_offsets[w + 1]``.  The
    packed assembler
    (:func:`~repro.compiler.assembler.assemble_warps_packed`) emits these
    columns directly; :meth:`from_records` transposes :class:`WarpOp`
    records, once per run built from them.
    """

    kind: np.ndarray
    active: np.ndarray
    a: np.ndarray
    b: np.ndarray
    metric: np.ndarray
    addr_offsets: np.ndarray
    addrs: np.ndarray
    warp_offsets: np.ndarray

    @classmethod
    def from_records(cls, warp_ops: Sequence[Sequence[WarpOp]]) -> WarpOps:
        """The table of per-warp :class:`WarpOp` lists; an unknown kind,
        or a ``TDist`` with an unknown metric, raises :class:`TraceError`."""
        ops = [op for warp in warp_ops for op in warp]
        count = len(ops)
        kinds, addrs, active, a, b, meta = zip(*ops) if ops else ((),) * 6
        try:
            kind = np.fromiter(
                map(_KIND_CODES.__getitem__, kinds), np.int64, count
            )
        except KeyError as exc:
            raise TraceError(f"unknown warp op kind {exc.args[0]!r}") from None
        metric = np.fromiter(
            map(_METRIC_CODES.get, meta, itertools.repeat(-1)), np.int64, count
        )
        dist = kind == PACKED_TDIST
        unknown = np.flatnonzero(dist & (metric < 0))
        if unknown.size:
            raise TraceError(f"unknown metric {meta[unknown[0]]!r}")
        num_addrs = np.fromiter(map(len, addrs), np.int64, count)
        return cls(
            kind,
            np.fromiter(active, np.int64, count),
            np.fromiter(a, np.int64, count),
            np.fromiter(b, np.int64, count),
            np.where(dist, metric, 0),
            np.concatenate(([0], np.cumsum(num_addrs))),
            np.fromiter(
                itertools.chain.from_iterable(addrs),
                np.int64,
                int(num_addrs.sum()),
            ),
            np.cumsum([0, *map(len, warp_ops)]),
        )

    @property
    def num_warps(self) -> int:
        return self.warp_offsets.shape[0] - 1

    @property
    def num_addrs(self) -> np.ndarray:
        """Each op's address count."""
        return np.diff(self.addr_offsets)

    def select(self, code: int) -> np.ndarray:
        """Indices of the ops of one kind, in stream order."""
        return np.flatnonzero(self.kind == code)


_KIND_CODES = {kind: code for code, kind in enumerate(PACKED_KINDS)}
_METRIC_CODES = {metric: code for code, metric in enumerate(PACKED_METRICS)}
