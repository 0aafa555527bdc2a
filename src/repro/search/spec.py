"""The consolidated query surface: one frozen spec for every substrate.

Every :class:`~repro.search.base.SearchIndex` adapter answers
``query_batch(queries, spec=QuerySpec(...))``: the k-d tree honors
``k``/``max_checks``, the graph ``k``/``ef``, the BVH a query-time
``radius``, and the B-tree only the ``metric`` assertion — so
structure-agnostic callers (serving endpoints, the sharded fan-out, the
workload generators) carry one spec instead of per-substrate keyword
dicts.  :func:`resolve_spec` normalizes a spec — filling per-adapter
defaults, rejecting fields the substrate cannot honor and values no
search can run with, and checking the ``metric`` axis against what the
index was built with — and :func:`query_block` validates the query block
itself, so a malformed call fails with :class:`ConfigError` before any
kernel runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from repro.errors import ConfigError

#: Every field a :class:`QuerySpec` can carry, in declaration order.
SPEC_FIELDS = ("k", "radius", "ef", "max_checks", "metric")


@dataclass(frozen=True)
class QuerySpec:
    """One query's parameters, substrate-agnostic and hashable.

    ``None`` means "use the adapter's default" — a spec only pins the
    fields it names, so the same ``QuerySpec(k=10)`` works against the
    k-d tree (default ``max_checks``) and the graph (default ``ef``).

    * ``k`` — neighbors to return (kNN substrates).
    * ``radius`` — query-time radius threshold (BVH radius search; must
      not exceed the build radius, which bounds the candidate filter).
    * ``ef`` — graph beam width (HNSW).
    * ``max_checks`` — leaf-point budget (k-d tree backtracking).
    * ``metric`` — distance metric assertion; must match the metric the
      index was built with (the metric axis is structural, so it cannot
      be switched per query — the spec field routes and validates).
    """

    k: int | None = None
    radius: float | None = None
    ef: int | None = None
    max_checks: int | None = None
    metric: str | None = None

    def named_fields(self) -> dict[str, object]:
        """The non-``None`` fields, for error messages and merging."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }


def _check_values(call: str, spec: QuerySpec) -> None:
    """Reject values no search can honor: counts must be positive
    integers, the radius a finite number >= 0, and the beam at least
    ``k`` wide."""
    for name in ("k", "ef", "max_checks"):
        value = getattr(spec, name)
        if value is not None and (
            isinstance(value, bool)
            or not isinstance(value, Integral)
            or value < 1
        ):
            raise ConfigError(
                f"{call}(): {name} must be a positive integer, got {value!r}"
            )
    radius = spec.radius
    if radius is not None and (
        isinstance(radius, bool)
        or not isinstance(radius, Real)
        or not math.isfinite(radius)
        or radius < 0
    ):
        raise ConfigError(
            f"{call}(): radius must be a finite number >= 0, got {radius!r}"
        )
    if spec.k is not None and spec.ef is not None and spec.ef < spec.k:
        raise ConfigError(
            f"{call}(): ef={spec.ef} is below k={spec.k}; the beam must "
            "hold at least k candidates"
        )


def resolve_spec(
    call: str,
    spec: QuerySpec | None,
    accepted: tuple[str, ...],
    defaults: dict[str, object],
    index_metric: str,
) -> QuerySpec:
    """Normalize one adapter call's parameters into a full spec.

    ``call`` names the adapter method for messages (e.g.
    ``"KdTreeIndex.query_batch"``); ``accepted`` the spec fields the
    substrate honors (besides ``metric``, which every adapter accepts);
    ``defaults`` the per-adapter fallback values; ``index_metric`` the
    metric the index was built with.  A foreign field, a metric that
    disagrees with the build, or a value :func:`_check_values` rejects
    raises :class:`ConfigError`.
    """
    if spec is None:
        spec = QuerySpec()
    foreign = sorted(
        name for name in SPEC_FIELDS
        if name != "metric"
        and name not in accepted
        and getattr(spec, name) is not None
    )
    if foreign:
        raise ConfigError(
            f"{call}() does not accept QuerySpec field(s) "
            f"{', '.join(foreign)}; this substrate honors: "
            f"{', '.join(accepted) or '(none)'}"
        )
    if spec.metric is not None and spec.metric != index_metric:
        raise ConfigError(
            f"{call}(): index was built with metric={index_metric!r} "
            f"but the spec requests metric={spec.metric!r}; the metric "
            "axis is structural — build an index per metric"
        )
    resolved = QuerySpec(metric=index_metric, **{
        name: (
            getattr(spec, name)
            if getattr(spec, name) is not None
            else defaults.get(name)
        )
        for name in accepted
    })
    _check_values(call, resolved)
    return resolved


def query_block(call: str, queries: object, dim: int | None) -> np.ndarray:
    """``queries`` as a validated float64 block, before any kernel runs.

    ``dim`` is the index's point dimension: the block must be ``(Q,
    dim)``.  ``dim=None`` is the scalar-key form (the B-tree): a ``(Q,)``
    or ``(Q, 1)`` block, returned flat.  A block that does not convert,
    has the wrong rank or width, or holds a NaN or infinite value raises
    :class:`ConfigError`; a zero-row block is valid and answers ``[]``.
    """
    try:
        block = np.asarray(queries, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise ConfigError(
            f"{call}(): queries do not form a numeric block: {error}"
        ) from None
    if dim is None:
        if block.ndim == 2 and block.shape[1] == 1:
            block = block.reshape(-1)
        if block.ndim != 1:
            raise ConfigError(
                f"{call}(): expected a (Q,) key block, got shape "
                f"{block.shape}"
            )
    elif block.ndim != 2 or block.shape[1] != dim:
        raise ConfigError(
            f"{call}(): expected a (Q, {dim}) query block, got shape "
            f"{block.shape}"
        )
    if not np.isfinite(block).all():
        raise ConfigError(
            f"{call}(): the query block holds NaN or infinite values"
        )
    return block
