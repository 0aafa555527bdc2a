"""Functional semantics of the HSU instructions.

These are the operations the paper exposes to CUDA programmers as device
intrinsics (§III-B): ``__euclid_dist(a, b, N)`` and ``__angular_dist(a, b,
N)``, plus the key-compare primitive (the ray-intersect tests live in
:mod:`repro.geometry`).  The distance
functions honor the hardware's beat structure
(:func:`~repro.core.multibeat.iter_beat_slices`): partial sums are formed
per beat in float32 and accumulated in float32, in the order the datapath's
fp32 adder tree and accumulator use (§IV-F).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.isa import ANGULAR_WIDTH, EUCLID_WIDTH, KEY_COMPARE_WIDTH
from repro.core.multibeat import iter_beat_slices
from repro.errors import IsaError
from repro.kernels import get_backend


def _as_f32_vector(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.float32)
    if array.ndim != 1:
        raise IsaError(f"{name} must be a 1-D point, got shape {array.shape}")
    if array.size == 0:
        raise IsaError(f"{name} must have at least one coordinate")
    return array


def euclid_dist(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    width: int = EUCLID_WIDTH,
) -> float:
    """Squared Euclidean distance, computed with hardware beat semantics.

    Equation 1: ``d^2(q, c) = sum_i (q_i - c_i)^2``.  Each beat squares and
    reduces up to ``width`` lanes in float32; beats accumulate in float32.
    """
    q = _as_f32_vector(a, "a")
    c = _as_f32_vector(b, "b")
    if q.shape != c.shape:
        raise IsaError(f"dimension mismatch: {q.shape} vs {c.shape}")
    total = np.float32(0.0)
    for lo, hi in iter_beat_slices(q.size, width):
        diff = q[lo:hi] - c[lo:hi]
        partial = np.float32(np.sum(diff * diff, dtype=np.float32))
        total = np.float32(total + partial)
    return float(total)


def batch_euclid_dist(
    a: Sequence[float] | np.ndarray,
    candidates: np.ndarray,
    width: int = EUCLID_WIDTH,
) -> np.ndarray:
    """Squared Euclidean distance from one query to many candidates.

    Vectorized counterpart of :func:`euclid_dist` over an ``(M, dim)``
    candidate block; row ``i`` of the result bit-matches
    ``euclid_dist(a, candidates[i], width)``.  The beat structure is
    preserved — each beat's lanes square-and-reduce in float32 along a
    C-contiguous axis (the same pairwise reduction the scalar path takes)
    and beats accumulate in float32 — so swapping the scalar loop for this
    kernel cannot move a single bit in any trace.
    """
    q = _as_f32_vector(a, "a")
    block = np.ascontiguousarray(candidates, dtype=np.float32)
    if block.ndim != 2:
        raise IsaError(
            f"candidates must be a 2-D block, got shape {block.shape}"
        )
    if block.shape[1] != q.size:
        raise IsaError(
            f"dimension mismatch: {q.size} vs {block.shape[1]} per row"
        )
    return get_backend().euclid_beats(q, block, width)


def rowwise_euclid_dist(
    qrows: np.ndarray,
    crows: np.ndarray,
    width: int = EUCLID_WIDTH,
) -> np.ndarray:
    """Per-row squared Euclidean distance between paired point rows.

    Row ``i`` of the result bit-matches ``euclid_dist(qrows[i], crows[i],
    width)`` — and therefore also row ``i`` of ``batch_euclid_dist`` with
    ``qrows[i]`` as the query.  This is the merged-pool form the batched
    query engine uses: candidate pools from many queries concatenate into
    one ``(M, dim)`` block with a matching block of per-row query points,
    and because every reduction in :func:`batch_euclid_dist` is already
    row-independent, merging pools cannot move a single bit in any row.
    """
    q = np.ascontiguousarray(qrows, dtype=np.float32)
    c = np.ascontiguousarray(crows, dtype=np.float32)
    if q.ndim != 2 or c.ndim != 2:
        raise IsaError(
            f"rowwise blocks must be 2-D, got {q.shape} and {c.shape}"
        )
    if q.shape != c.shape:
        raise IsaError(f"row-block mismatch: {q.shape} vs {c.shape}")
    if q.shape[1] == 0:
        raise IsaError("points must have at least one coordinate")
    return get_backend().euclid_beats_rowwise(q, c, width)


def angular_dist(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    width: int = ANGULAR_WIDTH,
) -> tuple[float, float]:
    """The ``(dot_sum, norm_sum)`` pair returned by ``POINT_ANGULAR``.

    Equations 3 and 4: ``dot_sum = sum_i c_i * q_i`` and ``norm_sum =
    sum_i c_i * c_i`` where ``a`` is the query and ``b`` the candidate.  The
    scalar division and square root of equation 2 happen outside the HSU —
    see :func:`angular_distance_from_sums`.
    """
    q = _as_f32_vector(a, "a")
    c = _as_f32_vector(b, "b")
    if q.shape != c.shape:
        raise IsaError(f"dimension mismatch: {q.shape} vs {c.shape}")
    dot_sum = np.float32(0.0)
    norm_sum = np.float32(0.0)
    for lo, hi in iter_beat_slices(q.size, width):
        dot_sum = np.float32(
            dot_sum + np.float32(np.sum(c[lo:hi] * q[lo:hi], dtype=np.float32))
        )
        norm_sum = np.float32(
            norm_sum + np.float32(np.sum(c[lo:hi] * c[lo:hi], dtype=np.float32))
        )
    return float(dot_sum), float(norm_sum)


def angular_distance_from_sums(
    dot_sum: float, norm_sum: float, query_norm: float
) -> float:
    """The software epilogue of an angular distance test (equation 2).

    Returns ``1 - cos(theta)`` (a proper dissimilarity: smaller is closer).
    ``query_norm`` is the precomputed magnitude of the query point — constant
    across all candidates, so computed once per search (§IV-E).
    """
    denom = query_norm * math.sqrt(norm_sum)
    if denom == 0.0:
        return 1.0
    return 1.0 - dot_sum / denom


def key_compare(key: float, separators: Sequence[float] | np.ndarray) -> int:
    """Bit vector of ``key >= separator[i]`` over up to 36 separators.

    Bit ``i`` is 0 when the key is less than separator ``i`` and 1 otherwise
    (Table I).  Separators must be sorted non-decreasing, as B-tree internal
    nodes guarantee.
    """
    seps = np.asarray(separators, dtype=np.float64)
    if seps.ndim != 1 or not 1 <= seps.size <= KEY_COMPARE_WIDTH:
        raise IsaError(
            f"KEY_COMPARE takes 1..{KEY_COMPARE_WIDTH} separators, "
            f"got shape {seps.shape}"
        )
    if np.any(seps[1:] < seps[:-1]):
        raise IsaError("separator values must be sorted non-decreasing")
    bits = 0
    for i, sep in enumerate(seps):
        if key >= sep:
            bits |= 1 << i
    return bits


def key_compare_child_index(bits: int, num_separators: int) -> int:
    """Child slot selected by a KEY_COMPARE result.

    With sorted separators the bit vector is a run of ones followed by
    zeros; the child index equals the number of ones (popcount).
    """
    if num_separators < 1:
        raise IsaError("num_separators must be >= 1")
    mask = (1 << num_separators) - 1
    return int(bin(bits & mask).count("1"))


def query_norm(a: Sequence[float] | np.ndarray) -> float:
    """Precomputed query magnitude used by angular search loops."""
    q = _as_f32_vector(a, "a")
    return float(math.sqrt(float(np.sum(q * q, dtype=np.float64))))
