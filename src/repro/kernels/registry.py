"""The kernel-backend accessor: one seam for every hot numeric loop.

The hot kernels of the reproduction — beat-structured HSU distances, BVH
lockstep-DFS point and radius queries, k-d plane stepping, HNSW
merged-pool distances, B-tree descent trails, packed-stream warp
grouping and the simulator's load-coalescing loop — are methods of one
backend object, :class:`repro.kernels.reference.ReferenceBackend`, the
pinned numpy implementation that every golden, fingerprint and cache key
is defined by.  Call sites fetch it through :func:`get_backend` and
invoke kernels as methods, so a profiler can patch the class to time
every kernel at once.  See docs/KERNELS.md.
"""

from __future__ import annotations

import functools


def resolve_backend_name() -> str:
    """Name of the kernel backend in use: always ``"reference"``."""
    return "reference"


@functools.cache
def get_backend():
    """The process-wide :class:`~repro.kernels.reference.ReferenceBackend`
    instance, constructed on first use."""
    # Imported here: the reference module pulls in repro.core, whose ops
    # module imports this one.
    from repro.kernels.reference import ReferenceBackend

    return ReferenceBackend()


def jit_available() -> bool:
    """True when numba is importable.  No kernel uses it; benchmark
    records report it as part of their environment."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True
