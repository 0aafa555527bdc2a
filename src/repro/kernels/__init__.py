"""Kernel layer (see docs/KERNELS.md).

Hot numeric loops — HSU beat distances, BVH lockstep DFS, k-d plane
stepping, HNSW merged-pool distances, B-tree descent trails, warp
grouping, load coalescing — are methods of one numpy backend object;
``get_backend()`` returns its single instance.
"""

from repro.kernels.registry import (
    get_backend,
    jit_available,
    resolve_backend_name,
)

__all__ = [
    "get_backend",
    "jit_available",
    "resolve_backend_name",
]
