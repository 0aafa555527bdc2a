"""Slab-method ray/AABB intersection.

The baseline RT unit performs *up to four ray-box intersection tests* per
``RAY_INTERSECT`` instruction and sorts the hits by entry distance (§IV-B,
§IV-D); the BVH traversal (:mod:`repro.bvh.traversal`) applies this test
per child box and sorts the hits the same way.

The algorithm is the classic slab test (Kay & Kajiya 1986): intersect the
ray's parametric interval with the three per-axis slabs and report a hit when
the intersection is non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.aabb import Aabb
from repro.geometry.ray import Ray


@dataclass(frozen=True)
class BoxHit:
    """Result of one ray-box test.

    ``t_entry`` is the distance at which the ray enters the box (clamped to
    the ray interval), the value the RT unit sorts child nodes by.
    """

    hit: bool
    t_entry: float
    t_exit: float


def intersect_ray_box(ray: Ray, box: Aabb) -> BoxHit:
    """Slab test of ``ray`` against ``box``."""
    t_lo = ray.t_min
    t_hi = ray.t_max
    for lo, hi, origin, inv in zip(
        box.lo.iter_components(),
        box.hi.iter_components(),
        ray.origin.iter_components(),
        ray.inv_direction.iter_components(),
    ):
        t_near = (lo - origin) * inv
        t_far = (hi - origin) * inv
        if t_near > t_far:
            t_near, t_far = t_far, t_near
        t_lo = max(t_lo, t_near)
        t_hi = min(t_hi, t_far)
        if t_lo > t_hi:
            return BoxHit(False, t_lo, t_hi)
    return BoxHit(True, t_lo, t_hi)
