"""Geometric primitives and intersection kernels used by the RT/HSU datapath.

This package implements, from scratch, the geometry the baseline ray-tracing
unit operates on:

* :class:`~repro.geometry.vec3.Vec3` — a small immutable 3-vector,
* :class:`~repro.geometry.ray.Ray` — a ray with the precomputed constants the
  hardware expects (inverse direction, Woop shear/k constants),
* :class:`~repro.geometry.aabb.Aabb` — axis-aligned bounding boxes,
* :class:`~repro.geometry.triangle.Triangle` — triangle primitives,
* the slab ray/box test (:mod:`~repro.geometry.intersect_box`),
* the watertight Woop ray/triangle test (:mod:`~repro.geometry.intersect_tri`),
* Morton codes for LBVH construction (:mod:`~repro.geometry.morton`).
"""

from repro.geometry.aabb import Aabb
from repro.geometry.intersect_box import BoxHit, intersect_ray_box
from repro.geometry.intersect_tri import TriangleHit, intersect_ray_triangle
from repro.geometry.morton import (
    morton_decode3,
    morton_encode3,
    morton_encode_points,
)
from repro.geometry.ray import Ray
from repro.geometry.triangle import Triangle
from repro.geometry.vec3 import Vec3

__all__ = [
    "Aabb",
    "BoxHit",
    "Ray",
    "Triangle",
    "TriangleHit",
    "Vec3",
    "intersect_ray_box",
    "intersect_ray_triangle",
    "morton_decode3",
    "morton_encode3",
    "morton_encode_points",
]
