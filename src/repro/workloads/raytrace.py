"""Plain ray tracing — the RT unit's original job (§II).

Generates a procedural triangle scene, builds the LBVH, and casts one
primary ray per pixel through an instrumented traversal.  This exercises the
``RAY_INTERSECT`` path of the unit in both node flavors (box and triangle)
and doubles as the renderer behind ``examples/raytrace_scene.py``.  The HSU
runs it unchanged — ISA compatibility with the baseline RT unit is a design
requirement (§III-B, §VI-G).
"""

from __future__ import annotations

import math

import numpy as np

from repro import builds
from repro.bvh.lbvh import build_lbvh
from repro.bvh.traversal import (
    EVENT_BOX_NODE,
    EVENT_LEAF_TRI,
    EVENT_STACK_OP,
    TraversalStats,
    ray_cast,
)
from repro.compiler.assembler import assemble_warps
from repro.compiler.layout import AddressSpace
from repro.compiler.lowering import STYLE_PARALLEL
from repro.compiler.ops import TBox, TShared, TTri, WarpOps
from repro.geometry.ray import Ray
from repro.geometry.triangle import Triangle
from repro.geometry.vec3 import Vec3

_CHILD_BYTES = 32
_TRI_BYTES = 48


def make_sphere_scene(
    rings: int = 12, sectors: int = 24, radius: float = 1.0
) -> list[Triangle]:
    """A UV-sphere triangle mesh plus a ground quad."""
    triangles: list[Triangle] = []

    def vertex(ring: int, sector: int) -> Vec3:
        theta = math.pi * ring / rings
        phi = 2.0 * math.pi * sector / sectors
        return Vec3(
            radius * math.sin(theta) * math.cos(phi),
            radius * math.cos(theta),
            radius * math.sin(theta) * math.sin(phi),
        )

    tid = 0
    for ring in range(rings):
        for sector in range(sectors):
            a = vertex(ring, sector)
            b = vertex(ring + 1, sector)
            c = vertex(ring + 1, sector + 1)
            d = vertex(ring, sector + 1)
            for tri in ((a, b, c), (a, c, d)):
                candidate = Triangle(*tri, triangle_id=tid)
                if not candidate.is_degenerate():
                    triangles.append(candidate)
                    tid += 1
    # Ground plane under the sphere.
    g0 = Vec3(-4.0, -radius, -4.0)
    g1 = Vec3(4.0, -radius, -4.0)
    g2 = Vec3(4.0, -radius, 4.0)
    g3 = Vec3(-4.0, -radius, 4.0)
    triangles.append(Triangle(g0, g1, g2, triangle_id=tid))
    triangles.append(Triangle(g0, g2, g3, triangle_id=tid + 1))
    return triangles


def camera_ray(x: int, y: int, width: int, height: int) -> Ray:
    """Pinhole camera looking down -z from (0, 0.5, 3)."""
    aspect = width / height
    u = (2.0 * (x + 0.5) / width - 1.0) * aspect
    v = 1.0 - 2.0 * (y + 0.5) / height
    origin = Vec3(0.0, 0.5, 3.0)
    direction = Vec3(u, v, -2.0)
    return Ray(origin, direction)


@builds.stored("raytrace-scene")
def _build_scene(rings: int, sectors: int):
    triangles = make_sphere_scene(rings, sectors)
    bvh = build_lbvh([t.aabb() for t in triangles])
    return triangles, bvh


def render(
    width: int = 32, height: int = 24, rings: int = 12, sectors: int = 24
) -> tuple[np.ndarray, list[list]]:
    """Render a shaded depth image; returns (image, per-ray thread streams).

    The image is an (H, W) float array in [0, 1]; streams carry the op
    events for trace generation.
    """
    triangles, bvh = _build_scene(rings, sectors)
    space = AddressSpace()
    nodes = space.alloc_array("bvh_nodes", bvh.num_nodes, bvh.arity * _CHILD_BYTES)
    tris = space.alloc_array("triangles", len(triangles), _TRI_BYTES)

    image = np.zeros((height, width), dtype=np.float64)
    streams = []
    for y in range(height):
        for x in range(width):
            ray = camera_ray(x, y, width, height)
            stats = TraversalStats(record_events=True)
            hit = ray_cast(bvh, ray, triangles, stats=stats)
            if hit is not None:
                normal = triangles[hit.triangle_id].normal().normalized()
                light = Vec3(0.4, 0.8, 0.45)
                image[y, x] = max(0.1, abs(normal.dot(light)))
            stream = []
            for kind, ident, payload in stats.events:
                if kind == EVENT_BOX_NODE:
                    stream.append(
                        TBox(
                            nodes.element(ident, bvh.arity * _CHILD_BYTES),
                            payload,
                            payload * _CHILD_BYTES,
                        )
                    )
                elif kind == EVENT_STACK_OP:
                    stream.append(TShared(max(1, payload)))
                elif kind == EVENT_LEAF_TRI:
                    stream.append(TTri(tris.element(ident, _TRI_BYTES)))
            streams.append(stream)
    return image, streams


def run_raytrace(width: int = 32, height: int = 24):
    """Trace a frame and return a WorkloadRun over its rays."""
    from repro.workloads.base import WorkloadRun

    image, streams = render(width, height)
    coverage = float(np.count_nonzero(image)) / image.size
    return WorkloadRun(
        name="raytrace",
        style=STYLE_PARALLEL,
        warp_ops=WarpOps.from_records(assemble_warps(streams)),
        extras={"coverage": coverage, "pixels": image.size},
    )
