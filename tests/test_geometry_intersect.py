"""Ray/box and ray/triangle intersection kernels."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.aabb import Aabb
from repro.geometry.intersect_box import intersect_ray_box
from repro.geometry.intersect_tri import intersect_ray_triangle
from repro.geometry.ray import Ray
from repro.geometry.triangle import Triangle
from repro.geometry.vec3 import Vec3

UNIT_BOX = Aabb(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 1.0, 1.0))


class TestRayBox:
    def test_direct_hit(self):
        ray = Ray(Vec3(-1.0, 0.5, 0.5), Vec3(1.0, 0.0, 0.0))
        hit = intersect_ray_box(ray, UNIT_BOX)
        assert hit.hit
        assert hit.t_entry == pytest.approx(1.0)
        assert hit.t_exit == pytest.approx(2.0)

    def test_miss(self):
        ray = Ray(Vec3(-1.0, 2.0, 0.5), Vec3(1.0, 0.0, 0.0))
        assert not intersect_ray_box(ray, UNIT_BOX).hit

    def test_origin_inside(self):
        ray = Ray(Vec3(0.5, 0.5, 0.5), Vec3(0.0, 1.0, 0.0))
        hit = intersect_ray_box(ray, UNIT_BOX)
        assert hit.hit
        assert hit.t_entry == pytest.approx(0.0)

    def test_behind_origin(self):
        ray = Ray(Vec3(2.0, 0.5, 0.5), Vec3(1.0, 0.0, 0.0))
        assert not intersect_ray_box(ray, UNIT_BOX).hit

    def test_interval_clipping(self):
        ray = Ray(Vec3(-1.0, 0.5, 0.5), Vec3(1.0, 0.0, 0.0), t_max=0.5)
        assert not intersect_ray_box(ray, UNIT_BOX).hit

    def test_diagonal_through_corner_region(self):
        ray = Ray(Vec3(-1.0, -1.0, -1.0), Vec3(1.0, 1.0, 1.0))
        hit = intersect_ray_box(ray, UNIT_BOX)
        assert hit.hit
        assert hit.t_entry == pytest.approx(1.0)

    @given(
        st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99)
    )
    def test_ray_from_inside_always_hits(self, x, y, z):
        ray = Ray(Vec3(x, y, z), Vec3(0.3, -0.9, 0.2))
        assert intersect_ray_box(ray, UNIT_BOX).hit


TRIANGLE = Triangle(
    Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), triangle_id=7
)


class TestRayTriangle:
    def test_center_hit(self):
        ray = Ray(Vec3(0.25, 0.25, 1.0), Vec3(0.0, 0.0, -1.0))
        hit = intersect_ray_triangle(ray, TRIANGLE)
        assert hit.hit
        assert hit.triangle_id == 7
        assert hit.t() == pytest.approx(1.0)

    def test_miss_outside(self):
        ray = Ray(Vec3(0.9, 0.9, 1.0), Vec3(0.0, 0.0, -1.0))
        assert not intersect_ray_triangle(ray, TRIANGLE).hit

    def test_parallel_miss(self):
        ray = Ray(Vec3(0.25, 0.25, 1.0), Vec3(1.0, 0.0, 0.0))
        assert not intersect_ray_triangle(ray, TRIANGLE).hit

    def test_behind_origin_miss(self):
        ray = Ray(Vec3(0.25, 0.25, -1.0), Vec3(0.0, 0.0, -1.0))
        assert not intersect_ray_triangle(ray, TRIANGLE).hit

    def test_backface_culling(self):
        # Approaching from below: front-facing hit is culled.
        ray = Ray(Vec3(0.25, 0.25, -1.0), Vec3(0.0, 0.0, 1.0))
        assert intersect_ray_triangle(ray, TRIANGLE).hit
        assert not intersect_ray_triangle(
            ray, TRIANGLE, backface_culling=True
        ).hit

    def test_barycentrics_sum_to_one(self):
        ray = Ray(Vec3(0.2, 0.3, 5.0), Vec3(0.0, 0.0, -1.0))
        hit = intersect_ray_triangle(ray, TRIANGLE)
        u, v, w = hit.barycentrics()
        assert u + v + w == pytest.approx(1.0)

    def test_division_free_ratio(self):
        ray = Ray(Vec3(0.25, 0.25, 2.0), Vec3(0.0, 0.0, -4.0))
        hit = intersect_ray_triangle(ray, TRIANGLE)
        assert hit.hit
        assert hit.t() == pytest.approx(0.5)
        assert hit.t_num / hit.t_denom == pytest.approx(0.5)

    @settings(max_examples=200)
    @given(st.floats(0.02, 0.97), st.floats(0.02, 0.97))
    def test_interior_points_hit(self, u, v):
        # Map (u, v) into the triangle's interior.
        if u + v >= 1.0:
            u, v = 1.0 - u, 1.0 - v
        target = Vec3(u, v, 0.0)
        ray = Ray(Vec3(u, v, 3.0), Vec3(0.0, 0.0, -1.0))
        hit = intersect_ray_triangle(ray, TRIANGLE)
        assert hit.hit
        assert ray.at(hit.t()).x == pytest.approx(target.x, abs=1e-9)

    def test_watertight_shared_edge(self):
        """A ray crossing the shared edge of two triangles hits exactly
        one of them (no gap, no double hit) — the watertight property."""
        left = Triangle(
            Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)
        )
        right = Triangle(
            Vec3(1.0, 0.0, 0.0), Vec3(1.0, 1.0, 0.0), Vec3(0.0, 1.0, 0.0)
        )
        hits = 0
        for offset in (0.0, 1e-12, -1e-12):
            # Point exactly on the shared edge x + y = 1.
            x = 0.5 + offset
            ray = Ray(Vec3(x, 0.5, 1.0), Vec3(0.0, 0.0, -1.0))
            h1 = intersect_ray_triangle(ray, left)
            h2 = intersect_ray_triangle(ray, right)
            hits = int(h1.hit) + int(h2.hit)
            assert hits >= 1, f"gap at offset {offset}"

    def test_degenerate_triangle_misses(self):
        degenerate = Triangle.degenerate_at_point(Vec3(0.5, 0.5, 0.0))
        ray = Ray(Vec3(0.5, 0.5, 1.0), Vec3(0.0, 0.0, -1.0))
        assert not intersect_ray_triangle(ray, degenerate).hit


class TestConsistency:
    @settings(max_examples=100)
    @given(
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
        st.floats(-1.0, -0.1),
    )
    def test_triangle_hit_implies_bounding_box_hit(self, ox, oy, dz):
        ray = Ray(Vec3(ox, oy, 2.0), Vec3(0.05, -0.03, dz))
        tri_hit = intersect_ray_triangle(ray, TRIANGLE)
        if tri_hit.hit:
            # Pad the flat box slightly: the triangle lies in z == 0.
            box = TRIANGLE.aabb()
            padded = Aabb(box.lo - Vec3(0, 0, 1e-9), box.hi + Vec3(0, 0, 1e-9))
            assert intersect_ray_box(ray, padded).hit

    def test_t_entry_matches_manual_slab(self):
        ray = Ray(Vec3(-2.0, 0.25, 0.75), Vec3(4.0, 0.5, -0.5))
        hit = intersect_ray_box(ray, UNIT_BOX)
        if hit.hit:
            p = ray.at(hit.t_entry)
            on_face = any(
                math.isclose(p.component(a), b, abs_tol=1e-9)
                for a in range(3)
                for b in (0.0, 1.0)
            )
            assert on_face or UNIT_BOX.contains_point(ray.origin)
