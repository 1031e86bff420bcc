import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clip_oracle import convex_polygon_intersection_area
from diou_oracle import (
    bev_corners,
    center_distance,
    corners_3d,
    diou_affinity,
    distance_term,
    enclosing_diagonal,
    iou_3d,
)
from mipmot import geometry
from mipmot.geometry import (
    EPS,
    Box3D,
    bev_corners_array,
    bev_intersection_areas,
    bev_iou,
    bev_iou_matrix,
    polygon_area,
    wrap_angle,
)

SQRT2 = math.sqrt(2.0)


def random_box(rng, spread=5.0, min_size=0.5, max_size=4.0) -> Box3D:
    x, y, z = rng.uniform(-spread, spread, 3)
    l, w, h = rng.uniform(min_size, max_size, 3)
    return Box3D(x, y, z, l, w, h, rng.uniform(-math.pi, math.pi))


def rasterized_intersection(p, q, resolution=1e-3):
    """Grid-count oracle for the area of two polygons' intersection."""
    pts = np.vstack([p, q])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    xs = np.arange(lo[0], hi[0], resolution) + resolution / 2
    ys = np.arange(lo[1], hi[1], resolution) + resolution / 2
    gx, gy = np.meshgrid(xs, ys)
    inside = np.ones(gx.shape, dtype=bool)
    for poly in (np.asarray(p), np.asarray(q)):
        for i in range(len(poly)):
            ax, ay = poly[i]
            bx, by = poly[(i + 1) % len(poly)]
            inside &= (bx - ax) * (gy - ay) - (by - ay) * (gx - ax) >= 0
    return inside.sum() * resolution * resolution


def monte_carlo_iou(b1: Box3D, b2: Box3D, rng, samples=100_000) -> float:
    """Volume-sampling oracle: sample inside b1, count hits inside b2."""
    local = rng.uniform(-0.5, 0.5, size=(samples, 3)) * np.array([b1.l, b1.w, b1.h])
    c, s = math.cos(b1.a), math.sin(b1.a)
    world = np.empty_like(local)
    world[:, 0] = c * local[:, 0] - s * local[:, 1] + b1.x
    world[:, 1] = s * local[:, 0] + c * local[:, 1] + b1.y
    world[:, 2] = local[:, 2] + b1.z
    # express in b2's frame
    dx = world[:, 0] - b2.x
    dy = world[:, 1] - b2.y
    c2, s2 = math.cos(b2.a), math.sin(b2.a)
    u = c2 * dx + s2 * dy
    v = -s2 * dx + c2 * dy
    hit = (
        (np.abs(u) <= 0.5 * b2.l)
        & (np.abs(v) <= 0.5 * b2.w)
        & (np.abs(world[:, 2] - b2.z) <= 0.5 * b2.h)
    )
    inter = b1.volume * hit.mean()
    union = b1.volume + b2.volume - inter
    return inter / union if union > 0 else 0.0


class TestBox3D:
    def test_heading_normalized(self):
        assert Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi).a == pytest.approx(math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, -math.pi).a == pytest.approx(math.pi)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box3D(math.nan, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, math.inf, 1, 1, 0)

    def test_rejects_negative_extent(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, -1, 1, 1, 0)

    def test_array_round_trip(self):
        box = Box3D(1, 2, 3, 4, 2, 1.5, 0.1)
        assert Box3D.from_array(box.to_array()) == box

    def test_wrap_angle_range(self):
        for a in np.linspace(-10, 10, 201):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(-1e6, 1e6),
                st.sampled_from(
                    [math.pi, -math.pi, 2 * math.pi, -2 * math.pi, -0.0, -1e-300]
                    + [math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0)]
                ),
            ),
            max_size=40,
        )
    )
    def test_wrap_angle_array_equals_scalar(self, angles):
        """One wrap for arrays and scalars: the same bits per element, and
        a wrapped angle is a fixed point."""
        wrapped = wrap_angle(np.array(angles, dtype=float))
        per_element = np.array([wrap_angle(a) for a in angles], dtype=float)
        assert wrapped.tobytes() == per_element.tobytes()
        assert wrap_angle(wrapped).tobytes() == wrapped.tobytes()


class TestBevCorners:
    def test_axis_aligned_unit_box(self):
        corners = {tuple(np.round(c, 9)) for c in bev_corners(Box3D(0, 0, 0, 1, 1, 1, 0))}
        assert corners == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_quarter_turn_square_symmetry(self):
        a = {tuple(np.round(c, 9)) for c in bev_corners(Box3D(0, 0, 0, 1, 1, 1, 0))}
        b = {
            tuple(np.round(c, 9))
            for c in bev_corners(Box3D(0, 0, 0, 1, 1, 1, math.pi / 2))
        }
        assert a == b

    def test_shoelace_area_rotated(self):
        poly = bev_corners(Box3D(0, 0, 0, 2, 1, 1, math.pi / 4))
        assert polygon_area(poly) == pytest.approx(2.0, abs=1e-12)

    def test_area_equals_lw_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            box = random_box(rng)
            assert polygon_area(bev_corners(box)) == pytest.approx(
                box.l * box.w, abs=1e-9
            )


class TestPolygonIntersection:
    UNIT_SQUARE = [(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)]

    def test_identity(self):
        assert convex_polygon_intersection_area(
            self.UNIT_SQUARE, self.UNIT_SQUARE
        ) == pytest.approx(1.0)

    def test_axis_aligned_offset(self):
        shifted = [(x + 0.5, y) for x, y in self.UNIT_SQUARE]
        assert convex_polygon_intersection_area(
            self.UNIT_SQUARE, shifted
        ) == pytest.approx(0.5)

    def test_rotated_square_against_raster_oracle(self):
        rotated = bev_corners(Box3D(0, 0, 0, 1, 1, 1, math.pi / 4))
        area = convex_polygon_intersection_area(self.UNIT_SQUARE, rotated)
        expected = 2.0 * (SQRT2 - 1.0)
        assert area == pytest.approx(expected, abs=1e-9)
        oracle = rasterized_intersection(self.UNIT_SQUARE, rotated)
        assert area == pytest.approx(oracle, abs=5e-3)

    def test_disjoint(self):
        far = [(x + 10, y) for x, y in self.UNIT_SQUARE]
        assert convex_polygon_intersection_area(self.UNIT_SQUARE, far) == 0.0

    def test_degenerate_returns_zero(self):
        line = [(0, 0), (1, 0), (2, 0)]
        assert convex_polygon_intersection_area(line, self.UNIT_SQUARE) == 0.0


def oracle_bev_iou(b1: Box3D, b2: Box3D) -> float:
    """Ground-plane IoU from the scalar clip, one pair at a time."""
    inter = convex_polygon_intersection_area(bev_corners(b1), bev_corners(b2))
    union = b1.l * b1.w + b2.l * b2.w - inter
    if union <= EPS:
        return 0.0
    return min(1.0, max(0.0, inter / union))


HEADINGS = st.floats(-4.0, 4.0) | st.sampled_from(
    [0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4]
)


@st.composite
def boxes(draw, spread=10.0):
    x, y, z = (draw(st.floats(-spread, spread)) for _ in range(3))
    l, w, h = (draw(st.floats(0.0, 6.0)) for _ in range(3))
    return Box3D(x, y, z, l, w, h, draw(HEADINGS))


@st.composite
def box_pairs(draw):
    """A box and a second one that is random or in a chosen relation to it."""
    a = draw(boxes())
    kind = draw(
        st.sampled_from(
            ["random", "coincident", "nested", "touching", "quarter", "flat", "far"]
        )
    )
    if kind == "random":
        return a, draw(boxes(spread=3.0)) if draw(st.booleans()) else draw(boxes())
    if kind == "coincident":
        return a, a
    if kind == "nested":
        k = draw(st.floats(0.0, 1.0))
        return a, Box3D(a.x, a.y, a.z, k * a.l, k * a.w, a.h, a.a)
    if kind == "touching":
        # shifted by one length along the heading: the footprints share an edge
        c, s = math.cos(a.a), math.sin(a.a)
        return a, Box3D(a.x + a.l * c, a.y + a.l * s, a.z, a.l, a.w, a.h, a.a)
    if kind == "quarter":
        return a, Box3D(a.x, a.y, a.z, a.l, a.w, a.h, a.a + math.pi / 2)
    if kind == "flat":
        b = draw(boxes(spread=3.0))
        return a, Box3D(b.x, b.y, b.z, b.l, 0.0, b.h, b.a)
    return a, Box3D(a.x + 1e3, a.y - 1e3, a.z, a.l, a.w, a.h, a.a)


def as_array(boxes_):
    return np.array([b.to_array() for b in boxes_]).reshape(-1, 7)


class TestOverlapKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(box_pairs(), max_size=12))
    def test_areas_equal_scalar_clip(self, pairs):
        left, right = as_array(a for a, _ in pairs), as_array(b for _, b in pairs)
        got = bev_intersection_areas(left, right)
        expected = [
            convex_polygon_intersection_area(bev_corners(a), bev_corners(b)) for a, b in pairs
        ]
        assert got.shape == (len(pairs),)
        assert got.tolist() == expected

    def test_no_pairs(self):
        empty = np.zeros((0, 7))
        assert bev_intersection_areas(empty, empty).shape == (0,)
        assert bev_iou_matrix(empty, as_array([Box3D(0, 0, 0, 1, 1, 1)])).shape == (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(boxes(spread=4.0), max_size=6), st.lists(boxes(spread=4.0), max_size=6))
    def test_iou_matrix_equals_pairwise(self, left, right):
        got = bev_iou_matrix(as_array(left), as_array(right))
        expected = [[oracle_bev_iou(a, b) for b in right] for a in left]
        assert got.shape == (len(left), len(right))
        assert got.tolist() == expected
        assert [[bev_iou(a, b) for b in right] for a in left] == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(boxes(spread=4.0), max_size=7),
        st.lists(boxes(spread=4.0), max_size=7),
        st.sampled_from(["near", "far", "coincident"]),
    )
    def test_tree_query_equals_pairwise(self, left, right, layout):
        if layout == "far":
            # every box farther from the others than any two circumcircles reach
            right = [
                Box3D(b.x + 100.0 * (k + 1), b.y, b.z, b.l, b.w, b.h, b.a)
                for k, b in enumerate(right)
            ]
        elif layout == "coincident":
            right = [Box3D(a.x, a.y, b.z, b.l, b.w, b.h, b.a) for a, b in zip(left, right)]
        # the k-d tree query at every size, not only beyond the size where it pays off
        with mock.patch.object(geometry, "_TREE_MIN_PAIRS", 0):
            got = bev_iou_matrix(as_array(left), as_array(right))
        expected = [[oracle_bev_iou(a, b) for b in right] for a in left]
        assert got.shape == (len(left), len(right))
        assert got.tolist() == expected

    def test_tree_query_at_size(self):
        # 110 x 110 boxes on a grid: beyond _TREE_MIN_PAIRS, so the tree is used
        rng = np.random.default_rng(149)
        grid = np.array([(x, y) for x in range(11) for y in range(10)], dtype=float) * 6.0
        left = [Box3D(x, y, 0, *rng.uniform(0.5, 6.0, 3), rng.uniform(-4, 4)) for x, y in grid]
        right = [
            Box3D(b.x + rng.normal(0, 1.0), b.y + rng.normal(0, 1.0), 0, b.l, b.w, b.h, b.a + 0.3)
            for b in left
        ]
        assert len(left) * len(right) > geometry._TREE_MIN_PAIRS
        got = bev_iou_matrix(as_array(left), as_array(right))
        with mock.patch.object(geometry, "_TREE_MIN_PAIRS", math.inf):
            dense = bev_iou_matrix(as_array(left), as_array(right))
        assert got.tolist() == dense.tolist()
        assert np.count_nonzero(got) > len(left)
        for i, j in zip(*np.nonzero(got)):
            assert got[i, j] == oracle_bev_iou(left[i], right[j])

    def test_tree_query_empty_side(self):
        one = as_array([Box3D(0, 0, 0, 1, 1, 1)])
        with mock.patch.object(geometry, "_TREE_MIN_PAIRS", -1):
            assert bev_iou_matrix(np.zeros((0, 7)), one).shape == (0, 1)
            assert bev_iou_matrix(one, np.zeros((0, 7))).shape == (1, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(boxes(), min_size=1, max_size=6))
    def test_corners_match_scalar_rotation(self, boxes_):
        for box, corners in zip(boxes_, bev_corners_array(as_array(boxes_))):
            hl, hw = 0.5 * box.l, 0.5 * box.w
            c, s = math.cos(box.a), math.sin(box.a)
            local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
            rot = np.array([[c, -s], [s, c]])
            expected = local @ rot.T + np.array([box.x, box.y])
            assert corners.tolist() == expected.tolist()

    def test_point_footprint_overlaps_nothing(self):
        # A clip by a point has only zero-length edges, which keep every vertex.
        box = Box3D(0, 0, 0, 4, 2, 2, 0.3)
        point = Box3D(0.5, 0.2, 0, 0, 0, 0.5, 1.0)
        areas = bev_intersection_areas(as_array([box, point]), as_array([point, box]))
        assert areas.tolist() == [0.0, 0.0]
        assert iou_3d(box, point) == 0.0 and iou_3d(point, box) == 0.0

    def test_subnormal_extents_overlap_nothing(self):
        # the clip's crossing points overflow for such a footprint; the
        # pair is flat and scores 0 without a floating-point warning
        tiny = Box3D(0, 0, 0, 1.1e-308, 1.1e-308, 1, 0.3)
        box = Box3D(0.1, 0, 0, 2, 1, 1, 0)
        areas = bev_intersection_areas(as_array([tiny, box]), as_array([box, tiny]))
        assert areas.tolist() == [0.0, 0.0]

    def test_rotated_square_analytic(self):
        square = Box3D(0, 0, 0, 1, 1, 1, 0)
        rotated = Box3D(0, 0, 0, 1, 1, 1, math.pi / 4)
        area = bev_intersection_areas(as_array([square]), as_array([rotated]))[0]
        assert area == pytest.approx(2.0 * (SQRT2 - 1.0), abs=1e-12)


class TestIou3d:
    def test_identity(self):
        box = Box3D(1, 2, 3, 2, 1, 1.5, 0.3)
        assert iou_3d(box, box) == pytest.approx(1.0)

    def test_axis_aligned_half_offset(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0.5, 0, 0, 1, 1, 1, 0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0)
        rng = np.random.default_rng(5)
        assert monte_carlo_iou(a, b, rng) == pytest.approx(1.0 / 3.0, abs=5e-3)

    def test_disjoint(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(10, 0, 0, 1, 1, 1, 0)
        assert iou_3d(a, b) == 0.0

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            v = iou_3d(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou_3d(b, a), abs=1e-12)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            base = iou_3d(a, b)
            tx, ty, tz = rng.uniform(-20, 20, 3)
            theta = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(theta), math.sin(theta)

            def move(box):
                x = c * box.x - s * box.y + tx
                y = s * box.x + c * box.y + ty
                return Box3D(x, y, box.z + tz, box.l, box.w, box.h, box.a + theta)

            assert iou_3d(move(a), move(b)) == pytest.approx(base, abs=1e-6)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            a = random_box(rng, spread=2.0)
            b = random_box(rng, spread=2.0)
            assert iou_3d(a, b) == pytest.approx(
                monte_carlo_iou(a, b, rng), abs=0.01
            )


class TestEnclosingDiagonal:
    def test_coincident_unit_cubes(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        assert enclosing_diagonal(box, box) == pytest.approx(math.sqrt(3.0))

    def test_nine_meters_apart(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(9, 0, 0, 1, 1, 1, 0)
        assert enclosing_diagonal(a, b) == pytest.approx(math.sqrt(102.0))

    def test_corner_enumeration_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            pts = np.vstack([corners_3d(a), corners_3d(b)])
            expected = math.sqrt(
                sum((pts[:, i].max() - pts[:, i].min()) ** 2 for i in range(3))
            )
            assert enclosing_diagonal(a, b) == pytest.approx(expected, abs=1e-9)

    def test_degenerate_zero(self):
        z = Box3D(1, 1, 1, 0, 0, 0, 0)
        assert enclosing_diagonal(z, z) == 0.0


class TestDiouAffinity:
    def test_identity(self):
        box = Box3D(3, -2, 1, 4, 2, 1.5, 0.7)
        assert diou_affinity(box, box) == pytest.approx(2.0)

    def test_nine_meter_cubes(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(9, 0, 0, 1, 1, 1, 0)
        expected = 1.0 - 9.0 / math.sqrt(102.0)
        assert diou_affinity(a, b) == pytest.approx(expected, abs=1e-9)

    def test_symmetry_random(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert diou_affinity(a, b) == pytest.approx(diou_affinity(b, a), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            a, b = random_box(rng, spread=15.0), random_box(rng, spread=15.0)
            assert 0.0 <= diou_affinity(a, b) <= 2.0

    def test_degenerate_coincident(self):
        z = Box3D(1, 1, 1, 0, 0, 0, 0)
        assert diou_affinity(z, z) == 2.0

    def test_distance_term_identity_iff_coincident(self):
        a = Box3D(0, 0, 0, 2, 1, 1, 0.2)
        assert distance_term(a, Box3D(0, 0, 0, 3, 2, 1, 1.0)) == pytest.approx(1.0)
        assert distance_term(a, Box3D(0.1, 0, 0, 2, 1, 1, 0.2)) < 1.0

    def test_distance_term_monotone_in_offset(self):
        a = Box3D(0, 0, 0, 2, 1, 1, 0)
        values = [distance_term(a, Box3D(d, 0, 0, 2, 1, 1, 0)) for d in np.linspace(0, 20, 30)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


class TestBevIou:
    def test_identity_and_disjoint(self):
        a = Box3D(0, 0, 0, 2, 1, 1, 0.4)
        assert bev_iou(a, a) == pytest.approx(1.0)
        assert bev_iou(a, Box3D(50, 0, 0, 2, 1, 1, 0)) == 0.0

    def test_height_ignored(self):
        a = Box3D(0, 0, 0, 2, 1, 1, 0)
        b = Box3D(0, 0, 100, 2, 1, 5, 0)
        assert bev_iou(a, b) == pytest.approx(1.0)

    def test_center_distance(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(3, 4, 0, 1, 1, 1, 0)
        assert center_distance(a, b) == pytest.approx(5.0)
