import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_area
from clip_oracle import convex_polygon_intersection_area
from diou_oracle import (
    bev_corners,
    center_distance,
    corners_3d,
    diou_affinity,
    distance_term,
    enclosing_diagonal,
    iou_3d,
    volume,
)
from exact_area import within
from pair_oracle import assert_same_pairs, bev_iou_matrix, brute_force_pairs
from mipmot import geometry
from mipmot.geometry import (
    EPS,
    bev_corners_array,
    bev_intersection_areas,
    bev_iou,
    bev_iou_matrices,
    polygon_area,
    wrap_angle,
)
from mipmot.io_formats import DetectionBatch
from tables import box as make_box

SQRT2 = math.sqrt(2.0)


def replace(box, **fields):
    """The box with the named fields (x, y, z, l, w, h, a) replaced."""
    values = dict(zip("xyzlwha", box))
    values.update(fields)
    return make_box(**values)


def random_box(rng, spread=5.0, min_size=0.5, max_size=4.0) -> np.ndarray:
    x, y, z = rng.uniform(-spread, spread, 3)
    l, w, h = rng.uniform(min_size, max_size, 3)
    return make_box(x, y, z, l, w, h, rng.uniform(-math.pi, math.pi))


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


def monte_carlo_iou(b1, b2, rng, samples=100_000) -> float:
    """Volume-sampling oracle: sample inside b1, count hits inside b2."""
    local = rng.uniform(-0.5, 0.5, size=(samples, 3)) * np.array([b1[3], b1[4], b1[5]])
    c, s = math.cos(b1[6]), math.sin(b1[6])
    world = np.empty_like(local)
    world[:, 0] = c * local[:, 0] - s * local[:, 1] + b1[0]
    world[:, 1] = s * local[:, 0] + c * local[:, 1] + b1[1]
    world[:, 2] = local[:, 2] + b1[2]
    # express in b2's frame
    dx = world[:, 0] - b2[0]
    dy = world[:, 1] - b2[1]
    c2, s2 = math.cos(b2[6]), math.sin(b2[6])
    u = c2 * dx + s2 * dy
    v = -s2 * dx + c2 * dy
    hit = (
        (np.abs(u) <= 0.5 * b2[3])
        & (np.abs(v) <= 0.5 * b2[4])
        & (np.abs(world[:, 2] - b2[2]) <= 0.5 * b2[5])
    )
    inter = volume(b1) * hit.mean()
    union = volume(b1) + volume(b2) - inter
    return inter / union if union > 0 else 0.0


def checked(*boxes):
    """The boxes of a ``DetectionBatch`` built from them, which checks
    them against the box rules and wraps their headings."""
    return DetectionBatch(0, boxes, [1.0] * len(boxes)).boxes


class TestBox3D:
    """A 3D box is an (x, y, z, l, w, h, a) 7-vector, checked against the
    box rules where it enters the program, as a ``DetectionBatch`` is."""

    def test_heading_normalized(self):
        headings = checked([0, 0, 0, 1, 1, 1, 3 * math.pi], [0, 0, 0, 1, 1, 1, -math.pi])[:, 6]
        assert headings.tolist() == pytest.approx([math.pi, math.pi])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="detection 0: box field x is not finite: nan"):
            checked([math.nan, 0, 0, 1, 1, 1, 0])
        with pytest.raises(ValueError, match="detection 1: box field l is not finite: inf"):
            checked([0, 0, 0, 1, 1, 1, 0], [0, 0, 0, math.inf, 1, 1, 0])

    def test_rejects_negative_extent(self):
        with pytest.raises(ValueError, match="box extents must be nonnegative, got l=-1.0"):
            checked([0, 0, 0, -1, 1, 1, 0])

    def test_array_round_trip(self):
        """A box passes through a batch and its row view bit for bit."""
        box = make_box(1, 2, 3, 4, 2, 1.5, 0.1)
        batch = DetectionBatch(0, [box], [1.0])
        assert batch.boxes[0].tobytes() == batch[0].box.tobytes() == box.tobytes()

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
        corners = {tuple(np.round(c, 9)) for c in bev_corners(make_box(0, 0, 0, 1, 1, 1, 0))}
        assert corners == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_quarter_turn_square_symmetry(self):
        a = {tuple(np.round(c, 9)) for c in bev_corners(make_box(0, 0, 0, 1, 1, 1, 0))}
        b = {
            tuple(np.round(c, 9))
            for c in bev_corners(make_box(0, 0, 0, 1, 1, 1, math.pi / 2))
        }
        assert a == b

    def test_shoelace_area_rotated(self):
        poly = bev_corners(make_box(0, 0, 0, 2, 1, 1, math.pi / 4))
        assert polygon_area(poly) == pytest.approx(2.0, abs=1e-12)

    def test_area_equals_lw_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            box = random_box(rng)
            assert polygon_area(bev_corners(box)) == pytest.approx(
                box[3] * box[4], abs=1e-9
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
        rotated = bev_corners(make_box(0, 0, 0, 1, 1, 1, math.pi / 4))
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


def assert_ious_exact(got, left, right):
    """Each entry of an IoU matrix lies in the exact reference's bounds."""
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            assert within(got[i, j], exact_area.iou_bounds(a, b)), (a, b, got[i, j])


def pairwise_ious(left, right):
    """The IoU matrix from one one-pair kernel call per entry."""
    return [[bev_iou(a, b) for b in right] for a in left]


HEADINGS = st.floats(-4.0, 4.0) | st.sampled_from(
    [0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4]
)


@st.composite
def boxes(draw, spread=10.0):
    x, y, z = (draw(st.floats(-spread, spread)) for _ in range(3))
    l, w, h = (draw(st.floats(0.0, 6.0)) for _ in range(3))
    return make_box(x, y, z, l, w, h, draw(HEADINGS))


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
        return a, replace(a, l=k * a[3], w=k * a[4])
    if kind == "touching":
        # shifted by one length along the heading: the footprints share an edge
        c, s = math.cos(a[6]), math.sin(a[6])
        return a, replace(a, x=a[0] + a[3] * c, y=a[1] + a[3] * s)
    if kind == "quarter":
        return a, replace(a, a=a[6] + math.pi / 2)
    if kind == "flat":
        b = draw(boxes(spread=3.0))
        return a, replace(b, w=0.0)
    return a, replace(a, x=a[0] + 1e3, y=a[1] - 1e3)


def as_array(boxes_):
    return np.array(list(boxes_), dtype=float).reshape(-1, 7)


class TestOverlapKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(box_pairs(), max_size=12))
    def test_areas_match_exact_reference(self, pairs):
        left, right = as_array(a for a, _ in pairs), as_array(b for _, b in pairs)
        got = bev_intersection_areas(left, right)
        assert got.shape == (len(pairs),)
        for area, (a, b) in zip(got, pairs):
            assert within(area, exact_area.area_bounds(a, b)), (a, b, area)

    def test_no_pairs(self):
        empty = np.zeros((0, 7))
        assert bev_intersection_areas(empty, empty).shape == (0,)
        assert bev_iou_matrix(empty, as_array([make_box(0, 0, 0, 1, 1, 1)])).shape == (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(boxes(spread=4.0), max_size=6), st.lists(boxes(spread=4.0), max_size=6))
    def test_iou_matrix_equals_pairwise(self, left, right):
        got = bev_iou_matrix(as_array(left), as_array(right))
        assert got.shape == (len(left), len(right))
        assert got.tolist() == pairwise_ious(left, right)
        assert_ious_exact(got, left, right)

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
                replace(b, x=b[0] + 100.0 * (k + 1)) for k, b in enumerate(right)
            ]
        elif layout == "coincident":
            right = [replace(b, x=a[0], y=a[1]) for a, b in zip(left, right)]
        frame = [(as_array(left), as_array(right))]
        assert_same_pairs(bev_iou_matrices(frame), brute_force_pairs(frame))
        got = bev_iou_matrix(as_array(left), as_array(right))
        assert got.shape == (len(left), len(right))
        assert got.tolist() == pairwise_ious(left, right)
        assert_ious_exact(got, left, right)

    def test_tree_query_at_size(self):
        # 110 x 110 boxes on a grid, 12,100 pairs
        rng = np.random.default_rng(149)
        grid = np.array([(x, y) for x in range(11) for y in range(10)], dtype=float) * 6.0
        left = [make_box(x, y, 0, *rng.uniform(0.5, 6.0, 3), rng.uniform(-4, 4)) for x, y in grid]
        right = [
            replace(b, x=b[0] + rng.normal(0, 1.0), y=b[1] + rng.normal(0, 1.0), a=b[6] + 0.3)
            for b in left
        ]
        frame = [(as_array(left), as_array(right))]
        pairs = bev_iou_matrices(frame)
        assert_same_pairs(pairs, brute_force_pairs(frame))
        assert len(left) < len(pairs.rows) < 5 * len(left)
        got = bev_iou_matrix(as_array(left), as_array(right))
        assert np.count_nonzero(got) > len(left)
        for i, j in zip(*np.nonzero(got)):
            assert got[i, j] == bev_iou(left[i], right[j])
            assert within(got[i, j], exact_area.iou_bounds(left[i], right[j]))

    def test_tree_query_empty_side(self):
        one = as_array([make_box(0, 0, 0, 1, 1, 1)])
        for frame in [(np.zeros((0, 7)), one), (one, np.zeros((0, 7)))]:
            assert_same_pairs(bev_iou_matrices([frame]), brute_force_pairs([frame]))
        assert bev_iou_matrix(np.zeros((0, 7)), one).shape == (0, 1)
        assert bev_iou_matrix(one, np.zeros((0, 7))).shape == (1, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(boxes(), min_size=1, max_size=6))
    def test_corners_match_scalar_rotation(self, boxes_):
        for box, corners in zip(boxes_, bev_corners_array(as_array(boxes_))):
            hl, hw = 0.5 * box[3], 0.5 * box[4]
            c, s = math.cos(box[6]), math.sin(box[6])
            local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
            rot = np.array([[c, -s], [s, c]])
            expected = local @ rot.T + np.array([box[0], box[1]])
            assert corners.tolist() == expected.tolist()

    def test_point_footprint_overlaps_nothing(self):
        # a point footprint is flat, whichever side of the pair it is on
        box = make_box(0, 0, 0, 4, 2, 2, 0.3)
        point = make_box(0.5, 0.2, 0, 0, 0, 0.5, 1.0)
        areas = bev_intersection_areas(as_array([box, point]), as_array([point, box]))
        assert areas.tolist() == [0.0, 0.0]
        assert iou_3d(box, point) == 0.0 and iou_3d(point, box) == 0.0

    def test_subnormal_extents_overlap_nothing(self):
        # such a footprint's edge slopes divide by subnormal runs; the
        # pair is flat and scores 0 without a floating-point warning
        tiny = make_box(0, 0, 0, 1.1e-308, 1.1e-308, 1, 0.3)
        box = make_box(0.1, 0, 0, 2, 1, 1, 0)
        areas = bev_intersection_areas(as_array([tiny, box]), as_array([box, tiny]))
        assert areas.tolist() == [0.0, 0.0]

    def test_rotated_square_analytic(self):
        square = make_box(0, 0, 0, 1, 1, 1, 0)
        rotated = make_box(0, 0, 0, 1, 1, 1, math.pi / 4)
        area = bev_intersection_areas(as_array([square]), as_array([rotated]))[0]
        assert area == pytest.approx(2.0 * (SQRT2 - 1.0), abs=1e-12)


# Extents from 0, and subnormal, to 1 km; centres up to 10 km out.
EXTENTS = st.floats(0.0, 1e3) | st.sampled_from([0.0, 5e-324, 1.1e-308, 1e-5, 1e3])
CENTRES = st.floats(-1e4, 1e4)


def quarter_turn(box, k):
    """The same footprint as (w, l, a + k pi/2), or (l, w, ...) for even k."""
    l, w = (box[4], box[3]) if k % 2 else (box[3], box[4])
    return replace(box, l=l, w=w, a=box[6] + k * math.pi / 2)


@st.composite
def wide_boxes(draw):
    x, y = draw(CENTRES), draw(CENTRES)
    return make_box(x, y, 0.0, draw(EXTENTS), draw(EXTENTS), 1.0, draw(HEADINGS))


@st.composite
def wide_pairs(draw):
    """A box anywhere within 10 km and a second one that overlaps it,
    coincides with it, is shifted by half its length or width, lies
    inside it or is its footprint given a quarter turn further."""
    a = draw(wide_boxes())
    kind = draw(st.sampled_from(["near", "coincident", "half", "nested", "quarter"]))
    c, s = math.cos(a[6]), math.sin(a[6])
    if kind == "coincident":
        return a, a
    if kind == "half":
        du, dv = draw(st.sampled_from([(0.5 * a[3], 0.0), (0.0, 0.5 * a[4])]))
        return a, replace(a, x=a[0] + du * c - dv * s, y=a[1] + du * s + dv * c)
    if kind == "nested":
        k, u, v = (draw(st.floats(0.0, 1.0)) for _ in range(3))
        du, dv = (1.0 - k) * (u - 0.5) * a[3], (1.0 - k) * (v - 0.5) * a[4]
        return a, replace(
            a, x=a[0] + du * c - dv * s, y=a[1] + du * s + dv * c, l=k * a[3], w=k * a[4]
        )
    if kind == "quarter":
        return a, quarter_turn(a, draw(st.integers(-3, 4)))
    # a second box centred within half the first's length and width of it
    b = draw(wide_boxes())
    u, v = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    return a, replace(b, x=a[0] + u * a[3], y=a[1] + v * a[4])


def on_grid(box, step=2.0**-16):
    """The box with its centre rounded to a multiple of ``step``."""
    return replace(box, x=round(box[0] / step) * step, y=round(box[1] / step) * step)


class TestExactArea:
    """The kernel against the exact reference, within
    ``exact_area.tolerance``, for boxes up to 10 km out."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(wide_pairs(), min_size=1, max_size=6))
    def test_areas_match_exact_reference(self, pairs):
        left, right = as_array(a for a, _ in pairs), as_array(b for _, b in pairs)
        got = bev_intersection_areas(left, right)
        swapped = bev_intersection_areas(right, left)
        smaller = np.minimum(left[:, 3] * left[:, 4], right[:, 3] * right[:, 4])
        assert np.isfinite(got).all()
        assert (0.0 <= got).all() and (got <= smaller).all()
        for k, (a, b) in enumerate(pairs):
            exact = exact_area.area(a, b)
            assert within(got[k], exact_area.area_bounds(a, b, exact)), (a, b, got[k])
            assert within(swapped[k], exact_area.area_bounds(b, a, exact)), (b, a, swapped[k])
            assert abs(got[k] - swapped[k]) <= exact_area.tolerance(a, b)

    @settings(max_examples=200, deadline=None)
    @given(
        wide_pairs(),
        st.integers(-10**4 * 2**16, 10**4 * 2**16),
        st.integers(-10**4 * 2**16, 10**4 * 2**16),
    )
    def test_iou_does_not_depend_on_a_common_shift(self, pair, sx, sy):
        # on a grid of 2**-16 m every shifted centre is exact, so the two
        # pairs are the same pair, placed elsewhere
        a, b = (on_grid(box) for box in pair)
        sx, sy = sx * 2.0**-16, sy * 2.0**-16
        moved = [replace(box, x=box[0] + sx, y=box[1] + sy) for box in (a, b)]
        iou = bev_iou_matrix(as_array([a]), as_array([b]))
        assert bits(bev_iou_matrix(as_array(moved[:1]), as_array(moved[1:]))) == bits(iou)

    @settings(max_examples=200, deadline=None)
    @given(wide_boxes())
    def test_box_against_itself_scores_one(self, box):
        # in its own frame a box's corners are exactly (+-l/2, +-w/2)
        area = bev_intersection_areas(as_array([box]), as_array([box]))[0]
        iou = bev_iou(box, box)
        if box[3] * box[4] < EPS:
            assert (area, iou) == (0.0, 0.0)
        else:
            assert (area, iou) == (box[3] * box[4], 1.0)

    @settings(max_examples=200, deadline=None)
    @given(wide_boxes(), st.integers(-3, 4))
    def test_quarter_turn_scores_own_area(self, box, k):
        turned = quarter_turn(box, k)
        own = box[3] * box[4]
        tol = exact_area.tolerance(box, turned)
        for got in bev_intersection_areas(as_array([box, turned]), as_array([turned, box])):
            assert abs(got - own) <= tol or (got == 0.0 and own < EPS + tol)


def bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


# sha256 of ``bev_intersection_areas`` over ``pinned_pairs``, both ways
# round: the kernel's areas byte for byte, whatever its array layout.
PINNED_AREAS = "a670a25afffe522e8edd0519e30c15575b854bd9ab895b8a1bde82e526773f98"


def pinned_pairs():
    """A fixed list of (a, b) box pairs: random near pairs, and pairs
    that are coincident, touching along either axis, nested, flat or a
    point, share a heading (edges vertical in b's frame) or differ by a
    quarter turn, have headings at +-pi, and each of these 1e4 m out."""
    rng = np.random.default_rng(3408)
    pairs = []
    for _ in range(24):
        a = random_box(rng, spread=2.0)
        b = random_box(rng, spread=2.0)
        l, w = a[3], a[4]
        c, s = math.cos(a[6]), math.sin(a[6])
        pairs += [
            (a, b),
            (a, a),
            (a, replace(a, x=a[0] + l * c, y=a[1] + l * s)),
            (a, replace(a, x=a[0] - w * s, y=a[1] + w * c)),
            (a, replace(a, l=0.5 * l, w=0.25 * w)),
            (a, replace(b, w=0.0)),
            (replace(a, l=0.0, w=0.0), b),
            (a, replace(b, a=a[6])),
            (a, replace(b, a=a[6] + math.pi / 2)),
        ]
    for heading in (math.pi, -math.pi, math.nextafter(-math.pi, 0.0)):
        for other in (math.pi, -math.pi, 0.0, math.pi / 2):
            a = np.array([0.3, -0.2, 0.0, 4.0, 1.8, 1.5, heading])
            pairs.append((a, np.array([0.0, 0.0, 0.0, 3.5, 2.0, 1.5, other])))
    pairs += [
        (replace(a, x=a[0] + 1e4, y=a[1] - 1e4), replace(b, x=b[0] + 1e4, y=b[1] - 1e4))
        for a, b in pairs
    ]
    return as_array(a for a, _ in pairs), as_array(b for _, b in pairs)


def test_kernel_areas_pinned():
    left, right = pinned_pairs()
    areas = bev_intersection_areas(left, right)
    assert (areas > 0.0).any() and (areas == 0.0).any()
    digest = hashlib.sha256(bits(areas) + bits(bev_intersection_areas(right, left)))
    assert digest.hexdigest() == PINNED_AREAS


class TestBatchedPass:
    """One kernel pass over the candidate pairs of many frames gives
    each frame the bits of its own pass."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(box_pairs(), min_size=1, max_size=12), st.data())
    def test_kernel_bits_do_not_depend_on_the_batch(self, pairs, data):
        left, right = as_array(a for a, _ in pairs), as_array(b for _, b in pairs)
        batch = bev_intersection_areas(left, right)
        alone = [bev_intersection_areas(a[None], b[None]) for a, b in zip(left, right)]
        assert bits(batch) == bits(np.concatenate(alone))
        order = np.array(data.draw(st.permutations(range(len(pairs)))))
        assert bits(bev_intersection_areas(left[order], right[order])) == bits(batch[order])
        cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)), max_size=4)))
        parts = [
            bev_intersection_areas(left[start:stop], right[start:stop])
            for start, stop in zip([0] + cuts, cuts + [len(pairs)])
        ]
        assert bits(np.concatenate(parts)) == bits(batch)

    @staticmethod
    def scattered(pairs, frames):
        """Each frame's IoU matrix, scattered from the pair form, after
        checking the form: frames in order, each pair listed once."""
        assert pairs.start[0] == 0 and pairs.start[-1] == len(pairs.rows)
        assert len(pairs.start) == len(frames) + 1 and (np.diff(pairs.start) >= 0).all()
        assert len(pairs.rows) == len(pairs.cols) == len(pairs.ious)
        out = []
        for f, (a, b) in enumerate(frames):
            k = slice(pairs.start[f], pairs.start[f + 1])
            matrix = np.zeros((len(a), len(b)))
            matrix[pairs.rows[k], pairs.cols[k]] = pairs.ious[k]
            listed = np.zeros(matrix.shape, int)
            np.add.at(listed, (pairs.rows[k], pairs.cols[k]), 1)
            assert (listed <= 1).all()
            out.append(matrix)
        return out

    @staticmethod
    def one_pair_ious(frames):
        """Each frame's IoU matrix from one one-pair ``bev_iou`` call per entry."""
        return [
            np.array(pairwise_ious(a, b), dtype=float).reshape(len(a), len(b))
            for a, b in frames
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(boxes(spread=3.0), max_size=5), st.lists(boxes(spread=3.0), max_size=5)
            ),
            max_size=6,
        ),
        st.sampled_from([1, 3, 512]),
    )
    def test_matrices_equal_one_frame_at_a_time(self, frames, kernel_pairs):
        frames = [(as_array(a), as_array(b)) for a, b in frames]
        with mock.patch.object(geometry, "_KERNEL_PAIRS", kernel_pairs):
            pairs = bev_iou_matrices(frames)
        got = self.scattered(pairs, frames)
        assert [bits(m) for m in got] == [bits(m) for m in self.one_pair_ious(frames)]
        # each frame's slice is the pair form of that frame alone
        for f, (a, b) in enumerate(frames):
            alone = bev_iou_matrices([(a, b)])
            k = slice(pairs.start[f], pairs.start[f + 1])
            assert bits(pairs.rows[k]) == bits(alone.rows)
            assert bits(pairs.cols[k]) == bits(alone.cols)
            assert bits(pairs.ious[k]) == bits(alone.ious)

    @staticmethod
    def scenes(rng):
        """Frames of overlapping boxes, with an empty side in some."""
        def some(n):
            return as_array(random_box(rng, spread=2.0) for _ in range(n))
        return [(some(m), some(n)) for m, n in [(3, 4), (0, 3), (2, 0), (5, 5), (0, 0), (1, 2)]]

    def test_slices_split_frames(self):
        frames = self.scenes(np.random.default_rng(5))
        kernel = geometry.bev_intersection_areas
        with mock.patch.object(geometry, "_KERNEL_PAIRS", 3), mock.patch.object(
            geometry, "bev_intersection_areas", wraps=kernel
        ) as calls:
            pairs = bev_iou_matrices(frames)
        sizes = [len(call.args[0]) for call in calls.call_args_list]
        assert sizes[:-1] == [3] * (len(sizes) - 1) and sum(sizes) == len(pairs.ious) > 3
        got = self.scattered(pairs, frames)
        assert [m.shape for m in got] == [(3, 4), (0, 3), (2, 0), (5, 5), (0, 0), (1, 2)]
        assert [bits(m) for m in got] == [bits(m) for m in self.one_pair_ious(frames)]

    def test_no_candidate_pair(self):
        frames = [
            (as_array([make_box(0, 0, 0, 2, 1, 1)]), as_array([make_box(50, 0, 0, 2, 1, 1)])),
            (np.zeros((0, 7)), as_array([make_box(0, 0, 0, 2, 1, 1)])),
            (as_array([make_box(0, 0, 0, 2, 1, 1)] * 2), np.zeros((0, 7))),
        ]
        with mock.patch.object(geometry, "bev_intersection_areas") as kernel:
            pairs = bev_iou_matrices(frames)
        kernel.assert_not_called()
        assert pairs.start.tolist() == [0, 0, 0, 0] and len(pairs.ious) == 0
        got = self.scattered(pairs, frames)
        assert [m.shape for m in got] == [(1, 1), (0, 1), (2, 0)]
        empty = bev_iou_matrices([])
        assert empty.start.tolist() == [0] and len(empty.rows) == len(empty.ious) == 0

    def test_tree_query_beside_dense_frames(self):
        # frames of 9 pairs and more and smaller ones, in kernel slices of 3
        frames = self.scenes(np.random.default_rng(11))
        with mock.patch.object(geometry, "_KERNEL_PAIRS", 3):
            pairs = bev_iou_matrices(frames)
        assert_same_pairs(pairs, brute_force_pairs(frames))
        got = self.scattered(pairs, frames)
        assert any(m.size > 8 for m in got) and any(0 < m.size <= 8 for m in got)
        assert [bits(m) for m in got] == [bits(m) for m in self.one_pair_ious(frames)]

    def test_tree_query_at_size_among_empty_frames(self):
        # a frame of 110 x 110 boxes on a grid between frames with an empty side
        rng = np.random.default_rng(151)
        grid = np.array([(x, y) for x in range(11) for y in range(10)], dtype=float) * 6.0
        left = [make_box(x, y, 0, *rng.uniform(0.5, 6.0, 3), rng.uniform(-4, 4)) for x, y in grid]
        right = [
            replace(b, x=b[0] + rng.normal(0, 1.0), y=b[1] + rng.normal(0, 1.0), a=b[6] + 0.3)
            for b in left
        ]
        none = np.zeros((0, 7))
        frames = [(none, as_array(right[:3])), (as_array(left), as_array(right)), (none, none)]
        frames.append((as_array(left[:2]), none))
        pairs = bev_iou_matrices(frames)
        # the sweep keeps far fewer pairs than the 12,100 of the big frame
        assert len(left) < pairs.start[2] - pairs.start[1] < 5 * len(left)
        got = self.scattered(pairs, frames)
        assert [bits(m) for m in got] == [bits(m) for m in self.one_pair_ious(frames)]
        assert_same_pairs(pairs, brute_force_pairs(frames))


FAR = 1e100


@st.composite
def sweep_frame(draw):
    """One frame's two box arrays in a layout that strains the sorted
    sweep: boxes at random, centres shared across the sides, all
    centres on one x or one y, one box 1000 times the others' size,
    boxes of zero extent, or 1 m boxes a few float steps from +-1e100."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    a = as_array(draw(st.lists(boxes(spread=4.0), min_size=m, max_size=m)))
    b = as_array(draw(st.lists(boxes(spread=4.0), min_size=n, max_size=n)))
    layout = draw(
        st.sampled_from(["random", "coincident", "one x", "one y", "huge", "flat", "far"])
    )
    if layout == "coincident":
        k = min(m, n)
        b[:k, :2] = a[:k, :2]
    elif layout in ("one x", "one y"):
        axis = 0 if layout == "one x" else 1
        a[:, axis] = b[:, axis] = draw(st.floats(-4.0, 4.0))
    elif layout == "huge" and m + n:
        side, k = (a, draw(st.integers(0, m - 1))) if m else (b, draw(st.integers(0, n - 1)))
        side[k, 3:5] = 1000.0 * np.maximum(side[k, 3:5], 1.0)
    elif layout == "flat":
        a[:, 3:5] *= draw(st.sampled_from([0.0, 1.0]))
        b[:, 3:5] = 0.0
    elif layout == "far":
        sign = draw(st.sampled_from([-1.0, 1.0]))
        for side in (a, b):
            # coordinates 0 to 3 float steps inside 1e100: some shared,
            # some a step apart
            steps = draw(st.lists(st.integers(0, 3), min_size=2 * len(side), max_size=2 * len(side)))
            side[:, :2] = sign * (FAR - np.spacing(FAR) * np.reshape(steps, (-1, 2)))
            side[:, 3:5] = 1.0
    return a, b


class TestSortedSweep:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(sweep_frame(), max_size=5), st.sampled_from([1, 5, geometry._SWEEP_PAIRS]))
    def test_pairs_equal_brute_force(self, frames, sweep_pairs):
        # windows expanded one row at a time, a few candidates at a time, or at once
        with mock.patch.object(geometry, "_SWEEP_PAIRS", sweep_pairs):
            pairs = bev_iou_matrices(frames)
        assert_same_pairs(pairs, brute_force_pairs(frames))

    def test_large_circumcircles_that_touch(self):
        # pairs of boxes 1e5 to 1e13 m across, their centres a few float
        # steps from the sum of their circumradii apart along one axis: the
        # exact test keeps some pairs a little beyond that sum, which the
        # windows must hold too
        rng = np.random.default_rng(29)
        frames = []
        for _ in range(2000):
            a, b = np.zeros((1, 7)), np.zeros((1, 7))
            a[0, 3:5] = rng.uniform(1.0, 10.0, 2) * 10.0 ** rng.integers(5, 14)
            b[0, 3:5] = rng.uniform(0.0, 1.0, 2) * a[0, 3:5]
            a[0, :2] = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-3, 14)
            reach = 0.5 * np.hypot(a[0, 3], a[0, 4]) + 0.5 * np.hypot(b[0, 3], b[0, 4])
            axis = rng.integers(2)
            b[0, :2] = a[0, :2]
            b[0, axis] = a[0, axis] + reach
            for _ in range(rng.integers(4)):
                b[0, axis] = np.nextafter(b[0, axis], np.inf)
            frames.append((a, b))
        pairs = bev_iou_matrices(frames)
        assert_same_pairs(pairs, brute_force_pairs(frames))
        assert 0 < len(pairs.rows) < len(frames)

    def test_crossing_columns(self):
        # two crossing columns, the sweep's worst layout: every box of one
        # column is in the window of each box of the other
        k = np.arange(60, dtype=float)
        one = np.zeros((60, 7))
        one[:, 1], one[:, 3:6] = 6.0 * k - 180.0, (4.0, 1.8, 1.5)
        other = one.copy()
        other[:, 0], other[:, 1] = 6.0 * k - 177.0, 3.0
        boxes_ = np.concatenate([one, other])
        frames = [(boxes_, boxes_)] * 2
        for sweep_pairs in (7, geometry._SWEEP_PAIRS):
            with mock.patch.object(geometry, "_SWEEP_PAIRS", sweep_pairs):
                pairs = bev_iou_matrices(frames)
            assert_same_pairs(pairs, brute_force_pairs(frames))
        same = pairs.rows == pairs.cols
        assert same.sum() == 240 and (pairs.ious[same] == 1.0).all()


class TestIou3d:
    def test_identity(self):
        box = make_box(1, 2, 3, 2, 1, 1.5, 0.3)
        assert iou_3d(box, box) == pytest.approx(1.0)

    def test_axis_aligned_half_offset(self):
        a = make_box(0, 0, 0, 1, 1, 1, 0)
        b = make_box(0.5, 0, 0, 1, 1, 1, 0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0)
        rng = np.random.default_rng(5)
        assert monte_carlo_iou(a, b, rng) == pytest.approx(1.0 / 3.0, abs=5e-3)

    def test_disjoint(self):
        a = make_box(0, 0, 0, 1, 1, 1, 0)
        b = make_box(10, 0, 0, 1, 1, 1, 0)
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
                x = c * box[0] - s * box[1] + tx
                y = s * box[0] + c * box[1] + ty
                return replace(box, x=x, y=y, z=box[2] + tz, a=box[6] + theta)

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
        box = make_box(0, 0, 0, 1, 1, 1, 0)
        assert enclosing_diagonal(box, box) == pytest.approx(math.sqrt(3.0))

    def test_nine_meters_apart(self):
        a = make_box(0, 0, 0, 1, 1, 1, 0)
        b = make_box(9, 0, 0, 1, 1, 1, 0)
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
        z = make_box(1, 1, 1, 0, 0, 0, 0)
        assert enclosing_diagonal(z, z) == 0.0


class TestDiouAffinity:
    def test_identity(self):
        box = make_box(3, -2, 1, 4, 2, 1.5, 0.7)
        assert diou_affinity(box, box) == pytest.approx(2.0)

    def test_nine_meter_cubes(self):
        a = make_box(0, 0, 0, 1, 1, 1, 0)
        b = make_box(9, 0, 0, 1, 1, 1, 0)
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
        z = make_box(1, 1, 1, 0, 0, 0, 0)
        assert diou_affinity(z, z) == 2.0

    def test_distance_term_identity_iff_coincident(self):
        a = make_box(0, 0, 0, 2, 1, 1, 0.2)
        assert distance_term(a, make_box(0, 0, 0, 3, 2, 1, 1.0)) == pytest.approx(1.0)
        assert distance_term(a, make_box(0.1, 0, 0, 2, 1, 1, 0.2)) < 1.0

    def test_distance_term_monotone_in_offset(self):
        a = make_box(0, 0, 0, 2, 1, 1, 0)
        values = [distance_term(a, make_box(d, 0, 0, 2, 1, 1, 0)) for d in np.linspace(0, 20, 30)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


class TestBevIou:
    def test_identity_and_disjoint(self):
        a = make_box(0, 0, 0, 2, 1, 1, 0.4)
        assert bev_iou(a, a) == pytest.approx(1.0)
        assert bev_iou(a, make_box(50, 0, 0, 2, 1, 1, 0)) == 0.0

    def test_height_ignored(self):
        a = make_box(0, 0, 0, 2, 1, 1, 0)
        b = make_box(0, 0, 100, 2, 1, 5, 0)
        assert bev_iou(a, b) == pytest.approx(1.0)

    def test_center_distance(self):
        a = make_box(0, 0, 0, 1, 1, 1, 0)
        b = make_box(3, 4, 0, 1, 1, 1, 0)
        assert center_distance(a, b) == pytest.approx(5.0)
