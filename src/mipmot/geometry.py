"""Oriented 3D box geometry.

Boxes are upright cuboids: an (x, y, z) center, (l, w, h) extents and a
heading angle about the vertical (z) axis. Overlap is computed as a
rotated-rectangle intersection in the ground plane (bird's-eye view)
times the vertical interval overlap, which is exact for upright boxes.
Every overlap goes through one batched kernel, ``bev_intersection_areas``.
The distance-IoU affinity built on it is ``affinity.motion_affinity_matrix``;
the evaluator's IoU matrices come from ``bev_iou_matrices``, one kernel
pass over the candidate pairs of a whole sequence of frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# Areas / volumes below this are treated as degenerate.
EPS = 1e-9

# Up to this many pairs, testing every pair's circumcircles costs less
# than building k-d trees (measured crossover: about 10,000 pairs).
_TREE_MIN_PAIRS = 8192

# The overlap kernel costs about 0.4 ms a call whatever its size, so
# ``bev_iou_matrices`` runs it over every frame's candidate pairs
# together, this many pairs a call. The perfbench sequences' 2,374,
# 9,404 and 7,375 candidate pairs (kitti-20, sparse-300, dense-clutter)
# take 5, 19 and 15 calls instead of one a frame (100, 30, 60). The
# kernel's temporaries grow with the slice; at 512 pairs, peak RSS
# stayed within 1.5% of one call a frame on all three (2-core VM).
_KERNEL_PAIRS = 512

_TAU = 2.0 * math.pi

# Signs of (l/2, w/2) at the footprint corners, counter-clockwise.
_CORNER_SIGNS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])


def wrap_angle(a):
    """Normalize an angle, or each angle of an array, to (-pi, pi].

    Wrapping its own output changes no bit. A float stays a Python float,
    which keeps ``Box3D`` cheap; ``np.mod`` and ``np.where`` cost 4 us a scalar.
    """
    a = a % _TAU
    return a - _TAU * (a > math.pi)


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D bounding box in a right-handed world frame.

    l is the extent along the heading direction, w the lateral extent,
    h the vertical extent. The heading a is stored wrapped to (-pi, pi].
    """

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    a: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "z", "l", "w", "h", "a"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Box3D field {name} is not finite: {v!r}")
        if self.l < 0 or self.w < 0 or self.h < 0:
            raise ValueError(
                f"Box3D extents must be nonnegative, got l={self.l} w={self.w} h={self.h}"
            )
        object.__setattr__(self, "a", float(wrap_angle(self.a)))

    def to_array(self) -> np.ndarray:
        """Return the (x, y, z, l, w, h, a) 7-vector."""
        return np.array(
            [self.x, self.y, self.z, self.l, self.w, self.h, self.a], dtype=float
        )

    @classmethod
    def from_array(cls, v) -> "Box3D":
        v = np.asarray(v, dtype=float)
        if v.shape != (7,):
            raise ValueError(f"expected a 7-vector, got shape {v.shape}")
        return cls(*v.tolist())


def bev_corners_array(boxes) -> np.ndarray:
    """Footprints of an (N, 7) box array as an (N, 4, 2) array.

    Each footprint is ``local @ rot.T + (x, y)``, counter-clockwise from
    the (+l/2, +w/2) corner in the box frame.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 7)
    n = len(boxes)
    local = np.empty((n, 4, 2))
    local[:, :, 0] = 0.5 * boxes[:, 3:4] * _CORNER_SIGNS[0]
    local[:, :, 1] = 0.5 * boxes[:, 4:5] * _CORNER_SIGNS[1]
    c, s = np.cos(boxes[:, 6]), np.sin(boxes[:, 6])
    rot_t = np.empty((n, 2, 2))
    rot_t[:, 0, 0] = c
    rot_t[:, 0, 1] = s
    rot_t[:, 1, 0] = -s
    rot_t[:, 1, 1] = c
    return local @ rot_t + boxes[:, None, :2]


def polygon_area(poly) -> float:
    """Shoelace area of a counter-clockwise polygon given as (n, 2) points.

    No program path calls it; the scalar clip of ``tests/clip_oracle.py``
    does. The benchmark counts its calls by name, so it stays until the
    benchmark counts kernel pairs instead.
    """
    pts = [(float(p[0]), float(p[1])) for p in poly]
    n = len(pts)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return 0.5 * acc


def _clip_half_plane(poly, count, a, b):
    """Clip each row's polygon by the half-plane left of the line a -> b.

    ``poly`` is (K, W, 2) with the first ``count[k]`` vertices of row k
    in use. Each vertex emits the crossing of the edge that ends at it,
    then itself if inside, and the emitted points are compacted in that
    order: one Sutherland-Hodgman step, with the scalar clip's
    arithmetic, for every row at once.
    """
    k, width = poly.shape[:2]
    if width == 0:
        return poly, count
    ax, ay = a[:, 0:1], a[:, 1:2]
    ex, ey = b[:, 0:1] - ax, b[:, 1:2] - ay
    x, y = poly[..., 0], poly[..., 1]
    index = np.arange(width)
    used = index < count[:, None]
    inside = ex * (y - ay) - ey * (x - ax) >= 0.0
    # The edge into vertex 0 starts at the row's last vertex.
    last = (np.arange(k), count - 1)
    prev_x, prev_y, prev_in = np.empty_like(x), np.empty_like(y), np.empty_like(inside)
    for prev, cur in ((prev_x, x), (prev_y, y), (prev_in, inside)):
        prev[:, 0] = cur[last]
        prev[:, 1:] = cur[:, :-1]
    dx, dy = x - prev_x, y - prev_y
    denom = ex * dy - ey * dx
    points = np.empty((k, width, 2, 2))
    points[:, :, 1] = poly
    # Rows without a crossing divide by zero; their points are not emitted.
    # A footprint with subnormal extents may overflow; it is flat, so its
    # area is set to 0 afterwards.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = (ex * (ay - prev_y) - ey * (ax - prev_x)) / denom
        points[:, :, 0, 0] = prev_x + t * dx
        points[:, :, 0, 1] = prev_y + t * dy
    emit = np.empty((k, width, 2), dtype=bool)
    emit[:, :, 0] = used & (inside != prev_in) & (denom != 0.0)
    emit[:, :, 1] = used & inside
    emit = emit.reshape(k, 2 * width)
    slot = np.cumsum(emit, axis=1) - 1
    count = slot[:, -1] + 1
    new_width = int(count.max(initial=0))
    out = np.zeros((k, new_width, 2))
    src = np.flatnonzero(emit)
    dest = src // (2 * width) * new_width + slot.ravel()[src]
    out.reshape(-1, 2)[dest] = points.reshape(-1, 2)[src]
    return out, count


def _shoelace(poly, count):
    """Areas of the (K, W, 2) polygons, first ``count[k]`` vertices each.

    The terms are added left to right by ``cumsum``, in
    ``polygon_area``'s order (``np.sum`` would add them pairwise), so
    each area is bit for bit the scalar one.
    """
    k, width = poly.shape[:2]
    if width == 0:
        return np.zeros(k)
    x, y = poly[..., 0], poly[..., 1]
    index = np.arange(width)
    rows = np.arange(k)[:, None]
    after = np.where(index + 1 < count[:, None], index + 1, 0)
    terms = x * y[rows, after] - x[rows, after] * y
    terms = np.where(index < count[:, None], terms, 0.0)
    return np.where(count >= 3, 0.5 * np.cumsum(terms, axis=1)[:, -1], 0.0)


def bev_intersection_areas(a, b) -> np.ndarray:
    """Ground-plane intersection areas of paired boxes.

    ``a`` and ``b`` are (K, 7) box arrays; entry k is the area of box
    a[k]'s footprint clipped by box b[k]'s. A footprint or an
    intersection with area below EPS counts as zero. All pairs run the
    same array steps, a Sutherland-Hodgman clip by 4 edges with the
    polygons padded to the longest (at most 8 vertices) and masked, and
    each area is bit for bit the scalar clip's.
    """
    poly = bev_corners_array(a)
    clipper = bev_corners_array(b)
    k = len(poly)
    flat = _shoelace(np.concatenate((poly, clipper)), np.full(2 * k, 4)) < EPS
    flat = flat[:k] | flat[k:]
    count = np.full(k, 4)
    for i in range(4):
        poly, count = _clip_half_plane(poly, count, clipper[:, i], clipper[:, (i + 1) % 4])
    area = _shoelace(poly, count)
    return np.where(flat | (area < EPS), 0.0, area)


def bev_iou_matrix(a, b) -> np.ndarray:
    """Ground-plane IoU of every pair of an (M, 7) and an (N, 7) box
    array: ``bev_iou_matrices`` of the one frame."""
    return next(bev_iou_matrices([(a, b)]))


def bev_iou_matrices(frames):
    """Ground-plane IoU matrices of a sequence of (a, b) box array pairs,
    (M, 7) and (N, 7) each: one (M, N) matrix per pair, in order.

    The overlap kernel runs only on the pairs whose footprint
    circumcircles meet; every other pair cannot overlap and scores 0.
    Every frame's ``a`` boxes, and its ``b`` boxes, are stacked into one
    array, and the candidate pairs of every frame, as rows of the
    stacks, go through the kernel together, ``_KERNEL_PAIRS`` at a time.
    Each slice gathers its own rows, so the boxes of all the pairs are
    never held at once. The kernel gives a pair the same bits in any
    batch, so each matrix equals the one of its frame alone. The
    matrices are built one at a time, as they are drawn.
    """
    frames = [
        (np.asarray(a, dtype=float).reshape(-1, 7), np.asarray(b, dtype=float).reshape(-1, 7))
        for a, b in frames
    ]
    pairs = [_candidate_pairs(a, b) for a, b in frames]
    a_all = np.concatenate([np.zeros((0, 7))] + [a for a, _ in frames])
    b_all = np.concatenate([np.zeros((0, 7))] + [b for _, b in frames])
    # each frame's pairs as rows of the stacks: offset by the frames before
    a_start = np.cumsum([0] + [len(a) for a, _ in frames])
    b_start = np.cumsum([0] + [len(b) for _, b in frames])
    i_all = np.concatenate([np.zeros(0, np.intp)] + [i + s for (i, _), s in zip(pairs, a_start)])
    j_all = np.concatenate([np.zeros(0, np.intp)] + [j + s for (_, j), s in zip(pairs, b_start)])
    ious = np.concatenate([np.zeros(0)] + [
        _bev_ious(a_all[i_all[k : k + _KERNEL_PAIRS]], b_all[j_all[k : k + _KERNEL_PAIRS]])
        for k in range(0, len(i_all), _KERNEL_PAIRS)
    ])
    stop = 0
    for (a, b), (i, j) in zip(frames, pairs):
        out = np.zeros((len(a), len(b)))
        out[i, j] = ious[stop : stop + len(i)]
        stop += len(i)
        yield out


def _candidate_pairs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs of two box arrays whose
    footprint circumcircles meet. Beyond _TREE_MIN_PAIRS pairs, the
    pairs whose centres lie within the largest reach of two
    circumcircles are found with a k-d tree first, instead of testing
    all of them."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    radius_a = 0.5 * np.hypot(a[:, 3], a[:, 4])
    radius_b = 0.5 * np.hypot(b[:, 3], b[:, 4])
    dense = len(a) * len(b) <= _TREE_MIN_PAIRS
    if dense:
        i, j = np.s_[:, None], np.s_[None, :]
    else:
        reach = (radius_a.max() + radius_b.max()) * (1.0 + 1e-9) + EPS
        near = cKDTree(a[:, :2]).sparse_distance_matrix(
            cKDTree(b[:, :2]), reach, output_type="ndarray"
        )
        i, j = near["i"], near["j"]
    dx = b[:, 0][j] - a[:, 0][i]
    dy = b[:, 1][j] - a[:, 1][i]
    reach = radius_a[i] + radius_b[j]
    hit = np.nonzero(dx * dx + dy * dy <= reach * reach)
    return hit if dense else (i[hit], j[hit])


def _bev_ious(a, b) -> np.ndarray:
    """Ground-plane IoU of paired (K, 7) box arrays, in [0, 1]."""
    inter = bev_intersection_areas(a, b)
    union = a[:, 3] * a[:, 4] + b[:, 3] * b[:, 4] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.minimum(1.0, np.maximum(0.0, inter / union))
    return np.where(union <= EPS, 0.0, iou)


def bev_iou(b1: Box3D, b2: Box3D) -> float:
    """Ground-plane rotated-rectangle IoU of two boxes, in [0, 1].

    The evaluator scores with ``bev_iou_matrices``; this one-pair call is
    kept as ``evaluation.bev_iou``, whose calls the benchmark counts by
    name.
    """
    return float(_bev_ious(b1.to_array()[None], b2.to_array()[None])[0])
