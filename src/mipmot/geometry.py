"""Oriented 3D box geometry.

Boxes are upright cuboids, each a 7-vector (x, y, z, l, w, h, a) and
many an (N, 7) array: the center, the extents along the heading, across
it and up, and the heading about the vertical (z) axis, wrapped to
(-pi, pi] (``wrap_angle``). The rules of a valid box (finite fields,
nonnegative extents, coordinates and extents at most 1e100 in
magnitude) are checked where boxes enter the program, by the row rules
of ``io_formats``. Overlap is computed as a rotated-rectangle
intersection in the ground plane (bird's-eye view) times the vertical
interval overlap, which is exact for upright boxes.
Every overlap goes through one batched kernel, ``bev_intersection_areas``:
one fixed-shape pass over (4, K) arrays that integrates each footprint's
edges in the other box's frame, so an area depends only on where the two
boxes sit relative to each other. It is the only code that builds a
footprint's corners. ``tests/exact_area.py`` checks it against an
exact rational clip. An overlap becomes an IoU by one rule,
``overlap_iou``, in the ground plane and in 3D. The distance-IoU
affinity built on them is ``affinity.motion_affinity_matrix``; the
evaluator's IoUs come from ``bev_iou_pairs``, one kernel pass over the
candidate pairs of a whole sequence of frames, each side's boxes given
stacked with the offsets of each frame's rows, and the IoUs given as
those pairs (``IouPairs``), not as one matrix per frame
(``bev_iou_matrices`` takes the frames as (a, b) box array pairs). It
finds those pairs by one sorted sweep over the sequence
(``_candidate_pairs``), the same path for every frame size.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Areas / volumes below this are treated as degenerate.
EPS = 1e-9

# ``bev_iou_pairs`` expands the windows of its sorted sweep this many
# candidate pairs at a time, a few MB of temporaries, so that its memory
# stays bounded however a frame's boxes crowd the sweep's axis.
_SWEEP_PAIRS = 2**16

# The overlap kernel costs about 70 us a call plus 0.33 us a pair, so
# ``bev_iou_pairs`` runs it over every frame's candidate pairs
# together, this many pairs a call. The perfbench sequences' 2,374,
# 9,404 and 7,375 candidate pairs (kitti-20, sparse-300, dense-clutter)
# take 5, 19 and 15 calls instead of one a frame (100, 30, 60). Larger
# slices saved at most 6% of ``evaluate_sequence`` on those three, while
# its traced heap peak grew from 0.9-4.4 MB at 512 pairs to 2.5-9.5 MB
# for one call in all (2-core VM).
_KERNEL_PAIRS = 512

_TAU = 2.0 * math.pi

# Signs of (l/2, w/2) at the footprint corners, counter-clockwise.
_CORNER_SIGNS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])
# The corner after each one: footprint edge k runs from corner k to it.
_NEXT = np.array([1, 2, 3, 0])


def wrap_angle(a):
    """Normalize an angle, or each angle of an array, to (-pi, pi].

    Wrapping its own output changes no bit. A float stays a Python float;
    ``np.mod`` and ``np.where`` would cost 4 us a scalar.
    """
    a = a % _TAU
    return a - _TAU * (a > math.pi)


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


def bev_intersection_areas(a, b) -> np.ndarray:
    """Ground-plane intersection areas of paired boxes.

    ``a`` and ``b`` are (K, 7) box arrays; entry k is the area of box
    a[k]'s footprint inside box b[k]'s. A footprint whose ``l * w`` is
    below EPS is flat and overlaps nothing, and an intersection below
    EPS counts as zero; every area lies in [0, the smaller footprint's].

    Box a's corners are placed in box b's frame, from the difference of
    the two centres and headings, so an area does not depend on where
    the pair sits. There b is ``|x| <= L, |y| <= W`` (half its length
    and width), and the overlap is the integral over ``|x| <= L`` of
    ``clip(upper(x)) - clip(lower(x))``, where upper and lower bound a's
    convex footprint and clip is to ``[-W, W]``. Walking a's edges
    counter-clockwise, that is the sum of ``-(u1 - u0) * mean`` over
    the edges: ``u0`` and ``u1`` are the edge's end x-values clamped to
    ``[-L, L]`` and ``mean`` the average of the clipped, linear y over
    that span, in closed form. The integrand is continuous in the
    corners, so coincident and touching edges need no rule. Every pair
    runs the same steps, over (K,) rows of the pairs' fields and (4, K)
    arrays of a's corners, so a pair gets the same bits in any batch.
    """
    # Each field of the K pairs is a (K,) row of the transposed inputs and
    # each corner quantity a (4, K) array, so a step's inner loops run over
    # the K pairs, not over the four corners of each.
    a = np.asarray(a, dtype=float).reshape(-1, 7).T
    b = np.asarray(b, dtype=float).reshape(-1, 7).T
    cos_b, sin_b = np.cos(b[6]), np.sin(b[6])
    heading = a[6] - b[6]
    cos_r, sin_r = np.cos(heading), np.sin(heading)
    dx, dy = a[0] - b[0], a[1] - b[1]
    along = 0.5 * a[3] * _CORNER_SIGNS[0, :, None]
    across = 0.5 * a[4] * _CORNER_SIGNS[1, :, None]
    # a's corners, counter-clockwise, and the corners after them
    x = (cos_b * dx + sin_b * dy) + (cos_r * along - sin_r * across)
    y = (cos_b * dy - sin_b * dx) + (sin_r * along + cos_r * across)
    x_next, y_next = x[_NEXT], y[_NEXT]
    half_l, half_w = 0.5 * b[3], 0.5 * b[4]
    u0 = np.minimum(np.maximum(x, -half_l), half_l)
    u1 = np.minimum(np.maximum(x_next, -half_l), half_l)
    # A vertical edge (run 0) and an edge outside |x| <= L have u0 == u1
    # and add nothing; their nan and inf steps are masked at the end.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        run, rise = x_next - x, y_next - y
        y0 = y + (u0 - x) / run * rise
        y1 = y + (u1 - x) / run * rise
        low, high = np.minimum(y0, y1), np.maximum(y0, y1)
        span = high - low
        # the edge's y runs from low to high; the shares of that span
        # below -W and below W
        s1 = np.minimum(np.maximum((-half_w - low) / span, 0.0), 1.0)
        s2 = np.minimum(np.maximum((half_w - low) / span, 0.0), 1.0)
        # -W over s1, W over 1 - s2, and a line in between
        inner = (s2 - s1) * (0.5 * (np.maximum(low, -half_w) + np.minimum(high, half_w)))
        mean = np.where(
            span > 0.0,
            half_w * (1.0 - s2 - s1) + inner,
            np.minimum(np.maximum(low, -half_w), half_w),
        )
        terms = np.where(u1 != u0, (u0 - u1) * mean, 0.0)
    area = terms[0] + terms[1] + terms[2] + terms[3]
    area_a, area_b = a[3] * a[4], b[3] * b[4]
    area = np.minimum(area, np.minimum(area_a, area_b))
    flat = (area_a < EPS) | (area_b < EPS)
    return np.where(flat | (area < EPS), 0.0, area)


class IouPairs(NamedTuple):
    """Ground-plane IoUs of the candidate pairs of a sequence of frames.

    Frame f's pairs are entries ``start[f]:start[f + 1]`` of ``rows``,
    ``cols`` and ``ious``: the row of its ``a`` box, the row of its
    ``b`` box, both within the frame, and their IoU. A frame's pairs
    are listed row-major: by ``a`` row, then by ``b`` row. A pair not
    listed has IoU 0.
    """

    start: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    ious: np.ndarray


def bev_iou_matrices(frames) -> IouPairs:
    """Ground-plane IoUs of a sequence of (a, b) box array pairs, (M, 7)
    and (N, 7) each, as the ``IouPairs`` of their candidate pairs: each
    side's boxes stacked, then ``bev_iou_pairs``."""
    frames = [
        (np.asarray(a, dtype=float).reshape(-1, 7), np.asarray(b, dtype=float).reshape(-1, 7))
        for a, b in frames
    ]
    return bev_iou_pairs(
        np.concatenate([np.zeros((0, 7))] + [a for a, _ in frames]),
        np.cumsum([0] + [len(a) for a, _ in frames]),
        np.concatenate([np.zeros((0, 7))] + [b for _, b in frames]),
        np.cumsum([0] + [len(b) for _, b in frames]),
    )


def bev_iou_pairs(a, a_start, b, b_start) -> IouPairs:
    """Ground-plane IoUs of a sequence of frames given as row-stacked
    box arrays ``a`` and ``b``, (M, 7) and (N, 7), and the offsets of
    each frame's rows in them (frame f's ``a`` boxes are rows
    ``a_start[f]:a_start[f + 1]``), as the ``IouPairs`` of their
    candidate pairs.

    The candidate pairs of a frame are those whose footprint
    circumcircles meet; every other pair cannot overlap and scores 0.
    ``_candidate_pairs`` finds the candidate pairs of every frame, as
    rows of the stacks, and they go through the overlap kernel together,
    ``_KERNEL_PAIRS`` at a time. Each slice gathers its own rows, so the
    boxes of all the pairs are never held at once. The kernel gives a
    pair the same bits in any batch, so each frame's IoUs equal the ones
    of its frame alone.
    """
    i_all, j_all = _candidate_pairs(a, a_start, b, b_start)
    # the pairs are in stacked-row order, so frame f's begin at its first row
    start = np.searchsorted(i_all, a_start)
    frame_of = np.repeat(np.arange(len(a_start) - 1), np.diff(start))
    ious = np.concatenate([np.zeros(0)] + [
        _bev_ious(a[i_all[k : k + _KERNEL_PAIRS]], b[j_all[k : k + _KERNEL_PAIRS]])
        for k in range(0, len(i_all), _KERNEL_PAIRS)
    ])
    return IouPairs(start, i_all - a_start[frame_of], j_all - b_start[frame_of], ious)


def _candidate_pairs(a, a_start, b, b_start) -> tuple[np.ndarray, np.ndarray]:
    """The pairs whose footprint circumcircles meet, of a sequence of
    frames given as row-stacked box arrays ``a`` and ``b`` and the
    offsets of each frame's rows in them: the ``a`` and ``b`` rows of
    each pair, ordered by ``a`` row, then ``b`` row.

    A sorted sweep, as in the broad phase of collision detection,
    brackets the pairs first, along the axis where the sequence's ``b``
    centres spread wider. One sort orders ``b`` by frame and by centre
    on that axis. For each ``a`` centre ``c``, two binary searches then
    find the ``b`` centres of its frame in ``[c - reach, c + reach]``,
    ``reach`` being the frame's largest sum of two circumradii with a
    relative slack of 1e-9, plus EPS. The window's ends are rounded,
    and rounding is monotone, so a ``b`` centre within ``reach`` of
    ``c`` lies inside them. The slack covers the rounding of the exact
    test, which keeps each pair of the window whose ``dx * dx + dy * dy``
    is at most the square of its two radii's sum. The windows are
    expanded at most ``_SWEEP_PAIRS`` candidates at a time, cut at ``a``
    rows (a row whose window holds more is expanded alone).
    """
    radius_a = 0.5 * np.hypot(a[:, 3], a[:, 4])
    radius_b = 0.5 * np.hypot(b[:, 3], b[:, 4])
    sizes_a, sizes_b = np.diff(a_start), np.diff(b_start)
    reach = (_frame_max(radius_a, a_start) + _frame_max(radius_b, b_start)) * (1.0 + 1e-9) + EPS
    axis = int(len(b) > 0 and np.ptp(b[:, 1]) > np.ptp(b[:, 0]))
    # numpy orders complex numbers by real part, then imaginary part: by
    # frame, then by centre on the axis; a frame and a centre convert exactly
    frame = np.arange(len(sizes_a), dtype=float)
    key = np.repeat(frame, sizes_b) + 1j * b[:, axis]
    order = np.argsort(key, kind="stable")
    key = key[order]
    row_frame, row_reach = np.repeat(frame, sizes_a), np.repeat(reach, sizes_a)
    lo = np.searchsorted(key, row_frame + 1j * (a[:, axis] - row_reach), "left")
    counts = np.searchsorted(key, row_frame + 1j * (a[:, axis] + row_reach), "right") - lo
    ends = np.cumsum(counts)
    starts = ends - counts
    x, y, radius = b[order, 0], b[order, 1], radius_b[order]
    found = [np.zeros(0, np.intp)]
    first = 0
    while first < len(a):
        # the rows whose windows fit in one slice, or one row alone
        last = max(int(np.searchsorted(ends, starts[first] + _SWEEP_PAIRS, "right")), first + 1)
        rows, n = slice(first, last), counts[first:last]
        # candidate k of row r is b's sorted row lo[r] + k - starts[r]
        pos = np.arange(starts[first], ends[last - 1]) + np.repeat(lo[rows] - starts[rows], n)
        dx = x[pos] - np.repeat(a[rows, 0], n)
        dy = y[pos] - np.repeat(a[rows, 1], n)
        reach_ij = np.repeat(radius_a[rows], n) + radius[pos]
        hit = dx * dx + dy * dy <= reach_ij * reach_ij
        # each pair as one number, its a row times len(b) plus its b row
        i = np.repeat(np.arange(first, last), n)[hit]
        found.append(np.sort(i * len(b) + order[pos[hit]]))
        first = last
    return np.divmod(np.concatenate(found), len(b))


def _frame_max(values, start) -> np.ndarray:
    """The largest of each frame's ``values``, frame f's being entries
    ``start[f]:start[f + 1]``; 0 for a frame without any."""
    out = np.zeros(len(start) - 1)
    full = np.diff(start) > 0
    out[full] = np.maximum.reduceat(values, start[:-1][full])
    return out


def overlap_iou(inter, size_a, size_b) -> np.ndarray:
    """IoU, in [0, 1], of overlaps ``inter`` of paired shapes of areas
    (or volumes) ``size_a`` and ``size_b``; the ground-plane and the 3D
    IoU both take it. A union below EPS holds only flat shapes, which
    overlap nothing, and scores 0."""
    union = size_a + size_b - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.minimum(1.0, np.maximum(0.0, inter / union))
    return np.where(union < EPS, 0.0, iou)


def _bev_ious(a, b) -> np.ndarray:
    """Ground-plane IoU of paired (K, 7) box arrays, in [0, 1]."""
    return overlap_iou(bev_intersection_areas(a, b), a[:, 3] * a[:, 4], b[:, 3] * b[:, 4])


def bev_iou(a, b) -> float:
    """Ground-plane rotated-rectangle IoU of two boxes, each a
    (x, y, z, l, w, h, a) 7-vector, in [0, 1].

    The evaluator scores with ``bev_iou_pairs``; this one-pair call is
    kept as ``evaluation.bev_iou``, whose calls the benchmark counts by
    name.
    """
    a, b = (np.asarray(box, dtype=float).reshape(1, 7) for box in (a, b))
    return float(_bev_ious(a, b)[0])
