"""Scalar distance-IoU and appearance scores, one pair at a time.

The reference that ``mipmot.affinity.motion_affinity_matrix`` and
``raw_appearance_matrix``, the one definition of each score the tracker
runs, are compared against. The enclosing diagonal is taken over all
16 box corners, the distance term and the 3D IoU pair by pair.

One case differs from the package: when the enclosing diagonal is at
most EPS (two coincident zero-size boxes), ``diou_affinity`` returns
2.0, while the package scores 1.0, a distance term of 1 plus an IoU of
0. The tracker has never used this 2.0.
"""

import math

import numpy as np

from mipmot.geometry import EPS, bev_corners_array, bev_intersection_areas

# Boxes are (x, y, z, l, w, h, a) 7-vectors, as ``tables.box`` builds them.


def bev_corners(box) -> np.ndarray:
    """Ground-plane footprint of a box as a (4, 2) array, counter-clockwise.

    The polygon area equals l * w.
    """
    return bev_corners_array(box)[0]


def volume(box) -> float:
    return box[3] * box[4] * box[5]


def corners_3d(box) -> np.ndarray:
    """All 8 corners of a box as an (8, 3) array (bottom face then top face)."""
    bev = bev_corners(box)
    zs = np.array([box[2] - 0.5 * box[5], box[2] + 0.5 * box[5]])
    out = np.empty((8, 3))
    out[:4, :2] = bev
    out[:4, 2] = zs[0]
    out[4:, :2] = bev
    out[4:, 2] = zs[1]
    return out


def _z_overlap(b1, b2) -> float:
    lo = max(b1[2] - 0.5 * b1[5], b2[2] - 0.5 * b2[5])
    hi = min(b1[2] + 0.5 * b1[5], b2[2] + 0.5 * b2[5])
    return max(0.0, hi - lo)


def intersection_volume(b1, b2) -> float:
    dz = _z_overlap(b1, b2)
    if dz <= 0.0:
        return 0.0
    return float(bev_intersection_areas(b1[None], b2[None])[0]) * dz


def iou_3d(b1, b2) -> float:
    """3D intersection-over-union of two oriented boxes, in [0, 1]."""
    inter = intersection_volume(b1, b2)
    union = volume(b1) + volume(b2) - inter
    if union < EPS:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def enclosing_diagonal(b1, b2) -> float:
    """Diagonal of the smallest axis-aligned box covering both boxes."""
    corners = np.vstack((corners_3d(b1), corners_3d(b2)))
    extent = corners.max(axis=0) - corners.min(axis=0)
    return float(np.linalg.norm(extent))


def center_distance(b1, b2) -> float:
    return math.sqrt(
        (b1[0] - b2[0]) ** 2 + (b1[1] - b2[1]) ** 2 + (b1[2] - b2[2]) ** 2
    )


def distance_term(b1, b2) -> float:
    """Normalized-center-distance score in [0, 1].

    1 - dist(centers) / enclosing_diagonal; 1 when the centers coincide.
    Both centers lie inside the enclosing box, so the ratio never
    exceeds 1. Coincident degenerate boxes (zero diagonal) score 1.
    """
    diag = enclosing_diagonal(b1, b2)
    if diag <= EPS:
        return 1.0
    return max(0.0, 1.0 - center_distance(b1, b2) / diag)


def diou_affinity(b1, b2) -> float:
    """Distance-IoU affinity in [0, 2]: distance term plus 3D IoU.

    The distance term keeps the affinity informative when the boxes do
    not overlap at all. Identical boxes score exactly 2, including the
    degenerate case of two zero-size boxes at the same point.
    """
    if enclosing_diagonal(b1, b2) <= EPS:
        return 2.0
    return distance_term(b1, b2) + iou_3d(b1, b2)


def raw_appearance_score(e_d, e_k) -> float:
    """Similarity of two embeddings: negated mean absolute difference.

    0 for identical embeddings, decreasing with dissimilarity.
    """
    e_d = np.asarray(e_d, dtype=float)
    e_k = np.asarray(e_k, dtype=float)
    if e_d.shape != e_k.shape:
        raise ValueError(f"embedding shapes differ: {e_d.shape} vs {e_k.shape}")
    return float(-np.mean(np.abs(e_d - e_k)))
