"""Detection-to-track affinities.

Appearance scores come from absolute-subtraction correlation of
embeddings, normalized by a bidirectional softmax ranking; motion
scores come from the distance-IoU affinity between each detection box
and each track's predicted box. The two are fused as a weighted sum
with alpha + beta = 1 and beta = ``beta_over_alpha`` * alpha: r = 0
disables motion, r = inf disables appearance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import geometry

if TYPE_CHECKING:
    from .config import TrackerConfig

# Relative slack on the gate's radii, so float rounding in the k-d tree
# and in the bounds never drops a pair that can be matched.
_MARGIN = 1e-9
# Up to this many pairs, scoring all of them costs less than the gate's
# two k-d trees and bounds (measured crossover: about 2000 pairs).
_GATE_MIN_PAIRS = 2048


@dataclass
class AffinityMatrix:
    """Per-frame affinity components, detections as rows, tracks as columns.

    refined = alpha * appearance + beta * motion, with the weights that
    were actually applied (appearance may have been disabled). Each
    component is an (M, N) matrix, or with ``pairs = (rows, cols)`` the
    (K,) values of those pairs only.
    """

    appearance: np.ndarray
    motion: np.ndarray
    refined: np.ndarray
    alpha: float
    beta: float
    pairs: tuple[np.ndarray, np.ndarray] | None = None


def raw_appearance_matrix(det_embeddings, track_embeddings) -> np.ndarray:
    """Pairwise raw appearance scores, M detections by N tracks."""
    d = np.asarray(det_embeddings, dtype=float)
    t = np.asarray(track_embeddings, dtype=float)
    if d.ndim != 2 or t.ndim != 2 or d.shape[1] != t.shape[1]:
        raise ValueError(f"incompatible embedding arrays: {d.shape} vs {t.shape}")
    return -cdist(d, t, "cityblock") / d.shape[1]


def softmax_ranking(raw) -> np.ndarray:
    """Map raw scores to [0, 1] by averaging column- and row-softmaxes.

    P is the column-wise softmax (each column sums to 1), Q the
    row-wise softmax (each row sums to 1); the result is (P + Q) / 2.
    Invariant under adding a constant to every entry.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        return raw.reshape(raw.shape).copy()
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw scores contain non-finite values")
    # In place: two (M, N) arrays instead of eight, with the same bits.
    P = raw - raw.max(axis=0, keepdims=True)
    np.exp(P, out=P)
    P /= P.sum(axis=0, keepdims=True)
    Q = raw - raw.max(axis=1, keepdims=True)
    np.exp(Q, out=Q)
    Q /= Q.sum(axis=1, keepdims=True)
    P += Q
    P *= 0.5
    return P


def _box_table(boxes):
    """Per-box quantities of an (N, 7) box array reused across all pairings."""
    arr = np.asarray(boxes, dtype=float)
    z_lo = arr[:, 2] - 0.5 * arr[:, 5]
    z_hi = arr[:, 2] + 0.5 * arr[:, 5]
    volumes = arr[:, 3] * arr[:, 4] * arr[:, 5]
    radii = 0.5 * np.hypot(arr[:, 3], arr[:, 4])
    corners = geometry.bev_corners_array(arr)
    aabb_min = np.column_stack((corners.min(axis=1), z_lo))
    aabb_max = np.column_stack((corners.max(axis=1), z_hi))
    return arr, z_lo, z_hi, volumes, radii, aabb_min, aabb_max


def _motion_pairs(det, trk, pairs, use_dis, use_iou) -> np.ndarray:
    """Motion affinities of the (rows, cols) pairs of two box tables, or
    of every pair as an (M, N) matrix when ``pairs`` is None. Both run
    the same arithmetic per pair: the dense call indexes each table by
    a broadcasting view instead of gathering rows."""
    (d_arr, d_lo, d_hi, d_vol, d_rad, d_min, d_max) = det
    (t_arr, t_lo, t_hi, t_vol, t_rad, t_min, t_max) = trk
    i, j = (np.s_[:, None], np.s_[None, :]) if pairs is None else pairs
    diff = d_arr[i][..., :3] - t_arr[j][..., :3]
    out = np.zeros(diff.shape[:-1])
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    if use_dis:
        span = np.maximum(d_max[i], t_max[j]) - np.minimum(d_min[i], t_min[j])
        diag = np.sqrt(np.sum(span * span, axis=-1))
        degenerate = diag <= geometry.EPS
        safe = np.where(degenerate, 1.0, diag)
        out += np.where(degenerate, 1.0, np.maximum(0.0, 1.0 - dist / safe))
    if use_iou:
        dz = np.minimum(d_hi[i], t_hi[j]) - np.maximum(d_lo[i], t_lo[j])
        dxy = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
        hit = np.nonzero((dz > 0.0) & (dxy <= d_rad[i] + t_rad[j]))
        a, b = hit if pairs is None else (i[hit], j[hit])
        inter = geometry.bev_intersection_areas(d_arr[a], t_arr[b]) * dz[hit]
        union = d_vol[a] + t_vol[b] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            iou = np.minimum(1.0, np.maximum(0.0, inter / union))
        out[hit] += np.where(union > geometry.EPS, iou, 0.0)
    return out


def motion_affinity_matrix(
    det_boxes,
    predicted_boxes,
    use_dis: bool = True,
    use_iou: bool = True,
    pairs=None,
) -> np.ndarray:
    """Pairwise motion affinities between (M, 7) detection boxes and
    (N, 7) predicted track boxes: the (M, N) matrix, or with
    ``pairs = (rows, cols)`` the (K,) affinities of those pairs only.

    With both terms enabled this is the distance-IoU affinity in
    [0, 2], the package's one definition of it; the flags exist for
    ablations. The distance term is 1 - dist / diagonal, with the
    diagonal of the axis-aligned box enclosing both boxes, and 1 when
    that diagonal is at most EPS. The overlap kernel runs once, on the
    pairs whose footprint circumcircles overlap.
    """
    if not (use_dis or use_iou):
        raise ValueError("at least one motion term must be enabled")
    m, n = len(det_boxes), len(predicted_boxes)
    if pairs is None and (m == 0 or n == 0):
        return np.zeros((m, n))
    if pairs is not None and len(pairs[0]) == 0:
        return np.zeros(0)
    det, trk = _box_table(det_boxes), _box_table(predicted_boxes)
    return _motion_pairs(det, trk, pairs, use_dis, use_iou)


def candidate_pairs(
    det_boxes,
    predicted,
    need,
    appearance,
    alpha: float,
    beta: float,
    use_dis: bool = True,
    use_iou: bool = True,
):
    """The (rows, cols) pairs whose refined affinity
    alpha * appearance + beta * motion can reach need_det[d] +
    need_trk[k], or None to score every pair.

    ``need`` is the (need_det, need_trk) pair of per-node arrays.
    ``appearance`` is the frame's (M, N) appearance matrix; the motion
    part is bounded from the boxes alone. Let r be a box's footprint
    circumradius, q = h / 2 and rho = hypot(r, q). The IoU is 0 unless
    the centres are closer than rho_d + rho_k (and rho_d + rho_k is at
    most 2 * hypot(r, q) over the largest r and q of the frame). Along
    each axis the enclosing box spans at most the
    centre offset plus twice the pair's larger half-extent, so its
    diagonal is at most dist + s with s = 2 * hypot(r, r, q) over the
    pair's larger r and q, and the distance term 1 - dist / diagonal
    is at most s / (dist + s). Beyond the radius where these bounds
    fall below the smallest need no pair can reach its own need. The
    pairs within it are found with a k-d tree on the centres, and each
    is kept if its own bound reaches its own need.

    None is returned when the frame has at most _GATE_MIN_PAIRS pairs,
    or when the radius spans every centre: scoring the dense matrix is
    then cheaper than gathering pairs.
    """
    d = np.asarray(det_boxes, dtype=float)
    t = np.asarray(predicted, dtype=float)
    m, n = len(d), len(t)
    if m * n <= _GATE_MIN_PAIRS:
        return None
    need_det, need_trk = need
    # The least affinity the motion part must add to some pair.
    appearance_max = alpha * appearance.max() if alpha else 0.0
    short = float(need_det.min() + need_trk.min() - appearance_max)
    if short <= 0.0:
        return None
    r_d, r_t = 0.5 * np.hypot(d[:, 3], d[:, 4]), 0.5 * np.hypot(t[:, 3], t[:, 4])
    q_d, q_t = 0.5 * d[:, 5], 0.5 * t[:, 5]
    r_max, q_max = max(r_d.max(), r_t.max()), max(q_d.max(), q_t.max())
    radius = 2.0 * math.hypot(r_max, q_max) if use_iou else 0.0
    if use_dis:
        s_max = 2.0 * math.sqrt(2.0 * r_max * r_max + q_max * q_max)
        radius = max(radius, s_max * (beta / short - 1.0))
    radius = radius * (1.0 + _MARGIN) + geometry.EPS
    centres = np.concatenate((d[:, :3], t[:, :3]))
    if radius >= np.linalg.norm(np.ptp(centres, axis=0)):
        return None

    near = cKDTree(d[:, :3]).sparse_distance_matrix(
        cKDTree(t[:, :3]), radius, output_type="ndarray"
    )
    rows, cols, dist = near["i"], near["j"], near["v"]
    bound = alpha * appearance[rows, cols]
    if use_dis:
        r, q = np.maximum(r_d[rows], r_t[cols]), np.maximum(q_d[rows], q_t[cols])
        s = 2.0 * np.sqrt(2.0 * r * r + q * q)
        # Centres closer than EPS may have a degenerate diagonal, scored 1.
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = bound + beta * np.where(dist <= geometry.EPS, 1.0, s / (dist + s))
    if use_iou:
        reach = np.hypot(r_d[rows], q_d[rows]) + np.hypot(r_t[cols], q_t[cols])
        bound = bound + beta * (dist <= reach * (1.0 + _MARGIN))
    keep = bound >= need_det[rows] + need_trk[cols]
    return rows[keep], cols[keep]


def compute_affinities(
    det_boxes,
    predicted,
    det_embeddings,
    track_embeddings,
    cfg: TrackerConfig,
    need=None,
) -> AffinityMatrix:
    """Build the refined affinities for one frame.

    ``det_boxes`` are the (M, 7) detection boxes and ``predicted`` the
    (N, 7) track boxes predicted for this frame. ``det_embeddings`` and
    ``track_embeddings`` are aligned with them as an (M, D) and an
    (N, D) array, each None when any of its rows lacks an embedding;
    then appearance is disabled for the frame (alpha = 0, beta = 1).
    ``cfg`` supplies ``beta_over_alpha``, ``use_dis`` and ``use_iou``.
    With ``need``, the (need_det, need_trk) pair of per-node arrays, only
    the ``candidate_pairs`` that can reach need_det[d] + need_trk[k] are
    scored, unless every pair is in reach; otherwise every pair is.
    """
    alpha = 1.0 / (1.0 + cfg.beta_over_alpha)
    beta = 1.0 - alpha
    m, n = len(det_boxes), len(predicted)
    if m == 0 or n == 0:
        empty = np.zeros((m, n))
        return AffinityMatrix(
            appearance=empty.copy(),
            motion=empty.copy(),
            refined=empty.copy(),
            alpha=alpha,
            beta=beta,
        )

    if alpha == 0.0 or det_embeddings is None or track_embeddings is None:
        appearance = np.zeros((m, n))
        alpha, beta = 0.0, 1.0
    else:
        appearance = softmax_ranking(raw_appearance_matrix(det_embeddings, track_embeddings))

    use_dis, use_iou = cfg.use_dis, cfg.use_iou
    pairs = None
    if need is not None:
        pairs = candidate_pairs(
            det_boxes, predicted, need, appearance, alpha, beta, use_dis=use_dis, use_iou=use_iou
        )
    motion = motion_affinity_matrix(
        det_boxes, predicted, use_dis=use_dis, use_iou=use_iou, pairs=pairs
    )
    if pairs is not None:
        appearance = appearance[pairs]
    refined = alpha * appearance + beta * motion
    return AffinityMatrix(
        appearance=appearance,
        motion=motion,
        refined=refined,
        alpha=alpha,
        beta=beta,
        pairs=pairs,
    )
