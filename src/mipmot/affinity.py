"""Detection-to-track affinities.

Appearance scores come from absolute-subtraction correlation of
embeddings, normalized by a bidirectional softmax ranking; motion
scores come from the distance-IoU affinity between each detection box
and each track's predicted box. The two are fused as a weighted sum
with alpha + beta = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import geometry


@dataclass(frozen=True)
class AffinityWeights:
    """Fusion weights; beta weighs motion 10x appearance by default."""

    alpha: float = 1.0 / 11.0
    beta: float = 10.0 / 11.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("weights must be nonnegative")
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ValueError(f"alpha + beta must be 1, got {self.alpha + self.beta}")

    @classmethod
    def from_ratio(cls, beta_over_alpha: float) -> "AffinityWeights":
        """Weights with beta = r * alpha; r = 0 disables motion, r = inf
        disables appearance."""
        if beta_over_alpha < 0:
            raise ValueError("ratio must be nonnegative")
        alpha = 1.0 / (1.0 + beta_over_alpha)
        return cls(alpha=alpha, beta=1.0 - alpha)


@dataclass
class AffinityMatrix:
    """Per-frame affinity components, detections as rows, tracks as columns.

    refined = alpha * appearance + beta * motion, with the weights that
    were actually applied (appearance may have been disabled).
    """

    appearance: np.ndarray
    motion: np.ndarray
    refined: np.ndarray
    alpha: float
    beta: float


def raw_appearance_score(e_d, e_k) -> float:
    """Similarity of two embeddings: negated mean absolute difference.

    0 for identical embeddings, decreasing with dissimilarity.
    """
    e_d = np.asarray(e_d, dtype=float)
    e_k = np.asarray(e_k, dtype=float)
    if e_d.shape != e_k.shape:
        raise ValueError(f"embedding shapes differ: {e_d.shape} vs {e_k.shape}")
    return float(-np.mean(np.abs(e_d - e_k)))


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
    col = np.exp(raw - raw.max(axis=0, keepdims=True))
    P = col / col.sum(axis=0, keepdims=True)
    row = np.exp(raw - raw.max(axis=1, keepdims=True))
    Q = row / row.sum(axis=1, keepdims=True)
    return 0.5 * (P + Q)


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


def motion_affinity_matrix(
    det_boxes,
    predicted_boxes,
    use_dis: bool = True,
    use_iou: bool = True,
) -> np.ndarray:
    """Pairwise motion affinities between (M, 7) detection boxes and
    (N, 7) predicted track boxes.

    With both terms enabled this is the distance-IoU affinity in
    [0, 2]; the flags exist for ablations. Equivalent to calling the
    scalar geometry functions per pair, but batched: the overlap kernel
    runs once, on the pairs whose footprint circumcircles overlap.
    """
    if not (use_dis or use_iou):
        raise ValueError("at least one motion term must be enabled")
    m, n = len(det_boxes), len(predicted_boxes)
    if m == 0 or n == 0:
        return np.zeros((m, n))
    (d_arr, d_lo, d_hi, d_vol, d_rad, d_min, d_max) = _box_table(det_boxes)
    (t_arr, t_lo, t_hi, t_vol, t_rad, t_min, t_max) = _box_table(predicted_boxes)

    out = np.zeros((m, n))
    diff = d_arr[:, None, :3] - t_arr[None, :, :3]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    if use_dis:
        span = np.maximum(d_max[:, None, :], t_max[None, :, :]) - np.minimum(
            d_min[:, None, :], t_min[None, :, :]
        )
        diag = np.sqrt(np.sum(span * span, axis=2))
        degenerate = diag <= geometry.EPS
        safe = np.where(degenerate, 1.0, diag)
        out += np.where(degenerate, 1.0, np.maximum(0.0, 1.0 - dist / safe))
    if use_iou:
        dz = np.minimum(d_hi[:, None], t_hi[None, :]) - np.maximum(
            d_lo[:, None], t_lo[None, :]
        )
        dxy = np.sqrt(diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2)
        i, j = np.nonzero((dz > 0.0) & (dxy <= d_rad[:, None] + t_rad[None, :]))
        inter = geometry.bev_intersection_areas(d_arr[i], t_arr[j]) * dz[i, j]
        union = d_vol[i] + t_vol[j] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            iou = np.minimum(1.0, np.maximum(0.0, inter / union))
        out[i, j] += np.where(union > geometry.EPS, iou, 0.0)
    return out


def compute_affinities(
    det_boxes,
    predicted,
    det_embeddings,
    track_embeddings,
    weights: AffinityWeights,
    use_dis: bool = True,
    use_iou: bool = True,
) -> AffinityMatrix:
    """Build the refined affinity matrix for one frame.

    ``det_boxes`` are the (M, 7) detection boxes and ``predicted`` the
    (N, 7) track boxes predicted for this frame; the embedding lists are
    aligned with them. If any participant lacks an embedding, appearance
    is disabled for the frame (alpha = 0, beta = 1).
    """
    m, n = len(det_boxes), len(predicted)
    if m == 0 or n == 0:
        empty = np.zeros((m, n))
        return AffinityMatrix(
            appearance=empty.copy(),
            motion=empty.copy(),
            refined=empty.copy(),
            alpha=weights.alpha,
            beta=weights.beta,
        )

    motion = motion_affinity_matrix(det_boxes, predicted, use_dis=use_dis, use_iou=use_iou)

    if weights.alpha == 0.0 or any(e is None for e in [*det_embeddings, *track_embeddings]):
        appearance = np.zeros((m, n))
        alpha, beta = 0.0, 1.0
    else:
        appearance = softmax_ranking(raw_appearance_matrix(det_embeddings, track_embeddings))
        alpha, beta = weights.alpha, weights.beta

    refined = alpha * appearance + beta * motion
    return AffinityMatrix(
        appearance=appearance,
        motion=motion,
        refined=refined,
        alpha=alpha,
        beta=beta,
    )
