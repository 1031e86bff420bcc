"""Detection-to-track affinities.

Appearance scores come from absolute-subtraction correlation of
embeddings, normalized by a bidirectional softmax ranking; motion
scores come from the distance-IoU affinity between each detection box
and each track's predicted box. The two are fused as a weighted sum
with alpha + beta = 1 and beta = ``beta_over_alpha`` * alpha: r = 0
disables motion, r = inf disables appearance.

A frame that the gate cuts (``candidate_pairs``) is kept in pair form:
the softmax's column and row sums span every pair, but its values, and
the motion scores, are formed only at the gate's pairs, with the bits
the dense matrices would hold there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import geometry

if TYPE_CHECKING:
    from .config import TrackerConfig

# Relative slack on the gate's radii, so float rounding in the k-d tree
# and in the bounds never drops a pair that can be matched.
_MARGIN = 1e-9
# Up to this many pairs, scoring all of them and solving on the dense
# matrix costs less than the gate's two k-d trees and bounds and solving
# on the pairs it keeps. Measured on tracks 50 m apart, each seen once
# (2-core VM): the gate and pair scoring alone break even with dense
# scoring at about 6,400 pairs, and with the solve at about 10,000.
_GATE_MIN_PAIRS = 8192


@dataclass
class AffinityMatrix:
    """Per-frame affinity components, detections as rows, tracks as columns.

    refined = alpha * appearance + beta * motion, with the weights that
    were applied: alpha = 1 / (1 + ``beta_over_alpha``) and
    beta = 1 - alpha when appearance is applied, and alpha = 0, beta = 1
    when ``compute_affinities`` turns it off. Each component is an
    (M, N) matrix, or with ``pairs = (rows, cols)`` the (K,) values of
    those pairs only.
    """

    appearance: np.ndarray
    motion: np.ndarray
    refined: np.ndarray
    alpha: float
    beta: float
    pairs: tuple[np.ndarray, np.ndarray] | None = None


def raw_appearance_matrix(det_embeddings, track_embeddings) -> np.ndarray:
    """Pairwise raw appearance scores, M detections by N tracks: minus
    the mean absolute difference of two D-value embeddings, D >= 1."""
    d = np.asarray(det_embeddings, dtype=float)
    t = np.asarray(track_embeddings, dtype=float)
    if d.ndim != 2 or t.ndim != 2 or d.shape[1] != t.shape[1] or d.shape[1] == 0:
        raise ValueError(f"incompatible embedding arrays: {d.shape} vs {t.shape}")
    # c / (-D) has the bits of (-c) / D.
    raw = cdist(d, t, "cityblock")
    raw /= -d.shape[1]
    return raw


class _Softmax(NamedTuple):
    """The two halves of ``softmax_ranking`` before their division:
    ``p = exp(raw - colmax)`` with its column sums and
    ``q = exp(raw - rowmax)`` with its row sums. The ranking of a pair
    is ``(p / colsum + q / rowsum) * 0.5``, the same IEEE operations
    whether it is formed for the whole matrix (``dense``) or for some
    pairs (``at``), so both give a pair the same bits."""

    p: np.ndarray
    colsum: np.ndarray
    q: np.ndarray
    rowsum: np.ndarray

    @classmethod
    def of(cls, raw: np.ndarray) -> _Softmax:
        if not np.all(np.isfinite(raw)):
            raise ValueError("raw scores contain non-finite values")
        # In place: two (M, N) arrays. A side of size 0 reduces to -inf.
        p = raw - raw.max(axis=0, keepdims=True, initial=-np.inf)
        np.exp(p, out=p)
        q = raw - raw.max(axis=1, keepdims=True, initial=-np.inf)
        np.exp(q, out=q)
        return cls(p, p.sum(axis=0), q, q.sum(axis=1))

    def dense(self) -> np.ndarray:
        """The (M, N) ranking, formed in place over ``p`` and ``q``."""
        p, q = self.p, self.q
        p /= self.colsum
        q /= self.rowsum[:, None]
        p += q
        p *= 0.5
        return p

    def at(self, rows, cols) -> np.ndarray:
        """The (K,) ranking of the (rows, cols) pairs."""
        out = self.p[rows, cols] / self.colsum[cols]
        out += self.q[rows, cols] / self.rowsum[rows]
        out *= 0.5
        return out

    def bound(self) -> float:
        """An upper bound on every entry of the ranking: a column's
        largest ``p`` is exp(0) = 1, so no p / colsum exceeds
        fl(1 / min colsum), and likewise for q; rounding is monotone."""
        return (1.0 / self.colsum.min() + 1.0 / self.rowsum.min()) * 0.5


def softmax_ranking(raw) -> np.ndarray:
    """Map raw scores to [0, 1] by averaging column- and row-softmaxes.

    P is the column-wise softmax (each column sums to 1), Q the
    row-wise softmax (each row sums to 1); the result is (P + Q) / 2.
    Invariant under adding a constant to every entry. A frame the gate
    cuts forms the same values only at its candidate pairs
    (``candidate_pairs``), from the same column and row sums.
    """
    return _Softmax.of(np.asarray(raw, dtype=float)).dense()


class _Boxes(NamedTuple):
    """The per-box columns of an (N, 7) box array that every pairing
    reads: the centre, the bounds of the axis-aligned box around the
    footprint and the height interval, the footprint circumradius, half
    the height and the volume."""

    arr: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray
    radii: np.ndarray
    half_h: np.ndarray
    volumes: np.ndarray

    def rows(self, rows) -> _Boxes:
        """The table of the boxes in the row slice ``rows``."""
        return _Boxes._make(column[rows] for column in self)


def _box_table(boxes) -> _Boxes:
    """The box table of an (N, 7) box array; a table is returned as it is.

    Each quantity is a column, so that a pair's quantities are built one
    coordinate at a time. The footprint bounds are elementwise minima
    and maxima of the four corner columns of
    ``geometry.bev_corners_array``, whose matrix product rounds the
    corners differently from a rotation written out per coordinate:
    those corners fix the bits of the enclosing diagonal.
    """
    if isinstance(boxes, _Boxes):
        return boxes
    arr = np.asarray(boxes, dtype=float)
    half_h = 0.5 * arr[:, 5]
    corners = geometry.bev_corners_array(arr)
    x_lo, x_hi = _bounds(corners[:, :, 0])
    y_lo, y_hi = _bounds(corners[:, :, 1])
    return _Boxes(
        arr=arr,
        x=arr[:, 0],
        y=arr[:, 1],
        z=arr[:, 2],
        x_lo=x_lo,
        x_hi=x_hi,
        y_lo=y_lo,
        y_hi=y_hi,
        z_lo=arr[:, 2] - half_h,
        z_hi=arr[:, 2] + half_h,
        radii=0.5 * np.hypot(arr[:, 3], arr[:, 4]),
        half_h=half_h,
        volumes=arr[:, 3] * arr[:, 4] * arr[:, 5],
    )


def _bounds(c):
    """The elementwise min and max of the four columns of an (N, 4) array."""
    return (
        np.minimum(np.minimum(c[:, 0], c[:, 1]), np.minimum(c[:, 2], c[:, 3])),
        np.maximum(np.maximum(c[:, 0], c[:, 1]), np.maximum(c[:, 2], c[:, 3])),
    )


def _square_span(lo_d, hi_d, lo_t, hi_t):
    """The squared extent of each pair's enclosing box along one axis."""
    s = np.maximum(hi_d, hi_t)
    s -= np.minimum(lo_d, lo_t)
    s *= s
    return s


def _motion_pairs(det: _Boxes, trk: _Boxes, pairs, use_dis, use_iou) -> np.ndarray:
    """Motion affinities of the (rows, cols) pairs of two box tables, or
    of every pair as an (M, N) matrix when ``pairs`` is None.

    Both forms run the same arithmetic per pair: the dense call indexes
    each column by a broadcasting view instead of gathering it. Every
    per-pair quantity is one (M, N) or (K,) array, built one coordinate
    at a time and updated in place, with each sum in a fixed order: the
    distance of the centres sqrt((dx * dx + dy * dy) + dz * dz), their
    footprint distance sqrt(dx * dx + dy * dy) from the same partial
    sum, and the enclosing diagonal sqrt((sx * sx + sy * sy) + sz * sz)
    from the three per-axis spans.
    """
    i, j = (np.s_[:, None], np.s_[None, :]) if pairs is None else pairs
    dxy2 = det.x[i] - trk.x[j]
    dxy2 *= dxy2
    dy = det.y[i] - trk.y[j]
    dy *= dy
    dxy2 += dy
    if use_dis:
        out = det.z[i] - trk.z[j]
        out *= out
        out += dxy2
        np.sqrt(out, out=out)  # the distance of the centres
        diag = _square_span(det.x_lo[i], det.x_hi[i], trk.x_lo[j], trk.x_hi[j])
        diag += _square_span(det.y_lo[i], det.y_hi[i], trk.y_lo[j], trk.y_hi[j])
        diag += _square_span(det.z_lo[i], det.z_hi[i], trk.z_lo[j], trk.z_hi[j])
        np.sqrt(diag, out=diag)
        degenerate = diag <= geometry.EPS
        np.copyto(diag, 1.0, where=degenerate)
        out /= diag
        np.subtract(1.0, out, out=out)
        np.maximum(out, 0.0, out=out)
        np.copyto(out, 1.0, where=degenerate)
    else:
        out = np.zeros(dxy2.shape)
    if use_iou:
        overlap = np.minimum(det.z_hi[i], trk.z_hi[j])
        overlap -= np.maximum(det.z_lo[i], trk.z_lo[j])
        dxy = np.sqrt(dxy2, out=dxy2)
        hit = np.nonzero((overlap > 0.0) & (dxy <= det.radii[i] + trk.radii[j]))
        a, b = hit if pairs is None else (i[hit], j[hit])
        inter = geometry.bev_intersection_areas(det.arr[a], trk.arr[b]) * overlap[hit]
        out[hit] += geometry.overlap_iou(inter, det.volumes[a], trk.volumes[b])
    return out


def motion_affinity_matrix(
    det_boxes,
    predicted_boxes,
    use_dis: bool = True,
    use_iou: bool = True,
    pairs=None,
) -> np.ndarray:
    """Pairwise motion affinities between (M, 7) detection boxes and
    (N, 7) predicted track boxes, or their ``_box_table``s: the (M, N)
    matrix, or with ``pairs = (rows, cols)`` the (K,) affinities of
    those pairs only.

    With both terms enabled this is the distance-IoU affinity in
    [0, 2], the package's one definition of it; the flags exist for
    ablations. The distance term is 1 - dist / diagonal, with the
    diagonal of the axis-aligned box enclosing both boxes, and 1 when
    that diagonal is at most EPS. The overlap kernel runs once, on the
    pairs whose footprint circumcircles overlap. Each per-pair quantity
    is built from the tables' columns one coordinate at a time
    (``_motion_pairs``), with no (M, N, 3) array, and a pair's value
    has the same bits in the dense and the pair form.
    """
    if not (use_dis or use_iou):
        raise ValueError("at least one motion term must be enabled")
    det, trk = _box_table(det_boxes), _box_table(predicted_boxes)
    return _motion_pairs(det, trk, pairs, use_dis, use_iou)


def candidate_pairs(
    det_boxes,
    predicted,
    need,
    raw,
    alpha: float,
    beta: float,
    use_dis: bool = True,
    use_iou: bool = True,
):
    """The (rows, cols) pairs whose refined affinity
    alpha * appearance + beta * motion can reach need_det[d] +
    need_trk[k], with the (K,) appearance of those pairs, as
    ``(rows, cols, appearance)``; or None to score every pair.

    ``det_boxes`` and ``predicted`` are (M, 7) and (N, 7) box arrays or
    their ``_box_table``s. ``need`` is the (need_det, need_trk) pair of
    per-node arrays. ``raw`` is the frame's (M, N) raw appearance
    matrix, or None when appearance is off (alpha is then 0, and every
    appearance 0). The appearance is its ``softmax_ranking``, whose
    column and row sums span every pair but whose values are formed
    only at the pairs found here, with the bits of the dense matrix;
    the largest is bounded from the sums alone (``_Softmax.bound``).

    The motion part is bounded from the boxes alone. Let r be a box's
    footprint circumradius, q = h / 2 and rho = hypot(r, q). The IoU is
    0 unless the centres are closer than rho_d + rho_k (and
    rho_d + rho_k is at most 2 * hypot(r, q) over the largest r and q
    of the frame). Along each axis the enclosing box spans at most the
    centre offset plus twice the pair's larger half-extent, so its
    diagonal is at most dist + s with s = 2 * hypot(r, r, q) over the
    pair's larger r and q, and the distance term 1 - dist / diagonal
    is at most s / (dist + s). Beyond the radius where these bounds
    fall below the smallest need no pair can reach its own need. The
    pairs within it are found with a k-d tree on the centres, and each
    is kept if its own bound reaches its own need. (The evaluator's
    sorted sweep, ``geometry.bev_iou_matrices``, finds the same pairs
    here but costs more: at this radius, about 21 m on a ``sparse-300``
    frame, a sweep along one axis took 245 us against the tree's
    148 us.)

    None is returned when the frame has at most _GATE_MIN_PAIRS pairs,
    or when the radius spans every centre: scoring the dense matrix is
    then cheaper than gathering pairs.
    """
    det, trk = _box_table(det_boxes), _box_table(predicted)
    if len(det.arr) * len(trk.arr) <= _GATE_MIN_PAIRS:
        return None
    need_det, need_trk = need
    softmax = None if raw is None else _Softmax.of(raw)
    # The least affinity the motion part must add to some pair.
    appearance_max = 0.0 if softmax is None else alpha * softmax.bound()
    short = float(need_det.min() + need_trk.min() - appearance_max)
    if short <= 0.0:
        return None
    r_d, r_t, q_d, q_t = det.radii, trk.radii, det.half_h, trk.half_h
    r_max, q_max = max(r_d.max(), r_t.max()), max(q_d.max(), q_t.max())
    radius = 2.0 * math.hypot(r_max, q_max) if use_iou else 0.0
    if use_dis:
        s_max = 2.0 * math.sqrt(2.0 * r_max * r_max + q_max * q_max)
        radius = max(radius, s_max * (beta / short - 1.0))
    radius = radius * (1.0 + _MARGIN) + geometry.EPS
    d, t = det.arr[:, :3], trk.arr[:, :3]
    if radius >= np.linalg.norm(np.ptp(np.concatenate((d, t)), axis=0)):
        return None

    near = cKDTree(d).sparse_distance_matrix(cKDTree(t), radius, output_type="ndarray")
    rows, cols, dist = near["i"], near["j"], near["v"]
    appearance = np.zeros(rows.size) if softmax is None else softmax.at(rows, cols)
    bound = alpha * appearance
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
    return rows[keep], cols[keep], appearance[keep]


def _lacks_embeddings(embeddings) -> bool:
    """Whether a side's embeddings turn appearance off: None, empty,
    without columns, or with a NaN row, a row that lacks one."""
    return embeddings is None or np.size(embeddings) == 0 or np.isnan(embeddings).all(-1).any()


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
    (N, D) array, with a NaN row where a row lacks an embedding, or
    None. ``cfg`` supplies ``beta_over_alpha``, ``use_dis`` and
    ``use_iou``. The weights are alpha = 1 / (1 + ``beta_over_alpha``)
    and beta = 1 - alpha when appearance is applied. A side that is
    None or empty, has no columns or has a NaN row lacks embeddings,
    and turns appearance off for the frame: the weights are then
    alpha = 0, beta = 1.
    With ``need``, the (need_det, need_trk) pair of per-node arrays, only
    the ``candidate_pairs`` that can reach need_det[d] + need_trk[k] are
    scored, unless every pair is in reach: their appearance is formed at
    the gate's pairs from the softmax's row and column sums, and no
    (M, N) appearance matrix is built. Otherwise every pair is scored,
    the appearance by ``softmax_ranking``.
    """
    alpha = 1.0 / (1.0 + cfg.beta_over_alpha)
    beta = 1.0 - alpha
    m, n = len(det_boxes), len(predicted)
    raw = None
    if alpha == 0.0 or _lacks_embeddings(det_embeddings) or _lacks_embeddings(track_embeddings):
        alpha, beta = 0.0, 1.0
    else:
        raw = raw_appearance_matrix(det_embeddings, track_embeddings)

    use_dis, use_iou = cfg.use_dis, cfg.use_iou
    # One table over both sides' boxes, stacked: the gate and the scorer
    # both read its detection rows and its track rows.
    table = _box_table(np.concatenate((det_boxes, predicted)))
    det, trk = table.rows(np.s_[:m]), table.rows(np.s_[m:])
    gated = None
    if need is not None:
        gated = candidate_pairs(det, trk, need, raw, alpha, beta, use_dis=use_dis, use_iou=use_iou)
    if gated is None:
        pairs = None
        appearance = np.zeros((m, n)) if raw is None else softmax_ranking(raw)
    else:
        rows, cols, appearance = gated
        pairs = rows, cols
    motion = motion_affinity_matrix(det, trk, use_dis=use_dis, use_iou=use_iou, pairs=pairs)
    refined = alpha * appearance + beta * motion
    return AffinityMatrix(
        appearance=appearance,
        motion=motion,
        refined=refined,
        alpha=alpha,
        beta=beta,
        pairs=pairs,
    )
