"""The tracker by the letter of ``mipmot.tracker``'s docstring and the paper.

A loop as short as SORT's (Bewley et al., 2016) and AB3DMOT's (Weng et
al., 2020), which ``Tracker.step`` and ``run_sequence`` are compared
against. It shares with the package the config, the objective
coefficients and the overlap kernel behind ``diou_oracle``, and nothing
of the tracker's tables, gate or solver:

* one ``Track`` object per track, each with its own Kalman mean and
  covariance, filtered by the textbook equations;
* the affinity of every pair: the distance-IoU terms of
  ``diou_oracle``, pair by pair, and the two-way softmax of the
  appearance scores written out;
* for ``mip``, the literal binary program of ``milp_oracle`` over every
  pair, and its solution; for ``hungarian``, one
  ``linear_sum_assignment`` of the dense matrix.

Tie rule: where the runner-up of a frame's association scores within
``TIE`` of the best, or a pair's slack (its gain less its two outside
options) is within ``TIE`` of 0, the package and this reference may
choose differently; ``step`` raises ``TiedAssociation`` then.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from diou_oracle import distance_term, iou_3d, raw_appearance_score
from milp_oracle import milp_solution
from mipmot.association import AssociationProblem, objective_coefficients

TIE = 1e-9


class TiedAssociation(Exception):
    """A frame's association has a runner-up within ``TIE`` of the best,
    or a pair of slack within ``TIE`` of 0."""


@dataclass
class Det:
    """One detection: the (x, y, z, l, w, h, a) box, the score, and the
    start probability and the embedding, None where it has none."""

    box: np.ndarray
    score: float
    start_prob: float | None = None
    embedding: np.ndarray | None = None


@dataclass
class Track:
    id: int
    mean: np.ndarray  # (x, y, z, l, w, h, a, vx, vy, vz)
    cov: np.ndarray  # (10, 10)
    confidence: float
    hits: int
    misses: int
    confirmed: bool
    embedding: np.ndarray | None


def wrap(a: float) -> float:
    """An angle in (-pi, pi]."""
    a = a % (2.0 * math.pi)
    return a - 2.0 * math.pi if a > math.pi else a


class ReferenceTracker:
    def __init__(self, cfg):
        self.cfg = cfg
        self.tracks: list[Track] = []
        self.next_id = 1
        self.A = np.eye(10)
        self.A[0, 7] = self.A[1, 8] = self.A[2, 9] = 1.0
        self.H = np.eye(7, 10)
        self.Q = cfg.kalman_q_scale * np.eye(10)
        self.R = np.diag(cfg.kalman_r_diag)
        self.P0 = np.diag(cfg.kalman_p0_diag)

    def step(self, detections: list[Det]) -> list[tuple[int, np.ndarray, float]]:
        """One frame: the (id, box, confidence) of each confirmed track
        matched or started on it, in id order."""
        cfg = self.cfg
        dets = [d for d in detections if d.score >= cfg.theta_cls]
        for t in self.tracks:
            t.mean = self.A @ t.mean
            t.cov = self.A @ t.cov @ self.A.T + self.Q
        matches, starts = self.associate(dets, self.affinity(dets))

        for d, k in matches:
            t, det = self.tracks[k], dets[d]
            innovation = det.box - self.H @ t.mean
            innovation[6] = wrap(innovation[6])
            S = self.H @ t.cov @ self.H.T + self.R
            K = t.cov @ self.H.T @ np.linalg.inv(S)
            t.mean = t.mean + K @ innovation
            t.mean[6] = wrap(t.mean[6])
            t.cov = (np.eye(10) - K @ self.H) @ t.cov
            g = cfg.confidence_smoothing
            t.confidence = g * t.confidence + (1.0 - g) * det.score
            if det.embedding is not None:
                t.embedding = det.embedding
        matched_tracks = {k for _, k in matches}
        for k, t in enumerate(self.tracks):
            if k in matched_tracks:
                t.hits, t.misses = t.hits + 1, 0
                t.confirmed = t.confirmed or t.hits > cfg.theta_hit
            else:
                t.hits, t.misses = 0, t.misses + 1

        # Confirmed starts are born first, then tentatives, each in
        # detection order; a tentative track counts as missed once.
        matched_dets = {d for d, _ in matches}
        unmatched = [d for d in range(len(dets)) if d not in matched_dets]
        for d in [d for d in unmatched if starts[d]] + [d for d in unmatched if not starts[d]]:
            det = dets[d]
            mean = np.zeros(10)
            mean[:7] = det.box
            mean[6] = wrap(mean[6])
            confirmed = bool(starts[d])
            self.tracks.append(
                Track(
                    self.next_id,
                    mean,
                    self.P0,
                    det.score,
                    int(confirmed),
                    int(not confirmed),
                    confirmed,
                    det.embedding,
                )
            )
            self.next_id += 1
        self.tracks = [t for t in self.tracks if t.misses <= cfg.theta_miss]
        return [
            (t.id, t.mean[:7].copy(), t.confidence)
            for t in self.tracks
            if t.confirmed and t.misses == 0
        ]

    def affinity(self, dets) -> np.ndarray:
        """alpha * appearance + beta * motion of every pair, appearance
        off (alpha 0, beta 1) where a side lacks an embedding."""
        cfg = self.cfg
        m, n = len(dets), len(self.tracks)
        motion = np.zeros((m, n))
        for d, det in enumerate(dets):
            for k, t in enumerate(self.tracks):
                predicted = t.mean[:7]
                if cfg.use_dis:
                    motion[d, k] += distance_term(det.box, predicted)
                if cfg.use_iou:
                    motion[d, k] += iou_3d(det.box, predicted)
        alpha = 1.0 / (1.0 + cfg.beta_over_alpha)
        embeddings = [d.embedding for d in dets] + [t.embedding for t in self.tracks]
        if alpha == 0.0 or m == 0 or n == 0 or any(e is None for e in embeddings):
            return motion
        raw = [[raw_appearance_score(d.embedding, t.embedding) for t in self.tracks] for d in dets]
        appearance = np.zeros((m, n))
        for d in range(m):
            for k in range(n):
                column = [raw[i][k] for i in range(m)]
                row = raw[d]
                p = math.exp(raw[d][k] - max(column))
                p /= sum(math.exp(v - max(column)) for v in column)
                q = math.exp(raw[d][k] - max(row))
                q /= sum(math.exp(v - max(row)) for v in row)
                appearance[d, k] = (p + q) / 2.0
        return alpha * appearance + (1.0 - alpha) * motion

    def associate(self, dets, refined):
        """The (d, k) matches and, per detection, whether it starts a
        confirmed track."""
        cfg = self.cfg
        m, n = refined.shape
        if cfg.associator == "hungarian":
            # Every input trusted: min(M, N) pairs, every other detection starts.
            rows, cols = linear_sum_assignment(refined, maximize=True)
            best = refined[rows, cols].sum()
            for d, k in zip(rows, cols):
                w = refined.copy()
                w[d, k] = -np.inf
                try:
                    r, c = linear_sum_assignment(w, maximize=True)
                except ValueError:  # no assignment without (d, k)
                    continue
                if w[r, c].sum() >= best - TIE:
                    raise TiedAssociation
            return list(zip(rows.tolist(), cols.tolist())), [True] * m
        start_prob = [d.start_prob for d in dets]
        p = AssociationProblem(
            x_cls_det=[d.score for d in dets],
            x_cls_trk=[t.confidence for t in self.tracks],
            x_aff=refined,
            x_se_det=[cfg.default_start_prob if s is None else s for s in start_prob],
            x_se_trk=[cfg.default_end_prob] * n,
            w_cls=cfg.w_cls,
            w_aff=cfg.w_aff,
            w_se=cfg.w_se,
        )
        coefficients = objective_coefficients(p)
        c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk = coefficients
        out_det = np.maximum(0.0, c_cls_det + c_se_det)
        out_trk = np.maximum(0.0, c_cls_trk + c_se_trk)
        slack = c_cls_det[:, None] + c_cls_trk[None, :] + c_aff - out_det[:, None] - out_trk
        if (np.abs(slack) <= TIE).any():
            raise TiedAssociation
        c = np.concatenate([np.ravel(v) for v in coefficients])
        x = milp_solution(p)
        runner_up = milp_solution(p, exclude=[x])
        if runner_up is not None and c @ runner_up >= c @ x - TIE:
            raise TiedAssociation
        y_aff = x[m + n : m + n + m * n].reshape(m, n)
        starts = x[m + n + m * n : m + n + m * n + m].astype(bool).tolist()
        return [(int(d), int(k)) for d, k in zip(*np.nonzero(y_aff))], starts


def run_sequence(frames: dict[int, list[Det]], cfg) -> list[tuple[int, list]]:
    """(frame, rows) of each frame stepped: frames 0 through the last
    given, those without detections only while a track is held."""
    tracker, out = ReferenceTracker(cfg), []
    for frame in range(max(frames, default=-1) + 1):
        if frame in frames or tracker.tracks:
            out.append((frame, tracker.step(frames.get(frame, []))))
    return out
