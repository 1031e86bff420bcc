"""Online per-sequence tracking pipeline.

Each frame: filter detections by classification confidence, predict
every track one frame ahead, compute detection-track affinities, run
the association solver, update matched Kalman states and apply the
lifecycle rules. There is no incubation period: a detection selected
as a start becomes a confirmed track immediately, while detections the
solver leaves unselected enter as tentative tracks with one miss
already counted. Tracks coast on prediction while missed and are
dropped once their consecutive misses exceed the miss threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affinity import compute_affinities
from .association import AssociationProblem, affinity_needed, hungarian_baseline, solve_mip
from .config import TrackerConfig
from .geometry import Box3D
from .io_formats import Detection, DetectionBatch, check_frame
from .motion import MEAS_DIM, STATE_DIM, kf_init, kf_predict, kf_update


class TrackStatus(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"


@dataclass
class Track:
    """Lifecycle of one persistent object hypothesis. Its filter state is
    row k of the tracker's ``mean`` and ``cov`` while it is ``tracks[k]``."""

    id: int
    embedding: Optional[np.ndarray]
    confidence: float
    hits: int
    misses: int
    status: TrackStatus


@dataclass
class FrameResult:
    """Confirmed, currently-associated tracks of one frame."""

    frame: int
    tracks: list[tuple[int, Box3D, float]]


class Tracker:
    """Single-sequence online tracker. Frames must arrive in order."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self.mean = np.zeros((0, STATE_DIM))
        self.cov = np.zeros((0, STATE_DIM, STATE_DIM))
        self._next_id = 1
        self._last_frame: Optional[int] = None

    def _associate(
        self, det_boxes: np.ndarray, scores: np.ndarray, start_prob: np.ndarray, embeddings
    ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Matched (detection, track) pairs and, for the unmatched
        detections, whether each starts a confirmed track. ``embeddings``
        is None unless every detection has one."""
        cfg = self.config
        x_cls_det = scores
        x_cls_trk = np.array([t.confidence for t in self.tracks])
        x_se_det = np.where(np.isnan(start_prob), cfg.default_start_prob, start_prob)
        x_se_trk = np.full(len(self.tracks), cfg.default_end_prob)
        need = None
        if cfg.associator == "mip":
            # Only pairs that can beat both outside options are scored;
            # the bound is worked out only for a frame the gate may cut.
            costs = (cfg.w_cls, cfg.w_aff, cfg.w_se)

            def need():
                return (
                    affinity_needed(x_cls_det, x_se_det, *costs),
                    affinity_needed(x_cls_trk, x_se_trk, *costs),
                )

        aff = compute_affinities(
            det_boxes,
            self.mean[:, :MEAS_DIM],
            embeddings,
            [t.embedding for t in self.tracks],
            cfg,
            need=need,
        )
        if cfg.associator == "hungarian":
            # The baseline trusts all inputs: matched pairs keep ids,
            # everything left over starts or ends unconditionally.
            matches = hungarian_baseline(aff.refined, gate=cfg.ha_gate)
            return matches, np.ones(len(det_boxes), dtype=bool)
        problem = AssociationProblem(
            x_cls_det=x_cls_det,
            x_cls_trk=x_cls_trk,
            x_aff=aff.refined,
            x_se_det=x_se_det,
            x_se_trk=x_se_trk,
            w_cls=cfg.w_cls,
            w_aff=cfg.w_aff,
            w_se=cfg.w_se,
            pairs=aff.pairs,
        )
        result = solve_mip(problem)
        return result.matches, result.y_se_det.astype(bool)

    def _check_embeddings(self, frame: int, batch: DetectionBatch) -> None:
        """Reject a batch whose embedding size differs from the tracks',
        before any state changes."""
        if batch.embeddings is None:
            return
        size = next((t.embedding.size for t in self.tracks if t.embedding is not None), None)
        if size is not None and batch.embeddings.shape[1] != size:
            i = int(batch.has_embedding.argmax())
            raise ValueError(
                f"frame {frame}, detection {i}: embedding has {batch.embeddings.shape[1]} "
                f"values, expected {size}"
            )

    def step(self, frame: int, detections) -> FrameResult:
        """Process one frame and return its confirmed associated tracks.

        ``detections`` is the frame's ``DetectionBatch`` or a list of
        ``Detection``s, which is made into one; a batch or detection of
        another frame, or a negative frame, is rejected before any state
        changes.
        """
        cfg = self.config
        frame = check_frame(frame)
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing: got {frame} after {self._last_frame}"
            )
        batch = DetectionBatch.from_detections(detections, frame)
        self._check_embeddings(frame, batch)
        self._last_frame = frame

        keep = batch.scores >= cfg.theta_cls
        det_boxes = batch.boxes[keep]
        scores = batch.scores[keep]
        has_embedding = batch.has_embedding[keep]
        embeddings = None if batch.embeddings is None else batch.embeddings[keep]

        self.mean, self.cov = kf_predict(self.mean, self.cov, cfg)

        matches, starts = self._associate(
            det_boxes,
            scores,
            batch.start_prob[keep],
            embeddings if has_embedding.all() else None,
        )

        det_rows = [d for d, _ in matches]
        track_rows = [k for _, k in matches]
        self.mean[track_rows], self.cov[track_rows] = kf_update(
            self.mean[track_rows], self.cov[track_rows], det_boxes[det_rows], cfg
        )

        score_list = scores.tolist()
        emitted: list[tuple[int, Box3D, float]] = []
        for d, k in matches:
            track = self.tracks[k]
            g = cfg.confidence_smoothing
            track.confidence = g * track.confidence + (1.0 - g) * score_list[d]
            if has_embedding[d]:
                track.embedding = embeddings[d]
            track.hits += 1
            track.misses = 0
            if track.status is TrackStatus.TENTATIVE and track.hits > cfg.theta_hit:
                track.status = TrackStatus.CONFIRMED
            if track.status is TrackStatus.CONFIRMED:
                box = Box3D.from_array(self.mean[k, :MEAS_DIM])
                emitted.append((track.id, box, track.confidence))

        # Coasting tracks keep their predicted state and accrue a miss;
        # an end decision is soft so a wrongly ended track can recover.
        matched_tracks = set(track_rows)
        for k, track in enumerate(self.tracks):
            if k not in matched_tracks:
                track.misses += 1
                track.hits = 0

        # Births are appended confirmed starts first, then tentatives.
        unmatched = set(range(len(det_boxes))) - set(det_rows)
        births = sorted(unmatched, key=lambda d: (not starts[d], d))
        for d in births:
            confirmed = bool(starts[d])
            track = Track(
                id=self._next_id,
                embedding=embeddings[d] if has_embedding[d] else None,
                confidence=score_list[d],
                hits=int(confirmed),
                misses=int(not confirmed),  # a tentative birth counts as missed once
                status=TrackStatus.CONFIRMED if confirmed else TrackStatus.TENTATIVE,
            )
            self._next_id += 1
            self.tracks.append(track)
            if confirmed:
                emitted.append((track.id, Box3D.from_array(det_boxes[d]), track.confidence))
        birth_mean, birth_cov = kf_init(det_boxes[births], cfg)
        self.mean = np.concatenate((self.mean, birth_mean))
        self.cov = np.concatenate((self.cov, birth_cov))

        keep = [t.misses <= cfg.theta_miss for t in self.tracks]
        self.tracks = [t for t, alive in zip(self.tracks, keep) if alive]
        self.mean, self.cov = self.mean[keep], self.cov[keep]

        emitted.sort()  # by id, which is unique
        return FrameResult(frame=frame, tracks=emitted)


def run_sequence(
    detections_by_frame: dict[int, DetectionBatch | list[Detection]],
    config: TrackerConfig | None = None,
    num_frames: int | None = None,
) -> list[FrameResult]:
    """Track a whole sequence; frames absent from the input are empty.

    ``detections_by_frame`` maps a frame to its ``DetectionBatch`` or
    list of ``Detection``s. Frames run from 0 through the last frame
    present (or num_frames).
    """
    tracker = Tracker(config)
    if num_frames is None:
        num_frames = (max(detections_by_frame) + 1) if detections_by_frame else 0
    return [
        tracker.step(frame, detections_by_frame.get(frame, []))
        for frame in range(num_frames)
    ]
