"""Online per-sequence tracking pipeline.

A frame's detections come as one ``DetectionBatch``; an empty sequence
stands for a frame without any. Each frame: filter detections by
classification confidence, predict every track one frame ahead, compute
detection-track affinities, run the association solver, update matched
Kalman states and apply the lifecycle rules. There is no incubation
period: a detection selected as a start becomes a confirmed track
immediately, while detections the solver leaves unselected enter as
tentative tracks with one miss already counted. Tracks coast on
prediction while missed and are dropped once their consecutive misses
exceed the miss threshold.

The tracks are one table of row-aligned arrays, row k being one track:
``ids``, ``confidence``, the ``hits`` and ``misses`` streaks,
``confirmed``, ``embeddings`` (T, D) with a NaN row where a track has
none, and the Kalman ``mean`` and ``cov``. The lifecycle rules are masks
over them. Births are appended in id order and deletions keep the order
of the rest, so the rows are always sorted by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affinity import compute_affinities
from .association import AssociationProblem, affinity_needed, hungarian_baseline, solve_mip
from .config import TrackerConfig
from .geometry import wrap_angle
from .io_formats import ROW_DTYPE, DetectionBatch, check_frame
from .motion import MEAS_DIM, STATE_DIM, kf_init, kf_predict, kf_update

# The row-aligned arrays of the track table.
_COLUMNS = ("ids", "confidence", "hits", "misses", "confirmed", "embeddings", "mean", "cov")


@dataclass
class FrameResult:
    """Confirmed, currently-associated tracks of one frame: a record array
    of ``io_formats.ROW_DTYPE``, one record per track with its ``id``,
    ``box`` (x, y, z, l, w, h, a) and ``score``, the track's confidence,
    in id order."""

    frame: int
    tracks: np.recarray


class Tracker:
    """Single-sequence online tracker. Frames must arrive in order.

    Its state is the track table: ``ids``, ``confidence``, ``hits``,
    ``misses``, ``confirmed``, ``embeddings``, ``mean`` and ``cov``.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.ids = np.zeros(0, dtype=np.int64)
        self.confidence = np.zeros(0)
        self.hits = np.zeros(0, dtype=np.int64)
        self.misses = np.zeros(0, dtype=np.int64)
        self.confirmed = np.zeros(0, dtype=bool)
        # No columns until a detection brings an embedding: every row lacks one.
        self.embeddings = np.zeros((0, 0))
        self.mean = np.zeros((0, STATE_DIM))
        self.cov = np.zeros((0, STATE_DIM, STATE_DIM))
        self._next_id = 1
        self._last_frame: Optional[int] = None

    @property
    def tracks(self) -> np.recarray:
        """A snapshot of the lifecycle columns, one record per track with
        fields ``id``, ``confidence``, ``hits``, ``misses`` and ``confirmed``."""
        return np.rec.fromarrays(
            (self.ids, self.confidence, self.hits, self.misses, self.confirmed),
            names=("id", "confidence", "hits", "misses", "confirmed"),
        )

    def _associate(
        self, det_boxes: np.ndarray, scores: np.ndarray, start_prob: np.ndarray, embeddings
    ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Matched (detection, track) pairs and, for the unmatched
        detections, whether each starts a confirmed track. ``embeddings``
        is None unless every detection has one."""
        cfg = self.config
        x_cls_det, x_cls_trk = scores, self.confidence
        x_se_det = np.where(np.isnan(start_prob), cfg.default_start_prob, start_prob)
        x_se_trk = np.full(len(self.ids), cfg.default_end_prob)
        need = None
        if cfg.associator == "mip":
            # Only pairs that can beat both outside options are scored.
            costs = (cfg.w_cls, cfg.w_aff, cfg.w_se)
            need = (
                affinity_needed(x_cls_det, x_se_det, *costs),
                affinity_needed(x_cls_trk, x_se_trk, *costs),
            )

        lacks = np.isnan(self.embeddings).all(axis=1)
        track_embeddings = None if lacks.any() else self.embeddings
        aff = compute_affinities(
            det_boxes, self.mean[:, :MEAS_DIM], embeddings, track_embeddings, cfg, need=need
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

    def _fit_embeddings(self, frame: int, batch: DetectionBatch) -> None:
        """Give the embedding table the batch's embedding size, or reject
        the batch if a track has an embedding of another size. The size
        may change only while no track has one. Runs before any other
        state changes."""
        if batch.embeddings is None or batch.embeddings.shape[1] == self.embeddings.shape[1]:
            return
        if not np.isnan(self.embeddings).all():
            i = int(batch.has_embedding.argmax())
            raise ValueError(
                f"frame {frame}, detection {i}: embedding has {batch.embeddings.shape[1]} "
                f"values, expected {self.embeddings.shape[1]}"
            )
        self.embeddings = np.full((len(self.ids), batch.embeddings.shape[1]), np.nan)

    def step(self, frame: int, detections) -> FrameResult:
        """Process one frame and return its confirmed associated tracks.

        ``detections`` is the frame's ``DetectionBatch``, or an empty
        sequence for a frame without detections. A frame that is not an
        integer in [0, 2**63) or not after the last one, or a batch of
        another frame (``ValueError``), and any other input (``TypeError``)
        are rejected before any state changes.
        """
        cfg = self.config
        frame = check_frame(frame)
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(
                f"frames must be strictly increasing: got {frame} after {self._last_frame}"
            )
        batch = detections
        if not isinstance(batch, DetectionBatch):
            if len(batch):
                name = type(batch).__name__
                raise TypeError(f"frame {frame}: detections must be a DetectionBatch, got {name}")
            batch = DetectionBatch(frame, [], [])
        elif batch.frame != frame:
            raise ValueError(f"frame {frame}: the batch is of frame {batch.frame}")
        self._fit_embeddings(frame, batch)
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

        d, k = np.array(matches, dtype=np.intp).reshape(-1, 2).T
        self.mean[k], self.cov[k] = kf_update(self.mean[k], self.cov[k], det_boxes[d], cfg)
        g = cfg.confidence_smoothing
        self.confidence[k] = g * self.confidence[k] + (1.0 - g) * scores[d]
        if embeddings is not None:
            given = has_embedding[d]
            self.embeddings[k[given]] = embeddings[d[given]]

        # Coasting tracks keep their predicted state and accrue a miss;
        # an end decision is soft so a wrongly ended track can recover.
        matched = np.zeros(len(self.ids), dtype=bool)
        matched[k] = True
        self.hits = np.where(matched, self.hits + 1, 0)
        self.misses = np.where(matched, 0, self.misses + 1)
        self.confirmed |= matched & (self.hits > cfg.theta_hit)

        # Births are appended confirmed starts first, then tentatives,
        # which count as missed once.
        unmatched = np.ones(len(det_boxes), dtype=bool)
        unmatched[d] = False
        born = np.flatnonzero(unmatched)
        if born.size:
            born = np.concatenate((born[starts[born]], born[~starts[born]]))
            born_confirmed = starts[born]
            mean, cov = kf_init(det_boxes[born], cfg)
            if embeddings is None:
                embeddings = np.full((len(det_boxes), self.embeddings.shape[1]), np.nan)
            new = {
                "ids": np.arange(self._next_id, self._next_id + born.size),
                "confidence": scores[born],
                "hits": born_confirmed.astype(np.int64),
                "misses": (~born_confirmed).astype(np.int64),
                "confirmed": born_confirmed,
                "embeddings": embeddings[born],
                "mean": mean,
                "cov": cov,
            }
            self._next_id += born.size
            for name in _COLUMNS:
                setattr(self, name, np.concatenate((getattr(self, name), new[name])))

        alive = self.misses <= cfg.theta_miss
        if not alive.all():
            for name in _COLUMNS:
                setattr(self, name, getattr(self, name)[alive])

        # A track is emitted when it is confirmed and was not missed this
        # frame: a matched track or a confirmed birth.
        out = np.flatnonzero(self.confirmed & (self.misses == 0))
        boxes = self.mean[out, :MEAS_DIM]
        boxes[:, 6] = wrap_angle(boxes[:, 6])
        tracks = np.rec.fromarrays((self.ids[out], boxes, self.confidence[out]), dtype=ROW_DTYPE)
        return FrameResult(frame=frame, tracks=tracks)


def run_sequence(
    detections_by_frame: dict[int, DetectionBatch],
    config: TrackerConfig | None = None,
    num_frames: int | None = None,
) -> list[FrameResult]:
    """Track a whole sequence; frames absent from the input are empty.

    ``detections_by_frame`` is ``{frame: DetectionBatch}``, as
    ``read_detections`` and ``simgen.generate`` give it. Frames run from
    0 through the last frame present (or num_frames).
    """
    tracker = Tracker(config)
    if num_frames is None:
        num_frames = (max(detections_by_frame) + 1) if detections_by_frame else 0
    return [
        tracker.step(frame, detections_by_frame.get(frame, []))
        for frame in range(num_frames)
    ]
