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
none, the Kalman ``mean`` (T, 10) and ``cov_index``. The lifecycle rules
are masks over them. Births are appended in id order and deletions keep
the order of the rest, so the rows are always sorted by id. A frame's
embeddings are brought to the table's width D, with NaN rows when the
batch has none, and both tables go to ``compute_affinities`` as they
are: a NaN row on either side turns appearance off for the frame. The
mean's heading column stays wrapped to (-pi, pi]: ``kf_init`` and
``kf_update`` wrap it and ``kf_predict`` leaves its bits as they are,
so the emitted boxes are read from the mean as it is.

The Kalman covariances are a table beside it: ``cov_table`` (U, 10, 10)
holds each track's covariance, shared between tracks, and track k's is
``cov_table[cov_index[k]]``. A covariance depends only on P0, Q, R and
the frames its track was matched on, never on the measurements
(``motion``), so the tracks born on one frame and matched on the same
frames share one entry. A frame's births share one P0 entry, predict
maps the U entries, and update solves once per entry of the matched
rows into a new entry for them, so a row that coasts keeps the old one.
At the end of each frame the entries no track points at are dropped.
Every entry has the bytes that each of its tracks would get if filtered
alone, so the sharing changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affinity import compute_affinities
from .association import AssociationProblem, affinity_needed, hungarian_baseline, solve_mip
from .config import TrackerConfig
from .io_formats import ROW_DTYPE, DetectionBatch, check_frame
from .motion import MEAS_DIM, STATE_DIM, kf_init, kf_predict, kf_update

# The row-aligned arrays of the track table.
_COLUMNS = ("ids", "confidence", "hits", "misses", "confirmed", "embeddings", "mean", "cov_index")


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
    ``misses``, ``confirmed``, ``embeddings``, ``mean`` and ``cov_index``,
    and the covariance table ``cov_table`` that ``cov_index`` points into.
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
        self.cov_index = np.zeros(0, dtype=np.intp)
        self.cov_table = np.zeros((0, STATE_DIM, STATE_DIM))
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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matched detection and track rows, as two index arrays, and,
        for the unmatched detections, whether each starts a confirmed
        track. ``embeddings`` are the detections' (M, D), at the track
        table's width."""
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

        aff = compute_affinities(
            det_boxes, self.mean[:, :MEAS_DIM], embeddings, self.embeddings, cfg, need=need
        )
        if cfg.associator == "hungarian":
            # The baseline trusts all inputs: matched pairs keep ids,
            # everything left over starts or ends unconditionally.
            matches = hungarian_baseline(aff.refined, gate=cfg.ha_gate)
            d, k = np.array(matches, dtype=np.intp).reshape(-1, 2).T
            return d, k, np.ones(len(det_boxes), dtype=bool)
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
        return *result.matched, result.y_se_det.astype(bool)

    def _fit_embeddings(self, frame: int, batch: DetectionBatch) -> np.ndarray:
        """The batch's embeddings at the embedding table's width, NaN rows
        for a batch without any. A batch with embeddings of another size
        gives the table its size while no track has one, and is rejected
        otherwise. Runs before any other state changes."""
        width = self.embeddings.shape[1]
        if batch.embeddings is None:
            return np.full((len(batch), width), np.nan)
        if batch.embeddings.shape[1] != width:
            if not np.isnan(self.embeddings).all():
                i = int(batch.has_embedding.argmax())
                raise ValueError(
                    f"frame {frame}, detection {i}: embedding has {batch.embeddings.shape[1]} "
                    f"values, expected {width}"
                )
            self.embeddings = np.full((len(self.ids), batch.embeddings.shape[1]), np.nan)
        return batch.embeddings

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
        embeddings = self._fit_embeddings(frame, batch)
        self._last_frame = frame

        keep = batch.scores >= cfg.theta_cls
        det_boxes = batch.boxes[keep]
        scores = batch.scores[keep]
        embeddings = embeddings[keep]

        self.mean, self.cov_table = kf_predict(self.mean, self.cov_table, cfg)

        d, k, starts = self._associate(det_boxes, scores, batch.start_prob[keep], embeddings)

        # The matched rows' entries are updated into new ones: a row that
        # coasts may still point at the old entry.
        entries, index = _entries(self.cov_index[k])
        self.mean[k], updated = kf_update(
            self.mean[k], self.cov_table[entries], det_boxes[d], cfg, index=index
        )
        self.cov_index[k] = len(self.cov_table) + index
        self.cov_table = np.concatenate((self.cov_table, updated))
        g = cfg.confidence_smoothing
        self.confidence[k] = g * self.confidence[k] + (1.0 - g) * scores[d]
        # A detection without an embedding leaves the track's as it is.
        given = embeddings[d]
        self.embeddings[k] = np.where(np.isnan(given), self.embeddings[k], given)

        # Coasting tracks keep their predicted state and accrue a miss;
        # an end decision is soft so a wrongly ended track can recover.
        matched = np.zeros(len(self.ids), dtype=bool)
        matched[k] = True
        self.hits = np.where(matched, self.hits + 1, 0)
        self.misses = np.where(matched, 0, self.misses + 1)
        self.confirmed |= matched & (self.hits > cfg.theta_hit)

        # Births are appended confirmed starts first, then tentatives,
        # which count as missed once: one stable partition of the
        # detections, less the matched ones.
        unmatched = np.ones(len(det_boxes), dtype=bool)
        unmatched[d] = False
        born = np.argsort(~starts, kind="stable")
        born = born[unmatched[born]]
        if born.size:
            born_confirmed = starts[born]
            mean, cov = kf_init(det_boxes[born], cfg)
            self.cov_table = np.concatenate((self.cov_table, cov[:1]))
            new = {
                "ids": np.arange(self._next_id, self._next_id + born.size),
                "confidence": scores[born],
                "hits": born_confirmed.astype(np.int64),
                "misses": (~born_confirmed).astype(np.int64),
                "confirmed": born_confirmed,
                "embeddings": embeddings[born],
                "mean": mean,
                "cov_index": np.full(born.size, len(self.cov_table) - 1),
            }
            self._next_id += born.size
            for name in _COLUMNS:
                setattr(self, name, np.concatenate((getattr(self, name), new[name])))

        alive = self.misses <= cfg.theta_miss
        if not alive.all():
            for name in _COLUMNS:
                setattr(self, name, getattr(self, name)[alive])
        # Drop the covariance entries no track points at.
        entries, self.cov_index = _entries(self.cov_index)
        self.cov_table = self.cov_table[entries]

        # A track is emitted when it is confirmed and was not missed this
        # frame: a matched track or a confirmed birth. Its heading is
        # wrapped already (module docstring).
        out = np.flatnonzero(self.confirmed & (self.misses == 0))
        tracks = np.empty(out.size, ROW_DTYPE)
        tracks["id"] = self.ids[out]
        tracks["box"] = self.mean[out, :MEAS_DIM]
        tracks["score"] = self.confidence[out]
        return FrameResult(frame=frame, tracks=tracks.view(np.recarray))


def _entries(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covariance entries that the rows' ``index`` points at, in
    order, and each row's position among them."""
    entries = np.flatnonzero(np.bincount(index))
    return entries, np.searchsorted(entries, index)


def run_sequence(
    detections_by_frame: dict[int, DetectionBatch], config: TrackerConfig | None = None
) -> list[FrameResult]:
    """Track a whole sequence; frames absent from the input are empty.

    ``detections_by_frame`` is ``{frame: DetectionBatch}``, as
    ``read_detections`` and ``simgen.generate`` give it. Frames run from
    0 through the last frame present. Every frame with detections is
    stepped, and a frame without detections only while the tracker holds
    a track: at most ``theta_miss + 1`` frames after each frame with
    detections, by when every track has been dropped. Without a track,
    an empty frame would change nothing and emit nothing. The result
    holds one ``FrameResult`` per frame stepped, in frame order.
    """
    tracker, results = Tracker(config), []
    frame = 0  # the first frame not yet stepped
    for stop in sorted(detections_by_frame):
        while frame < stop and len(tracker.ids):
            results.append(tracker.step(frame, []))
            frame += 1
        results.append(tracker.step(stop, detections_by_frame[stop]))
        frame = stop + 1
    return results
