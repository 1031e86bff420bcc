"""CLEARMOT evaluation of tracking output against ground truth.

Each frame's objects are rows of a record array, read by their ``id``
and ``box`` (x, y, z, l, w, h, a) fields: a frame's slice of a
``read_kitti_labels`` table, whose ``score`` is NaN where the file has
no score column, or a ``FrameResult.tracks``. The evaluator scores a
whole sequence at once: ``geometry.bev_iou_matrices`` runs the overlap
kernel over every frame's candidate pairs together and gives their
IoUs as one pair list, cut by frame. No frame's IoU matrix is built.

Matching uses ground-plane rotated-rectangle IoU with a strict
threshold (a pair is allowed only when IoU exceeds it), a number in
[0, 1] by the rule of the config's ``eval_iou_threshold``.
Correspondences persist: a pairing from the previous frame is kept
while it stays allowed. The remaining objects take, among their allowed
pairs, the matching with the most pairs and, among those, the largest
total IoU, the rule of the KITTI tracking devkit and py-motmetrics
(Bernardin & Stiefelhagen 2008): the maximum-weight matching of
``association.assign_pairs``, each free allowed pair weighing its IoU
plus one more than the number of free allowed pairs, so that one more
pair outweighs any total IoU. Between matchings equal in both, the one
``assign_pairs`` returns is taken.
Each frame is matched in turn, from its pairs and the previous frame's
matches as id arrays, and adds its matches to the sequence's match
table: for each match its ground-truth row, hypothesis id and IoU, as
arrays. One array pass over that table and every ground-truth row
counts the sequence. Identity switches are counted against the most
recent matched hypothesis of each ground-truth trajectory,
fragmentations whenever a trajectory resumes being tracked after an
interior gap. A ``MotReport`` keeps the counts and works out its ratios
when read, so pooled sequences add their counts field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .association import assign_pairs
from .config import DEFAULT_IOU_THRESHOLD, UNIT
from .geometry import bev_iou_matrices
from .geometry import bev_iou  # noqa: F401  (a public name the benchmark counts)
from .io_formats import ROW_DTYPE, _repeat_rule

# the rows of a frame absent from one side
_NONE = np.zeros(0, ROW_DTYPE)

MT_CUTOFF = 0.8
ML_CUTOFF = 0.2

# The report's headline metrics, in order, each with its table cell: a
# ratio as a percentage, a count as it is. ``MotReport`` has each as its
# lower-case attribute, and the sweep's CSV names its columns so.
METRICS = {
    "MOTA": "{:.2%}".format,
    "MOTP": "{:.2%}".format,
    "FP": str,
    "FN": str,
    "IDSW": str,
    "FRAG": str,
    "MT": "{:.1%}".format,
    "PT": "{:.1%}".format,
    "ML": "{:.1%}".format,
}


@dataclass
class MotReport:
    """CLEARMOT counts, for one sequence or pooled, and the CLEAR MOT
    ratios (Bernardin & Stiefelhagen 2008) worked out from them:
    MOTA = 1 - (FP + FN + IDSW) / GT, 1 when there is no ground truth;
    MOTP = summed IoU of the matches / TP; ``mt``, ``pt`` and ``ml`` the
    shares of the ground-truth tracks mostly tracked, partly tracked and
    mostly lost."""

    fp: int
    fn: int
    idsw: int
    frag: int
    num_gt_boxes: int
    num_gt_tracks: int
    tp: int
    iou_sum: float
    num_mt: int
    num_pt: int
    num_ml: int

    @property
    def mota_defined(self) -> bool:
        return self.num_gt_boxes > 0

    @property
    def mota(self) -> float:
        errors = self.fp + self.fn + self.idsw
        return 1.0 - errors / self.num_gt_boxes if self.mota_defined else 1.0

    @property
    def motp(self) -> float:
        return self.iou_sum / self.tp if self.tp else 0.0

    def _share(self, tracks: int) -> float:
        return tracks / self.num_gt_tracks if self.num_gt_tracks else 0.0

    @property
    def mt(self) -> float:
        return self._share(self.num_mt)

    @property
    def pt(self) -> float:
        return self._share(self.num_pt)

    @property
    def ml(self) -> float:
        return self._share(self.num_ml)

    def as_dict(self) -> dict:
        """The ``METRICS``, in their order, then the counts behind them."""
        return {
            **{name: getattr(self, name.lower()) for name in METRICS},
            "GT": self.num_gt_boxes,
            "GT_TRACKS": self.num_gt_tracks,
            "TP": self.tp,
            "MOTA_DEFINED": self.mota_defined,
        }


def match_frame(
    gt_ids: np.ndarray,
    hyp_ids: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    ious: np.ndarray,
    prev_gt: np.ndarray,
    prev_hyp: np.ndarray,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> np.ndarray:
    """Match one frame's ground truth to hypotheses, honoring continuity.

    ``gt_ids`` and ``hyp_ids`` are the frame's ids, one per row; its
    pairs are ground-truth row ``rows[k]``, hypothesis row ``cols[k]``
    and their BEV IoU ``ious[k]``, and a pair not listed scores 0, as
    in ``geometry.IouPairs``. ``prev_gt[k]`` and ``prev_hyp[k]`` are the
    ids of the previous frame's k-th match. A pair is allowed when its
    IoU exceeds ``iou_threshold``, a number in [0, 1] (else ValueError).
    The previous matches still allowed are kept; the free rows and
    columns take the matching of the most allowed pairs and then the
    largest total IoU: ``association.assign_pairs`` over the free
    allowed pairs, each weighing ``iou + (len(free) + 1)``. No matching
    holds more than ``len(free)`` pairs, so one more pair outweighs any
    total IoU. Ties between matchings equal in both go to the one it
    returns. Returns the matches as indices of the frame's pairs: the
    kept ones in the previous frame's match order, then the new ones in
    ground-truth row order.
    """
    iou_threshold = UNIT("iou_threshold", iou_threshold)
    allowed = (ious > iou_threshold).nonzero()[0]
    rows, cols = rows[allowed], cols[allowed]
    kept = _kept(gt_ids[rows], hyp_ids[cols], prev_gt, prev_hyp)
    matches = allowed[kept]
    if len(kept) == len(allowed):  # every allowed pair is kept: none is free
        return matches
    taken_row = np.zeros(len(gt_ids), bool)
    taken_row[rows[kept]] = True
    taken_col = np.zeros(len(hyp_ids), bool)
    taken_col[cols[kept]] = True
    new = (~(taken_row[rows] | taken_col[cols])).nonzero()[0]
    weight = ious[allowed[new]] + (len(new) + 1.0)
    new = new[assign_pairs(rows[new], cols[new], weight, len(gt_ids), len(hyp_ids))]
    return np.concatenate((matches, allowed[new[rows[new].argsort()]]))


def _kept(pair_gt, pair_hyp, prev_gt, prev_hyp) -> np.ndarray:
    """Indices of the pairs, given by their ground-truth and hypothesis
    ids, that are matches of the previous frame, in its match order."""
    if not len(prev_gt) or not len(pair_gt):
        return np.zeros(0, np.intp)
    # the previous match of each pair's ground truth, if it has one
    order = prev_gt.argsort()
    at = order.take(prev_gt.searchsorted(pair_gt, sorter=order), mode="wrap")
    hit = ((prev_gt[at] == pair_gt) & (prev_hyp[at] == pair_hyp)).nonzero()[0]
    return hit[at[hit].argsort()]


def evaluate_sequence(
    gt_frames: dict[int, np.ndarray],
    hyp_frames: dict[int, np.ndarray],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> MotReport:
    """Evaluate one sequence given {frame: rows} on both sides.

    A frame's rows are a record array with at least the fields ``id``
    and ``box`` (x, y, z, l, w, h, a), such as a slice of a
    ``read_kitti_labels`` table or a ``FrameResult.tracks``; each id
    appears once in a frame, or ValueError names the side, frame and id
    that repeat. A frame absent from one side has no rows there. The
    frames are matched in ascending order, each against the one before
    it, and ``iou_threshold`` is a number in [0, 1] (else ValueError).
    """
    iou_threshold = UNIT("iou_threshold", iou_threshold)
    frames = sorted(set(gt_frames) | set(hyp_frames))
    gt_ids, gt_boxes, gt_start = _side("ground truth", gt_frames, frames)
    hyp_ids, hyp_boxes, hyp_start = _side("hypothesis", hyp_frames, frames)
    pairs = bev_iou_matrices(zip(gt_boxes, hyp_boxes))
    # The match table: for each match of the sequence, frame by frame and
    # in match order, its ground-truth row, hypothesis id and IoU.
    matched_rows, matched_hyps, matched_ious = [], [], []
    prev_gt = prev_hyp = np.zeros(0, np.int64)
    p, g, h = pairs.start.tolist(), gt_start.tolist(), hyp_start.tolist()
    for f in range(len(frames)):
        frame_gt, frame_hyp = gt_ids[g[f] : g[f + 1]], hyp_ids[h[f] : h[f + 1]]
        rows, cols = pairs.rows[p[f] : p[f + 1]], pairs.cols[p[f] : p[f + 1]]
        ious = pairs.ious[p[f] : p[f + 1]]
        m = match_frame(frame_gt, frame_hyp, rows, cols, ious, prev_gt, prev_hyp, iou_threshold)
        rows = rows[m]
        prev_gt, prev_hyp = frame_gt[rows], frame_hyp[cols[m]]
        matched_rows.append(rows + g[f])
        matched_hyps.append(prev_hyp)
        matched_ious.append(ious[m])
    return _count(
        gt_ids,
        np.concatenate([np.zeros(0, np.intp)] + matched_rows),
        np.concatenate([np.zeros(0, np.int64)] + matched_hyps),
        np.concatenate([np.zeros(0)] + matched_ious),
        len(hyp_ids),
    )


def _side(side: str, frames: dict[int, np.ndarray], order: list) -> tuple:
    """One side's ids and the start of each frame's, over the frames in
    ``order`` (a frame it lacks has no rows), and its frames' boxes.
    Fails at the first id that repeats within a frame."""
    rows = [np.asarray(frames.get(frame, _NONE)) for frame in order]
    counts = [len(r) for r in rows]
    ids = np.concatenate([_NONE["id"]] + [r["id"] for r in rows])
    frame_of = np.repeat(order, counts)
    repeats, _ = _repeat_rule(frame_of, ids)
    if repeats.any():
        i = repeats.argmax()
        raise ValueError(f"{side} repeats id {ids[i]} in frame {frame_of[i]}")
    return ids, [r["box"] for r in rows], np.cumsum([0] + counts)


def _count(gt_ids, matched_rows, matched_hyps, matched_ious, num_hyp) -> MotReport:
    """The CLEARMOT report of a match table (see ``evaluate_sequence``):
    every ground-truth id of the sequence, frame by frame, and for each
    match its row among them, hypothesis id and IoU, as arrays.

    A stable sort by ground-truth id lays out each trajectory in frame
    order. Among its matched rows, one whose previous matched row has
    another hypothesis is an identity switch, and one with unmatched
    rows since its previous matched row is a fragmentation.
    """
    matched = np.zeros(len(gt_ids), bool)
    matched[matched_rows] = True
    hyp_of = np.zeros(len(gt_ids), np.int64)
    hyp_of[matched_rows] = matched_hyps
    order = np.argsort(gt_ids, kind="stable")
    ids, matched, hyp_of = gt_ids[order], matched[order], hyp_of[order]
    at = np.flatnonzero(matched)
    same_track = ids[at[1:]] == ids[at[:-1]]
    idsw = int(np.count_nonzero(same_track & (hyp_of[at[1:]] != hyp_of[at[:-1]])))
    frag = int(np.count_nonzero(same_track & (np.diff(at) > 1)))
    _, track, present = np.unique(ids, return_inverse=True, return_counts=True)
    ratio = np.bincount(track, weights=matched, minlength=len(present)) / present
    mt = int(np.count_nonzero(ratio >= MT_CUTOFF))
    ml = int(np.count_nonzero(ratio <= ML_CUTOFF))
    tp = len(matched_rows)
    # np.add.accumulate adds left to right, in match order; np.sum would
    # add pairwise and move the last bits of MOTP
    iou_sum = float(np.add.accumulate(np.concatenate(([0.0], matched_ious)))[-1])
    return MotReport(
        fp=num_hyp - tp, fn=len(gt_ids) - tp, idsw=idsw, frag=frag,
        num_gt_boxes=len(gt_ids), num_gt_tracks=len(present), tp=tp, iou_sum=iou_sum,
        num_mt=mt, num_pt=len(present) - mt - ml, num_ml=ml,
    )


def aggregate_reports(reports: list[MotReport]) -> MotReport:
    """Pool per-sequence reports into one overall report: each count,
    and the IoU sum, added over the sequences."""
    return MotReport(
        **{f.name: sum(getattr(r, f.name) for r in reports) for f in fields(MotReport)}
    )


def format_report_table(reports: dict[str, MotReport]) -> str:
    """Aligned plain-text metric table, one row per sequence."""
    rows = [["Sequence", *METRICS]]
    for name, r in reports.items():
        rows.append([name, *(cell(getattr(r, m.lower())) for m, cell in METRICS.items())])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)
