"""CLEARMOT evaluation of tracking output against ground truth.

Each frame's objects are rows of a record array, read by their ``id``
and ``box`` (x, y, z, l, w, h, a) fields: a frame's slice of a
``read_kitti_labels`` table, whose ``score`` is NaN where the file has
no score column, or a ``FrameResult.tracks``. The evaluator scores a
whole sequence at once: ``geometry.bev_iou_matrices`` runs the overlap
kernel over every frame's candidate pairs together, then hands out one
BEV IoU matrix per frame, in row order, just before that frame is
matched.

Matching uses ground-plane rotated-rectangle IoU with a strict
threshold (a pair is allowed only when IoU exceeds it). Correspondences
persist: a pairing from the previous frame is kept while it stays
above the threshold. The remaining objects take, among their allowed
pairs, the matching with the most pairs and, among those, the largest
total IoU, the rule of the KITTI tracking devkit and py-motmetrics
(Bernardin & Stiefelhagen 2008). Between matchings equal in both, the
one ``scipy.optimize.linear_sum_assignment`` returns is taken.
Each frame is matched in turn and adds its rows to the sequence's match
table: every ground-truth row, and for each match its hypothesis id and
IoU. One array pass over that table counts the sequence. Identity
switches are counted against the most recent matched hypothesis of each
ground-truth trajectory, fragmentations whenever a trajectory resumes
being tracked after an interior gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import bev_iou_matrices
from .geometry import bev_iou  # noqa: F401  (a public name the benchmark counts)
from .io_formats import ROW_DTYPE, _first_repeat

DEFAULT_IOU_THRESHOLD = 0.5

MT_CUTOFF = 0.8
ML_CUTOFF = 0.2


@dataclass
class MotReport:
    """CLEARMOT counts and ratios, for one sequence or aggregated."""

    mota: float
    motp: float
    fp: int
    fn: int
    idsw: int
    frag: int
    mt: float
    pt: float
    ml: float
    num_gt_boxes: int
    num_gt_tracks: int
    tp: int
    mota_defined: bool

    @classmethod
    def from_counts(
        cls, fp, fn, idsw, frag, num_gt_boxes, num_gt_tracks, tp, iou_sum, mt, pt, ml
    ) -> "MotReport":
        """The CLEAR MOT report (Bernardin & Stiefelhagen 2008) of pooled
        counts: MOTA = 1 - (FP + FN + IDSW) / GT, 1 when there is no
        ground truth; MOTP = summed IoU of the matches / TP. ``mt``,
        ``pt`` and ``ml`` count ground-truth tracks."""
        mota_defined = num_gt_boxes > 0
        return cls(
            mota=1.0 - (fp + fn + idsw) / num_gt_boxes if mota_defined else 1.0,
            motp=iou_sum / tp if tp else 0.0,
            fp=fp,
            fn=fn,
            idsw=idsw,
            frag=frag,
            mt=mt / num_gt_tracks if num_gt_tracks else 0.0,
            pt=pt / num_gt_tracks if num_gt_tracks else 0.0,
            ml=ml / num_gt_tracks if num_gt_tracks else 0.0,
            num_gt_boxes=num_gt_boxes,
            num_gt_tracks=num_gt_tracks,
            tp=tp,
            mota_defined=mota_defined,
        )

    def as_dict(self) -> dict:
        return {
            "MOTA": self.mota,
            "MOTP": self.motp,
            "FP": self.fp,
            "FN": self.fn,
            "IDSW": self.idsw,
            "FRAG": self.frag,
            "MT": self.mt,
            "PT": self.pt,
            "ML": self.ml,
            "GT": self.num_gt_boxes,
            "GT_TRACKS": self.num_gt_tracks,
            "TP": self.tp,
            "MOTA_DEFINED": self.mota_defined,
        }


def match_frame(
    gt_ids: list[int],
    hyp_ids: list[int],
    iou: np.ndarray,
    prev_correspondence: dict[int, int],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> list[tuple[int, int]]:
    """Match one frame's ground truth to hypotheses, honoring continuity.

    ``iou`` is the frame's BEV IoU matrix, ground truth ``gt_ids`` (rows)
    against hypotheses ``hyp_ids`` (columns); ``prev_correspondence`` is
    the previous frame's {gt_id: hyp_id}. Surviving previous pairings
    are kept when still above the threshold. A pair at or below the
    threshold is forbidden; the rest get the matching of the most
    allowed pairs and then the largest total IoU. Ties between matchings
    equal in both go to the one ``linear_sum_assignment`` returns.
    Returns the matches as (gt row, hypothesis column) pairs: the kept
    pairings in the order of ``prev_correspondence``, then the new ones.
    """
    gt_row = {g: i for i, g in enumerate(gt_ids)}
    hyp_col = {h: j for j, h in enumerate(hyp_ids)}
    pairs: list[tuple[int, int]] = []
    for gt_id, hyp_id in prev_correspondence.items():
        if gt_id in gt_row and hyp_id in hyp_col:
            i, j = gt_row[gt_id], hyp_col[hyp_id]
            if iou[i, j] > iou_threshold:
                pairs.append((i, j))

    free_rows = sorted(set(range(len(gt_ids))) - {i for i, _ in pairs})
    free_cols = sorted(set(range(len(hyp_ids))) - {j for _, j in pairs})
    if free_rows and free_cols:
        free = iou[np.ix_(free_rows, free_cols)]
        allowed = free > iou_threshold
        # An allowed pair costs 1 - IoU, at most 1; a forbidden one costs
        # more than all the allowed pairs of an assignment together.
        cost = np.where(allowed, 1.0 - free, min(free.shape) + 1.0)
        for i, j in zip(*linear_sum_assignment(cost)):
            if allowed[i, j]:
                pairs.append((free_rows[i], free_cols[j]))
    return pairs


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
    that repeat. A frame absent from one side has no rows there.
    """
    for side, rows in (("ground truth", gt_frames), ("hypothesis", hyp_frames)):
        _check_ids_once(side, rows)
    none = np.zeros(0, ROW_DTYPE)
    frames = [
        (gt_frames.get(frame, none), hyp_frames.get(frame, none))
        for frame in sorted(set(gt_frames) | set(hyp_frames))
    ]
    ious = bev_iou_matrices((gt["box"], hyp["box"]) for gt, hyp in frames)
    # The match table: every ground-truth row of the sequence, frame by
    # frame, and for each match its row, hypothesis id and IoU, in order.
    gt_ids, matched_rows, matched_hyps, matched_ious = [], [], [], []
    num_hyp, prev = 0, {}
    for (gt, hyp), iou in zip(frames, ious):
        frame_gt, frame_hyp = gt["id"].tolist(), hyp["id"].tolist()
        pairs = match_frame(frame_gt, frame_hyp, iou, prev, iou_threshold)
        prev = {frame_gt[i]: frame_hyp[j] for i, j in pairs}
        matched_rows.extend(len(gt_ids) + i for i, _ in pairs)
        matched_hyps.extend(prev.values())
        matched_ious.extend(iou[i, j] for i, j in pairs)
        gt_ids.extend(frame_gt)
        num_hyp += len(frame_hyp)
    return _count(np.array(gt_ids, np.int64), matched_rows, matched_hyps, matched_ious, num_hyp)


def _count(gt_ids, matched_rows, matched_hyps, matched_ious, num_hyp) -> MotReport:
    """The CLEARMOT report of a match table (see ``evaluate_sequence``).

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
    iou_sum = float(np.add.accumulate([0.0] + matched_ious)[-1])
    return MotReport.from_counts(
        fp=num_hyp - tp, fn=len(gt_ids) - tp, idsw=idsw, frag=frag,
        num_gt_boxes=len(gt_ids), num_gt_tracks=len(present), tp=tp, iou_sum=iou_sum,
        mt=mt, pt=len(present) - mt - ml, ml=ml,
    )


def _check_ids_once(side: str, frames: dict[int, np.ndarray]) -> None:
    """Fail at the first id that repeats within a frame of one side."""
    ids = np.concatenate([np.zeros(0, np.int64)] + [rows["id"] for rows in frames.values()])
    frame_of = np.repeat(list(frames), [len(rows) for rows in frames.values()])
    i = _first_repeat(frame_of, ids)
    if i is not None:
        raise ValueError(f"{side} repeats id {ids[i]} in frame {frame_of[i]}")


def aggregate_reports(reports: list[MotReport]) -> MotReport:
    """Pool per-sequence counts into one overall report."""
    return MotReport.from_counts(
        fp=sum(r.fp for r in reports),
        fn=sum(r.fn for r in reports),
        idsw=sum(r.idsw for r in reports),
        frag=sum(r.frag for r in reports),
        num_gt_boxes=sum(r.num_gt_boxes for r in reports),
        num_gt_tracks=sum(r.num_gt_tracks for r in reports),
        tp=sum(r.tp for r in reports),
        iou_sum=sum(r.motp * r.tp for r in reports),
        mt=sum(r.mt * r.num_gt_tracks for r in reports),
        pt=sum(r.pt * r.num_gt_tracks for r in reports),
        ml=sum(r.ml * r.num_gt_tracks for r in reports),
    )


def format_report_table(reports: dict[str, MotReport]) -> str:
    """Aligned plain-text metric table, one row per sequence."""
    header = [
        "Sequence",
        "MOTA",
        "MOTP",
        "FP",
        "FN",
        "IDSW",
        "FRAG",
        "MT",
        "PT",
        "ML",
    ]
    rows = [header]
    for name, r in reports.items():
        rows.append(
            [
                name,
                f"{100.0 * r.mota:.2f}%",
                f"{100.0 * r.motp:.2f}%",
                str(r.fp),
                str(r.fn),
                str(r.idsw),
                str(r.frag),
                f"{100.0 * r.mt:.1f}%",
                f"{100.0 * r.pt:.1f}%",
                f"{100.0 * r.ml:.1f}%",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
