"""CLEARMOT evaluation of tracking output against ground truth.

Matching uses ground-plane rotated-rectangle IoU with a strict
threshold (a pair counts only when IoU exceeds it). Correspondences
persist: a pairing from the previous frame is kept while it stays
above the threshold, and only the remaining objects enter the
maximum-total-IoU bipartite matching. Identity switches are counted
against the most recent matched hypothesis of each ground-truth
trajectory, fragmentations whenever a trajectory resumes being tracked
after an interior gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Box3D, bev_iou_matrix
from .geometry import bev_iou  # noqa: F401  (a public name the benchmark counts)

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


def frame_iou_matrix(
    gt_boxes: dict[int, Box3D], hyp_boxes: dict[int, Box3D]
) -> np.ndarray:
    """BEV IoU of every ground-truth box (rows) against every hypothesis
    (columns), both in dict order."""
    return bev_iou_matrix(
        [b.to_array() for b in gt_boxes.values()],
        [b.to_array() for b in hyp_boxes.values()],
    )


def match_frame(
    gt_boxes: dict[int, Box3D],
    hyp_boxes: dict[int, Box3D],
    prev_correspondence: dict[int, int],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    iou: np.ndarray | None = None,
) -> dict[int, int]:
    """Match one frame's ground truth to hypotheses, honoring continuity.

    Surviving previous pairings are kept when still above the
    threshold; everything else is matched to maximize total IoU, with
    pairs at or below the threshold rejected. ``iou`` is the frame's
    ``frame_iou_matrix``, computed here when not given. Returns
    {gt_id: hyp_id}.
    """
    if iou is None:
        iou = frame_iou_matrix(gt_boxes, hyp_boxes)
    gt_row = {g: i for i, g in enumerate(gt_boxes)}
    hyp_col = {h: j for j, h in enumerate(hyp_boxes)}
    correspondence: dict[int, int] = {}
    taken_hyps: set[int] = set()
    for gt_id, hyp_id in prev_correspondence.items():
        if gt_id in gt_row and hyp_id in hyp_col:
            if iou[gt_row[gt_id], hyp_col[hyp_id]] > iou_threshold:
                correspondence[gt_id] = hyp_id
                taken_hyps.add(hyp_id)

    free_gt = [g for g in gt_boxes if g not in correspondence]
    free_hyp = [h for h in hyp_boxes if h not in taken_hyps]
    if free_gt and free_hyp:
        free = iou[np.ix_([gt_row[g] for g in free_gt], [hyp_col[h] for h in free_hyp])]
        rows, cols = linear_sum_assignment(free, maximize=True)
        for i, j in zip(rows, cols):
            if free[i, j] > iou_threshold:
                correspondence[free_gt[i]] = free_hyp[j]
    return correspondence


@dataclass
class _GtTrackState:
    present: int = 0
    matched: int = 0
    last_hyp: int | None = None
    in_gap: bool = False
    ever_matched: bool = False


@dataclass
class Accumulator:
    """Streams frames of one sequence and accumulates CLEARMOT counts."""

    iou_threshold: float = DEFAULT_IOU_THRESHOLD
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    frag: int = 0
    num_gt_boxes: int = 0
    tp: int = 0
    iou_sum: float = 0.0
    _tracks: dict[int, _GtTrackState] = field(default_factory=dict)
    _prev: dict[int, int] = field(default_factory=dict)

    def update(self, gt_boxes: dict[int, Box3D], hyp_boxes: dict[int, Box3D]):
        iou = frame_iou_matrix(gt_boxes, hyp_boxes)
        corr = match_frame(gt_boxes, hyp_boxes, self._prev, self.iou_threshold, iou)
        self.num_gt_boxes += len(gt_boxes)
        self.fp += len(hyp_boxes) - len(corr)
        self.fn += len(gt_boxes) - len(corr)
        self.tp += len(corr)
        gt_row = {g: i for i, g in enumerate(gt_boxes)}
        hyp_col = {h: j for j, h in enumerate(hyp_boxes)}
        for gt_id, hyp_id in corr.items():
            self.iou_sum += float(iou[gt_row[gt_id], hyp_col[hyp_id]])
        for gt_id in gt_boxes:
            st = self._tracks.setdefault(gt_id, _GtTrackState())
            st.present += 1
            if gt_id in corr:
                hyp_id = corr[gt_id]
                st.matched += 1
                if st.last_hyp is not None and st.last_hyp != hyp_id:
                    self.idsw += 1
                if st.ever_matched and st.in_gap:
                    self.frag += 1
                st.last_hyp = hyp_id
                st.in_gap = False
                st.ever_matched = True
            elif st.ever_matched:
                st.in_gap = True
        self._prev = corr

    def report(self) -> MotReport:
        mt = pt = ml = 0
        for st in self._tracks.values():
            ratio = st.matched / st.present if st.present else 0.0
            if ratio >= MT_CUTOFF:
                mt += 1
            elif ratio <= ML_CUTOFF:
                ml += 1
            else:
                pt += 1
        return MotReport.from_counts(
            fp=self.fp, fn=self.fn, idsw=self.idsw, frag=self.frag,
            num_gt_boxes=self.num_gt_boxes, num_gt_tracks=len(self._tracks),
            tp=self.tp, iou_sum=self.iou_sum, mt=mt, pt=pt, ml=ml,
        )


def evaluate_sequence(
    gt_frames: dict[int, dict[int, Box3D]],
    hyp_frames: dict[int, dict[int, Box3D]],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> MotReport:
    """Evaluate one sequence given {frame: {id: box}} on both sides."""
    acc = Accumulator(iou_threshold=iou_threshold)
    frames = sorted(set(gt_frames) | set(hyp_frames))
    for frame in frames:
        acc.update(gt_frames.get(frame, {}), hyp_frames.get(frame, {}))
    return acc.report()


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
