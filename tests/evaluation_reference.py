"""The evaluator's frame-by-frame loop, kept as the reference that
``mipmot.evaluation.evaluate_sequence`` is compared against.

Every frame, in ascending order, goes through ``match_frame`` with its
candidate pairs and the previous frame's matches, and appends its
matches to the match table in the order ``match_frame`` returns them.
``evaluate_sequence`` sends only its contested frames through
``match_frame`` and sorts the table once; its ``MotReport`` must equal
this one field for field, the IoU sum to the bit.
"""

import numpy as np

from mipmot.evaluation import _count, match_frame
from mipmot.geometry import bev_iou_matrices
from mipmot.io_formats import ROW_DTYPE

_NONE = np.zeros(0, ROW_DTYPE)


def evaluate_sequence(gt_frames, hyp_frames, iou_threshold):
    """The ``MotReport`` of {frame: rows} on both sides, every frame
    matched by ``match_frame`` in turn. Ids are taken to be distinct
    within each frame."""
    frames = sorted(set(gt_frames) | set(hyp_frames))
    gt_ids, gt_boxes, gt_start = _side(gt_frames, frames)
    hyp_ids, hyp_boxes, hyp_start = _side(hyp_frames, frames)
    pairs = bev_iou_matrices(zip(gt_boxes, hyp_boxes))
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


def _side(frames, order):
    """One side's ids, its frames' boxes, and the start of each frame's
    ids, over the frames in ``order``."""
    rows = [np.asarray(frames.get(frame, _NONE)) for frame in order]
    ids = np.concatenate([_NONE["id"]] + [r["id"] for r in rows])
    return ids, [r["box"] for r in rows], np.cumsum([0] + [len(r) for r in rows])
