"""CLEAR MOT counts by the letter of the rules in ``mipmot.evaluation``.

The reference that ``evaluate_sequence`` is compared against
(Bernardin & Stiefelhagen 2008, *Evaluating Multiple Object Tracking
Performance: The CLEAR MOT Metrics*, with this repository's continuity
rule and strict threshold). Frame by frame, in ascending order:

* a ground-truth box and a hypothesis pair only when their ground-plane
  IoU exceeds the threshold;
* a pairing of the previous frame is kept while it stays above it;
* the remaining ground truth and hypotheses take, among all assignments
  of as many pairs as the smaller side holds (found here by trying every
  one), one that keeps the most pairs above the threshold and, among
  those, the largest total IoU of the kept pairs; its pairs at or below
  the threshold are dropped.

Then, per ground-truth trajectory, over the frames where it is present:
an identity switch is a match whose hypothesis differs from the one of
the trajectory's previous match, and a fragmentation is a match that
follows a frame where the trajectory, matched before, went unmatched.
A trajectory matched in at least 80% of its frames is mostly tracked,
in at most 20% mostly lost, and partly tracked otherwise.

Tie rule: when two assignments that keep the most pairs, with the
largest total IoU (equal within 1e-9), keep different pairs, the scipy
solver and this enumeration may pick different ones; ``match_frame``
raises ``TiedMatching`` then.
"""

import functools
import itertools
from fractions import Fraction

import exact_area
from mipmot.geometry import EPS

MT_SHARE = 0.8
ML_SHARE = 0.2


class TiedMatching(Exception):
    """Two assignments of the most kept pairs and the largest total IoU
    keep different pairs."""


def bev_iou(b1, b2) -> float:
    """Ground-plane IoU of two boxes (7-vectors) from their exact overlap,
    as the float nearest it."""
    return _bev_iou(tuple(b1), tuple(b2))


@functools.lru_cache(maxsize=1 << 14)
def _bev_iou(b1, b2) -> float:
    """``bev_iou`` of two box tuples. Each pair is scored once: the
    enumeration asks for the same pairs in many assignments."""
    inter = exact_area.area(b1, b2)
    if inter < EPS:
        inter = Fraction(0)
    union = Fraction(b1[3] * b1[4]) + Fraction(b2[3] * b2[4]) - inter
    return 0.0 if union <= EPS else float(min(1, inter / union))


def assignments(gts, hyps):
    """Every assignment of min(len(gts), len(hyps)) (gt, hyp) pairs."""
    if len(gts) <= len(hyps):
        for chosen in itertools.permutations(hyps, len(gts)):
            yield list(zip(gts, chosen))
    else:
        for chosen in itertools.permutations(gts, len(hyps)):
            yield list(zip(chosen, hyps))


def match_frame(gt, hyp, prev, threshold) -> dict:
    """{gt id: hyp id} of one frame, given the previous frame's."""
    corr = {
        g: h
        for g, h in prev.items()
        if g in gt and h in hyp and bev_iou(gt[g], hyp[h]) > threshold
    }
    free_gt = [g for g in gt if g not in corr]
    free_hyp = [h for h in hyp if h not in corr.values()]
    scored = []
    for pairs in assignments(free_gt, free_hyp):
        ious = [bev_iou(gt[g], hyp[h]) for g, h in pairs]
        kept = {(g, h): iou for (g, h), iou in zip(pairs, ious) if iou > threshold}
        scored.append((len(kept), sum(kept.values()), frozenset(kept)))
    most = max(count for count, _, _ in scored)
    best = max(total for count, total, _ in scored if count == most)
    kept_sets = {kept for count, total, kept in scored if count == most and total >= best - 1e-9}
    if len(kept_sets) > 1:
        raise TiedMatching
    corr.update(dict(kept_sets.pop()))
    return corr


def evaluate(gt_frames, hyp_frames, threshold) -> dict:
    """The counts and ratios of ``MotReport.as_dict`` but MOTA, for one
    sequence of {frame: {id: box}} on both sides."""
    history: dict[int, list] = {}  # gt id -> matched hyp id or None, per present frame
    fp = fn = tp = 0
    iou_sum = 0.0
    corr: dict = {}
    for frame in sorted(set(gt_frames) | set(hyp_frames)):
        gt, hyp = gt_frames.get(frame, {}), hyp_frames.get(frame, {})
        corr = match_frame(gt, hyp, corr, threshold)
        tp += len(corr)
        fp += len(hyp) - len(corr)
        fn += len(gt) - len(corr)
        iou_sum += sum(bev_iou(gt[g], hyp[h]) for g, h in corr.items())
        for g in gt:
            history.setdefault(g, []).append(corr.get(g))
    idsw = frag = mt = pt = ml = 0
    for hyps in history.values():
        matched = [h for h in hyps if h is not None]
        idsw += sum(a != b for a, b in zip(matched, matched[1:]))
        frag += sum(
            hyps[i] is not None and hyps[i - 1] is None and any(h is not None for h in hyps[:i])
            for i in range(1, len(hyps))
        )
        share = len(matched) / len(hyps)
        if share >= MT_SHARE:
            mt += 1
        elif share <= ML_SHARE:
            ml += 1
        else:
            pt += 1
    tracks = len(history)
    return {
        "MOTP": iou_sum / tp if tp else 0.0,
        "FP": fp,
        "FN": fn,
        "IDSW": idsw,
        "FRAG": frag,
        "MT": mt / tracks if tracks else 0.0,
        "PT": pt / tracks if tracks else 0.0,
        "ML": ml / tracks if tracks else 0.0,
        "GT": sum(len(gt) for gt in gt_frames.values()),
        "GT_TRACKS": tracks,
        "TP": tp,
    }
