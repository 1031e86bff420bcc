import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import clearmot_oracle
import exact_area
from clearmot_oracle import bev_iou as oracle_bev_iou
from exact_area import within
from pair_oracle import assert_same_pairs, brute_force_pairs
from mipmot.evaluation import (
    aggregate_reports,
    evaluate_sequence,
    format_report_table,
    match_frame,
)
from mipmot import geometry
from mipmot.cli import labels_to_frames
from mipmot.config import TrackerConfig
from mipmot.geometry import bev_iou_matrices
from mipmot.io_formats import read_kitti_labels, write_kitti_labels, write_kitti_tracking
from mipmot.simgen import generate, scenario_template
from mipmot.tracker import run_sequence
import tables
from tables import rows


def box(x, y, l=4.0, w=2.0, a=0.0):
    return tables.box(x, y, 0.75, l, w, 1.5, a)


def straight_run(n, x0=0.0, dx=1.0, y=0.0):
    return {frame: box(x0 + dx * frame, y) for frame in range(n)}


def as_frames(per_id):
    """{id: {frame: box}} -> {frame: {id: box}}"""
    frames = {}
    for obj_id, traj in per_id.items():
        for frame, b in traj.items():
            frames.setdefault(frame, {})[obj_id] = b
    return frames


def evaluate(gt, hyp, iou_threshold=0.5):
    """evaluate_sequence of {frame: {id: box}} on both sides."""
    gt_rows = {frame: rows(boxes) for frame, boxes in gt.items()}
    hyp_rows = {frame: rows(boxes) for frame, boxes in hyp.items()}
    return evaluate_sequence(gt_rows, hyp_rows, iou_threshold)


def match(gt_boxes, hyp_boxes, prev, iou_threshold=0.5):
    """match_frame of {id: box} on both sides, given the frame's pairs
    the evaluator scores and the previous matches {gt_id: hyp_id}, as
    {gt_id: hyp_id} in match order."""
    gt, hyp = rows(gt_boxes), rows(hyp_boxes)
    pairs = bev_iou_matrices([(gt["box"], hyp["box"])])
    prev_gt, prev_hyp = (np.array(list(ids), np.int64) for ids in (prev, prev.values()))
    m = match_frame(
        gt["id"], hyp["id"], pairs.rows, pairs.cols, pairs.ious, prev_gt, prev_hyp, iou_threshold
    )
    return dict(zip(gt["id"][pairs.rows[m]].tolist(), hyp["id"][pairs.cols[m]].tolist()))


class TestMatchFrame:
    def test_identity(self):
        gt = {0: box(0, 0), 1: box(20, 0)}
        corr = match(gt, dict(gt), {})
        assert corr == {0: 0, 1: 1}

    def test_below_threshold_rejected(self):
        gt = {0: box(0, 0)}
        hyp = {5: box(3.0, 0)}  # IoU 1/7 on a 4m box
        assert match(gt, hyp, {}) == {}

    def test_threshold_is_strict(self):
        # 3m boxes shifted by 1m overlap 2/3 of their area: IoU is
        # exactly 0.5 in float arithmetic and must be rejected.
        gt = {0: box(0, 0, l=3.0)}
        hyp = {1: box(1.0, 0, l=3.0)}
        assert match(gt, hyp, {}) == {}
        barely = {1: box(0.999, 0, l=3.0)}
        assert match(gt, barely, {}) == {0: 1}

    def test_pairs_at_or_below_threshold_forbidden_before_assigning(self):
        # IoUs [[0.494, 0.526], [0.203, 0.435]]: the assignment of the
        # largest total IoU over all pairs keeps no pair above 0.5
        gt = {0: box(-0.83, -1.18, 3.46, 3.33, -0.65), 1: box(-0.25, -0.70, 3.50, 1.48, 0.10)}
        hyp = {10: box(-0.65, -1.83, 3.68, 2.08, 0.16), 11: box(-0.67, -1.29, 2.54, 2.40, 1.45)}
        assert match(gt, hyp, {}) == {0: 11}
        report = evaluate({0: gt}, {0: hyp})
        assert (report.tp, report.fn, report.fp) == (1, 1, 1)

    def test_most_pairs_before_largest_total(self):
        # 4m boxes: IoU 1 for gt 0 and hyp 10, 3/13 for the pairs 2.5m apart
        gt = {0: box(0.0, 0), 1: box(2.5, 0)}
        hyp = {10: box(0.0, 0), 11: box(-2.5, 0)}
        assert match(gt, hyp, {}, iou_threshold=0.1) == {0: 11, 1: 10}
        assert match(gt, hyp, {}, iou_threshold=0.3) == {0: 10}

    def test_previous_correspondence_survives(self):
        # both pairings are valid; the established one must be kept even
        # though the crossed pairing has larger total IoU
        gt = {0: box(0.0, 0), 1: box(1.2, 0)}
        hyp = {10: box(0.4, 0), 11: box(0.8, 0)}
        fresh = match(gt, hyp, {})
        assert fresh == {0: 10, 1: 11}
        kept = match(gt, hyp, {0: 11, 1: 10})
        assert kept == {0: 11, 1: 10}

    def test_empty_sides(self):
        assert match({}, {0: box(0, 0)}, {}) == {}
        assert match({0: box(0, 0)}, {}, {}) == {}


class TestPinnedMatching:
    """Ties and continuity across frames, which the oracle skips
    (``TiedMatching``) or does not isolate."""

    @pytest.mark.parametrize(
        "gt_order, hyp_order, expected",
        [
            ([1, 2, 3], [10, 11, 12], [(1, 10), (2, 11), (3, 12)]),
            ([1, 2, 3], [11, 10, 12], [(1, 11), (2, 10), (3, 12)]),
            ([3, 2, 1], [10, 11, 12], [(3, 12), (2, 10), (1, 11)]),
        ],
    )
    def test_tie_goes_by_row_and_column_order(self, gt_order, hyp_order, expected):
        # two coincident ground-truth boxes against two coincident
        # hypotheses: both pairings total IoU 2, so the assignment's
        # order decides; a far pair shares their free block
        gt = {1: box(0, 0), 2: box(0, 0), 3: box(30, 0)}
        hyp = {10: box(0, 0), 11: box(0, 0), 12: box(30.4, 0)}
        got = match({g: gt[g] for g in gt_order}, {h: hyp[h] for h in hyp_order}, {})
        assert list(got.items()) == expected
        report = evaluate({0: gt, 1: gt}, {0: hyp, 1: {h: hyp[h] for h in hyp_order}})
        assert (report.tp, report.idsw) == (6, 0)

    def test_new_matches_in_row_order_around_a_tied_block(self):
        # rows 0 and 3 each have one pair; rows 1 and 2 are two coincident
        # boxes against two coincident hypotheses, a tie the assignment
        # decides by its order
        gt = {1: box(-30, 0), 2: box(0, 0), 3: box(0, 0), 4: box(30, 0)}
        hyp = {10: box(-30.4, 0), 11: box(0, 0), 12: box(0, 0), 13: box(30.4, 0)}
        got = match(gt, hyp, {})
        assert list(got.items()) == [(1, 10), (2, 11), (3, 12), (4, 13)]

    def test_kept_in_previous_order_then_new(self):
        gt = {0: box(0, 0), 1: box(10, 0), 2: box(20, 0), 3: box(30, 0)}
        hyp = {13: box(30, 0), 12: box(20, 0), 11: box(10, 0), 10: box(0, 0)}
        # gt 3's pairing is gone from this frame's hypotheses, so gt 3 is free
        prev = {2: 12, 0: 10, 3: 99}
        got = match(gt, hyp, prev)
        assert list(got.items()) == [(2, 12), (0, 10), (1, 11), (3, 13)]

    # Frame 0 pairs gt 0 with hyp 11 and gt 1 with hyp 10; in the last
    # frame the crossed pairing has the larger total IoU, so only a
    # carried pairing keeps the identities.
    FIRST = ({0: box(0.0, 0), 1: box(1.2, 0)}, {11: box(0.0, 0), 10: box(1.2, 0)})
    LAST = ({0: box(0.0, 0), 1: box(1.2, 0)}, {10: box(0.4, 0), 11: box(0.8, 0)})

    def test_pairing_carries_across_a_frame_absent_from_both_sides(self):
        (gt0, hyp0), (gt2, hyp2) = self.FIRST, self.LAST
        report = evaluate({0: gt0, 2: gt2}, {0: hyp0, 2: hyp2})
        assert (report.tp, report.idsw, report.frag) == (4, 0, 0)
        assert match(gt2, hyp2, match(gt0, hyp0, {})) == {0: 11, 1: 10}

    @pytest.mark.parametrize("side", ["ground truth", "hypothesis"])
    def test_frame_on_one_side_only_clears_the_pairings(self, side):
        (gt0, hyp0), (gt2, hyp2) = self.FIRST, self.LAST
        gt, hyp = {0: gt0, 2: gt2}, {0: hyp0, 2: hyp2}
        if side == "ground truth":
            gt[1] = gt0
        else:
            hyp[1] = hyp0
        report = evaluate(gt, hyp)
        assert report.tp == 4 and report.idsw == 2
        assert (report.fn, report.fp, report.frag) == (
            (2, 0, 2) if side == "ground truth" else (0, 2, 0)
        )


class TestCrowdedFrames:
    def test_crossing_columns_without_a_dense_block(self):
        # two crossing columns of 1,500 cars each, 3 frames, scored against
        # themselves: every pair is alone in its row and column, so no
        # (rows x columns) block may be built for the 3,000 matches a frame
        k = np.arange(1500, dtype=float)
        one = np.zeros((1500, 7))
        one[:, 1], one[:, 3:6] = 6.0 * k - 4500.0, (4.0, 1.8, 1.5)
        other = one.copy()
        other[:, 0], other[:, 1] = 6.0 * k - 4497.0, 3.0
        frame = tables.rows(dict(enumerate(np.concatenate([one, other]))))
        frames = {f: frame for f in range(3)}
        tracemalloc.start()
        try:
            report = evaluate_sequence(frames, frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.mota == report.motp == 1.0 and report.tp == 9000
        assert peak < 20e6


class TestThresholdRule:
    """The threshold is a number in [0, 1], by the rule of the config's
    ``eval_iou_threshold``; each entry point checks it."""

    BAD = [-0.5, 1.5, float("nan"), float("inf"), "0.5", True, None]

    @pytest.mark.parametrize("threshold", BAD)
    def test_rejected_with_the_config_message(self, threshold):
        with pytest.raises(ValueError) as config_error:
            TrackerConfig(eval_iou_threshold=threshold)
        message = str(config_error.value).replace("eval_iou_threshold", "iou_threshold")
        one = {0: {1: box(0, 0)}}
        with pytest.raises(ValueError) as error:
            evaluate(one, one, threshold)
        assert str(error.value) == message
        with pytest.raises(ValueError) as error:
            match(one[0], one[0], {}, threshold)
        assert str(error.value) == message

    def test_far_pair_at_a_negative_threshold(self):
        # a zero IoU passed "> -0.5", so this far pair scored TP 1
        gt, hyp = {0: {1: box(0, 0)}}, {0: {2: box(100, 0)}}
        with pytest.raises(ValueError, match=r"^iou_threshold must be a number in \[0, 1\]"):
            evaluate(gt, hyp, -0.5)
        report = evaluate(gt, hyp, 0.0)
        assert (report.tp, report.fn, report.fp) == (0, 1, 1)

    @pytest.mark.parametrize("threshold", [0, 0.0, 1, 1.0, np.float64(0.5)])
    def test_bounds_accepted(self, threshold):
        one = {0: {1: box(0, 0)}}
        assert evaluate(one, one, threshold).tp == (0 if threshold == 1 else 1)


def oracle_match_frame(gt_boxes, hyp_boxes, prev, iou_threshold=0.5):
    """match_frame with one exact-area IoU per pair, in the pairs' order."""
    corr, taken = {}, set()
    for g, h in prev.items():
        if g in gt_boxes and h in hyp_boxes:
            if oracle_bev_iou(gt_boxes[g], hyp_boxes[h]) > iou_threshold:
                corr[g] = h
                taken.add(h)
    free_gt = [g for g in gt_boxes if g not in corr]
    free_hyp = [h for h in hyp_boxes if h not in taken]
    if free_gt and free_hyp:
        iou = np.array(
            [[oracle_bev_iou(gt_boxes[g], hyp_boxes[h]) for h in free_hyp] for g in free_gt]
        )
        allowed = iou > iou_threshold
        cost = np.where(allowed, 1.0 - iou, min(iou.shape) + 1.0)
        for i, j in zip(*linear_sum_assignment(cost)):
            if allowed[i, j]:
                corr[free_gt[i]] = free_hyp[j]
    return corr


def assert_frame_pairs(gt_boxes, hyp_boxes):
    """The frame's pairs the evaluator scores are the brute-force ones."""
    frame = [(rows(gt_boxes)["box"], rows(hyp_boxes)["box"])]
    assert_same_pairs(bev_iou_matrices(frame), brute_force_pairs(frame))


@st.composite
def frames(draw):
    """Ground truth near each other, hypotheses that jitter, drop or add
    boxes, and a previous correspondence with stale and swapped ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 8))
    gt = {
        int(g): tables.box(
            *rng.uniform(-6, 6, 2), 0.75, *rng.uniform(1, 5, 2), 1.5, rng.uniform(-3, 3)
        )
        for g in rng.permutation(20)[:n]
    }
    hyp = {}
    for g, b in gt.items():
        if rng.random() < 0.8:
            dx, dy, da = rng.normal(0, 0.4, 3)
            hyp[100 + g] = tables.box(b[0] + dx, b[1] + dy, *b[2:6], b[6] + da)
    for k in range(int(rng.integers(0, 3))):
        hyp[200 + k] = tables.box(*rng.uniform(-6, 6, 2), 0.75, 4, 2, 1.5, rng.uniform(-3, 3))
    hyp_ids = list(hyp) + [999]
    prev = {g: int(rng.choice(hyp_ids)) for g in list(gt) + [77] if rng.random() < 0.5}
    return gt, hyp, prev


class TestMatchFrameOracle:
    @settings(max_examples=150, deadline=None)
    @given(frames(), st.sampled_from([0.1, 0.5, 0.7]))
    def test_same_mapping_as_scalar_iou_loop(self, frame, threshold):
        gt, hyp, prev = frame
        expected = oracle_match_frame(gt, hyp, prev, threshold)
        assert match(gt, hyp, prev, threshold) == expected

    @settings(max_examples=150, deadline=None)
    @given(frames(), st.sampled_from([0.1, 0.5, 0.7]))
    def test_tree_query_same_mapping(self, frame, threshold):
        gt, hyp, prev = frame
        expected = oracle_match_frame(gt, hyp, prev, threshold)
        assert_frame_pairs(gt, hyp)
        assert match(gt, hyp, prev, threshold) == expected

    @pytest.mark.parametrize("scene", ["far", "empty gt", "empty hyp", "coincident"])
    def test_tree_query_scenes(self, scene):
        gt = {g: box(50.0 * g, 0.0, a=0.3 * g) for g in range(5)}
        hyp = {10 + g: box(b[0] + 0.3, 0.2, a=b[6] + 0.1) for g, b in gt.items()}
        if scene == "far":
            hyp = {10 + g: box(b[0] + 25.0, 0.0) for g, b in gt.items()}
        elif scene == "empty gt":
            gt = {}
        elif scene == "empty hyp":
            hyp = {}
        else:
            hyp = {10 + g: box(b[0], b[1], l=2.5, w=3.0, a=1.0) for g, b in gt.items()}
        assert_frame_pairs(gt, hyp)
        got = match(gt, hyp, {}, 0.1)
        assert got == oracle_match_frame(gt, hyp, {}, 0.1)
        assert len(got) == {"far": 0, "empty gt": 0, "empty hyp": 0, "coincident": 5}[scene]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(frames(), min_size=1, max_size=4))
    def test_iou_sum_adds_scalar_ious_in_match_order(self, sequence):
        """MOTP is the one-pair IoUs of the matches added one by one, in
        frame order and each frame's match order, over TP: bit for bit.
        Each of those IoUs lies in the exact reference's bounds."""
        prev, iou_sum, tp = {}, 0.0, 0
        for gt, hyp, _ in sequence:
            prev = oracle_match_frame(gt, hyp, prev)
            for g, h in prev.items():
                iou = geometry.bev_iou(gt[g], hyp[h])
                assert within(iou, exact_area.iou_bounds(gt[g], hyp[h]))
                iou_sum += iou
            tp += len(prev)
        gt_frames = {f: gt for f, (gt, _, _) in enumerate(sequence)}
        hyp_frames = {f: hyp for f, (_, hyp, _) in enumerate(sequence)}
        report = evaluate(gt_frames, hyp_frames)
        assert report.tp == tp
        assert report.motp == (iou_sum / tp if tp else 0.0)


@st.composite
def sequences(draw):
    """Up to 8 frames of at most 4 ground-truth and 4 hypothesis boxes.
    Ground-truth objects drift, overlap and blink; hypotheses follow
    them with jitter, sometimes under another object's id, and stray
    boxes come and go. Some frames are absent from one side or both."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = rng.uniform(-4, 4, (4, 2))
    velocity = rng.normal(0, 0.8, (4, 2))
    sizes = rng.uniform(1, 5, (4, 2))
    headings = rng.uniform(-3, 3, 4)
    gt_frames, hyp_frames = {}, {}
    for f in range(draw(st.integers(1, 8))):
        gt = {}
        for g in range(4):
            if rng.random() < 0.8:
                x, y = start[g] + f * velocity[g]
                gt[g] = tables.box(x, y, 0.75, *sizes[g], 1.5, headings[g] + 0.1 * f)
        hyp = {}
        for g, b in gt.items():
            h = 10 + (g if rng.random() < 0.8 else int(rng.integers(0, 4)))
            if rng.random() < 0.8 and h not in hyp:
                dx, dy, da = rng.normal(0, 0.4, 3)
                hyp[h] = tables.box(b[0] + dx, b[1] + dy, *b[2:6], b[6] + da)
        while len(hyp) < 4 and rng.random() < 0.3:
            hyp[20 + len(hyp)] = box(*rng.uniform(-5, 5, 2), a=rng.uniform(-3, 3))
        if rng.random() < 0.9:
            gt_frames[f] = gt
        if rng.random() < 0.9:
            hyp_frames[f] = hyp
    return gt_frames, hyp_frames


class TestClearMotOracle:
    """The evaluator against tests/clearmot_oracle.py, which matches each
    frame by trying every assignment."""

    @settings(max_examples=300, deadline=None)
    @given(sequences(), st.sampled_from([0.1, 0.3, 0.5, 0.7]))
    def test_same_counts(self, sequence, threshold):
        gt_frames, hyp_frames = sequence
        try:
            expected = clearmot_oracle.evaluate(gt_frames, hyp_frames, threshold)
        except clearmot_oracle.TiedMatching:
            assume(False)
        got = evaluate(gt_frames, hyp_frames, threshold).as_dict()
        assert got.pop("MOTP") == pytest.approx(expected.pop("MOTP"), rel=1e-12)
        assert {k: got[k] for k in expected} == expected


class TestAccumulate:
    def test_perfect_tracking(self):
        gt = as_frames({0: straight_run(10), 1: straight_run(10, y=10.0)})
        rep = evaluate(gt, gt)
        assert rep.mota == 1.0
        assert rep.motp == pytest.approx(1.0)
        assert (rep.fp, rep.fn, rep.idsw, rep.frag) == (0, 0, 0, 0)
        assert rep.mt == 1.0

    def test_missing_hypothesis_counts_fn(self):
        gt = as_frames({0: straight_run(5)})
        rep = evaluate(gt, {})
        assert rep.fn == 5
        assert rep.mota == pytest.approx(0.0)

    def test_extra_hypothesis_counts_fp(self):
        gt = as_frames({0: straight_run(5)})
        hyp = as_frames({0: straight_run(5), 99: straight_run(5, y=50.0)})
        rep = evaluate(gt, hyp)
        assert rep.fp == 5
        assert rep.mota == pytest.approx(0.0)

    def test_id_swap_counts_once(self):
        gt = as_frames({0: straight_run(10)})
        first = {f: b for f, b in straight_run(5).items()}
        second = {f: b for f, b in straight_run(10).items() if f >= 5}
        hyp = as_frames({1: first, 2: second})
        rep = evaluate(gt, hyp)
        assert rep.idsw == 1
        assert rep.fn == 0

    def test_id_switch_across_gap(self):
        gt = as_frames({0: straight_run(10)})
        hyp = as_frames(
            {
                1: {f: b for f, b in straight_run(10).items() if f < 4},
                2: {f: b for f, b in straight_run(10).items() if f >= 6},
            }
        )
        rep = evaluate(gt, hyp)
        assert rep.idsw == 1  # counted against the most recent match
        assert rep.frag == 1

    def test_fragmentation_same_id(self):
        traj = straight_run(10)
        gt = as_frames({0: traj})
        hyp = as_frames({7: {f: b for f, b in traj.items() if f not in (4, 5)}})
        rep = evaluate(gt, hyp)
        assert rep.frag == 1
        assert rep.idsw == 0
        assert rep.fn == 2

    def test_consistent_relabeling_changes_nothing(self):
        rng = np.random.default_rng(91)
        gt = as_frames(
            {
                i: straight_run(20, x0=30.0 * i, dx=float(rng.uniform(0.2, 1)), y=8.0 * i)
                for i in range(4)
            }
        )
        hyp = as_frames(
            {
                i + 100: straight_run(20, x0=30.0 * i, dx=0.0, y=8.0 * i)
                for i in range(4)
            }
        )
        base = evaluate(gt, hyp)
        relabeled = {
            f: {tid + 777: b for tid, b in frame.items()} for f, frame in hyp.items()
        }
        again = evaluate(gt, relabeled)
        assert base.as_dict() == again.as_dict()

    def test_mt_pt_ml_partition(self):
        gt = as_frames(
            {
                0: straight_run(10),            # fully tracked
                1: straight_run(10, y=20.0),    # half tracked
                2: straight_run(10, y=40.0),    # once tracked
            }
        )
        hyp = as_frames(
            {
                0: straight_run(10),
                1: {f: b for f, b in straight_run(10, y=20.0).items() if f < 5},
                2: {f: b for f, b in straight_run(10, y=40.0).items() if f < 1},
            }
        )
        rep = evaluate(gt, hyp)
        assert rep.mt == pytest.approx(1 / 3)
        assert rep.pt == pytest.approx(1 / 3)
        assert rep.ml == pytest.approx(1 / 3)
        assert rep.mt + rep.pt + rep.ml == pytest.approx(1.0, abs=1e-9)

    def test_fp_injection_never_raises_mota(self):
        rng = np.random.default_rng(97)
        gt = as_frames({0: straight_run(20), 1: straight_run(20, y=15.0)})
        clean = evaluate(gt, gt)
        noisy = {}
        for i, (f, frame) in enumerate(gt.items()):
            extended = dict(frame)
            extended[500 + i] = box(rng.uniform(50, 90), rng.uniform(-40, 40))
            noisy[f] = extended
        rep = evaluate(gt, noisy)
        assert rep.mota <= clean.mota

    def test_zero_gt_flagged(self):
        rep = evaluate({}, as_frames({1: straight_run(3)}))
        assert not rep.mota_defined
        assert rep.mota == 1.0
        assert rep.fp == 3

    @pytest.mark.parametrize("side", ["ground truth", "hypothesis"])
    def test_repeated_id_in_a_frame_rejected(self, side):
        # one id at two boxes of a frame: matching by id merged the two
        # rows and scored FP 1, FN 1 and GT_TRACKS 1 without an error
        twice = np.concatenate([rows({1: box(0, 0)}), rows({1: box(10, 0)})])
        repeated = {2: rows({1: box(0, 0)}), 3: twice}
        distinct = {3: rows({5: box(0, 0), 6: box(10, 0)})}
        gt, hyp = (repeated, distinct) if side == "ground truth" else (distinct, repeated)
        with pytest.raises(ValueError, match=f"^{side} repeats id 1 in frame 3$"):
            evaluate_sequence(gt, hyp)

    def test_one_kernel_call_per_sequence(self):
        gt = as_frames({0: straight_run(10), 1: straight_run(10, y=3.0)})
        hyp = as_frames({5: straight_run(10, x0=0.5), 6: straight_run(10, y=3.5)})
        kernel = geometry.bev_intersection_areas
        with mock.patch.object(geometry, "bev_intersection_areas", wraps=kernel) as calls:
            report = evaluate(gt, hyp)
        assert calls.call_count == 1
        assert (report.tp, report.fp, report.fn) == (20, 0, 0)

    def test_frag_lower_bound_invariant(self):
        rng = np.random.default_rng(113)
        traj = straight_run(30)
        gt = as_frames({0: traj, 1: straight_run(30, y=12.0)})
        # drop random interior windows from each hypothesis trajectory
        hyp_trajs = {}
        interrupted = 0
        for i, y in enumerate((0.0, 12.0)):
            drop = set(rng.integers(5, 25, size=3).tolist())
            hyp_trajs[50 + i] = {
                f: b for f, b in straight_run(30, y=y).items() if f not in drop
            }
            interrupted += 1
        rep = evaluate(gt, as_frames(hyp_trajs))
        assert rep.frag >= interrupted


class TestAggregate:
    def test_counts_pool(self):
        gt1 = as_frames({0: straight_run(10)})
        gt2 = as_frames({0: straight_run(6, y=30.0)})
        r1 = evaluate(gt1, gt1)
        r2 = evaluate(gt2, {})
        agg = aggregate_reports([r1, r2])
        assert agg.num_gt_boxes == 16
        assert agg.fn == 6
        assert agg.mota == pytest.approx(1.0 - 6 / 16)
        assert agg.num_gt_tracks == 2
        assert agg.mt == pytest.approx(0.5)

    def test_table_formatting(self):
        gt = as_frames({0: straight_run(4)})
        rep = evaluate(gt, gt)
        table = format_report_table({"seq0": rep})
        assert "MOTA" in table and "seq0" in table and "100.00%" in table


COUNTS = ("FP", "FN", "IDSW", "FRAG", "GT", "GT_TRACKS", "TP")


def joined(pool):
    """The sequences of ``pool`` one after another as one sequence, each
    in frames and ids of its own."""
    gt_frames, hyp_frames = {}, {}
    for i, sides in enumerate(pool):
        for joined_side, side in zip((gt_frames, hyp_frames), sides):
            for frame, boxes in side.items():
                joined_side[100 * i + frame] = {1000 * i + j: b for j, b in boxes.items()}
    return gt_frames, hyp_frames


def bits(report):
    """``as_dict`` with each float as its hex and each value's type."""
    return {
        k: (type(v), v.hex() if isinstance(v, float) else v) for k, v in report.as_dict().items()
    }


class TestPooling:
    """aggregate_reports adds the counts and IoU sums of its reports and
    works out the ratios from the sums."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(sequences(), max_size=4), st.sampled_from([0.1, 0.5]))
    def test_pool_is_the_report_of_the_sums(self, pool, threshold):
        reports = [evaluate(gt, hyp, threshold) for gt, hyp in pool]
        pooled = aggregate_reports(reports)
        got = pooled.as_dict()
        for key in COUNTS:
            assert got[key] == sum(r.as_dict()[key] for r in reports), key
        tp, iou_sum = got["TP"], sum(r.iou_sum for r in reports)
        assert pooled.iou_sum == iou_sum
        assert got["MOTP"] == (iou_sum / tp if tp else 0.0)
        gt, errors = got["GT"], got["FP"] + got["FN"] + got["IDSW"]
        assert got["MOTA"] == (1.0 - errors / gt if gt else 1.0)
        assert got["MOTA_DEFINED"] is (gt > 0)
        tracks = got["GT_TRACKS"]
        for key in ("MT", "PT", "ML"):
            share = sum(r.as_dict()[key] * r.num_gt_tracks for r in reports)
            assert got[key] == pytest.approx(share / tracks if tracks else 0.0, rel=1e-12)
        assert pooled.num_mt + pooled.num_pt + pooled.num_ml == tracks

    @settings(max_examples=100, deadline=None)
    @given(st.lists(sequences(), max_size=4), st.sampled_from([0.1, 0.5]))
    def test_pool_scores_as_the_joined_sequences(self, pool, threshold):
        pooled = aggregate_reports([evaluate(gt, hyp, threshold) for gt, hyp in pool])
        whole = evaluate(*joined(pool), threshold).as_dict()
        got = pooled.as_dict()
        assert got.pop("MOTP") == pytest.approx(whole.pop("MOTP"), rel=1e-12)
        assert got == whole

    @settings(max_examples=50, deadline=None)
    @given(sequences(), st.sampled_from([0.1, 0.5]))
    def test_pool_of_one_is_its_report(self, sequence, threshold):
        report = evaluate(*sequence, threshold)
        pooled = aggregate_reports([report])
        assert pooled == report
        assert bits(pooled) == bits(report)

    def test_pool_of_none(self):
        got = aggregate_reports([]).as_dict()
        assert all(got[key] == 0 for key in COUNTS)
        assert (got["MOTA"], got["MOTP"], got["MT"], got["PT"], got["ML"]) == (1.0, 0, 0, 0, 0)
        assert got["MOTA_DEFINED"] is False


class TestRowsFromFileToScore:
    def test_no_box_built_from_file_to_score(self, tmp_path):
        """Reading a label and a result file, grouping their rows by frame
        and scoring them: the boxes stay arrays, one record array of rows
        per frame, from file to score."""
        labels, detections = generate(scenario_template("clutter", seed=0))
        write_kitti_labels(labels, tmp_path / "labels.txt")
        write_kitti_tracking(run_sequence(detections), tmp_path / "results.txt")
        gt = labels_to_frames(read_kitti_labels(tmp_path / "labels.txt"))
        hyp = labels_to_frames(read_kitti_labels(tmp_path / "results.txt"))
        for frame in (*gt.values(), *hyp.values()):
            assert frame["box"].dtype == np.float64 and frame["box"].shape == (len(frame), 7)
        report = evaluate_sequence(gt, hyp)
        assert report.num_gt_boxes == len(labels) and report.tp > 0
