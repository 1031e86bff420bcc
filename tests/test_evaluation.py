from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from clip_oracle import convex_polygon_intersection_area
from diou_oracle import bev_corners
from mipmot.evaluation import (
    Accumulator,
    aggregate_reports,
    evaluate_sequence,
    format_report_table,
    match_frame,
)
from mipmot import geometry
from mipmot.geometry import EPS, Box3D


def box(x, y, l=4.0, w=2.0, a=0.0):
    return Box3D(x, y, 0.75, l, w, 1.5, a)


def straight_run(n, x0=0.0, dx=1.0, y=0.0):
    return {frame: box(x0 + dx * frame, y) for frame in range(n)}


def as_frames(per_id):
    """{id: {frame: box}} -> {frame: {id: box}}"""
    frames = {}
    for obj_id, traj in per_id.items():
        for frame, b in traj.items():
            frames.setdefault(frame, {})[obj_id] = b
    return frames


class TestMatchFrame:
    def test_identity(self):
        gt = {0: box(0, 0), 1: box(20, 0)}
        corr = match_frame(gt, dict(gt), {})
        assert corr == {0: 0, 1: 1}

    def test_below_threshold_rejected(self):
        gt = {0: box(0, 0)}
        hyp = {5: box(3.0, 0)}  # IoU 1/7 on a 4m box
        assert match_frame(gt, hyp, {}) == {}

    def test_threshold_is_strict(self):
        # 3m boxes shifted by 1m overlap 2/3 of their area: IoU is
        # exactly 0.5 in float arithmetic and must be rejected.
        gt = {0: box(0, 0, l=3.0)}
        hyp = {1: box(1.0, 0, l=3.0)}
        assert match_frame(gt, hyp, {}) == {}
        barely = {1: box(0.999, 0, l=3.0)}
        assert match_frame(gt, barely, {}) == {0: 1}

    def test_previous_correspondence_survives(self):
        # both pairings are valid; the established one must be kept even
        # though the crossed pairing has larger total IoU
        gt = {0: box(0.0, 0), 1: box(1.2, 0)}
        hyp = {10: box(0.4, 0), 11: box(0.8, 0)}
        fresh = match_frame(gt, hyp, {})
        assert fresh == {0: 10, 1: 11}
        kept = match_frame(gt, hyp, {0: 11, 1: 10})
        assert kept == {0: 11, 1: 10}

    def test_empty_sides(self):
        assert match_frame({}, {0: box(0, 0)}, {}) == {}
        assert match_frame({0: box(0, 0)}, {}, {}) == {}


def oracle_bev_iou(b1: Box3D, b2: Box3D) -> float:
    inter = convex_polygon_intersection_area(bev_corners(b1), bev_corners(b2))
    union = b1.l * b1.w + b2.l * b2.w - inter
    return 0.0 if union <= EPS else min(1.0, max(0.0, inter / union))


def oracle_match_frame(gt_boxes, hyp_boxes, prev, iou_threshold=0.5):
    """match_frame with one scalar IoU per pair, in the pairs' order."""
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
        for i, j in zip(*linear_sum_assignment(iou, maximize=True)):
            if iou[i, j] > iou_threshold:
                corr[free_gt[i]] = free_hyp[j]
    return corr


@st.composite
def frames(draw):
    """Ground truth near each other, hypotheses that jitter, drop or add
    boxes, and a previous correspondence with stale and swapped ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 8))
    gt = {
        int(g): Box3D(
            *rng.uniform(-6, 6, 2), 0.75, *rng.uniform(1, 5, 2), 1.5, rng.uniform(-3, 3)
        )
        for g in rng.permutation(20)[:n]
    }
    hyp = {}
    for g, b in gt.items():
        if rng.random() < 0.8:
            dx, dy, da = rng.normal(0, 0.4, 3)
            hyp[100 + g] = Box3D(b.x + dx, b.y + dy, b.z, b.l, b.w, b.h, b.a + da)
    for k in range(int(rng.integers(0, 3))):
        hyp[200 + k] = Box3D(*rng.uniform(-6, 6, 2), 0.75, 4, 2, 1.5, rng.uniform(-3, 3))
    hyp_ids = list(hyp) + [999]
    prev = {g: int(rng.choice(hyp_ids)) for g in list(gt) + [77] if rng.random() < 0.5}
    return gt, hyp, prev


class TestMatchFrameOracle:
    @settings(max_examples=150, deadline=None)
    @given(frames(), st.sampled_from([0.1, 0.5, 0.7]))
    def test_same_mapping_as_scalar_iou_loop(self, frame, threshold):
        gt, hyp, prev = frame
        expected = oracle_match_frame(gt, hyp, prev, threshold)
        assert match_frame(gt, hyp, prev, threshold) == expected

    @settings(max_examples=150, deadline=None)
    @given(frames(), st.sampled_from([0.1, 0.5, 0.7]))
    def test_tree_query_same_mapping(self, frame, threshold):
        gt, hyp, prev = frame
        expected = oracle_match_frame(gt, hyp, prev, threshold)
        # the k-d tree query at every size, not only beyond the size where it pays off
        with mock.patch.object(geometry, "_TREE_MIN_PAIRS", 0):
            assert match_frame(gt, hyp, prev, threshold) == expected

    @pytest.mark.parametrize("scene", ["far", "empty gt", "empty hyp", "coincident"])
    def test_tree_query_scenes(self, scene):
        gt = {g: box(50.0 * g, 0.0, a=0.3 * g) for g in range(5)}
        hyp = {10 + g: box(b.x + 0.3, 0.2, a=b.a + 0.1) for g, b in gt.items()}
        if scene == "far":
            hyp = {10 + g: box(b.x + 25.0, 0.0) for g, b in gt.items()}
        elif scene == "empty gt":
            gt = {}
        elif scene == "empty hyp":
            hyp = {}
        else:
            hyp = {10 + g: box(b.x, b.y, l=2.5, w=3.0, a=1.0) for g, b in gt.items()}
        with mock.patch.object(geometry, "_TREE_MIN_PAIRS", 0):
            got = match_frame(gt, hyp, {}, 0.1)
        assert got == oracle_match_frame(gt, hyp, {}, 0.1)
        assert len(got) == {"far": 0, "empty gt": 0, "empty hyp": 0, "coincident": 5}[scene]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(frames(), min_size=1, max_size=4))
    def test_iou_sum_adds_scalar_ious_in_match_order(self, sequence):
        acc = Accumulator()
        prev, iou_sum = {}, 0.0
        for gt, hyp, _ in sequence:
            acc.update(gt, hyp)
            prev = oracle_match_frame(gt, hyp, prev)
            for g, h in prev.items():
                iou_sum += oracle_bev_iou(gt[g], hyp[h])
        assert acc.iou_sum == iou_sum


class TestAccumulate:
    def test_perfect_tracking(self):
        gt = as_frames({0: straight_run(10), 1: straight_run(10, y=10.0)})
        rep = evaluate_sequence(gt, gt)
        assert rep.mota == 1.0
        assert rep.motp == pytest.approx(1.0)
        assert (rep.fp, rep.fn, rep.idsw, rep.frag) == (0, 0, 0, 0)
        assert rep.mt == 1.0

    def test_missing_hypothesis_counts_fn(self):
        gt = as_frames({0: straight_run(5)})
        rep = evaluate_sequence(gt, {})
        assert rep.fn == 5
        assert rep.mota == pytest.approx(0.0)

    def test_extra_hypothesis_counts_fp(self):
        gt = as_frames({0: straight_run(5)})
        hyp = as_frames({0: straight_run(5), 99: straight_run(5, y=50.0)})
        rep = evaluate_sequence(gt, hyp)
        assert rep.fp == 5
        assert rep.mota == pytest.approx(0.0)

    def test_id_swap_counts_once(self):
        gt = as_frames({0: straight_run(10)})
        first = {f: b for f, b in straight_run(5).items()}
        second = {f: b for f, b in straight_run(10).items() if f >= 5}
        hyp = as_frames({1: first, 2: second})
        rep = evaluate_sequence(gt, hyp)
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
        rep = evaluate_sequence(gt, hyp)
        assert rep.idsw == 1  # counted against the most recent match
        assert rep.frag == 1

    def test_fragmentation_same_id(self):
        traj = straight_run(10)
        gt = as_frames({0: traj})
        hyp = as_frames({7: {f: b for f, b in traj.items() if f not in (4, 5)}})
        rep = evaluate_sequence(gt, hyp)
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
        base = evaluate_sequence(gt, hyp)
        relabeled = {
            f: {tid + 777: b for tid, b in frame.items()} for f, frame in hyp.items()
        }
        again = evaluate_sequence(gt, relabeled)
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
        rep = evaluate_sequence(gt, hyp)
        assert rep.mt == pytest.approx(1 / 3)
        assert rep.pt == pytest.approx(1 / 3)
        assert rep.ml == pytest.approx(1 / 3)
        assert rep.mt + rep.pt + rep.ml == pytest.approx(1.0, abs=1e-9)

    def test_fp_injection_never_raises_mota(self):
        rng = np.random.default_rng(97)
        gt = as_frames({0: straight_run(20), 1: straight_run(20, y=15.0)})
        clean = evaluate_sequence(gt, gt)
        noisy = {}
        for i, (f, frame) in enumerate(gt.items()):
            extended = dict(frame)
            extended[500 + i] = box(rng.uniform(50, 90), rng.uniform(-40, 40))
            noisy[f] = extended
        rep = evaluate_sequence(gt, noisy)
        assert rep.mota <= clean.mota

    def test_zero_gt_flagged(self):
        rep = evaluate_sequence({}, as_frames({1: straight_run(3)}))
        assert not rep.mota_defined
        assert rep.mota == 1.0
        assert rep.fp == 3

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
        rep = evaluate_sequence(gt, as_frames(hyp_trajs))
        assert rep.frag >= interrupted


class TestAggregate:
    def test_counts_pool(self):
        gt1 = as_frames({0: straight_run(10)})
        gt2 = as_frames({0: straight_run(6, y=30.0)})
        r1 = evaluate_sequence(gt1, gt1)
        r2 = evaluate_sequence(gt2, {})
        agg = aggregate_reports([r1, r2])
        assert agg.num_gt_boxes == 16
        assert agg.fn == 6
        assert agg.mota == pytest.approx(1.0 - 6 / 16)
        assert agg.num_gt_tracks == 2
        assert agg.mt == pytest.approx(0.5)

    def test_table_formatting(self):
        gt = as_frames({0: straight_run(4)})
        rep = evaluate_sequence(gt, gt)
        table = format_report_table({"seq0": rep})
        assert "MOTA" in table and "seq0" in table and "100.00%" in table


class TestAccumulatorStreaming:
    def test_matches_batch_evaluation(self):
        gt = as_frames({0: straight_run(8), 1: straight_run(8, y=9.0)})
        hyp = as_frames({5: straight_run(8), 6: straight_run(8, y=9.0)})
        acc = Accumulator()
        for frame in sorted(gt):
            acc.update(gt[frame], hyp.get(frame, {}))
        assert acc.report().as_dict() == evaluate_sequence(gt, hyp).as_dict()
