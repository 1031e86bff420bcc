import hashlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from clip_oracle import convex_polygon_intersection_area
from diou_oracle import (
    bev_corners,
    diou_affinity,
    distance_term,
    iou_3d,
    raw_appearance_score,
    volume,
)
from mipmot import affinity as affinity_module
from mipmot.affinity import (
    compute_affinities,
    motion_affinity_matrix,
    raw_appearance_matrix,
    softmax_ranking,
)
from mipmot.association import (
    AssociationProblem,
    affinity_needed,
    objective_coefficients,
    solve_mip,
)
from mipmot.config import TrackerConfig
from mipmot.geometry import EPS, Box3D
from mipmot.io_formats import Detection

MOTION_ONLY = TrackerConfig(beta_over_alpha=math.inf)


def box_array(boxes) -> np.ndarray:
    return np.array([b.to_array() for b in boxes]).reshape(-1, 7)


def make_track(track_id, box, embedding=None) -> SimpleNamespace:
    """What the tracker passes per track: its predicted box and embedding."""
    return SimpleNamespace(
        id=track_id,
        box=box,
        embedding=None if embedding is None else np.asarray(embedding, float),
    )


def stacked(embeddings):
    """Per-row embeddings as the (K, D) array the tracker passes, or None
    when any row lacks one."""
    if any(e is None for e in embeddings):
        return None
    return np.asarray(embeddings, dtype=float)


def affinities(dets, tracks, cfg=TrackerConfig(), **kwargs):
    return compute_affinities(
        box_array([d.box for d in dets]),
        box_array([t.box for t in tracks]),
        stacked([d.embedding for d in dets]),
        stacked([t.embedding for t in tracks]),
        cfg,
        **kwargs,
    )


def make_det(box, score=1.0, embedding=None) -> Detection:
    return Detection(frame=0, box=box, score=score, embedding=embedding)


# sha256 of the dense refined matrix, the gated refined values and the
# gated pairs of ``pinned_frame``, per beta_over_alpha: the fused
# affinities byte for byte, since the golden result files move only when
# an association flips.
PINNED_REFINED = {
    0.7: "7d6f8013c0f20232ccd7a26ed42cc2577ddc6813a4ed6c0d097ef8d6d760e290",
    3.0: "e5373a455620138fd0458e2e45ae0bd597f81708ccb0e243c3df6a0158a8f8dc",
    10.0: "222f790b6670b1686bd0e3137f281ad2fa8b7ff48600bd119825642a664ddf38",
}


def pinned_frame():
    """50 tracks and 45 detections, each 0.5 m off a track, with 16-D
    embeddings and the needs of mixed confidences; the gate cuts it at
    every pinned ratio."""
    rng = np.random.default_rng(2108)
    tracks = np.column_stack(
        (
            rng.uniform(-200, 200, (50, 2)),
            rng.uniform(-1, 1, 50),
            rng.uniform(1.0, 4.0, (50, 3)),
            rng.uniform(-3, 3, 50),
        )
    )
    dets = tracks[rng.integers(0, 50, 45)].copy()
    dets[:, :3] += rng.normal(0.0, 0.5, (45, 3))
    det_emb = rng.normal(size=(45, 16))
    trk_emb = rng.normal(size=(50, 16))
    costs = (100.0, 22.0, 1.0)
    need = (
        affinity_needed(rng.uniform(0.85, 1.0, 45), np.full(45, 0.5), *costs),
        affinity_needed(rng.uniform(0.85, 1.0, 50), np.full(50, 0.5), *costs),
    )
    return dets, tracks, det_emb, trk_emb, need


class TestWeights:
    """alpha = 1 / (1 + r) and beta = 1 - alpha for r = ``beta_over_alpha``,
    as recorded on the returned AffinityMatrix."""

    def weights(self, ratio):
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0)
        out = affinities(
            [make_det(box, embedding=[1.0])],
            [make_track(1, box, embedding=[1.0])],
            TrackerConfig(beta_over_alpha=ratio),
        )
        return out.alpha, out.beta

    def test_paper_ratio(self):
        alpha, beta = self.weights(10.0)
        assert alpha == pytest.approx(1.0 / 11.0)
        assert beta == pytest.approx(10.0 / 11.0)

    def test_motion_only(self):
        assert self.weights(math.inf) == (0.0, 1.0)

    def test_appearance_only(self):
        assert self.weights(0.0) == (1.0, 0.0)


@pytest.mark.parametrize("ratio", sorted(PINNED_REFINED))
def test_refined_bytes_pinned(ratio):
    dets, tracks, det_emb, trk_emb, need = pinned_frame()
    cfg = TrackerConfig(beta_over_alpha=ratio)
    dense = compute_affinities(dets, tracks, det_emb, trk_emb, cfg)
    with mock.patch.object(affinity_module, "_GATE_MIN_PAIRS", 0):
        gated = compute_affinities(dets, tracks, det_emb, trk_emb, cfg, need=need)
    digest = hashlib.sha256()
    for array in (dense.refined, gated.refined, *gated.pairs):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == PINNED_REFINED[ratio]


class TestRawAppearance:
    def test_identical_is_zero(self):
        e = np.array([0.3, -1.2, 5.0])
        assert raw_appearance_score(e, e) == 0.0

    def test_direct_arithmetic(self):
        assert raw_appearance_score([1.0, 1.0], [0.0, 3.0]) == pytest.approx(-1.5)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = rng.normal(size=8), rng.normal(size=8)
            assert raw_appearance_score(a, b) == raw_appearance_score(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            raw_appearance_score([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(19)
        dets = rng.normal(size=(4, 6))
        trks = rng.normal(size=(3, 6))
        mat = raw_appearance_matrix(dets, trks)
        for i in range(4):
            for j in range(3):
                assert mat[i, j] == pytest.approx(
                    raw_appearance_score(dets[i], trks[j]), abs=1e-12
                )


class TestSoftmaxRanking:
    def test_singleton(self):
        np.testing.assert_allclose(softmax_ranking([[7.3]]), [[1.0]])
        np.testing.assert_allclose(softmax_ranking([[-100.0]]), [[1.0]])

    def test_symmetric_two_by_two(self):
        # direct e^2 / (e^2 + 1) evaluation
        p = math.exp(2.0) / (math.exp(2.0) + 1.0)
        expected = [[p, 1 - p], [1 - p, p]]
        np.testing.assert_allclose(
            softmax_ranking([[2.0, 0.0], [0.0, 2.0]]), expected, atol=1e-9
        )
        assert p == pytest.approx(0.8808, abs=1e-4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(29)
        raw = rng.normal(size=(5, 7))
        np.testing.assert_allclose(
            softmax_ranking(raw), softmax_ranking(raw + 17.5), atol=1e-9
        )

    def test_matches_scipy_softmax_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            m, n = rng.integers(1, 51), rng.integers(1, 51)
            raw = rng.normal(size=(m, n)) * rng.uniform(0.1, 40)
            P = softmax(raw, axis=0)
            Q = softmax(raw, axis=1)
            np.testing.assert_allclose(P.sum(axis=0), 1.0, atol=1e-9)
            np.testing.assert_allclose(Q.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(softmax_ranking(raw), 0.5 * (P + Q), atol=1e-12)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(43)
        out = softmax_ranking(rng.normal(size=(10, 12)) * 5)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_empty(self):
        assert softmax_ranking(np.zeros((0, 0))).shape == (0, 0)

    def test_monotone_in_raw_entry(self):
        rng = np.random.default_rng(51)
        raw = rng.normal(size=(4, 4))
        base = softmax_ranking(raw)
        bumped = raw.copy()
        bumped[2, 1] += 0.7
        out = softmax_ranking(bumped)
        assert out[2, 1] >= base[2, 1]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax_ranking([[np.inf, 0.0]])


def _box(seed: int) -> Box3D:
    """A box near the origin, often overlapping others, sometimes flat,
    square-on or quarter-turned."""
    rng = np.random.default_rng(seed)
    l, w, h = rng.choice([0.0, 1.0, 2.0, *rng.uniform(0.5, 4, 3)], 3)
    a = rng.choice([0.0, math.pi / 2, rng.uniform(-3, 3)])
    return Box3D(*rng.uniform(-3, 3, 3), l, w, h, a)


class TestMotionMatrix:
    def test_matches_scalar_geometry(self):
        rng = np.random.default_rng(61)

        def rand_box():
            return Box3D(
                *rng.uniform(-6, 6, 3), *rng.uniform(0.5, 4, 3), rng.uniform(-3, 3)
            )

        dets = [rand_box() for _ in range(7)]
        trks = [rand_box() for _ in range(5)]
        d_arr, t_arr = box_array(dets), box_array(trks)
        full = motion_affinity_matrix(d_arr, t_arr)
        dis = motion_affinity_matrix(d_arr, t_arr, use_iou=False)
        iou = motion_affinity_matrix(d_arr, t_arr, use_dis=False)
        for i, d in enumerate(dets):
            for j, t in enumerate(trks):
                assert full[i, j] == pytest.approx(diou_affinity(d, t), abs=1e-12)
                assert dis[i, j] == pytest.approx(distance_term(d, t), abs=1e-12)
                assert iou[i, j] == pytest.approx(iou_3d(d, t), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.builds(_box, st.integers(0, 2**32 - 1)), max_size=6),
        st.lists(st.builds(_box, st.integers(0, 2**32 - 1)), max_size=6),
    )
    def test_iou_term_equals_scalar_clip_per_pair(self, dets, trks):
        """The batched IoU term, bit for bit, against one scalar clip per pair."""
        expected = np.zeros((len(dets), len(trks)))
        for i, d in enumerate(dets):
            for j, t in enumerate(trks):
                lo = max(d.z - 0.5 * d.h, t.z - 0.5 * t.h)
                dz = min(d.z + 0.5 * d.h, t.z + 0.5 * t.h) - lo
                if dz <= 0.0:
                    continue
                inter = convex_polygon_intersection_area(bev_corners(d), bev_corners(t)) * dz
                union = volume(d) + volume(t) - inter
                if union > EPS:
                    expected[i, j] = min(1.0, max(0.0, inter / union))
        d_arr, t_arr = box_array(dets), box_array(trks)
        iou = motion_affinity_matrix(d_arr, t_arr, use_dis=False)
        assert iou.tolist() == expected.tolist()
        if dets and trks:
            dis = motion_affinity_matrix(d_arr, t_arr, use_iou=False)
            full = motion_affinity_matrix(d_arr, t_arr)
            assert full.tolist() == (dis + expected).tolist()

    def test_coincident_zero_size_boxes(self):
        # a distance term of 1 (degenerate diagonal) and an IoU of 0 (no
        # volume); the scalar oracle's diou_affinity gives 2.0 here
        point = box_array([Box3D(1, 1, 1, 0, 0, 0, 0)])
        assert motion_affinity_matrix(point, point).tolist() == [[1.0]]
        assert motion_affinity_matrix(point, point, use_iou=False).tolist() == [[1.0]]
        assert motion_affinity_matrix(point, point, use_dis=False).tolist() == [[0.0]]

    def test_requires_a_term(self):
        with pytest.raises(ValueError):
            motion_affinity_matrix(box_array([]), box_array([]), use_dis=False, use_iou=False)


class TestComputeAffinities:
    def test_coincident_identical_embedding(self):
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0)
        emb = [1.0, 2.0, 3.0]
        det = make_det(box, embedding=emb)
        track = make_track(1, box, embedding=emb)
        out = affinities([det], [track])
        # ranked appearance of a 1x1 matrix is 1, diou of identical boxes is 2
        assert out.refined[0, 0] == pytest.approx(21.0 / 11.0, abs=1e-9)

    def test_motion_only_weights(self):
        rng = np.random.default_rng(67)
        dets = [make_det(Box3D(*rng.uniform(-5, 5, 3), 4, 2, 1.5, 0)) for _ in range(3)]
        tracks = [
            make_track(i, Box3D(*rng.uniform(-5, 5, 3), 4, 2, 1.5, 0)) for i in range(4)
        ]
        out = affinities(dets, tracks, MOTION_ONLY)
        np.testing.assert_array_equal(out.refined, out.motion)

    def test_appearance_disabled_without_embeddings(self):
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0)
        det = make_det(box)  # no embedding
        track = make_track(1, box, embedding=[1.0, 2.0])
        out = affinities([det], [track])
        assert (out.alpha, out.beta) == (0.0, 1.0)
        np.testing.assert_array_equal(out.refined, out.motion)

    def test_precomputed_raw_appearance(self):
        # appearance is the ranked raw matrix of the carried embeddings
        rng = np.random.default_rng(79)
        dets = [
            make_det(Box3D(*rng.uniform(-5, 5, 3), 4, 2, 1.5, 0), embedding=rng.normal(size=4))
            for _ in range(2)
        ]
        tracks = [
            make_track(i, Box3D(*rng.uniform(-5, 5, 3), 4, 2, 1.5, 0), embedding=rng.normal(size=4))
            for i in range(3)
        ]
        out = affinities(dets, tracks)
        raw = raw_appearance_matrix([d.embedding for d in dets], [t.embedding for t in tracks])
        np.testing.assert_array_equal(out.appearance, softmax_ranking(raw))
        assert (out.alpha, out.beta) == (1.0 / 11.0, 1.0 - 1.0 / 11.0)
        np.testing.assert_array_equal(
            out.refined, out.alpha * out.appearance + out.beta * out.motion
        )

    def test_empty_inputs(self):
        out = affinities([], [])
        assert out.refined.shape == (0, 0)
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0)
        out = affinities([make_det(box)], [])
        assert out.refined.shape == (1, 0)

    def test_refined_bounds(self):
        rng = np.random.default_rng(71)
        dim = 8
        dets = [
            make_det(
                Box3D(*rng.uniform(-10, 10, 3), *rng.uniform(0.5, 4, 3), 0),
                embedding=rng.normal(size=dim),
            )
            for _ in range(6)
        ]
        tracks = [
            make_track(
                i,
                Box3D(*rng.uniform(-10, 10, 3), *rng.uniform(0.5, 4, 3), 0),
                embedding=rng.normal(size=dim),
            )
            for i in range(6)
        ]
        out = affinities(dets, tracks)
        assert np.all(out.refined >= 0.0)
        assert np.all(out.refined <= out.alpha + 2 * out.beta + 1e-12)

    def test_argmax_invariant_under_translation(self):
        rng = np.random.default_rng(73)
        boxes = [Box3D(*rng.uniform(-10, 10, 3), 4, 2, 1.5, 0) for _ in range(5)]
        det = make_det(Box3D(1.0, 2.0, 0.0, 4, 2, 1.5, 0))
        tracks = [make_track(i, b) for i, b in enumerate(boxes)]
        base = affinities([det], tracks, MOTION_ONLY)

        def shift(b, dx, dy, dz):
            return Box3D(b.x + dx, b.y + dy, b.z + dz, b.l, b.w, b.h, b.a)

        moved_det = make_det(shift(det.box, 30, -12, 4))
        moved_tracks = [
            make_track(i, shift(b, 30, -12, 4)) for i, b in enumerate(boxes)
        ]
        moved = affinities([moved_det], moved_tracks, MOTION_ONLY)
        assert np.argmax(base.refined[0]) == np.argmax(moved.refined[0])


@st.composite
def gate_frames(draw):
    """One frame's association inputs: tracks spread over a small or a
    large area, detections near tracks or anywhere, boxes that may have
    zero extent, scores, start probabilities and embeddings that may be
    absent, every weight ratio and both motion terms on or one off."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    spread = draw(st.sampled_from([2.0, 20.0, 400.0]))

    def boxes(k):
        out = np.column_stack(
            (
                rng.uniform(-spread, spread, (k, 2)),
                rng.uniform(-1.0, 1.0, k),
                rng.uniform(0.0, 5.0, (k, 3)) * (rng.random((k, 1)) < 0.9),
                rng.uniform(-4.0, 4.0, k),
            )
        )
        return out.reshape(k, 7)

    tracks = boxes(n)
    dets = boxes(m)
    near = rng.random(m) < 0.7
    if n:
        source = tracks[rng.integers(0, n, m)]
        jitter = rng.normal(0.0, draw(st.sampled_from([0.0, 0.3, 3.0])), (m, 3))
        dets[near, :3] = source[near, :3] + jitter[near]
        dets[near, 3:] = source[near, 3:]
    embed = draw(st.sampled_from(["all", "none", "one missing"]))
    dim = 4

    def embeddings(k):
        values = [rng.normal(size=dim) for _ in range(k)]
        return [None] * k if embed == "none" else values

    det_emb, trk_emb = embeddings(m), embeddings(n)
    if embed == "one missing" and m:
        det_emb[0] = None
    flags = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    scores = draw(st.sampled_from(["certain", "mixed"]))

    def confidences(k):
        if scores == "certain":
            return np.ones(k)
        return np.where(rng.random(k) < 0.3, 1.0, rng.uniform(0.8, 1.0, k))

    return dict(
        dets=dets,
        tracks=tracks,
        det_emb=stacked(det_emb),
        trk_emb=stacked(trk_emb),
        ratio=draw(st.sampled_from([0.0, 1.0, 10.0, math.inf])),
        use_dis=flags[0],
        use_iou=flags[1],
        x_cls_det=confidences(m),
        x_cls_trk=confidences(n),
        x_se_det=np.where(rng.random(m) < 0.5, 0.5, rng.uniform(0.0, 1.0, m)),
        x_se_trk=rng.choice([0.0, 0.5, 1.0], n),
        costs=draw(st.sampled_from([(100.0, 22.0, 1.0), (1.0, 22.0, 1.0), (5.0, 1.0, 3.0)])),
    )


def problem_of(frame, x_aff, pairs=None):
    w_cls, w_aff, w_se = frame["costs"]
    return AssociationProblem(
        x_cls_det=frame["x_cls_det"],
        x_cls_trk=frame["x_cls_trk"],
        x_aff=x_aff,
        x_se_det=frame["x_se_det"],
        x_se_trk=frame["x_se_trk"],
        w_cls=w_cls,
        w_aff=w_aff,
        w_se=w_se,
        pairs=pairs,
    )


class TestCandidateGate:
    def gated_and_dense(self, frame):
        cfg = TrackerConfig(
            beta_over_alpha=frame["ratio"], use_dis=frame["use_dis"], use_iou=frame["use_iou"]
        )
        args = (frame["dets"], frame["tracks"], frame["det_emb"], frame["trk_emb"], cfg)
        need = (
            affinity_needed(frame["x_cls_det"], frame["x_se_det"], *frame["costs"]),
            affinity_needed(frame["x_cls_trk"], frame["x_se_trk"], *frame["costs"]),
        )
        dense = compute_affinities(*args)
        # The gate is used at every frame size here, not only beyond
        # the size where it pays off.
        with mock.patch.object(affinity_module, "_GATE_MIN_PAIRS", 0):
            gated = compute_affinities(*args, need=need)
        return gated, dense

    @settings(max_examples=300, deadline=None)
    @given(gate_frames())
    def test_pairs_left_out_lose_to_outside_options(self, frame):
        gated, dense = self.gated_and_dense(frame)
        p = problem_of(frame, dense.refined)
        c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk = objective_coefficients(p)
        out_det = np.maximum(0.0, c_cls_det + c_se_det)
        out_trk = np.maximum(0.0, c_cls_trk + c_se_trk)
        slack = c_cls_det[:, None] + c_cls_trk + c_aff - out_det[:, None] - out_trk
        left_out = np.ones(p.shape, dtype=bool)
        if gated.pairs is None:
            left_out[:] = False
        else:
            left_out[gated.pairs] = False
            # scored pairs carry the dense values bit for bit
            assert gated.refined.tolist() == dense.refined[gated.pairs].tolist()
            assert gated.motion.tolist() == dense.motion[gated.pairs].tolist()
        assert np.all(slack[left_out] < 0.0)

    @settings(max_examples=300, deadline=None)
    @given(gate_frames())
    def test_same_association_as_dense(self, frame):
        gated, dense = self.gated_and_dense(frame)
        expected = solve_mip(problem_of(frame, dense.refined))
        got = solve_mip(problem_of(frame, gated.refined, gated.pairs))
        assert got.matches == expected.matches
        assert got.y_se_det.tolist() == expected.y_se_det.tolist()
        assert got.y_se_trk.tolist() == expected.y_se_trk.tolist()
        assert got.objective == expected.objective
        assert got.satisfies_constraints()

    def test_nested_boxes_with_close_centres_kept(self):
        # A small box inside a large one, 0.1 m off its centre: the
        # enclosing box is the large box, whose diagonal (17.3) exceeds
        # dist + |h_d + h_k| (9.6), so a distance-term bound built on
        # the summed half-extents (0.990) would fall below the actual
        # 0.994 and drop the pair; it needs 0.992.
        dets = np.array([[0, 0, 0, 10, 10, 10, 0], [1e4, 0, 0, 4, 2, 1.5, 0]], dtype=float)
        tracks = np.array([[0.1, 0, 0, 1, 1, 1, 0], [-1e4, 0, 0, 4, 2, 1.5, 0]], dtype=float)
        costs = (1.0, 1.0, 1.0)
        need = (
            affinity_needed([1.0, 1.0], [0.5, 0.5], *costs),
            affinity_needed([1.0, 1.0], [0.492, 0.5], *costs),
        )
        args = (dets, tracks, None, None, TrackerConfig(use_iou=False))
        with mock.patch.object(affinity_module, "_GATE_MIN_PAIRS", 0):
            gated = compute_affinities(*args, need=need)
        dense = compute_affinities(*args)
        assert dense.motion[0, 0] == pytest.approx(1.0 - 0.1 / math.sqrt(300.0))
        assert list(zip(*gated.pairs)) == [(0, 0)]
        frame = dict(x_cls_det=np.ones(2), x_cls_trk=np.ones(2), x_se_det=np.full(2, 0.5),
                     x_se_trk=np.array([0.492, 0.5]), costs=costs)
        got = solve_mip(problem_of(frame, gated.refined, gated.pairs))
        assert got.matches == solve_mip(problem_of(frame, dense.refined)).matches == [(0, 0)]

    def test_sparse_scene_scores_few_pairs(self):
        # 60 tracks 50 m apart, each seen again 0.2 m away
        rng = np.random.default_rng(139)
        tracks = np.column_stack(
            (
                np.arange(60.0) * 50.0,
                rng.uniform(-5, 5, 60),
                np.zeros(60),
                np.tile([4.0, 2.0, 1.5, 0.0], (60, 1)),
            )
        )
        dets = tracks + np.column_stack((rng.normal(0, 0.2, (60, 2)), np.zeros((60, 5))))
        need = affinity_needed(np.full(60, 0.95), np.full(60, 0.5), 100.0, 22.0, 1.0)
        cfg = TrackerConfig()
        out = compute_affinities(dets, tracks, None, None, cfg, need=(need, need))
        rows, cols = out.pairs
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(k, k) for k in range(60)]
        dense = compute_affinities(dets, tracks, None, None, cfg)
        assert out.refined.tolist() == dense.refined[rows, cols].tolist()

    def test_no_gate_without_need_or_for_small_frames(self):
        box = Box3D(0, 0, 0, 4, 2, 1.5, 0)
        far = Box3D(1e4, 0, 0, 4, 2, 1.5, 0)
        need = np.array([5.0]), np.array([5.0, 5.0])
        tracks = [make_track(0, box), make_track(1, far)]
        small = affinities([make_det(box)], tracks)
        assert small.pairs is None and small.refined.shape == (1, 2)
        out = compute_affinities(
            box_array([box]), box_array([box, far]), None, None, TrackerConfig(), need=need
        )
        assert out.pairs is None and out.refined.shape == (1, 2)
