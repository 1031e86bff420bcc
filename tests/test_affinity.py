import hashlib
import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import softmax

import exact_area
from diou_oracle import (
    diou_affinity,
    distance_term,
    iou_3d,
    raw_appearance_score,
    volume,
)
from exact_area import within
from mip_oracle import assert_same_result, result_from_matches
from mipmot import affinity as affinity_module
from mipmot.affinity import (
    _box_table,
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
from mipmot.geometry import bev_iou
from mipmot.io_formats import Detection
from tables import box as make_box

MOTION_ONLY = TrackerConfig(beta_over_alpha=math.inf)


def box_array(boxes) -> np.ndarray:
    return np.array(list(boxes), dtype=float).reshape(-1, 7)


def make_track(track_id, box, embedding=None) -> SimpleNamespace:
    """What the tracker passes per track: its predicted box and embedding."""
    return SimpleNamespace(
        id=track_id,
        box=box,
        embedding=None if embedding is None else np.asarray(embedding, float),
    )


def stacked(embeddings):
    """Per-row embeddings as one (K, D) array, or None when any row lacks
    one, which ``compute_affinities`` takes as it takes a NaN row."""
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
    0.7: "b8222f8329832d0dd48b2dc2489d3563ccff331fa8dcff0acfad704c24d5fc2b",
    3.0: "9938931383c81c9d11e87010179c370fc477da383573c4669a02fac4bae5da93",
    10.0: "c3b8d46c4d90f1e8251ccf2ceb807bd86aa75599b76ced2616800d9d9710202e",
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


# sha256 of ``motion_affinity_matrix`` on ``motion_frame``, the dense
# matrix and then the values of its pair list, per (use_dis, use_iou):
# each motion term byte for byte.
PINNED_MOTION = {
    (True, True): "ab8daf09e8ba4af8c15cb0387e079384372a1b7fec88414aaf1347f596db3fa2",
    (True, False): "1478abfb1dc454efb767fce89ee27e179d58417ae4786e7c0e1295dfd09e4b8d",
    (False, True): "65071a3465256a1e5bad029d04d57b817dc3c79319a0b8393e11dc1af19d9247",
}


def motion_frame():
    """The boxes of ``pinned_frame`` and one zero-size detection and
    track at one centre, whose enclosing diagonal is degenerate, with a
    fixed list of 400 random pairs and that degenerate pair."""
    dets, tracks, *_ = pinned_frame()
    point = [[5.0, -7.0, 0.5, 0.0, 0.0, 0.0, 1.0]]
    dets, tracks = np.concatenate((dets, point)), np.concatenate((tracks, point))
    rng = np.random.default_rng(2311)
    rows = np.append(rng.integers(0, len(dets), 400), len(dets) - 1)
    cols = np.append(rng.integers(0, len(tracks), 400), len(tracks) - 1)
    return dets, tracks, (rows, cols)


@pytest.mark.parametrize("use_dis, use_iou", sorted(PINNED_MOTION))
def test_motion_bytes_pinned(use_dis, use_iou):
    dets, tracks, pairs = motion_frame()
    dense = motion_affinity_matrix(dets, tracks, use_dis=use_dis, use_iou=use_iou)
    gathered = motion_affinity_matrix(dets, tracks, use_dis=use_dis, use_iou=use_iou, pairs=pairs)
    assert dense[-1, -1] == gathered[-1] == (1.0 if use_dis else 0.0)
    digest = hashlib.sha256()
    for array in (dense, gathered):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == PINNED_MOTION[use_dis, use_iou]


class TestWeights:
    """alpha = 1 / (1 + r) and beta = 1 - alpha for r = ``beta_over_alpha``,
    as recorded on the returned AffinityMatrix."""

    def weights(self, ratio):
        box = make_box(0, 0, 0, 4, 2, 1.5, 0)
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


# sha256 of the dense appearance matrix and the gated appearance values
# of ``pinned_frame``, per beta_over_alpha: the two-way softmax byte for
# byte, over all pairs and at the gate's pairs.
PINNED_APPEARANCE = {
    0.7: "d68ae4247524bf1fd1b9832c3db2c152f340f1ab77622a5f7d805888a1b439f4",
    3.0: "9a854e10b2f7ec7fd78f19595a2da143ee48133aa735e7da70a03deeb6a53b52",
    10.0: "f61698349786a3915a0060c43c336d68f93810ac20431a77adc9067c949208ae",
}


@pytest.mark.parametrize("ratio", sorted(PINNED_APPEARANCE))
def test_appearance_bytes_pinned(ratio):
    dets, tracks, det_emb, trk_emb, need = pinned_frame()
    cfg = TrackerConfig(beta_over_alpha=ratio)
    dense = compute_affinities(dets, tracks, det_emb, trk_emb, cfg)
    with mock.patch.object(affinity_module, "_GATE_MIN_PAIRS", 0):
        gated = compute_affinities(dets, tracks, det_emb, trk_emb, cfg, need=need)
    assert gated.pairs is not None
    digest = hashlib.sha256()
    for array in (dense.appearance, gated.appearance):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == PINNED_APPEARANCE[ratio]


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

    def test_zero_length_embeddings_rejected(self):
        message = "incompatible embedding arrays: (2, 0) vs (3, 0)"
        with pytest.raises(ValueError, match=re.escape(message)):
            raw_appearance_matrix(np.zeros((2, 0)), np.zeros((3, 0)))

    def test_bits_of_the_negated_mean(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            dim = int(rng.integers(1, 40))
            dets = rng.normal(size=(3, dim)) * 10.0 ** rng.integers(-5, 5)
            trks = rng.normal(size=(4, dim))
            expected = -cdist(dets, trks, "cityblock") / dim
            assert raw_appearance_matrix(dets, trks).tobytes() == expected.tobytes()

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


@st.composite
def raw_matrices(draw):
    """Raw appearance matrices: a single row or column or both, few
    distinct values so that entries tie, and rows or columns that span
    more than 745, so that some exps underflow to 0."""
    shape = st.one_of(st.just(1), st.integers(2, 12))
    m, n = draw(shape), draw(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "wide"]))
    if kind == "ties":
        return rng.choice([-1.0, 0.0, 2.5], (m, n))
    raw = rng.normal(size=(m, n)) * rng.uniform(0.1, 40.0)
    if kind == "wide":
        raw[rng.random((m, n)) < 0.3] -= rng.uniform(745.0, 2000.0)
        raw.flat[rng.integers(raw.size)] += 800.0
    return raw


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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_side(self, shape):
        out = softmax_ranking(np.zeros(shape))
        assert out.shape == shape and out.dtype == float

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

    @settings(max_examples=300, deadline=None)
    @given(raw_matrices(), st.integers(0, 2**32 - 1))
    def test_pair_form_has_the_dense_bits(self, raw, seed):
        """The ranking formed at some pairs from the column and row sums
        has the bits of the dense matrix there, and the bound from the
        sums is at least its largest entry."""
        dense = softmax_ranking(raw)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, 3 * raw.size + 1))
        rows, cols = rng.integers(0, raw.shape[0], k), rng.integers(0, raw.shape[1], k)
        parts = affinity_module._Softmax.of(raw)
        assert parts.at(rows, cols).tobytes() == dense[rows, cols].tobytes()
        assert parts.bound() >= dense.max()


def _box(seed: int) -> np.ndarray:
    """A box near the origin, often overlapping others, sometimes flat,
    square-on or quarter-turned."""
    rng = np.random.default_rng(seed)
    l, w, h = rng.choice([0.0, 1.0, 2.0, *rng.uniform(0.5, 4, 3)], 3)
    a = rng.choice([0.0, math.pi / 2, rng.uniform(-3, 3)])
    return make_box(*rng.uniform(-3, 3, 3), l, w, h, a)


class TestMotionMatrix:
    def test_matches_scalar_geometry(self):
        rng = np.random.default_rng(61)

        def rand_box():
            return make_box(
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
    def test_iou_term_matches_exact_area_per_pair(self, dets, trks):
        """The batched IoU term against each pair's exact footprint
        overlap times its height overlap."""
        d_arr, t_arr = box_array(dets), box_array(trks)
        iou = motion_affinity_matrix(d_arr, t_arr, use_dis=False)
        for i, d in enumerate(dets):
            for j, t in enumerate(trks):
                lo = max(d[2] - 0.5 * d[5], t[2] - 0.5 * t[5])
                dz = min(d[2] + 0.5 * d[5], t[2] + 0.5 * t[5]) - lo
                if dz <= 0.0:
                    assert iou[i, j] == 0.0
                    continue
                bounds = exact_area.iou_bounds(d, t, dz, volume(d) + volume(t))
                assert within(iou[i, j], bounds), (d, t, iou[i, j])
        if dets and trks:
            dis = motion_affinity_matrix(d_arr, t_arr, use_iou=False)
            full = motion_affinity_matrix(d_arr, t_arr)
            assert full.tolist() == (dis + iou).tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.builds(_box, st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
        st.lists(st.builds(_box, st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
        st.sampled_from([0.0, 1e4, -3e7]),
        st.sampled_from([(True, True), (True, False), (False, True)]),
        st.data(),
    )
    def test_pairs_match_dense_bits(self, dets, trks, offset, flags, data):
        """The pair form of any pair list carries the dense matrix's
        values at those pairs bit for bit, near the origin or far off."""
        d_arr, t_arr = box_array(dets), box_array(trks)
        d_arr[:, :2] += offset
        t_arr[:, :2] += offset
        k = data.draw(st.integers(0, 12))
        index = [st.lists(st.integers(0, len(side) - 1), min_size=k, max_size=k) for side in (dets, trks)]
        rows, cols = (np.array(data.draw(s), dtype=int) for s in index)
        use_dis, use_iou = flags
        dense = motion_affinity_matrix(d_arr, t_arr, use_dis=use_dis, use_iou=use_iou)
        gathered = motion_affinity_matrix(
            d_arr, t_arr, use_dis=use_dis, use_iou=use_iou, pairs=(rows, cols)
        )
        assert gathered.tobytes() == dense[rows, cols].tobytes()

    def test_coincident_zero_size_boxes(self):
        # a distance term of 1 (degenerate diagonal) and an IoU of 0 (no
        # volume); the scalar oracle's diou_affinity gives 2.0 here
        point = box_array([make_box(1, 1, 1, 0, 0, 0, 0)])
        assert motion_affinity_matrix(point, point).tolist() == [[1.0]]
        assert motion_affinity_matrix(point, point, use_iou=False).tolist() == [[1.0]]
        assert motion_affinity_matrix(point, point, use_dis=False).tolist() == [[0.0]]

    def test_footprint_of_eps_overlaps_itself(self):
        # volume, footprint and union all exactly EPS: the 3D IoU and the
        # ground-plane IoU share one rule (a union below EPS scores 0), so
        # both score the box 1 against itself, and so does the oracle
        flat = make_box(0, 0, 0, 1e-9, 1, 1, 0)
        boxes = box_array([flat])
        assert motion_affinity_matrix(boxes, boxes, use_dis=False).tolist() == [[1.0]]
        assert bev_iou(flat, flat) == 1.0
        assert iou_3d(flat, flat) == 1.0

    def test_requires_a_term(self):
        with pytest.raises(ValueError):
            motion_affinity_matrix(box_array([]), box_array([]), use_dis=False, use_iou=False)

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0)])
    @pytest.mark.parametrize("flags", [(True, True), (True, False), (False, True)])
    def test_empty_side(self, m, n, flags):
        dets, trks = box_array(map(_box, range(m))), box_array(map(_box, range(m, m + n)))
        out = motion_affinity_matrix(dets, trks, *flags)
        np.testing.assert_array_equal(out, np.zeros((m, n)))

    @pytest.mark.parametrize("flags", [(True, True), (True, False), (False, True)])
    def test_no_pairs(self, flags):
        dets, trks = box_array(map(_box, range(3))), box_array(map(_box, range(3, 5)))
        empty = np.zeros(0, np.intp)
        out = motion_affinity_matrix(dets, trks, *flags, pairs=(empty, empty))
        assert out.shape == (0,) and out.dtype == float


class TestBoxTable:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.builds(_box, st.integers(0, 2**32 - 1)), max_size=10),
        st.lists(st.builds(_box, st.integers(0, 2**32 - 1)), max_size=10),
        st.sampled_from([0.0, 1e4, -3e7]),
    )
    @example(dets=[], trks=[_box(1)], offset=0.0)
    @example(dets=[_box(2)], trks=[], offset=0.0)
    @example(dets=[], trks=[], offset=0.0)
    def test_stacked_rows_equal_each_side(self, dets, trks, offset):
        """The table of both sides' boxes, stacked, holds each side's own
        table in its row slices, bit for bit."""
        d_arr, t_arr = box_array(dets), box_array(trks)
        d_arr[:, :2] += offset
        table = _box_table(np.concatenate((d_arr, t_arr)))
        m = len(dets)
        for got, side in ((table.rows(np.s_[:m]), d_arr), (table.rows(np.s_[m:]), t_arr)):
            alone = _box_table(side)
            assert got._fields == alone._fields
            for field, column in zip(alone._fields, alone):
                assert getattr(got, field).shape == column.shape, field
                assert getattr(got, field).tobytes() == column.tobytes(), field


class TestComputeAffinities:
    def test_coincident_identical_embedding(self):
        box = make_box(0, 0, 0, 4, 2, 1.5, 0)
        emb = [1.0, 2.0, 3.0]
        det = make_det(box, embedding=emb)
        track = make_track(1, box, embedding=emb)
        out = affinities([det], [track])
        # ranked appearance of a 1x1 matrix is 1, diou of identical boxes is 2
        assert out.refined[0, 0] == pytest.approx(21.0 / 11.0, abs=1e-9)

    def test_motion_only_weights(self):
        rng = np.random.default_rng(67)
        dets = [make_det(make_box(*rng.uniform(-5, 5, 3), 4, 2, 1.5, 0)) for _ in range(3)]
        tracks = [
            make_track(i, make_box(*rng.uniform(-5, 5, 3), 4, 2, 1.5, 0)) for i in range(4)
        ]
        out = affinities(dets, tracks, MOTION_ONLY)
        np.testing.assert_array_equal(out.refined, out.motion)

    def test_appearance_disabled_without_embeddings(self):
        box = make_box(0, 0, 0, 4, 2, 1.5, 0)
        det = make_det(box)  # no embedding
        track = make_track(1, box, embedding=[1.0, 2.0])
        out = affinities([det], [track])
        assert (out.alpha, out.beta) == (0.0, 1.0)
        np.testing.assert_array_equal(out.refined, out.motion)

    def test_precomputed_raw_appearance(self):
        # appearance is the ranked raw matrix of the carried embeddings
        rng = np.random.default_rng(79)
        dets = [
            make_det(make_box(*rng.uniform(-5, 5, 3), 4, 2, 1.5, 0), embedding=rng.normal(size=4))
            for _ in range(2)
        ]
        tracks = [
            make_track(
                i, make_box(*rng.uniform(-5, 5, 3), 4, 2, 1.5, 0), embedding=rng.normal(size=4)
            )
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
        box = make_box(0, 0, 0, 4, 2, 1.5, 0)
        out = affinities([make_det(box)], [])
        assert out.refined.shape == (1, 0)

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0)])
    @pytest.mark.parametrize("embedded", [True, False])
    @pytest.mark.parametrize("with_need", [False, True])
    def test_empty_side_applies_no_appearance(self, m, n, embedded, with_need):
        """A frame with an empty side scores every component as an
        (M, N) matrix and records the weights it applied: appearance is
        off, as for a side without embeddings, so alpha 0 and beta 1."""
        rng = np.random.default_rng(m + 10 * n)
        dets, trks = box_array(map(_box, range(m))), box_array(map(_box, range(m, m + n)))
        det_emb, trk_emb = (rng.normal(size=(k, 4)) if embedded else None for k in (m, n))
        need = (np.zeros(m), np.zeros(n)) if with_need else None
        out = compute_affinities(dets, trks, det_emb, trk_emb, TrackerConfig(), need=need)
        for component in (out.appearance, out.motion, out.refined):
            assert component.shape == (m, n)
        assert out.pairs is None
        assert (out.alpha, out.beta) == (0.0, 1.0)

    @pytest.mark.parametrize("with_need", [False, True])
    @pytest.mark.parametrize("side", ["detections", "tracks"])
    @pytest.mark.parametrize("lack", ["nan-row", "no-columns"])
    def test_side_lacking_embeddings_scores_as_none(self, lack, side, with_need):
        """A side with a NaN row, a row that lacks an embedding, or with
        no columns turns appearance off as None does: the same weights,
        alpha 0 and beta 1, and the same bytes, dense and in pair form."""
        dets, tracks, *embeddings, need = pinned_frame()
        i = ["detections", "tracks"].index(side)
        if lack == "nan-row":
            embeddings[i][3] = np.nan
        else:
            embeddings[i] = embeddings[i][:, :0]
        off = list(embeddings)
        off[i] = None
        need = need if with_need else None
        with mock.patch.object(affinity_module, "_GATE_MIN_PAIRS", 0):
            got, want = (
                compute_affinities(dets, tracks, *e, TrackerConfig(), need=need)
                for e in (embeddings, off)
            )
        assert (got.alpha, got.beta) == (want.alpha, want.beta) == (0.0, 1.0)
        assert (got.pairs is None) == (want.pairs is None) == (not with_need)
        for a, b in [
            (got.appearance, want.appearance),
            (got.motion, want.motion),
            (got.refined, want.refined),
            *zip(got.pairs or (), want.pairs or ()),
        ]:
            assert a.tobytes() == b.tobytes()

    def test_refined_bounds(self):
        rng = np.random.default_rng(71)
        dim = 8
        dets = [
            make_det(
                make_box(*rng.uniform(-10, 10, 3), *rng.uniform(0.5, 4, 3), 0),
                embedding=rng.normal(size=dim),
            )
            for _ in range(6)
        ]
        tracks = [
            make_track(
                i,
                make_box(*rng.uniform(-10, 10, 3), *rng.uniform(0.5, 4, 3), 0),
                embedding=rng.normal(size=dim),
            )
            for i in range(6)
        ]
        out = affinities(dets, tracks)
        assert np.all(out.refined >= 0.0)
        assert np.all(out.refined <= out.alpha + 2 * out.beta + 1e-12)

    def test_argmax_invariant_under_translation(self):
        rng = np.random.default_rng(73)
        boxes = [make_box(*rng.uniform(-10, 10, 3), 4, 2, 1.5, 0) for _ in range(5)]
        det = make_det(make_box(1.0, 2.0, 0.0, 4, 2, 1.5, 0))
        tracks = [make_track(i, b) for i, b in enumerate(boxes)]
        base = affinities([det], tracks, MOTION_ONLY)

        def shift(b, dx, dy, dz):
            return b + [dx, dy, dz, 0, 0, 0, 0]

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

    @settings(max_examples=200, deadline=None)
    @given(gate_frames())
    def test_solution_is_its_matches_filled_in(self, frame):
        """solve_mip's result is the one result_from_matches fills in for
        its matches, field by field, on the dense and the gated form."""
        gated, dense = self.gated_and_dense(frame)
        for p in (problem_of(frame, dense.refined), problem_of(frame, gated.refined, gated.pairs)):
            result = solve_mip(p)
            filled = result_from_matches(p, objective_coefficients(p), result.matches)
            assert_same_result(result, filled)

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
        # tracks 50 m apart, each seen again 0.2 m away, just more of
        # them than the gate's least frame size holds
        n = math.isqrt(affinity_module._GATE_MIN_PAIRS) + 1
        rng = np.random.default_rng(139)
        tracks = np.column_stack(
            (
                np.arange(float(n)) * 50.0,
                rng.uniform(-5, 5, n),
                np.zeros(n),
                np.tile([4.0, 2.0, 1.5, 0.0], (n, 1)),
            )
        )
        dets = tracks + np.column_stack((rng.normal(0, 0.2, (n, 2)), np.zeros((n, 5))))
        need = affinity_needed(np.full(n, 0.95), np.full(n, 0.5), 100.0, 22.0, 1.0)
        cfg = TrackerConfig()
        out = compute_affinities(dets, tracks, None, None, cfg, need=(need, need))
        rows, cols = out.pairs
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(k, k) for k in range(n)]
        dense = compute_affinities(dets, tracks, None, None, cfg)
        assert out.refined.tolist() == dense.refined[rows, cols].tolist()

    def test_no_gate_without_need_or_for_small_frames(self):
        box = make_box(0, 0, 0, 4, 2, 1.5, 0)
        far = make_box(1e4, 0, 0, 4, 2, 1.5, 0)
        need = np.array([5.0]), np.array([5.0, 5.0])
        tracks = [make_track(0, box), make_track(1, far)]
        small = affinities([make_det(box)], tracks)
        assert small.pairs is None and small.refined.shape == (1, 2)
        out = compute_affinities(
            box_array([box]), box_array([box, far]), None, None, TrackerConfig(), need=need
        )
        assert out.pairs is None and out.refined.shape == (1, 2)
