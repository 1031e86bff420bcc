import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipmot.config import TrackerConfig
from mipmot.geometry import wrap_angle
from mipmot.motion import A, H, STATE_DIM, kf_init, kf_predict, kf_update
from tables import box

# The default initial covariance, used as a covariance to predict from.
P0 = np.diag(TrackerConfig().kalman_p0_diag)


def random_psd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.1 * np.eye(n)


def predicted_box(mean) -> list:
    return box(*mean[:7]).tolist()


class TestConfig:
    def test_transition_structure(self):
        expected = np.eye(STATE_DIM)
        expected[0, 7] = expected[1, 8] = expected[2, 9] = 1.0
        np.testing.assert_array_equal(A, expected)


class TestInit:
    def test_direct_copy(self):
        cfg = TrackerConfig()
        mean, _ = kf_init(box(1, 2, 3, 4, 2, 1.5, 0.1), cfg)
        np.testing.assert_allclose(
            mean, [1, 2, 3, 4, 2, 1.5, 0.1, 0, 0, 0]
        )

    def test_covariance_is_p0(self):
        p0_diag = (2.0, 2.0, 1.0, 0.2, 0.2, 0.2, 0.3, 5.0, 5.0, 1.0)
        cfg = TrackerConfig(kalman_p0_diag=p0_diag)
        _, cov = kf_init(box(0, 0, 0, 1, 1, 1, 0), cfg)
        np.testing.assert_array_equal(cov, np.diag(p0_diag))
        _, cov = kf_init(np.zeros(7), TrackerConfig())
        np.testing.assert_array_equal(cov, P0)

    def test_deterministic(self):
        cfg = TrackerConfig()
        b = box(5, -1, 2, 4, 2, 1.5, -0.4)
        (mean_a, cov_a), (mean_b, cov_b) = kf_init(b, cfg), kf_init(b, cfg)
        np.testing.assert_array_equal(mean_a, mean_b)
        np.testing.assert_array_equal(cov_a, cov_b)


class TestPredict:
    def test_constant_velocity_advance(self):
        cfg = TrackerConfig()
        mean = np.array([1, 2, 3, 4, 2, 1.5, 0.1, 0.5, 0.0, -0.5])
        predicted, _ = kf_predict(mean, P0, cfg)
        np.testing.assert_allclose(predicted[:3], [1.5, 2.0, 2.5])
        np.testing.assert_allclose(predicted[3:], mean[3:])
        assert predicted_box(predicted) == box(1.5, 2.0, 2.5, 4, 2, 1.5, 0.1).tolist()

    def test_zero_velocity_identity(self):
        cfg = TrackerConfig()
        b = box(1, 2, 3, 4, 2, 1.5, 0.1)
        predicted, _ = kf_predict(*kf_init(b, cfg), cfg)
        assert predicted_box(predicted) == b.tolist()

    def test_covariance_equation_oracle(self):
        # direct matrix arithmetic on random symmetric covariances
        cfg = TrackerConfig(kalman_q_scale=0.05)
        rng = np.random.default_rng(2)
        for _ in range(20):
            P = random_psd(rng, STATE_DIM)
            _, predicted = kf_predict(np.zeros(STATE_DIM), P, cfg)
            expected = A @ P @ A.T + 0.05 * np.eye(STATE_DIM)
            np.testing.assert_allclose(predicted, expected, atol=1e-12)

    def test_mean_linearity(self):
        cfg = TrackerConfig()
        rng = np.random.default_rng(3)
        for _ in range(20):
            m1 = rng.normal(size=STATE_DIM) * 0.3
            m2 = rng.normal(size=STATE_DIM) * 0.3
            m1[3:6] = np.abs(m1[3:6])  # valid box extents
            m2[3:6] = np.abs(m2[3:6])
            a, b = rng.uniform(0.2, 0.8, 2)
            lhs, _ = kf_predict(a * m1 + b * m2, P0, cfg)
            r1, _ = kf_predict(m1, P0, cfg)
            r2, _ = kf_predict(m2, P0, cfg)
            np.testing.assert_allclose(lhs, a * r1 + b * r2, atol=1e-12)


class TestUpdate:
    def test_perfect_measurement_limit(self):
        cfg = TrackerConfig(kalman_r_diag=[1e-12] * 7)
        predicted = kf_predict(*kf_init(box(0, 0, 0, 1, 1, 1, 0), cfg), cfg)
        obs = np.array([5, 6, 7, 2, 1, 0.5, 0.3])
        updated, _ = kf_update(*predicted, obs, cfg)
        np.testing.assert_allclose(updated[:7], obs, atol=1e-6)

    def test_zero_innovation_keeps_mean(self):
        cfg = TrackerConfig()
        mean, cov = kf_predict(*kf_init(box(1, 2, 3, 4, 2, 1.5, 0.1), cfg), cfg)
        updated, _ = kf_update(mean, cov, mean[:7], cfg)
        np.testing.assert_allclose(updated, mean, atol=1e-12)

    def test_heading_innovation_wraps(self):
        cfg = TrackerConfig()
        mean = np.zeros(STATE_DIM)
        mean[6] = 3.1
        predicted, cov = kf_predict(mean, P0, cfg)
        obs = predicted[:7].copy()
        obs[6] = -3.1  # just over the cut from 3.1
        updated, _ = kf_update(predicted, cov, obs, cfg)
        # the filter must move toward the cut, not across the circle
        assert abs(updated[6]) > 3.0

    def test_matches_scalar_recursion_oracle(self):
        """The (x, vx) block decouples, so a hand-rolled 2-state filter
        run on the same 1D data must reproduce the full filter exactly."""
        cfg = TrackerConfig()
        p0 = np.diag([cfg.kalman_p0_diag[0], cfg.kalman_p0_diag[7]])
        q = cfg.kalman_q_scale * np.eye(2)
        r = cfg.kalman_r_diag[0]
        a2 = np.array([[1.0, 1.0], [0.0, 1.0]])
        h2 = np.array([[1.0, 0.0]])

        velocity = 0.7
        mean, cov = kf_init(box(0, 0, 0, 1, 1, 1, 0), cfg)
        mu = np.array([0.0, 0.0])
        P = p0.copy()
        for frame in range(1, 11):
            mean, cov = kf_predict(mean, cov, cfg)
            mu = a2 @ mu
            P = a2 @ P @ a2.T + q

            obs = mean[:7].copy()
            obs[0] = velocity * frame
            mean, cov = kf_update(mean, cov, obs, cfg)

            S = float((h2 @ P @ h2.T).item()) + r
            K = (P @ h2.T) / S
            mu = mu + (K * (velocity * frame - mu[0])).ravel()
            P = (np.eye(2) - K @ h2) @ P

            np.testing.assert_allclose(mean[0], mu[0], atol=1e-9)
            np.testing.assert_allclose(mean[7], mu[1], atol=1e-9)
        assert abs(mean[7] - velocity) < 1e-3


class TestFilterBehavior:
    def test_prediction_error_shrinks_on_clean_track(self):
        cfg = TrackerConfig()
        v = np.array([0.8, -0.4, 0.1])
        start = np.array([0.0, 0.0, 1.0])
        mean, cov = kf_init(box(*start, 4, 2, 1.5, 0.2), cfg)
        errors = []
        for frame in range(1, 12):
            mean, cov = kf_predict(mean, cov, cfg)
            true_pos = start + v * frame
            errors.append(float(np.linalg.norm(mean[:3] - true_pos)))
            obs = np.concatenate([true_pos, [4, 2, 1.5, 0.2]])
            mean, cov = kf_update(mean, cov, obs, cfg)
        assert errors[5] < errors[0]
        for e0, e1 in zip(errors[1:], errors[2:]):
            assert e1 <= e0 + 1e-9

    def test_covariance_stays_psd(self):
        cfg = TrackerConfig()
        rng = np.random.default_rng(9)
        mean, cov = kf_init(box(0, 0, 0, 4, 2, 1.5, 0), cfg)
        for _ in range(1000):
            mean, cov = kf_predict(mean, cov, cfg)
            obs = mean[:7] + rng.normal(scale=0.3, size=7)
            obs[3:6] = np.abs(obs[3:6])
            mean, cov = kf_update(mean, cov, obs, cfg)
            assert np.allclose(cov, cov.T, atol=1e-9)
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-9


# Headings at and next to the angular cut, where the wraps act.
NEAR_CUT = [
    math.pi,
    -math.pi,
    math.nextafter(math.pi, 0.0),
    math.nextafter(-math.pi, 0.0),
    math.pi - 1e-9,
    -math.pi + 1e-9,
]
headings = st.one_of(st.sampled_from(NEAR_CUT), st.floats(-math.pi, math.pi))


@st.composite
def filter_rows(draw):
    """T in 0..12 rows of means, tracker-shaped covariances (diagonal
    plus position-velocity coupling) and observations. Rows repeat
    covariances, as tracks sharing a covariance entry do."""
    t = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boxes = np.column_stack(
        (rng.uniform(-50, 50, (t, 3)), rng.uniform(0.5, 5, (t, 3)), np.zeros(t))
    )
    boxes[:, 6] = draw(st.lists(headings, min_size=t, max_size=t))
    mean = np.column_stack((boxes, rng.normal(scale=0.5, size=(t, 3))))
    obs = boxes + rng.normal(scale=0.3, size=(t, 7))
    obs[:, 6] = draw(st.lists(headings, min_size=t, max_size=t))
    u = draw(st.integers(min(t, 1), t))
    var = rng.uniform(0.05, 10.0, (u, STATE_DIM))
    cov = var[:, :, None] * np.eye(STATE_DIM)
    for i in range(3):
        c = rng.uniform(-0.9, 0.9, u) * np.sqrt(var[:, i] * var[:, i + 7])
        cov[:, i, i + 7] = cov[:, i + 7, i] = c
    cov = cov[draw(st.lists(st.integers(0, u - 1), min_size=t, max_size=t)) if u else []]
    return boxes, mean, cov, obs


def textbook_update(mean, cov, obs, cfg):
    """The Kalman measurement update written with the matrix H."""
    innovation = obs - mean @ H.T
    innovation[..., 6] = wrap_angle(innovation[..., 6])
    S = H @ cov @ H.T + np.diag(cfg.kalman_r_diag)
    K = np.swapaxes(np.linalg.solve(S, H @ cov), -1, -2)
    mean = mean + (K @ innovation[..., None])[..., 0]
    mean[..., 6] = wrap_angle(mean[..., 6])
    cov = (np.eye(STATE_DIM) - K @ H) @ cov
    return mean, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def covariance_table(cov):
    """The distinct covariances of a stack, in order of first row, and
    each row's entry."""
    first = {}
    index = np.array([first.setdefault(c.tobytes(), k) for k, c in enumerate(cov)], dtype=int)
    rows = np.array(sorted(first.values()), dtype=int)
    return cov[rows], np.searchsorted(rows, index)


def assert_rows_bitwise(stacked, single_calls):
    """Every row of the stacked outputs has the bytes of its own call."""
    for k, single in enumerate(single_calls):
        for batch, one in zip(stacked, single):
            assert batch.shape[1:] == one.shape
            assert batch[k].tobytes() == one.tobytes()


class TestStacked:
    @settings(max_examples=150, deadline=None)
    @given(filter_rows())
    def test_stacked_equals_per_row(self, rows):
        boxes, mean, cov, obs = rows
        cfg = TrackerConfig()
        t = len(mean)
        assert_rows_bitwise(kf_init(boxes, cfg), [kf_init(boxes[k], cfg) for k in range(t)])
        assert_rows_bitwise(
            kf_predict(mean, cov, cfg), [kf_predict(mean[k], cov[k], cfg) for k in range(t)]
        )
        assert_rows_bitwise(
            kf_update(mean, cov, obs, cfg),
            [kf_update(mean[k], cov[k], obs[k], cfg) for k in range(t)],
        )

    @settings(max_examples=150, deadline=None)
    @given(filter_rows(), st.randoms(use_true_random=False))
    def test_shared_entries_equal_per_row(self, rows, random):
        """Rows pointing at one covariance entry get, from a call over
        the table, the bytes of their own per-row calls: each row's mean,
        and the covariance of its entry."""
        _, mean, cov, obs = rows
        cfg = TrackerConfig()
        entries, index = covariance_table(cov)
        # the table's order, and an entry no row points at, change nothing
        order = random.sample(range(len(entries) + 1), len(entries) + 1)
        table = np.concatenate((entries, P0[None]))[order]
        index = np.argsort(order)[index]
        predicted_mean, predicted_table = kf_predict(mean, table, cfg)
        updated_mean, updated_table = kf_update(mean, table, obs, cfg, index=index)
        assert updated_table.shape == table.shape
        for k in range(len(mean)):
            one_mean, one_cov = kf_predict(mean[k], cov[k], cfg)
            assert predicted_mean[k].tobytes() == one_mean.tobytes()
            assert predicted_table[index[k]].tobytes() == one_cov.tobytes()
            one_mean, one_cov = kf_update(mean[k], cov[k], obs[k], cfg)
            assert updated_mean[k].tobytes() == one_mean.tobytes()
            assert updated_table[index[k]].tobytes() == one_cov.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(filter_rows(), st.booleans())
    def test_update_equals_textbook_form(self, rows, dense):
        """kf_update reads H by slicing; the H matmuls give the same bits."""
        _, mean, cov, obs = rows
        cfg = TrackerConfig()
        if dense:
            rng = np.random.default_rng(len(mean))
            cov = np.array([random_psd(rng, STATE_DIM) for _ in mean]).reshape(cov.shape)
        # the stack, and each row as one track
        for args in [(mean, cov, obs), *zip(mean, cov, obs)]:
            for got, expected in zip(kf_update(*args, cfg), textbook_update(*args, cfg)):
                np.testing.assert_array_equal(got, expected)

    def test_empty_stack(self):
        cfg = TrackerConfig()
        mean, cov = kf_init(np.zeros((0, 7)), cfg)
        assert (mean.shape, cov.shape) == ((0, STATE_DIM), (0, STATE_DIM, STATE_DIM))
        mean, cov = kf_predict(mean, cov, cfg)
        mean, cov = kf_update(mean, cov, np.zeros((0, 7)), cfg)
        assert (mean.shape, cov.shape) == ((0, STATE_DIM), (0, STATE_DIM, STATE_DIM))

    def test_observation_shape_checked(self):
        cfg = TrackerConfig()
        mean, cov = kf_init(np.zeros((3, 7)), cfg)
        with pytest.raises(ValueError, match="do not fit means"):
            kf_update(mean, cov, np.zeros((2, 7)), cfg)
        with pytest.raises(ValueError, match="index of shape \\(2,\\) does not fit means"):
            kf_update(mean, cov[:1], np.zeros((3, 7)), cfg, index=np.zeros(2, dtype=int))
