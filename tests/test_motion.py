import math

import numpy as np
import pytest

from mipmot.geometry import Box3D
from mipmot.motion import (
    A,
    DEFAULT_P0_DIAG,
    DEFAULT_R_DIAG,
    KalmanConfig,
    KalmanState,
    STATE_DIM,
    kf_init,
    kf_predict,
    kf_update,
)


def random_psd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.1 * np.eye(n)


class TestConfig:
    def test_transition_structure(self):
        expected = np.eye(STATE_DIM)
        expected[0, 7] = expected[1, 8] = expected[2, 9] = 1.0
        np.testing.assert_array_equal(A, expected)

    def test_rejects_asymmetric_r(self):
        r = np.diag([0.5] * 7)
        r[0, 1] = 1.0
        with pytest.raises(ValueError):
            KalmanConfig(R=r)

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            KalmanConfig(Q=-np.eye(STATE_DIM))

    def test_from_diagonals(self):
        cfg = KalmanConfig.from_diagonals(
            p0_diag=DEFAULT_P0_DIAG, r_diag=DEFAULT_R_DIAG, q_scale=0.5
        )
        np.testing.assert_allclose(cfg.Q, 0.5 * np.eye(STATE_DIM))
        np.testing.assert_array_equal(cfg.R, KalmanConfig().R)
        np.testing.assert_array_equal(cfg.P0, KalmanConfig().P0)


class TestInit:
    def test_direct_copy(self):
        cfg = KalmanConfig()
        state = kf_init(Box3D(1, 2, 3, 4, 2, 1.5, 0.1), cfg)
        np.testing.assert_allclose(
            state.mean, [1, 2, 3, 4, 2, 1.5, 0.1, 0, 0, 0]
        )

    def test_covariance_is_p0(self):
        cfg = KalmanConfig()
        state = kf_init(Box3D(0, 0, 0, 1, 1, 1, 0), cfg)
        np.testing.assert_array_equal(state.cov, cfg.P0)

    def test_deterministic(self):
        cfg = KalmanConfig()
        box = Box3D(5, -1, 2, 4, 2, 1.5, -0.4)
        a, b = kf_init(box, cfg), kf_init(box, cfg)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)


class TestPredict:
    def test_constant_velocity_advance(self):
        cfg = KalmanConfig()
        mean = np.array([1, 2, 3, 4, 2, 1.5, 0.1, 0.5, 0.0, -0.5])
        state = KalmanState(mean=mean, cov=cfg.P0)
        predicted, box = kf_predict(state, cfg)
        np.testing.assert_allclose(predicted.mean[:3], [1.5, 2.0, 2.5])
        np.testing.assert_allclose(predicted.mean[3:], mean[3:])
        assert box == Box3D(1.5, 2.0, 2.5, 4, 2, 1.5, 0.1)

    def test_zero_velocity_identity(self):
        cfg = KalmanConfig()
        box = Box3D(1, 2, 3, 4, 2, 1.5, 0.1)
        _, predicted_box = kf_predict(kf_init(box, cfg), cfg)
        assert predicted_box == box

    def test_covariance_equation_oracle(self):
        # direct matrix arithmetic on random symmetric covariances
        cfg = KalmanConfig()
        rng = np.random.default_rng(2)
        for _ in range(20):
            P = random_psd(rng, STATE_DIM)
            state = KalmanState(mean=np.zeros(STATE_DIM), cov=P)
            predicted, _ = kf_predict(state, cfg)
            expected = A @ P @ A.T + cfg.Q
            np.testing.assert_allclose(predicted.cov, expected, atol=1e-12)

    def test_mean_linearity(self):
        cfg = KalmanConfig()
        rng = np.random.default_rng(3)
        for _ in range(20):
            m1 = rng.normal(size=STATE_DIM) * 0.3
            m2 = rng.normal(size=STATE_DIM) * 0.3
            m1[3:6] = np.abs(m1[3:6])  # valid box extents
            m2[3:6] = np.abs(m2[3:6])
            a, b = rng.uniform(0.2, 0.8, 2)
            lhs, _ = kf_predict(KalmanState(a * m1 + b * m2, cfg.P0), cfg)
            r1, _ = kf_predict(KalmanState(m1, cfg.P0), cfg)
            r2, _ = kf_predict(KalmanState(m2, cfg.P0), cfg)
            np.testing.assert_allclose(lhs.mean, a * r1.mean + b * r2.mean, atol=1e-12)


class TestUpdate:
    def test_perfect_measurement_limit(self):
        cfg = KalmanConfig(R=1e-12 * np.eye(7))
        state = kf_init(Box3D(0, 0, 0, 1, 1, 1, 0), cfg)
        predicted, _ = kf_predict(state, cfg)
        obs = np.array([5, 6, 7, 2, 1, 0.5, 0.3])
        updated = kf_update(predicted, obs, cfg)
        np.testing.assert_allclose(updated.mean[:7], obs, atol=1e-6)

    def test_zero_innovation_keeps_mean(self):
        cfg = KalmanConfig()
        state = kf_init(Box3D(1, 2, 3, 4, 2, 1.5, 0.1), cfg)
        predicted, _ = kf_predict(state, cfg)
        updated = kf_update(predicted, predicted.mean[:7], cfg)
        np.testing.assert_allclose(updated.mean, predicted.mean, atol=1e-12)

    def test_heading_innovation_wraps(self):
        cfg = KalmanConfig()
        mean = np.zeros(STATE_DIM)
        mean[6] = 3.1
        predicted, _ = kf_predict(KalmanState(mean, cfg.P0), cfg)
        obs = predicted.mean[:7].copy()
        obs[6] = -3.1  # just over the cut from 3.1
        updated = kf_update(predicted, obs, cfg)
        # the filter must move toward the cut, not across the circle
        assert abs(updated.mean[6]) > 3.0

    def test_singular_innovation_raises(self):
        cfg = KalmanConfig(R=np.zeros((7, 7)), P0=np.zeros((STATE_DIM, STATE_DIM)))
        state = kf_init(Box3D(0, 0, 0, 1, 1, 1, 0), cfg)
        with pytest.raises(np.linalg.LinAlgError):
            kf_update(state, np.zeros(7), cfg)

    def test_matches_scalar_recursion_oracle(self):
        """The (x, vx) block decouples, so a hand-rolled 2-state filter
        run on the same 1D data must reproduce the full filter exactly."""
        cfg = KalmanConfig()
        p0 = np.diag([cfg.P0[0, 0], cfg.P0[7, 7]])
        q = np.diag([cfg.Q[0, 0], cfg.Q[7, 7]])
        r = cfg.R[0, 0]
        a2 = np.array([[1.0, 1.0], [0.0, 1.0]])
        h2 = np.array([[1.0, 0.0]])

        velocity = 0.7
        state = kf_init(Box3D(0, 0, 0, 1, 1, 1, 0), cfg)
        mu = np.array([0.0, 0.0])
        P = p0.copy()
        for frame in range(1, 11):
            state, _ = kf_predict(state, cfg)
            mu = a2 @ mu
            P = a2 @ P @ a2.T + q

            obs = state.mean[:7].copy()
            obs[0] = velocity * frame
            state = kf_update(state, obs, cfg)

            S = float((h2 @ P @ h2.T).item()) + r
            K = (P @ h2.T) / S
            mu = mu + (K * (velocity * frame - mu[0])).ravel()
            P = (np.eye(2) - K @ h2) @ P

            np.testing.assert_allclose(state.mean[0], mu[0], atol=1e-9)
            np.testing.assert_allclose(state.mean[7], mu[1], atol=1e-9)
        assert abs(state.mean[7] - velocity) < 1e-3


class TestFilterBehavior:
    def test_prediction_error_shrinks_on_clean_track(self):
        cfg = KalmanConfig()
        v = np.array([0.8, -0.4, 0.1])
        start = np.array([0.0, 0.0, 1.0])
        state = kf_init(Box3D(*start, 4, 2, 1.5, 0.2), cfg)
        errors = []
        for frame in range(1, 12):
            state, box = kf_predict(state, cfg)
            true_pos = start + v * frame
            errors.append(float(np.linalg.norm(box.center - true_pos)))
            obs = np.concatenate([true_pos, [4, 2, 1.5, 0.2]])
            state = kf_update(state, obs, cfg)
        assert errors[5] < errors[0]
        for e0, e1 in zip(errors[1:], errors[2:]):
            assert e1 <= e0 + 1e-9

    def test_covariance_stays_psd(self):
        cfg = KalmanConfig()
        rng = np.random.default_rng(9)
        state = kf_init(Box3D(0, 0, 0, 4, 2, 1.5, 0), cfg)
        for _ in range(1000):
            state, _ = kf_predict(state, cfg)
            obs = state.mean[:7] + rng.normal(scale=0.3, size=7)
            obs[3:6] = np.abs(obs[3:6])
            state = kf_update(state, obs, cfg)
            assert np.allclose(state.cov, state.cov.T, atol=1e-9)
            assert np.min(np.linalg.eigvalsh(state.cov)) >= -1e-9
