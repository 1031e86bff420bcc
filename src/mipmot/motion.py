"""Constant-velocity Kalman filter over oriented 3D boxes.

State is a 10-vector (x, y, z, l, w, h, a, vx, vy, vz): box pose and
size plus the per-frame center velocity. The measurement is the
(x, y, z, l, w, h, a) subset. The time step is one frame, so velocities
are per-frame displacements.

The filter functions work over leading axes: a (10,) mean and a
(10, 10) covariance are one track, a (T, 10) and a (T, 10, 10) stack
are T tracks filtered at once with the same arithmetic per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import wrap_angle

STATE_DIM = 10
MEAS_DIM = 7
HEADING_IDX = 6

DEFAULT_P0_DIAG = (1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1, 10.0, 10.0, 10.0)
DEFAULT_R_DIAG = (0.5, 0.5, 0.5, 0.05, 0.05, 0.05, 0.05)
DEFAULT_Q_SCALE = 0.01

# Constant-velocity transition: position advances by one frame of velocity.
A = np.eye(STATE_DIM)
A[0, 7] = A[1, 8] = A[2, 9] = 1.0
A.setflags(write=False)

# Measurement matrix selecting (x, y, z, l, w, h, a).
H = np.eye(MEAS_DIM, STATE_DIM)
H.setflags(write=False)


def _check_spd_like(name: str, m: np.ndarray, dim: int) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {m.shape}")
    if not np.allclose(m, m.T, atol=1e-9):
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(m)) < -1e-9:
        raise ValueError(f"{name} must be positive semidefinite")
    return 0.5 * (m + m.T)


@dataclass
class KalmanConfig:
    """Noise covariances of the constant-velocity model. The default
    initial velocity variance is large: the initial velocity is unknown."""

    R: np.ndarray = field(default_factory=lambda: np.diag(DEFAULT_R_DIAG))
    Q: np.ndarray = field(default_factory=lambda: DEFAULT_Q_SCALE * np.eye(STATE_DIM))
    P0: np.ndarray = field(default_factory=lambda: np.diag(DEFAULT_P0_DIAG))

    def __post_init__(self):
        self.R = _check_spd_like("R", self.R, MEAS_DIM)
        self.Q = _check_spd_like("Q", self.Q, STATE_DIM)
        self.P0 = _check_spd_like("P0", self.P0, STATE_DIM)

    @classmethod
    def from_diagonals(cls, p0_diag, r_diag, q_scale: float) -> "KalmanConfig":
        return cls(R=np.diag(r_diag), Q=q_scale * np.eye(STATE_DIM), P0=np.diag(p0_diag))


def kf_init(boxes, cfg: KalmanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start tracks from (..., 7) detection boxes: measured pose, zero
    velocity, covariance P0."""
    boxes = np.asarray(boxes, dtype=float)
    mean = np.zeros(boxes.shape[:-1] + (STATE_DIM,))
    mean[..., :MEAS_DIM] = boxes
    mean[..., HEADING_IDX] = wrap_angle(mean[..., HEADING_IDX])
    return mean, np.broadcast_to(cfg.P0, mean.shape + (STATE_DIM,)).copy()


def kf_predict(mean, cov, cfg: KalmanConfig) -> tuple[np.ndarray, np.ndarray]:
    """One-frame prediction of (..., 10) means and (..., 10, 10)
    covariances; the predicted pose/size is ``mean[..., :7]``."""
    cov = A @ cov @ A.T + cfg.Q
    return mean @ A.T, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def kf_update(mean, cov, observations, cfg: KalmanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of predicted (..., 10) means and (..., 10, 10)
    covariances by (..., 7) observations.

    The heading innovation is wrapped to (-pi, pi] so observations on
    either side of the angular cut behave identically. Raises
    numpy.linalg.LinAlgError when an innovation covariance is singular
    (degenerate R / P configuration).
    """
    obs = np.asarray(observations, dtype=float)
    if obs.shape != mean.shape[:-1] + (MEAS_DIM,):
        raise ValueError(f"observations of shape {obs.shape} do not fit means {mean.shape}")
    innovation = obs - mean @ H.T
    innovation[..., HEADING_IDX] = wrap_angle(innovation[..., HEADING_IDX])
    S = H @ cov @ H.T + cfg.R
    # K = P H^T S^-1; S is symmetric so solve once instead of inverting.
    K = np.swapaxes(np.linalg.solve(S, H @ cov), -1, -2)
    mean = mean + (K @ innovation[..., None])[..., 0]
    mean[..., HEADING_IDX] = wrap_angle(mean[..., HEADING_IDX])
    cov = (np.eye(STATE_DIM) - K @ H) @ cov
    return mean, 0.5 * (cov + np.swapaxes(cov, -1, -2))
