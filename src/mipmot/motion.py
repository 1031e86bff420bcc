"""Constant-velocity Kalman filter over oriented 3D boxes.

State is a 10-vector (x, y, z, l, w, h, a, vx, vy, vz): box pose and
size plus the per-frame center velocity. The measurement is the
(x, y, z, l, w, h, a) subset. The time step is one frame, so velocities
are per-frame displacements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Box3D, wrap_angle

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


@dataclass
class KalmanState:
    """Filter state: mean 10-vector and 10x10 covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).copy()
        self.cov = np.asarray(self.cov, dtype=float).copy()
        if self.mean.shape != (STATE_DIM,):
            raise ValueError(f"mean must have shape ({STATE_DIM},)")
        if self.cov.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"cov must have shape ({STATE_DIM}, {STATE_DIM})")
        self.mean[HEADING_IDX] = wrap_angle(self.mean[HEADING_IDX])

    def box(self) -> Box3D:
        """Pose/size subset of the mean as a box."""
        return Box3D.from_array(self.mean[:MEAS_DIM])


def kf_init(box: Box3D, cfg: KalmanConfig) -> KalmanState:
    """Start a track from a detection: measured pose, zero velocity, P0."""
    mean = np.zeros(STATE_DIM)
    mean[:MEAS_DIM] = box.to_array()
    return KalmanState(mean=mean, cov=cfg.P0)


def kf_predict(s: KalmanState, cfg: KalmanConfig) -> tuple[KalmanState, Box3D]:
    """One-frame prediction; the returned box is the predicted pose/size."""
    mean = A @ s.mean
    cov = A @ s.cov @ A.T + cfg.Q
    out = KalmanState(mean=mean, cov=0.5 * (cov + cov.T))
    return out, out.box()


def kf_update(s: KalmanState, observation, cfg: KalmanConfig) -> KalmanState:
    """Measurement update of a predicted state.

    The heading innovation is wrapped to (-pi, pi] so observations on
    either side of the angular cut behave identically. Raises
    numpy.linalg.LinAlgError when the innovation covariance is singular
    (degenerate R / P configuration).
    """
    obs = np.asarray(observation, dtype=float)
    if obs.shape != (MEAS_DIM,):
        raise ValueError(f"observation must have shape ({MEAS_DIM},)")
    innovation = obs - H @ s.mean
    innovation[HEADING_IDX] = wrap_angle(innovation[HEADING_IDX])
    S = H @ s.cov @ H.T + cfg.R
    # K = P H^T S^-1; S is symmetric so solve once instead of inverting.
    K = np.linalg.solve(S, H @ s.cov).T
    mean = s.mean + K @ innovation
    cov = (np.eye(STATE_DIM) - K @ H) @ s.cov
    return KalmanState(mean=mean, cov=0.5 * (cov + cov.T))
