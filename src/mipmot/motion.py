"""Constant-velocity Kalman filter over oriented 3D boxes.

State is a 10-vector (x, y, z, l, w, h, a, vx, vy, vz): box pose and
size plus the per-frame center velocity. The measurement is the
(x, y, z, l, w, h, a) subset. The time step is one frame, so velocities
are per-frame displacements.

The filter functions work over leading axes: a (10,) mean and a
(10, 10) covariance are one track, a (T, 10) and a (T, 10, 10) stack
are T tracks filtered at once with the same arithmetic per row.

The covariance half of the filter never reads a mean or a measurement:
predict maps P to A P A^T + Q, and update maps P to (I - K H) P with
K = P H^T (H P H^T + R)^-1. Tracks with the same covariance, predicted
and updated on the same frames, therefore keep the same covariance, so
the tracker stores it once for all of them, in a table of U entries,
and points every track at its entry. ``kf_predict`` maps the
T means and the U entries, whose leading axes need not agree, and
``kf_update`` takes the matched rows' entries plus a row-to-entry
``index``. Each matrix goes through its own LAPACK ``gesv`` solve and
matrix products whatever the stack around it, so an entry has the bytes
that each of its rows would get if filtered alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .geometry import wrap_angle

if TYPE_CHECKING:
    from .config import TrackerConfig

STATE_DIM = 10
MEAS_DIM = 7
HEADING_IDX = 6

# The identity, which Q and I - K H are built on.
EYE = np.eye(STATE_DIM)
EYE.setflags(write=False)

# Constant-velocity transition: position advances by one frame of velocity.
A = np.eye(STATE_DIM)
A[0, 7] = A[1, 8] = A[2, 9] = 1.0
A.setflags(write=False)

# Measurement matrix selecting (x, y, z, l, w, h, a).
H = np.eye(MEAS_DIM, STATE_DIM)
H.setflags(write=False)


def kf_init(boxes, cfg: TrackerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start tracks from (..., 7) detection boxes: measured pose, zero
    velocity, covariance P0 = diag(``kalman_p0_diag``)."""
    boxes = np.asarray(boxes, dtype=float)
    mean = np.zeros(boxes.shape[:-1] + (STATE_DIM,))
    mean[..., :MEAS_DIM] = boxes
    mean[..., HEADING_IDX] = wrap_angle(mean[..., HEADING_IDX])
    p0 = np.diag(cfg.kalman_p0_diag)
    return mean, np.broadcast_to(p0, mean.shape + (STATE_DIM,)).copy()


def kf_predict(mean, cov, cfg: TrackerConfig) -> tuple[np.ndarray, np.ndarray]:
    """One-frame prediction of (..., 10) means and (..., 10, 10)
    covariances with process noise Q = ``kalman_q_scale`` * I; the
    predicted pose/size is ``mean[..., :7]``. Means and covariances are
    mapped independently, so their leading axes need not agree."""
    cov = A @ cov @ A.T + cfg.kalman_q_scale * EYE
    return mean @ A.T, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def kf_update(
    mean, cov, observations, cfg: TrackerConfig, index=None
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of predicted (..., 10) means by (..., 7)
    observations with measurement noise R = diag(``kalman_r_diag``).

    Without ``index``, ``cov`` holds one (10, 10) covariance per mean,
    as (..., 10, 10). With ``index``, an integer array shaped like the
    means' leading axes, ``cov`` is a table of (E, 10, 10) entries and
    mean k is filtered with ``cov[index[k]]``: the gain of each entry is
    solved once and gathered per row. Returns the updated means and the
    updated covariances, one per entry of ``cov``.

    The heading innovation is wrapped to (-pi, pi] so observations on
    either side of the angular cut behave identically. ``TrackerConfig``
    keeps R positive, so the innovation covariance of a positive
    semidefinite ``cov`` is invertible; numpy.linalg.LinAlgError (a
    singular innovation covariance) needs a ``cov`` that is not.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.shape != mean.shape[:-1] + (MEAS_DIM,):
        raise ValueError(f"observations of shape {obs.shape} do not fit means {mean.shape}")
    if index is not None and np.shape(index) != mean.shape[:-1]:
        raise ValueError(f"index of shape {np.shape(index)} does not fit means {mean.shape}")
    # H selects the first MEAS_DIM state entries, so each product with it
    # is a slice, with the same bits as the matmul.
    innovation = obs - mean[..., :MEAS_DIM]
    innovation[..., HEADING_IDX] = wrap_angle(innovation[..., HEADING_IDX])
    S = cov[..., :MEAS_DIM, :MEAS_DIM] + np.diag(cfg.kalman_r_diag)
    # K = P H^T S^-1; S is symmetric so solve once instead of inverting.
    K = np.swapaxes(np.linalg.solve(S, cov[..., :MEAS_DIM, :]), -1, -2)
    row_gain = K if index is None else K[index]
    mean = mean + (row_gain @ innovation[..., None])[..., 0]
    mean[..., HEADING_IDX] = wrap_angle(mean[..., HEADING_IDX])
    # I - K H: -K in the first MEAS_DIM columns, plus the identity.
    i_kh = np.zeros(cov.shape)
    np.negative(K, out=i_kh[..., :MEAS_DIM])
    i_kh += EYE
    cov = i_kh @ cov
    cov += np.swapaxes(cov, -1, -2)
    cov *= 0.5
    return mean, cov
