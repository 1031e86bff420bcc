"""Brute-force candidate pairs of the evaluator's IoU pair form.

Each frame's circumcircle test runs over every pair of its boxes at
once, as one (M, N) array expression with the operands and operations
of ``geometry.bev_iou_matrices``' exact test, and each pair that meets
is scored by the overlap kernel alone. The sorted sweep of
``bev_iou_matrices`` must list the same pairs, in the same row-major
order, with the same IoU bits. ``bev_iou_matrix`` scatters one frame's
pairs from ``bev_iou_matrices`` into its dense matrix.
"""

import numpy as np

from mipmot.geometry import IouPairs, _bev_ious, bev_iou_matrices


def brute_force_pairs(frames) -> IouPairs:
    """The ``IouPairs`` of a sequence of (a, b) box array pairs: every
    pair whose footprint circumcircles meet, row-major within a frame."""
    start, rows, cols, ious = [0], [], [], []
    for a, b in frames:
        a = np.asarray(a, dtype=float).reshape(-1, 7)
        b = np.asarray(b, dtype=float).reshape(-1, 7)
        radius_a = 0.5 * np.hypot(a[:, 3], a[:, 4])
        radius_b = 0.5 * np.hypot(b[:, 3], b[:, 4])
        dx = b[None, :, 0] - a[:, None, 0]
        dy = b[None, :, 1] - a[:, None, 1]
        reach = radius_a[:, None] + radius_b[None, :]
        i, j = np.nonzero(dx * dx + dy * dy <= reach * reach)
        rows.extend(i.tolist())
        cols.extend(j.tolist())
        ious.extend(float(_bev_ious(a[k : k + 1], b[l : l + 1])[0]) for k, l in zip(i, j))
        start.append(len(rows))
    return IouPairs(
        np.array(start, np.intp),
        np.array(rows, np.intp),
        np.array(cols, np.intp),
        np.array(ious, float),
    )


def assert_same_pairs(got: IouPairs, expected: IouPairs):
    """The two pair forms list the same pairs in the same order, and
    their IoUs bit for bit."""
    for name, x, y in zip(IouPairs._fields, got, expected):
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


def bev_iou_matrix(a, b) -> np.ndarray:
    """Ground-plane IoU of every pair of an (M, 7) and an (N, 7) box
    array: ``bev_iou_matrices`` of the one frame, scattered."""
    a = np.asarray(a, dtype=float).reshape(-1, 7)
    b = np.asarray(b, dtype=float).reshape(-1, 7)
    pairs = bev_iou_matrices([(a, b)])
    out = np.zeros((len(a), len(b)))
    out[pairs.rows, pairs.cols] = pairs.ious
    return out
