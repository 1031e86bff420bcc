"""Data association by exact binary integer programming.

Each detection and each track gets a selection variable (y_cls), each
detection-track pair a match variable (y_aff), and each object a
start/end variable (y_se). Selection equals match-plus-start (or
match-plus-end) per node, so every detection is matched to at most one
track and vice versa. The objective rewards matches and start/end
choices but penalizes selecting low-confidence objects:

    maximize  sum w_cls*(x_cls - 1)*y_cls + w_aff*x_aff*y_aff
              + w_se*x_se*y_se

The constraint structure is a bipartite matching in which every node
also has an independent outside option (start or end, worth
``w_cls*(x_cls-1) + w_se*x_se`` when nonnegative, else staying
unselected at 0). solve_mip exploits that: it solves a square
assignment problem over real pairs plus per-node self-edges, which is
exact; brute_force_oracle independently enumerates every feasible
assignment for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

def _check_unit(name: str, v: np.ndarray):
    if v.size and (not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")


@dataclass
class AssociationProblem:
    """Inputs of one frame's association: confidences, affinities, weights."""

    x_cls_det: np.ndarray
    x_cls_trk: np.ndarray
    x_aff: np.ndarray
    x_se_det: np.ndarray
    x_se_trk: np.ndarray
    w_cls: float
    w_aff: float
    w_se: float

    def __post_init__(self):
        self.x_cls_det = np.atleast_1d(np.asarray(self.x_cls_det, dtype=float))
        self.x_cls_trk = np.atleast_1d(np.asarray(self.x_cls_trk, dtype=float))
        self.x_se_det = np.atleast_1d(np.asarray(self.x_se_det, dtype=float))
        self.x_se_trk = np.atleast_1d(np.asarray(self.x_se_trk, dtype=float))
        self.x_aff = np.asarray(self.x_aff, dtype=float).reshape(
            self.x_cls_det.size, self.x_cls_trk.size
        )
        m, n = self.shape
        if self.x_se_det.shape != (m,) or self.x_se_trk.shape != (n,):
            raise ValueError("start/end probability sizes do not match")
        _check_unit("x_cls_det", self.x_cls_det)
        _check_unit("x_cls_trk", self.x_cls_trk)
        _check_unit("x_se_det", self.x_se_det)
        _check_unit("x_se_trk", self.x_se_trk)
        if not np.all(np.isfinite(self.x_aff)):
            raise ValueError("x_aff contains non-finite values")
        if min(self.w_cls, self.w_aff, self.w_se) <= 0.0:
            raise ValueError("weights must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return self.x_cls_det.size, self.x_cls_trk.size


@dataclass
class AssociationResult:
    """A feasible binary assignment and its objective value."""

    y_cls_det: np.ndarray
    y_cls_trk: np.ndarray
    y_aff: np.ndarray
    y_se_det: np.ndarray
    y_se_trk: np.ndarray
    objective: float

    @property
    def matches(self) -> list[tuple[int, int]]:
        """Matched (detection, track) index pairs, by detection index."""
        d, k = np.nonzero(self.y_aff)
        return sorted(zip(d.tolist(), k.tolist()))

    def satisfies_constraints(self) -> bool:
        """Selection equals match-plus-start (end) on every node."""
        ok_det = np.array_equal(
            self.y_cls_det, self.y_aff.sum(axis=1) + self.y_se_det
        )
        ok_trk = np.array_equal(
            self.y_cls_trk, self.y_aff.sum(axis=0) + self.y_se_trk
        )
        return bool(ok_det and ok_trk)


def objective_coefficients(p: AssociationProblem) -> tuple[np.ndarray, ...]:
    """Objective coefficients (c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk).

    c_cls = w_cls * (x_cls - 1) <= 0 discourages selecting uncertain
    objects; c_aff = w_aff * x_aff and c_se = w_se * x_se are rewards.
    """
    return (
        p.w_cls * (p.x_cls_det - 1.0),
        p.w_cls * (p.x_cls_trk - 1.0),
        p.w_aff * p.x_aff,
        p.w_se * p.x_se_det,
        p.w_se * p.x_se_trk,
    )


# Start/end gains that are zero up to float noise count as zero; at a
# tie the selected solution is preferred (a certain detection with a
# certain start is kept alive rather than dropped).
_TIE_EPS = 1e-12


def result_from_matches(p, coefficients, matches) -> AssociationResult:
    """Fill the implied variables for a given match set.

    Unmatched nodes take their start/end option exactly when its gain
    c_cls + c_se is nonnegative (up to _TIE_EPS).
    """
    c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk = coefficients
    m, n = p.shape
    y_aff = np.zeros((m, n), dtype=int)
    for d, k in matches:
        y_aff[d, k] = 1
    matched_det = y_aff.sum(axis=1)
    matched_trk = y_aff.sum(axis=0)
    y_se_det = ((matched_det == 0) & (c_cls_det + c_se_det >= -_TIE_EPS)).astype(int)
    y_se_trk = ((matched_trk == 0) & (c_cls_trk + c_se_trk >= -_TIE_EPS)).astype(int)
    y_cls_det = matched_det + y_se_det
    y_cls_trk = matched_trk + y_se_trk
    objective = float(
        c_cls_det @ y_cls_det
        + c_cls_trk @ y_cls_trk
        + np.sum(c_aff * y_aff)
        + c_se_det @ y_se_det
        + c_se_trk @ y_se_trk
    )
    return AssociationResult(
        y_cls_det=y_cls_det,
        y_cls_trk=y_cls_trk,
        y_aff=y_aff,
        y_se_det=y_se_det,
        y_se_trk=y_se_trk,
        objective=objective,
    )


def solve_mip(p: AssociationProblem) -> AssociationResult:
    """Exact maximizer of the association objective.

    Reduction: an (M+N) x (N+M) assignment matrix whose top-left block
    holds match gains c_cls_det + c_cls_trk + c_aff, whose diagonal
    self-edge blocks hold each node's best outside value
    max(0, c_cls + c_se), and whose dummy-dummy block is zero. A
    maximum-weight perfect matching of that matrix is an optimal MIP
    solution. Among equal-objective solutions, unmatched pairs whose
    match would cost exactly nothing are matched afterwards so ids are
    carried instead of re-created.
    """
    m, n = p.shape
    coefficients = objective_coefficients(p)
    c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk = coefficients
    out_det = np.maximum(0.0, c_cls_det + c_se_det)
    out_trk = np.maximum(0.0, c_cls_trk + c_se_trk)

    matches: list[tuple[int, int]] = []
    if m > 0 and n > 0:
        gain = c_cls_det[:, None] + c_cls_trk[None, :] + c_aff
        # Forbidden assignments only need to lose to every feasible one.
        scale = max(
            1.0, float(np.abs(gain).max()), float(out_det.max()), float(out_trk.max())
        )
        forbidden = -(m + n) * (scale + 1.0)
        size = m + n
        S = np.full((size, size), forbidden)
        S[:m, :n] = gain
        S[np.arange(m), n + np.arange(m)] = out_det
        S[m + np.arange(n), np.arange(n)] = out_trk
        S[m:, n:] = 0.0
        rows, cols = linear_sum_assignment(S, maximize=True)
        matches = [(int(r), int(k)) for r, k in zip(rows, cols) if r < m and k < n]

        # Zero-cost augmentation: matching an unmatched pair whose gain
        # exactly offsets both outside options changes nothing in the
        # objective but keeps the track id alive.
        free_det = sorted(set(range(m)) - {d for d, _ in matches})
        free_trk = sorted(set(range(n)) - {k for _, k in matches})
        for d in free_det:
            for k in free_trk:
                if gain[d, k] - out_det[d] - out_trk[k] == 0.0:
                    matches.append((d, k))
                    free_trk.remove(k)
                    break
        matches.sort()

    return result_from_matches(p, coefficients, matches)


def hungarian_baseline(x_aff, gate: float | None = None) -> list[tuple[int, int]]:
    """Maximum-total-affinity one-to-one matching over all inputs.

    The baseline trusts every input as a true positive: min(M, N) pairs
    are always formed regardless of affinity sign. A gate, when given,
    drops pairs with affinity below it after matching.
    """
    x_aff = np.asarray(x_aff, dtype=float)
    if x_aff.ndim != 2:
        raise ValueError(f"affinity matrix must be 2-D, got {x_aff.shape}")
    if not np.all(np.isfinite(x_aff)):
        raise ValueError("affinities must be finite")
    if x_aff.size == 0:
        return []
    rows, cols = linear_sum_assignment(x_aff, maximize=True)
    pairs = [(int(d), int(k)) for d, k in zip(rows, cols)]
    if gate is not None:
        pairs = [(d, k) for d, k in pairs if x_aff[d, k] >= gate]
    return sorted(pairs)
