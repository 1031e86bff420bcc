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
unselected at 0). So a pair can be matched in an optimal solution only
if its gain ``w_cls*(x_cls_det-1) + w_cls*(x_cls_trk-1) + w_aff*x_aff``
reaches the sum of its two outside options; otherwise giving both
nodes their outside options scores strictly more. solve_mip keeps the
pairs that pass and solves a maximum-weight matching on them, which
is exact. ``assign_pairs`` solves such a matching over a sparse pair
list; the evaluator's CLEAR MOT matching is solved by it too.
scipy (its ``linear_sum_assignment``) loads only when ``assign_pairs``
meets a contested block, pairs that share a row or a column, or when
``hungarian_baseline`` runs: the evaluator loads it only on a frame
where two allowed pairs share a box.

A result keeps what the solver chose, the matches and the start/end
choices; each node's selection is worked out from them when read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The inputs that are probabilities, each checked to lie in [0, 1], in
# the order a fault names them.
_UNIT_INPUTS = ("x_cls_det", "x_cls_trk", "x_se_det", "x_se_trk")


@dataclass
class AssociationProblem:
    """Inputs of one frame's association: confidences, affinities, weights.

    ``x_aff`` is the (M, N) affinity matrix, or with ``pairs = (rows,
    cols)`` the (K,) affinities of those candidate pairs; every other
    pair is then not allowed to match (its y_aff is fixed to 0).
    """

    x_cls_det: np.ndarray
    x_cls_trk: np.ndarray
    x_aff: np.ndarray
    x_se_det: np.ndarray
    x_se_trk: np.ndarray
    w_cls: float
    w_aff: float
    w_se: float
    pairs: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        for name in _UNIT_INPUTS:
            setattr(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        m, n = self.shape
        if self.pairs is None:
            self.x_aff = np.asarray(self.x_aff, dtype=float).reshape(m, n)
        else:
            rows, cols = (np.asarray(v, dtype=np.intp).ravel() for v in self.pairs)
            self.pairs = rows, cols
            self.x_aff = np.asarray(self.x_aff, dtype=float).reshape(rows.size)
            if cols.size != rows.size:
                raise ValueError("pair rows and columns differ in length")
            inside = (rows >= 0) & (rows < m) & (cols >= 0) & (cols < n)
            if not inside.all():
                raise ValueError(f"a pair lies outside the {m}x{n} problem")
            key = np.sort(rows * n + cols)
            if (key[1:] == key[:-1]).any():
                raise ValueError("a pair is listed twice")
        if self.x_se_det.shape != (m,) or self.x_se_trk.shape != (n,):
            raise ValueError("start/end probability sizes do not match")
        # One test over all four; NaN and +-inf fail it too.
        unit = [getattr(self, name) for name in _UNIT_INPUTS]
        inside = np.concatenate(unit)
        inside = (inside >= 0.0) & (inside <= 1.0)
        if not inside.all():
            ends = np.cumsum([v.size for v in unit])
            name = _UNIT_INPUTS[int(np.searchsorted(ends, inside.argmin(), "right"))]
            raise ValueError(f"{name} must lie in [0, 1]")
        if not np.all(np.isfinite(self.x_aff)):
            raise ValueError("x_aff contains non-finite values")
        if min(self.w_cls, self.w_aff, self.w_se) <= 0.0:
            raise ValueError("weights must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return self.x_cls_det.size, self.x_cls_trk.size


@dataclass
class AssociationResult:
    """A feasible binary assignment and its objective value: the matches
    (y_aff) and start/end choices (y_se) the solver made. Each node's
    selection y_cls = y_aff + y_se is worked out from them."""

    # Matched (detection, track) index pairs, sorted by (d, k), as two
    # index arrays: the pairs whose y_aff is 1; every other y_aff is 0.
    matched: tuple[np.ndarray, np.ndarray]
    y_se_det: np.ndarray
    y_se_trk: np.ndarray
    objective: float

    @property
    def matches(self) -> list[tuple[int, int]]:
        """The matched pairs as a sorted list of (d, k) ints."""
        d, k = self.matched
        return list(zip(d.tolist(), k.tolist()))

    @property
    def y_cls_det(self) -> np.ndarray:
        """Each detection's selection: matched plus started."""
        return np.bincount(self.matched[0], minlength=self.y_se_det.size) + self.y_se_det

    @property
    def y_cls_trk(self) -> np.ndarray:
        """Each track's selection: matched plus ended."""
        return np.bincount(self.matched[1], minlength=self.y_se_trk.size) + self.y_se_trk

    def satisfies_constraints(self) -> bool:
        """No node is selected more than once: none is matched twice, or
        matched and also started (ended)."""
        return bool(max(self.y_cls_det.max(initial=0), self.y_cls_trk.max(initial=0)) <= 1)


def objective_coefficients(p: AssociationProblem) -> tuple[np.ndarray, ...]:
    """Objective coefficients (c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk).

    c_cls = w_cls * (x_cls - 1) <= 0 discourages selecting uncertain
    objects; c_aff = w_aff * x_aff (shaped as ``p.x_aff``) and
    c_se = w_se * x_se are rewards.
    """
    return (
        p.w_cls * (p.x_cls_det - 1.0),
        p.w_cls * (p.x_cls_trk - 1.0),
        p.w_aff * p.x_aff,
        p.w_se * p.x_se_det,
        p.w_se * p.x_se_trk,
    )


# Slack on affinity_needed, far above the float rounding of a pair's
# gain, so that no pair that can be matched is left out.
_NEED_MARGIN = 1e-9


def affinity_needed(x_cls, x_se, w_cls: float, w_aff: float, w_se: float) -> np.ndarray:
    """Per node, its share of the affinity a pair needs to be matched.

    A pair (d, k) can be in an optimal solution only if its gain
    c_cls_det + c_cls_trk + w_aff * x_aff reaches the outside options
    out_det + out_trk, that is only if x_aff >= need_det[d] +
    need_trk[k] with need = (out - c_cls) / w_aff =
    max(w_cls * (1 - x_cls), w_se * x_se) / w_aff. The values returned
    are lowered by 1e-9 * (1 + need), far more than the rounding of a
    gain, so a gate on them keeps every pair solve_mip could match.
    """
    x_cls = np.asarray(x_cls, dtype=float)
    need = np.maximum(w_cls * (1.0 - x_cls), w_se * np.asarray(x_se, dtype=float))
    return need * ((1.0 - _NEED_MARGIN) / w_aff) - _NEED_MARGIN


# Start/end gains that are zero up to float noise count as zero; at a
# tie the selected solution is preferred (a certain detection with a
# certain start is kept alive rather than dropped).
_TIE_EPS = 1e-12


def _result(p, coefficients, d, k, matched_aff) -> AssociationResult:
    """The result of the matches (d[i], k[i]), sorted by (d, k), whose
    affinity coefficients are ``matched_aff``, summed in that order."""
    c_cls_det, c_cls_trk, _, c_se_det, c_se_trk = coefficients
    m, n = p.shape
    matched_det = np.bincount(d, minlength=m)
    matched_trk = np.bincount(k, minlength=n)
    y_se_det = ((matched_det == 0) & (c_cls_det + c_se_det >= -_TIE_EPS)).astype(int)
    y_se_trk = ((matched_trk == 0) & (c_cls_trk + c_se_trk >= -_TIE_EPS)).astype(int)
    objective = float(
        c_cls_det @ (matched_det + y_se_det)
        + c_cls_trk @ (matched_trk + y_se_trk)
        + np.sum(matched_aff)
        + c_se_det @ y_se_det
        + c_se_trk @ y_se_trk
    )
    return AssociationResult((d, k), y_se_det, y_se_trk, objective)


def assign_pairs(rows, cols, weight, m: int, n: int) -> np.ndarray:
    """Positions, among the pairs (rows[i], cols[i]) of an m × n
    problem, each listed once with its weight[i] >= 0, of a
    maximum-weight matching.

    A pair alone in its row and its column is matched directly; these
    come first, in the pairs' order. The other pairs go to one
    ``linear_sum_assignment`` over the block of their own rows and
    columns, in which a cell that is not a pair weighs 0 and matches
    nothing; their positions are read from a position matrix beside the
    weight matrix, in the assignment's row order.
    """
    lone = np.bincount(rows, minlength=m)[rows] == 1
    lone &= np.bincount(cols, minlength=n)[cols] == 1
    at = [np.flatnonzero(lone)]
    rest = np.flatnonzero(~lone)
    if rest.size:
        from scipy.optimize import linear_sum_assignment

        r, c = rows[rest], cols[rest]
        sub_rows = np.flatnonzero(np.bincount(r, minlength=m))
        sub_cols = np.flatnonzero(np.bincount(c, minlength=n))
        i, j = np.searchsorted(sub_rows, r), np.searchsorted(sub_cols, c)
        block = np.zeros((sub_rows.size, sub_cols.size))
        block[i, j] = weight[rest]
        where = np.full(block.shape, -1, dtype=np.intp)
        where[i, j] = rest
        where = where[linear_sum_assignment(block, maximize=True)]
        at.append(where[where >= 0])
    return np.concatenate(at)


def solve_mip(p: AssociationProblem) -> AssociationResult:
    """Exact maximizer of the association objective.

    The objective is the sum of every node's best outside value
    out = max(0, c_cls + c_se) plus, per matched pair, its slack
    c_cls_det + c_cls_trk + c_aff - out_det - out_trk. A pair with
    negative slack loses strictly to the two outside options, so only
    the candidate pairs with slack >= 0 are kept. A kept pair whose two
    nodes have no other kept pair is matched directly; the other kept
    pairs go to one maximum-weight assignment over their rows and
    columns (``assign_pairs``, with each kept pair's slack as its
    weight). Among equal-objective solutions, more matches are preferred
    where they cost exactly nothing: the kept pairs of slack 0 whose two
    nodes that assignment left free go to a second ``assign_pairs`` with
    weight 1 each, which matches as many of them as it can, so ids are
    carried instead of re-created.

    Each step yields the positions of its matches among the kept pairs,
    so the matched affinities are gathered by position, in (d, k)
    order, with no lookup of the matches in the pair list.
    """
    m, n = p.shape
    coefficients = objective_coefficients(p)
    c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk = coefficients
    out_det = np.maximum(0.0, c_cls_det + c_se_det)
    out_trk = np.maximum(0.0, c_cls_trk + c_se_trk)
    # Broadcasting views for the dense matrix, the pair lists otherwise.
    i, j = (np.s_[:, None], np.s_[None, :]) if p.pairs is None else p.pairs
    slack = c_cls_det[i] + c_cls_trk[j] + c_aff - out_det[i] - out_trk[j]
    kept = np.nonzero(slack >= 0.0)
    rows, cols = kept if p.pairs is None else (i[kept], j[kept])
    slack, aff = slack[kept], c_aff[kept]

    at = assign_pairs(rows, cols, slack, m, n)

    # Zero-cost augmentation: matching a pair whose gain exactly offsets
    # both outside options changes nothing in the objective but keeps
    # the track id alive.
    zero = np.flatnonzero(slack == 0.0)
    if zero.size:
        free = np.bincount(rows[at], minlength=m)[rows[zero]] == 0
        free &= np.bincount(cols[at], minlength=n)[cols[zero]] == 0
        zero = zero[free]
        fill = assign_pairs(rows[zero], cols[zero], np.ones(zero.size), m, n)
        at = np.concatenate((at, zero[fill]))

    at = at[np.lexsort((cols[at], rows[at]))]
    return _result(p, coefficients, rows[at], cols[at], aff[at])


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
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(x_aff, maximize=True)
    pairs = [(int(d), int(k)) for d, k in zip(rows, cols)]
    if gate is not None:
        pairs = [(d, k) for d, k in pairs if x_aff[d, k] >= gate]
    return sorted(pairs)
