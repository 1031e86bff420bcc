"""Brute-force reference solver for the association MIP.

It enumerates every feasible assignment of small instances, so the
tests can check ``solve_mip`` against an optimum found without its
assignment reduction. ``result_from_matches`` fills in the result of a
given match list, and ``assert_same_result`` compares two results field
by field.
"""

import dataclasses

import numpy as np

from mipmot.association import (
    AssociationProblem,
    AssociationResult,
    _result,
    objective_coefficients,
)

ORACLE_MAX_SIZE = 5


def result_from_matches(p, coefficients, matches) -> AssociationResult:
    """The result of a given match set, with the implied variables
    filled in by the solver's own rule (``association._result``):
    unmatched nodes take their start/end option exactly when its gain
    c_cls + c_se is nonnegative (up to ``association._TIE_EPS``). The
    matches must be candidate pairs when the problem lists its pairs."""
    n = p.shape[1]
    d, k = np.array(sorted(matches), dtype=np.intp).reshape(-1, 2).T
    c_aff = coefficients[2]
    if p.pairs is None:
        return _result(p, coefficients, d, k, c_aff[d, k])
    # In match order, so the sum is the same as on the dense matrix.
    key = p.pairs[0] * n + p.pairs[1]
    at = np.flatnonzero(np.isin(key, d * n + k))
    if at.size != d.size:
        raise ValueError("a match is not a candidate pair")
    return _result(p, coefficients, d, k, c_aff[at[np.argsort(key[at])]])


def brute_force_oracle(p: AssociationProblem) -> AssociationResult:
    """Exhaustive reference solver for instances up to 5x5.

    Recursively enumerates every match pattern (each detection
    unmatched or paired with an unused track); for every pattern each
    unmatched node's two remaining options (unselected, or start/end)
    are both evaluated and the better kept. Ties on the objective are
    broken by the lexicographically smallest flattened match matrix.
    """
    m, n = p.shape
    if m > ORACLE_MAX_SIZE or n > ORACLE_MAX_SIZE:
        raise ValueError(f"oracle limited to {ORACLE_MAX_SIZE}x{ORACLE_MAX_SIZE}")
    c = objective_coefficients(p)
    c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk = c

    gain_start = c_cls_det + c_se_det
    gain_end = c_cls_trk + c_se_trk
    gain_match = c_cls_det[:, None] + c_cls_trk[None, :] + c_aff

    best_obj = -np.inf
    best_key: tuple[int, ...] | None = None
    best_matches: list[tuple[int, int]] = []
    assignment: list[int] = [-1] * m  # -1 = unmatched, else track index

    def flat_key() -> tuple[int, ...]:
        bits = [0] * (m * n)
        for d, k in enumerate(assignment):
            if k >= 0:
                bits[d * n + k] = 1
        return tuple(bits)

    def leaf():
        nonlocal best_obj, best_key, best_matches
        used = [k for k in assignment if k >= 0]
        total = 0.0
        for d, k in enumerate(assignment):
            if k >= 0:
                total += gain_match[d, k]
            else:
                total += max(0.0, gain_start[d])  # start vs unselected
        for k in range(n):
            if k not in used:
                total += max(0.0, gain_end[k])  # end vs unselected
        key = flat_key()
        if total > best_obj or (total == best_obj and key < best_key):
            best_obj = total
            best_key = key
            best_matches = [(d, k) for d, k in enumerate(assignment) if k >= 0]

    def recurse(d: int, used_mask: int):
        if d == m:
            leaf()
            return
        assignment[d] = -1
        recurse(d + 1, used_mask)
        for k in range(n):
            if not used_mask & (1 << k):
                assignment[d] = k
                recurse(d + 1, used_mask | (1 << k))
        assignment[d] = -1

    recurse(0, 0)
    result = result_from_matches(p, c, best_matches)
    # Report the independently enumerated optimum, not the value
    # recomputed from the materialized variables.
    result.objective = float(best_obj)
    return result


def assert_same_result(got: AssociationResult, expected: AssociationResult):
    """Every field of two results equal: the arrays in dtype and values,
    the objective in its bits."""
    for field in dataclasses.fields(AssociationResult):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if field.name == "objective":
            assert a.hex() == b.hex(), field.name
        elif isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), field.name
        elif isinstance(a, tuple):
            assert [v.dtype for v in a] == [v.dtype for v in b], field.name
            assert [v.tolist() for v in a] == [v.tolist() for v in b], field.name
        else:
            assert a == b, field.name
