"""The association program as the paper writes it, solved by a MILP solver.

Binary variables y_cls (one per detection and per track), y_aff (one
per pair) and y_se (one per detection and per track), with the equality
constraints "selection = match + start" on every detection and
"selection = match + end" on every track, handed to
``scipy.optimize.milp`` (HiGHS) with no optimality gap. It shares
nothing with ``solve_mip``'s assignment reduction beyond the objective
coefficients, so it checks that reduction at sizes the brute-force
oracle cannot reach.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from mipmot.association import AssociationProblem, objective_coefficients


def milp_oracle(p: AssociationProblem, allowed=None) -> float:
    """Optimal objective of the literal binary program. With an (M, N)
    boolean ``allowed``, every other pair is fixed to y_aff = 0."""
    c = np.concatenate([np.ravel(v) for v in objective_coefficients(p)])
    return float(c @ milp_solution(p, allowed))


def milp_solution(p: AssociationProblem, allowed=None, exclude=()) -> np.ndarray | None:
    """An optimal 0/1 vector of the literal binary program, in the
    variable order y_cls_det (M), y_cls_trk (N), y_aff (M * N, row
    major), y_se_det (M), y_se_trk (N); None when no vector is feasible.

    With an (M, N) boolean ``allowed``, every other pair is fixed to
    y_aff = 0. Each vector of ``exclude`` is cut off: the solution
    differs from it in at least one variable, so a second call that
    excludes the first solution finds the runner-up."""
    m, n = p.shape
    c = np.concatenate([np.ravel(v) for v in objective_coefficients(p)])
    if c.size == 0:
        return None if len(exclude) else c
    eq = np.zeros((m + n, c.size))
    rows_det, rows_trk = np.arange(m), m + np.arange(n)
    eq[rows_det, rows_det] = 1.0
    eq[rows_trk, m + np.arange(n)] = 1.0
    for d in range(m):
        for k in range(n):
            eq[d, m + n + d * n + k] = -1.0
            eq[m + k, m + n + d * n + k] = -1.0
    eq[rows_det, m + n + m * n + np.arange(m)] = -1.0
    eq[rows_trk, 2 * m + n + m * n + np.arange(n)] = -1.0
    constraints = [LinearConstraint(eq, 0.0, 0.0)]
    for x in exclude:
        # sum of the variables set in x, less those clear in x, drops by one
        constraints.append(LinearConstraint(2.0 * x - 1.0, -np.inf, x.sum() - 1.0))
    upper = np.ones(c.size)
    if allowed is not None:
        upper[m + n : m + n + m * n] = np.asarray(allowed, dtype=bool).ravel()
    res = milp(
        -c,
        constraints=constraints,
        integrality=np.ones(c.size),
        bounds=Bounds(0.0, upper),
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:  # infeasible
        return None
    if not res.success:
        raise RuntimeError(f"MILP failed: {res.message}")
    return np.round(res.x)
