import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milp_oracle import milp_oracle
from mip_oracle import assert_same_result, brute_force_oracle, result_from_matches
from mipmot.association import (
    AssociationProblem,
    AssociationResult,
    affinity_needed,
    assign_pairs,
    hungarian_baseline,
    objective_coefficients,
    solve_mip,
)

PAPER = dict(w_cls=100.0, w_aff=22.0, w_se=1.0)
# The vectors that must lie in [0, 1], in the order their check names them.
UNIT_VECTORS = ("x_cls_det", "x_cls_trk", "x_se_det", "x_se_trk")


def problem(x_cls_det, x_cls_trk, x_aff, x_se_det=None, x_se_trk=None, **weights):
    m, n = len(x_cls_det), len(x_cls_trk)
    return AssociationProblem(
        x_cls_det=np.asarray(x_cls_det, float),
        x_cls_trk=np.asarray(x_cls_trk, float),
        x_aff=np.asarray(x_aff, float).reshape(m, n),
        x_se_det=np.full(m, 0.5) if x_se_det is None else np.asarray(x_se_det, float),
        x_se_trk=np.full(n, 0.5) if x_se_trk is None else np.asarray(x_se_trk, float),
        **(weights or PAPER),
    )


def on_pairs(p, allowed):
    """The problem ``p`` with only the pairs of the boolean ``allowed``
    as candidates, listed in a shuffled order."""
    rows, cols = np.nonzero(allowed)
    order = np.random.default_rng(rows.size).permutation(rows.size)
    rows, cols = rows[order], cols[order]
    return AssociationProblem(
        x_cls_det=p.x_cls_det,
        x_cls_trk=p.x_cls_trk,
        x_aff=p.x_aff[rows, cols],
        x_se_det=p.x_se_det,
        x_se_trk=p.x_se_trk,
        w_cls=p.w_cls,
        w_aff=p.w_aff,
        w_se=p.w_se,
        pairs=(rows, cols),
    )


def random_problem(rng, max_size=4):
    m = int(rng.integers(0, max_size + 1))
    n = int(rng.integers(0, max_size + 1))
    return AssociationProblem(
        x_cls_det=rng.uniform(0, 1, m),
        x_cls_trk=rng.uniform(0, 1, n),
        x_aff=rng.uniform(0, 2, (m, n)),
        x_se_det=rng.uniform(0, 1, m),
        x_se_trk=rng.uniform(0, 1, n),
        **PAPER,
    )


class TestBuildCosts:
    def test_certain_object_has_no_penalty(self):
        p = problem([1.0], [], np.zeros((1, 0)))
        assert objective_coefficients(p)[0][0] == 0.0

    def test_paper_threshold_penalty(self):
        p = problem([0.85], [], np.zeros((1, 0)))
        assert objective_coefficients(p)[0][0] == pytest.approx(-15.0)

    def test_affinity_reward_composition(self):
        # refined affinity of a perfect coincident pair is 21/11
        p = problem([1.0], [1.0], [[21.0 / 11.0]])
        assert objective_coefficients(p)[2][0, 0] == pytest.approx(42.0)

    def test_start_reward(self):
        p = problem([0.9], [], np.zeros((1, 0)), x_se_det=[0.5])
        assert objective_coefficients(p)[3][0] == pytest.approx(0.5)


class TestSolveMip:
    def test_lone_uncertain_detection_stays_unselected(self):
        p = problem([0.9], [], np.zeros((1, 0)), x_se_det=[0.5])
        r = solve_mip(p)
        assert r.objective == 0.0
        assert r.y_cls_det.tolist() == [0]
        assert r.y_se_det.tolist() == [0]

    def test_match_beats_start_end(self):
        p = problem([0.95], [0.9], [[1.5]], x_se_det=[0.5], x_se_trk=[0.5])
        r = solve_mip(p)
        assert r.matches == [(0, 0)]
        assert r.objective == pytest.approx(18.0, abs=1e-9)

    def test_empty_problem(self):
        p = problem([], [], np.zeros((0, 0)))
        r = solve_mip(p)
        assert r.objective == 0.0
        assert r.matches == []

    def test_constraint_check_rejects_a_node_matched_twice(self):
        p = problem([1.0, 1.0], [1.0, 1.0], np.ones((2, 2)))
        assert solve_mip(p).satisfies_constraints()
        for matches in ([(0, 0), (0, 0)], [(0, 0), (0, 1)], [(0, 1), (1, 1)]):
            result = result_from_matches(p, objective_coefficients(p), matches)
            assert not result.satisfies_constraints(), matches

    def test_certain_start_end_all_selected(self):
        p = problem(
            [1.0, 1.0], [1.0], np.zeros((2, 1)), x_se_det=[1.0, 1.0], x_se_trk=[1.0]
        )
        r = solve_mip(p)
        assert r.y_se_det.tolist() == [1, 1]
        assert r.y_se_trk.tolist() == [1]
        assert r.objective == pytest.approx(3.0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            p = random_problem(rng)
            r = solve_mip(p)
            o = brute_force_oracle(p)
            assert r.objective == pytest.approx(o.objective, abs=1e-9)
            assert r.satisfies_constraints()
            assert o.satisfies_constraints()

    def test_constraints_on_degenerate_instances(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            m = int(rng.integers(0, 4))
            n = int(rng.integers(0, 4))
            # coarse grid of confidences provokes exact ties
            p = AssociationProblem(
                x_cls_det=rng.choice([0.0, 0.5, 1.0], m),
                x_cls_trk=rng.choice([0.0, 0.5, 1.0], n),
                x_aff=rng.choice([0.0, 1.0, 2.0], (m, n)),
                x_se_det=rng.choice([0.0, 0.5, 1.0], m),
                x_se_trk=rng.choice([0.0, 0.5, 1.0], n),
                **PAPER,
            )
            r = solve_mip(p)
            o = brute_force_oracle(p)
            assert r.objective == pytest.approx(o.objective, abs=1e-9)
            assert r.satisfies_constraints()

    def test_tie_prefers_match_over_outside(self):
        p = problem([1.0], [1.0], [[0.0]], x_se_det=[0.0], x_se_trk=[0.0])
        r = solve_mip(p)
        assert r.matches == [(0, 0)]

    def test_lowering_confidence_never_helps(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            p = random_problem(rng)
            m, n = p.shape
            if m == 0:
                continue
            base = solve_mip(p).objective
            lowered = AssociationProblem(
                x_cls_det=p.x_cls_det * rng.uniform(0, 1, m),
                x_cls_trk=p.x_cls_trk,
                x_aff=p.x_aff,
                x_se_det=p.x_se_det,
                x_se_trk=p.x_se_trk,
                **PAPER,
            )
            assert solve_mip(lowered).objective <= base + 1e-9

    def test_weight_scaling_keeps_assignment(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            p = random_problem(rng)
            r1 = solve_mip(p)
            scaled = AssociationProblem(
                x_cls_det=p.x_cls_det,
                x_cls_trk=p.x_cls_trk,
                x_aff=p.x_aff,
                x_se_det=p.x_se_det,
                x_se_trk=p.x_se_trk,
                w_cls=PAPER["w_cls"] * 3.7,
                w_aff=PAPER["w_aff"] * 3.7,
                w_se=PAPER["w_se"] * 3.7,
            )
            r2 = solve_mip(scaled)
            assert r1.matches == r2.matches
            assert r2.objective == pytest.approx(3.7 * r1.objective, abs=1e-6)

    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(ValueError):
            problem([1.2], [], np.zeros((1, 0)))

    @pytest.mark.parametrize("name", UNIT_VECTORS)
    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, np.nan, np.inf, -np.inf])
    def test_out_of_range_value_names_its_vector(self, name, bad):
        vectors = {v: np.full(2, 0.5) for v in UNIT_VECTORS}
        vectors[name][1] = bad
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\]$"):
            AssociationProblem(x_aff=np.zeros((2, 2)), **vectors, **PAPER)

    @pytest.mark.parametrize("first, second", itertools.combinations(UNIT_VECTORS, 2))
    def test_first_bad_vector_is_named(self, first, second):
        vectors = {v: np.full(2, 0.5) for v in UNIT_VECTORS}
        vectors[first][0] = 1.5
        vectors[second][0] = -0.5
        with pytest.raises(ValueError, match=rf"^{first} must lie in \[0, 1\]$"):
            AssociationProblem(x_aff=np.zeros((2, 2)), **vectors, **PAPER)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            problem([0.9], [], np.zeros((1, 0)), w_cls=0.0, w_aff=22.0, w_se=1.0)


class TestOracle:
    def test_size_limit(self):
        rng = np.random.default_rng(113)
        p = AssociationProblem(
            x_cls_det=rng.uniform(0, 1, 6),
            x_cls_trk=rng.uniform(0, 1, 2),
            x_aff=rng.uniform(0, 2, (6, 2)),
            x_se_det=rng.uniform(0, 1, 6),
            x_se_trk=rng.uniform(0, 1, 2),
            **PAPER,
        )
        with pytest.raises(ValueError):
            brute_force_oracle(p)

    def test_reproduces_closed_form_examples(self):
        p = problem([0.9], [], np.zeros((1, 0)), x_se_det=[0.5])
        assert brute_force_oracle(p).objective == 0.0
        p = problem([0.95], [0.9], [[1.5]], x_se_det=[0.5], x_se_trk=[0.5])
        o = brute_force_oracle(p)
        assert o.objective == pytest.approx(18.0, abs=1e-9)
        assert o.matches == [(0, 0)]

    def test_tie_break_lexicographic(self):
        # both matches give the same objective; the flattening (0, 1)
        # is lexicographically smaller than (1, 0)
        p = problem([1.0], [1.0, 1.0], [[1.0, 1.0]], x_se_det=[0.0], x_se_trk=[0.0, 0.0])
        o = brute_force_oracle(p)
        assert o.matches == [(0, 1)]


def milp_instance(seed):
    """Instances up to 24x24 in four kinds: realistic confidences, all-zero
    affinities, values from small sets so gains tie, and random weights."""
    rng = np.random.default_rng(seed)
    m, n = (int(v) for v in rng.integers(0, 25, 2))
    kind = seed % 4
    if kind == 2:
        x_cls_det, x_cls_trk = rng.choice([0.99, 1.0], m), rng.choice([0.99, 1.0], n)
        x_aff = rng.choice([0.0, 0.5, 1.0, 2.0], (m, n))
        x_se_det, x_se_trk = rng.choice([0.0, 0.5, 1.0], m), rng.choice([0.0, 0.5, 1.0], n)
    else:
        x_cls_det, x_cls_trk = rng.uniform(0.9, 1.0, m), rng.uniform(0.9, 1.0, n)
        x_aff = np.zeros((m, n)) if kind == 1 else rng.uniform(0, 2, (m, n))
        x_se_det, x_se_trk = rng.uniform(0, 1, m), rng.uniform(0, 1, n)
    if kind == 3:
        weights = dict(zip(("w_cls", "w_aff", "w_se"), rng.uniform(0.1, 50.0, 3)))
    else:
        weights = PAPER
    return problem(x_cls_det, x_cls_trk, x_aff, x_se_det, x_se_trk, **weights)


def greedy_objective(p):
    """Objective of a feasible assignment built greedily: best gain
    over the two outside options first."""
    c = objective_coefficients(p)
    c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk = c
    out_det = np.maximum(0.0, c_cls_det + c_se_det)
    out_trk = np.maximum(0.0, c_cls_trk + c_se_trk)
    gain = c_cls_det[:, None] + c_cls_trk[None, :] + c_aff - out_det[:, None] - out_trk
    matches, used_det, used_trk = [], set(), set()
    for flat in np.argsort(-gain, axis=None, kind="stable"):
        d, k = divmod(int(flat), p.shape[1])
        if gain[d, k] > 0.0 and d not in used_det and k not in used_trk:
            matches.append((d, k))
            used_det.add(d)
            used_trk.add(k)
    return result_from_matches(p, c, matches).objective


class TestMilpOracle:
    def test_matches_literal_binary_program(self):
        for seed in range(200):
            p = milp_instance(seed)
            result = solve_mip(p)
            assert result.satisfies_constraints()
            expected = milp_oracle(p)
            assert result.objective == pytest.approx(expected, rel=0.0, abs=1e-9), seed
            assert result.objective >= greedy_objective(p) - 1e-9, seed

    def test_solution_is_its_matches_filled_in(self):
        """solve_mip's result is the one result_from_matches fills in for
        its matches, field by field, on the dense and the pair form."""
        for seed in range(200):
            p = milp_instance(seed)
            allowed = np.random.default_rng(2000 + seed).random(p.shape) < 0.5
            for q in (p, on_pairs(p, allowed), on_pairs(p, np.ones(p.shape, bool))):
                result = solve_mip(q)
                filled = result_from_matches(q, objective_coefficients(q), result.matches)
                assert_same_result(result, filled)


class TestStoredChoices:
    """A result stores the matches and start/end choices; its match list
    and selections y_cls = y_aff + y_se are worked out from them."""

    def test_node_selected_twice_breaks_the_constraints(self):
        one, none = np.array([0]), np.zeros(1, int)
        matched_and_started = AssociationResult((one, one), np.array([1, 0]), none, 0.0)
        track_matched_twice = AssociationResult(
            (np.array([0, 1]), np.array([0, 0])), np.zeros(2, int), none, 0.0
        )
        assert matched_and_started.y_cls_det.tolist() == [2, 0]
        assert track_matched_twice.y_cls_trk.tolist() == [2]
        for result in (matched_and_started, track_matched_twice):
            assert result.satisfies_constraints() is False
        assert AssociationResult((one, one), np.array([0, 1]), none, 0.0).satisfies_constraints()

    def test_solver_results_select_each_node_once_at_most(self):
        rng = np.random.default_rng(101)
        problems = [random_problem(rng) for _ in range(500)]
        problems += [milp_instance(seed) for seed in range(200)]
        for p in problems:
            for q in (p, on_pairs(p, np.ones(p.shape, bool))):
                result = solve_mip(q)
                assert result.satisfies_constraints() is True
                d, k = result.matched
                assert result.matches == sorted(zip(d.tolist(), k.tolist()))
                assert all(type(v) is int for pair in result.matches for v in pair)
                y_aff = np.zeros(p.shape, int)
                y_aff[d, k] = 1
                for y_cls, y_se, matched in (
                    (result.y_cls_det, result.y_se_det, y_aff.sum(axis=1)),
                    (result.y_cls_trk, result.y_se_trk, y_aff.sum(axis=0)),
                ):
                    assert y_cls.dtype == y_se.dtype == int
                    assert y_cls.tolist() == (matched + y_se).tolist()
                    assert set(y_cls.tolist()) <= {0, 1}


class TestCandidatePairs:
    def test_matches_restricted_binary_program(self):
        for seed in range(200):
            p = milp_instance(seed)
            rng = np.random.default_rng(1000 + seed)
            density = rng.choice([0.0, 0.1, 0.3, 1.0])
            allowed = rng.random(p.shape) < density
            result = solve_mip(on_pairs(p, allowed))
            assert result.satisfies_constraints(), seed
            assert all(allowed[d, k] for d, k in result.matches), seed
            expected = milp_oracle(p, allowed)
            assert result.objective == pytest.approx(expected, rel=0.0, abs=1e-9), seed

    def test_all_pairs_as_candidates_equal_dense(self):
        for seed in range(200):
            p = milp_instance(seed)
            dense, sparse = solve_mip(p), solve_mip(on_pairs(p, np.ones(p.shape, bool)))
            assert sparse.matches == dense.matches, seed
            assert sparse.objective == dense.objective, seed
            np.testing.assert_array_equal(sparse.y_se_det, dense.y_se_det)
            np.testing.assert_array_equal(sparse.y_se_trk, dense.y_se_trk)

    def test_lone_pairs_matched_iff_gain_reaches_outside_options(self):
        # one candidate per row and column; outside options are 0.5 each
        x_aff = np.diag([1.0 / 22.0, 0.5 / 22.0, 0.9 / 22.0])
        p = problem([1.0] * 3, [1.0] * 3, x_aff, x_se_det=[0.5] * 3, x_se_trk=[0.5] * 3)
        result = solve_mip(on_pairs(p, np.eye(3, dtype=bool)))
        # gain 1.0 = 0.5 + 0.5 is a tie, matched; 0.5 and 0.9 lose
        assert result.matches == [(0, 0)]
        assert result.y_se_det.tolist() == [0, 1, 1]
        assert result.objective == pytest.approx(1.0 + 4 * 0.5)
        assert result.satisfies_constraints()

    def test_zero_slack_pairs_keep_ids(self):
        # every gain exactly offsets the outside options (all 0): matching
        # changes nothing, yet no candidate pair may be left with both
        # nodes free, so that ids are carried
        p = problem([1.0] * 3, [1.0] * 4, np.zeros((3, 4)), x_se_det=[0.0] * 3, x_se_trk=[0.0] * 4)
        rng = np.random.default_rng(137)
        for _ in range(50):
            allowed = rng.random((3, 4)) < 0.4
            result = solve_mip(on_pairs(p, allowed))
            assert result.objective == 0.0 and result.satisfies_constraints()
            assert all(allowed[d, k] for d, k in result.matches)
            free_det, free_trk = np.ones(3, dtype=bool), np.ones(4, dtype=bool)
            free_det[[d for d, _ in result.matches]] = False
            free_trk[[k for _, k in result.matches]] = False
            assert not np.any(allowed & free_det[:, None] & free_trk)
        # a positive pair is matched first, the zero-slack pair fills in
        x_aff = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        p = problem([1.0] * 2, [1.0] * 3, x_aff, x_se_det=[0.0] * 2, x_se_trk=[0.0] * 3)
        allowed = np.array([[True, True, False], [False, True, True]])
        assert solve_mip(on_pairs(p, allowed)).matches == [(0, 1), (1, 2)]

    def test_empty_candidate_set(self):
        p = problem([1.0, 0.9], [1.0], np.full((2, 1), 2.0), x_se_det=[1.0, 1.0], x_se_trk=[1.0])
        result = solve_mip(on_pairs(p, np.zeros((2, 1), bool)))
        assert result.matches == []
        assert result.y_se_det.tolist() == [1, 0] and result.y_se_trk.tolist() == [1]
        assert result.objective == pytest.approx(2.0)
        assert result.satisfies_constraints()

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (([0, 1], [0]), "differ in length"),
            (([0, 2], [0, 0]), "outside the 2x2 problem"),
            (([0, -1], [0, 0]), "outside the 2x2 problem"),
            (([1, 1], [0, 0]), "listed twice"),
        ],
    )
    def test_bad_pairs_rejected(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            AssociationProblem(
                x_cls_det=[1.0, 1.0], x_cls_trk=[1.0, 1.0], x_aff=np.zeros(len(pairs[0])),
                x_se_det=[0.5, 0.5], x_se_trk=[0.5, 0.5], pairs=pairs, **PAPER,
            )

    def test_affinity_needed_bounds_the_gain(self):
        rng = np.random.default_rng(131)
        for seed in range(200):
            p = milp_instance(seed)
            weights = (p.w_cls, p.w_aff, p.w_se)
            need_det = affinity_needed(p.x_cls_det, p.x_se_det, *weights)
            need_trk = affinity_needed(p.x_cls_trk, p.x_se_trk, *weights)
            c_cls_det, c_cls_trk, c_aff, c_se_det, c_se_trk = objective_coefficients(p)
            out_det = np.maximum(0.0, c_cls_det + c_se_det)
            out_trk = np.maximum(0.0, c_cls_trk + c_se_trk)
            slack = c_cls_det[:, None] + c_cls_trk + c_aff - out_det[:, None] - out_trk
            below = p.x_aff < need_det[:, None] + need_trk
            assert np.all(slack[below] < 0.0), seed
            # an affinity exactly at the need reaches the outside options
            at = need_det[:, None] + need_trk + 2e-9 * (1.0 + rng.random(p.shape))
            assert np.all(c_cls_det[:, None] + c_cls_trk + p.w_aff * at
                          >= out_det[:, None] + out_trk - 1e-6), seed


def best_matching_weight(rows, cols, weight, m):
    """The largest total weight of a matching among the pairs, found by
    trying, row by row, each row unmatched or on each of its pairs."""
    by_row = [[i for i in range(len(rows)) if rows[i] == d] for d in range(m)]

    def best(d, used):
        if d == m:
            return 0.0
        options = [best(d + 1, used)]
        for i in by_row[d]:
            if cols[i] not in used:
                options.append(weight[i] + best(d + 1, used | {cols[i]}))
        return max(options)

    return best(0, frozenset())


@st.composite
def pair_lists(draw):
    """Up to 6 × 6 problems with a sparse, shuffled pair list whose
    weights are often 0 or equal to one another."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = [(d, k) for d in range(m) for k in range(n)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True) if cells else st.just([]))
    weight = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 10.0))
    weights = draw(st.lists(weight, min_size=len(chosen), max_size=len(chosen)))
    rows = np.array([d for d, _ in chosen], dtype=np.intp)
    cols = np.array([k for _, k in chosen], dtype=np.intp)
    return rows, cols, np.array(weights, dtype=float), m, n


class TestAssignPairs:
    def check(self, rows, cols, weight, m, n):
        """``assign_pairs``' positions: a matching among the listed pairs
        only, of the brute-force largest total weight, the pairs alone in
        their row and column first, in the pairs' order."""
        at = assign_pairs(rows, cols, weight, m, n)
        assert at.dtype == np.intp
        assert len(set(at.tolist())) == len(at) and all(0 <= i < len(rows) for i in at)
        assert len(set(rows[at].tolist())) == len(set(cols[at].tolist())) == len(at)
        expected = best_matching_weight(rows.tolist(), cols.tolist(), weight.tolist(), m)
        assert sum(weight[at].tolist()) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        lone = [
            i for i in range(len(rows))
            if (rows == rows[i]).sum() == 1 and (cols == cols[i]).sum() == 1
        ]
        assert at[: len(lone)].tolist() == lone
        return at

    @settings(max_examples=300, deadline=None)
    @given(pair_lists())
    def test_maximum_weight_matching_among_the_pairs(self, problem_):
        self.check(*problem_)

    def test_lone_pairs_beside_a_contested_block(self):
        # (0, 0) and (3, 4) are alone in their row and column; rows 1 and
        # 2 contest columns 1 and 2, where the crossed pairs weigh more
        rows = np.array([3, 1, 0, 2, 1, 2])
        cols = np.array([4, 1, 0, 1, 2, 2])
        weight = np.array([0.5, 1.0, 0.25, 3.0, 3.0, 1.0])
        at = self.check(rows, cols, weight, 4, 5)
        assert at.tolist() == [0, 2, 4, 3]

    def test_zero_and_equal_weights(self):
        rows, cols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        for weight in ([0.0] * 4, [2.0] * 4, [0.0, 1.0, 1.0, 0.0]):
            at = self.check(rows, cols, np.array(weight), 2, 2)
            assert len(at) == 2
        # a pair of weight 0 alone in its row and column is matched too
        assert self.check(np.array([0]), np.array([1]), np.zeros(1), 1, 2).tolist() == [0]

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0), (2, 2)])
    def test_no_pairs(self, m, n):
        empty = np.zeros(0, np.intp)
        at = assign_pairs(empty, empty, np.zeros(0), m, n)
        assert at.dtype == np.intp and at.size == 0


class TestHungarianBaseline:
    def test_diagonal_dominant(self):
        assert hungarian_baseline([[5.0, 1.0], [1.0, 5.0]]) == [(0, 0), (1, 1)]

    def test_forced_negative_match(self):
        assert hungarian_baseline([[-3.0]]) == [(0, 0)]

    def test_matches_permutation_brute_force(self):
        rng = np.random.default_rng(127)
        for _ in range(20):
            aff = rng.uniform(-1, 3, (5, 5))
            pairs = hungarian_baseline(aff)
            total = sum(aff[d, k] for d, k in pairs)
            best = max(
                sum(aff[i, p[i]] for i in range(5))
                for p in itertools.permutations(range(5))
            )
            assert total == pytest.approx(best, abs=1e-9)

    def test_gate_removes_after_matching(self):
        aff = np.array([[5.0, 4.9], [0.1, 0.2]])
        assert hungarian_baseline(aff, gate=1.0) == [(0, 0)]

    def test_empty(self):
        assert hungarian_baseline(np.zeros((0, 3))) == []

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    @pytest.mark.parametrize("gate", [None, 0.5])
    def test_empty_side(self, shape, gate):
        assert hungarian_baseline(np.zeros(shape), gate=gate) == []

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hungarian_baseline([[np.nan]])
