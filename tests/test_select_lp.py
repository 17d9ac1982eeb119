"""LP-route tests: problem construction, simplex correctness against a
reference solver and Boolean enumeration, greedy rounding, certificates."""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from sensel import model, select_lp
from sensel.errors import Infeasible, NotSeparableNoise, RoundingInfeasible, SenselError
from sensel.select_lp import (
    LpSolution,
    _crash_start,
    _simplex_max,
    build_lp,
    certify,
    round_batch,
    round_by_scores,
    round_energy,
    solve_lp,
)
from sensel.select_separable import exhaustive_opt

from conftest import (
    RELATION,
    SENSE,
    loop_round_by_scores,
    loop_simplex_max,
    rand_scenario,
    senses,
    sensor_measure,
    with_random_extra_row,
)


def count_rule_feasible(scores, constraints, weights) -> np.ndarray:
    """Reference feasibility mask of a batch: before each step, count the
    sensors with budget left against the step's count, then spend one unit
    on each of the step's picks (the batched rounder's former rule)."""
    batch, horizon, num = scores.shape
    order = sorted(range(horizon), key=lambda n: (-weights[n], -n))
    energy = constraints.energy if constraints.energy is not None else [horizon] * num
    budgets = np.tile(np.asarray(energy, dtype=np.int64), (batch, 1))
    feasible = np.ones(batch, dtype=bool)
    rows = np.arange(batch)
    for n in order:
        has_budget = budgets > 0
        feasible &= np.count_nonzero(has_budget, axis=1) >= constraints.per_step[n]
        key = np.where(has_budget, scores[:, n], -np.inf)
        picked = np.zeros((batch, num), dtype=np.int64)
        for _ in range(constraints.per_step[n]):
            pick = key.argmax(axis=1)
            picked[rows, pick] = 1
            key[rows, pick] = -np.inf
        budgets -= picked
    return feasible


def measures_scenario(values, per_step, horizon=1, energy=None, weights=None):
    num = len(values)
    system = model.DynamicSystem.build([[1.0]], [[1.0]])
    sensors = [model.SensorModel.build([[1.0]], [float(i), 0.0]) for i in range(num)]
    noise = model.NoiseModel.build([1] * num, base_blocks=[[[1.0 / v]] for v in values])
    if weights is None:
        weights = np.ones(horizon)
    return model.make_scenario(
        system, sensors, noise,
        model.ConstraintSet.build(
            [per_step] * horizon if np.isscalar(per_step) else per_step,
            energy=energy,
        ),
        weights, [0.0], [[1.0]], seed=0,
    )


class TestBuildLp:
    def test_two_sensor_objective_and_rows(self):
        scenario = measures_scenario([0.3, 0.1], 1)
        problem = build_lp(scenario)
        np.testing.assert_allclose(problem.c, [0.3, 0.1])
        rows = problem.rows
        assert len(rows) == 1
        np.testing.assert_allclose(rows.a[0], [1.0, 1.0])
        assert rows.sense[0] == SENSE["="] and rows.b[0] == 1.0

    def test_energy_row_hits_one_sensor_per_step(self):
        scenario = measures_scenario([0.3, 0.1, 0.2], 1, horizon=3, energy=[2, 2, 2])
        problem = build_lp(scenario)
        rows = problem.rows
        assert len(rows) - 3 == 3
        for i, (a, sense, b) in enumerate(zip(rows.a[3:], rows.sense[3:], rows.b[3:])):
            expected = np.zeros(9)
            expected[[i, 3 + i, 6 + i]] = 1.0
            np.testing.assert_array_equal(a, expected)
            assert sense == SENSE["<="] and b == 2.0

    def test_objective_is_the_weighted_measure_table(self, rng):
        """Entry (n, i) of the step-major objective is weight_n times the
        per-sensor measure of sensor i at step n."""
        scenario = rand_scenario(
            rng, num_sensors=3, horizon=2, correlated=False, weights=[0.25, 0.75]
        )
        c = build_lp(scenario).c
        for n in range(2):
            for i in range(3):
                expected = scenario.weights[n] * sensor_measure(
                    scenario.sensors[i].h_at(n), scenario.noise.block(i, i)
                )
                assert c[n * 3 + i] == expected

    def test_large_grid_dimensions(self):
        scenario = model.load_scenario("src/sensel/scenarios/example3.json")
        problem = build_lp(scenario)
        assert problem.c.shape == (2000,)
        assert len(problem.rows) == 405

    def test_correlated_rejected(self, rng):
        scenario = rand_scenario(rng, num_sensors=3, horizon=1, correlated=True)
        with pytest.raises(NotSeparableNoise):
            build_lp(scenario)


class TestSolveLp:
    def test_two_sensor_solution(self):
        scenario = measures_scenario([0.3, 0.1], 1)
        solution = solve_lp(build_lp(scenario))
        np.testing.assert_allclose(solution.x, [1.0, 0.0], atol=1e-9)
        assert solution.objective == pytest.approx(0.3)

    def test_equal_values_any_vertex(self):
        scenario = measures_scenario([0.2, 0.2, 0.2], 1)
        solution = solve_lp(build_lp(scenario))
        assert solution.objective == pytest.approx(0.2)
        assert solution.x.sum() == pytest.approx(1.0)

    def test_lp_dominates_boolean_points(self, rng):
        """The relaxation value is an upper bound on every feasible Boolean
        point, and matches the best one on these integral instances."""
        for _ in range(25):
            num = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 4))
            values = rng.uniform(0.05, 1.0, size=num)
            energy = None
            if rng.random() < 0.6:
                energy = [int(rng.integers(1, horizon + 1)) for _ in range(num)]
            per_step = [int(rng.integers(1, num)) for _ in range(horizon)]
            if energy is not None:
                while sum(per_step) > sum(energy):
                    energy = [min(horizon, e + 1) for e in energy]
            scenario = measures_scenario(
                list(values), per_step, horizon=horizon, energy=energy,
                weights=rng.uniform(0.1, 1.0, size=horizon),
            )
            problem = build_lp(scenario)
            try:
                solution = solve_lp(problem)
            except Infeasible:
                continue
            best = -np.inf
            pools = [
                itertools.combinations(range(num), m)
                for m in scenario.constraints.per_step
            ]
            for combo in itertools.product(*pools):
                gamma = np.zeros((num, horizon), dtype=np.int8)
                for n, chosen in enumerate(combo):
                    gamma[list(chosen), n] = 1
                schedule = model.SelectionSchedule.build(gamma)
                if not schedule.satisfies(scenario.constraints):
                    continue
                best = max(best, float(problem.c @ schedule.gamma_vec()))
            assert solution.objective >= best - 1e-8
            # count/budget polytopes have integral vertices, so equality holds
            assert solution.objective == pytest.approx(best, abs=1e-7)

    def test_infeasible_extra_row(self):
        scenario = measures_scenario([0.3, 0.1], 1)
        impossible = ([1.0, 1.0], ">=", 3.0)
        import dataclasses

        constrained = dataclasses.replace(
            scenario,
            constraints=model.ConstraintSet.build([1], extra=[impossible]),
        )
        with pytest.raises(Infeasible):
            solve_lp(build_lp(constrained))


class TestRounding:
    def test_integral_solution_returned_unchanged(self):
        scenario = measures_scenario([0.3, 0.1], 1)
        problem = build_lp(scenario)
        solution = solve_lp(problem)
        rounded = round_energy(solution, scenario, problem)
        np.testing.assert_array_equal(rounded.schedule.gamma[:, 0], [1, 0])
        assert rounded.gap == pytest.approx(0.0, abs=1e-12)

    def test_budget_forces_best_sensor_to_heavier_step(self):
        """With one budget unit on the favorite sensor and ascending step
        weights, the heavier (later) step takes it and the other step gets
        the runner-up."""
        scenario = measures_scenario(
            [0.5, 0.2, 0.1], [1, 1], horizon=2, energy=[1, 2, 2],
            weights=[0.3, 0.7],
        )
        problem = build_lp(scenario)
        fractional = np.array([0.9, 0.5, 0.1, 0.8, 0.4, 0.05])
        solution = LpSolution(
            x=fractional,
            objective=float(problem.c @ fractional),
            iterations=0,
        )
        rounded = round_energy(solution, scenario, problem)
        np.testing.assert_array_equal(rounded.schedule.gamma[:, 1], [1, 0, 0])
        np.testing.assert_array_equal(rounded.schedule.gamma[:, 0], [0, 1, 0])

    def test_rounding_infeasible_when_budgets_run_dry(self):
        constraints = model.ConstraintSet.build([2, 2], energy=[1, 1, 2])
        scores = np.array([[0.9, 0.9], [0.8, 0.8], [0.7, 0.7]])
        with pytest.raises(RoundingInfeasible):
            round_by_scores(scores, constraints, [0.5, 0.5])

    def test_step_permutation_equivariance(self, rng):
        """Permuting steps together with weights and counts permutes the
        rounded schedule's columns the same way."""
        for _ in range(10):
            num, horizon = 4, 3
            scores = rng.uniform(size=(num, horizon))
            weights = rng.permutation([0.2, 0.5, 0.9])
            per_step = [1, 2, 1]
            constraints = model.ConstraintSet.build(per_step, energy=[2] * num)
            base = round_by_scores(scores, constraints, weights)
            perm = rng.permutation(horizon)
            constraints_p = model.ConstraintSet.build(
                [per_step[k] for k in perm], energy=[2] * num
            )
            permuted = round_by_scores(
                scores[:, perm], constraints_p, weights[perm]
            )
            np.testing.assert_array_equal(base.gamma[:, perm], permuted.gamma)


class TestSandwichAndCertificate:
    def test_sandwich_on_enumerable_instances(self, rng):
        """rounded <= best Boolean <= LP bound on random budgeted instances."""
        for _ in range(30):
            num = int(rng.integers(2, 7))
            horizon = int(rng.integers(1, 4))
            values = rng.uniform(0.05, 1.0, size=num)
            per_step = [int(rng.integers(1, max(2, num - 1))) for _ in range(horizon)]
            energy = [int(rng.integers(1, horizon + 1)) for _ in range(num)]
            while sum(per_step) > sum(energy):
                energy = [min(horizon, e + 1) for e in energy]
            scenario = measures_scenario(
                list(values), per_step, horizon=horizon, energy=energy,
                weights=rng.uniform(0.1, 1.0, size=horizon),
            )
            problem = build_lp(scenario)
            try:
                solution = solve_lp(problem)
                rounded = round_energy(solution, scenario, problem)
            except (Infeasible, RoundingInfeasible):
                continue
            _, f3_best = exhaustive_opt(scenario, "f3")
            assert rounded.objective <= f3_best + 1e-8
            assert f3_best <= solution.objective + 1e-8
            assert rounded.schedule.satisfies(scenario.constraints)

    def test_rounded_above_bound_surfaces_internal_error(self):
        """A rounded value exceeding the claimed bound is an invariant
        breach and must raise, not pass silently."""
        from sensel.errors import SenselError

        scenario = measures_scenario([0.4, 0.1], 1)
        problem = build_lp(scenario)
        bogus = LpSolution(
            x=np.array([1.0, 0.0]), objective=0.1, iterations=0
        )
        with pytest.raises(SenselError):
            round_energy(bogus, scenario, problem)

    def test_certificate_reports_feasibility_and_gap(self):
        scenario = measures_scenario([0.4, 0.3, 0.2], 1, horizon=2, energy=[1, 1, 1])
        problem = build_lp(scenario)
        solution = solve_lp(problem)
        rounded = round_energy(solution, scenario, problem)
        report = certify(rounded, problem)
        assert report.feasible
        assert all(report.constraint_ok)
        assert report.gap >= -1e-8
        assert report.lp_objective == pytest.approx(solution.objective)
        payload = report.to_dict()
        assert set(payload) >= {"f_lp", "f_blp_hat", "gap", "feasible"}


class TestRoundBatch:
    def test_rows_match_per_row_rounding_under_ties(self, rng):
        """Each row of the batch equals the per-candidate loop and
        round_by_scores on integer scores and weights, where score and step
        ties are frequent; a row the loop cannot round is masked out."""
        masked = 0
        for trial in range(60):
            num = int(rng.integers(2, 7))
            horizon = int(rng.integers(1, 5))
            per_step = [int(rng.integers(1, num + 1)) for _ in range(horizon)]
            energy = (
                None if trial % 4 == 0
                else [int(rng.integers(0, horizon + 1)) for _ in range(num)]
            )
            constraints = model.ConstraintSet.build(per_step, energy=energy)
            weights = rng.integers(0, 3, size=horizon).astype(float)
            scores = rng.integers(-2, 3, size=(16, horizon, num)).astype(float)
            gammas, feasible = round_batch(scores, constraints, weights)
            for b in range(scores.shape[0]):
                try:
                    expected = loop_round_by_scores(scores[b].T, constraints, weights)
                except RoundingInfeasible:
                    assert not feasible[b]
                    with pytest.raises(RoundingInfeasible):
                        round_by_scores(scores[b].T, constraints, weights)
                    masked += 1
                    continue
                assert feasible[b]
                np.testing.assert_array_equal(gammas[b].T, expected)
                np.testing.assert_array_equal(
                    round_by_scores(scores[b].T, constraints, weights).gamma, expected
                )
        assert masked > 0

    def test_budget_exhausting_tie_heavy_batches_match_the_count_rule(self, rng):
        """Budgets that leave many candidates short of sensors, and scores
        from three levels, so that ties are frequent: the feasibility mask
        equals the rule that counted the sensors with budget left at every
        step, and every feasible row equals the per-candidate loop."""
        outcomes = {"feasible": 0, "infeasible": 0}
        for trial in range(40):
            num = int(rng.integers(2, 7))
            horizon = int(rng.integers(2, 5))
            per_step = [int(rng.integers(1, num + 1)) for _ in range(horizon)]
            # Total budget at or just above the total count, spread unevenly.
            spend = rng.multinomial(sum(per_step) + int(rng.integers(0, 2)), np.ones(num) / num)
            constraints = model.ConstraintSet.build(per_step, energy=np.minimum(spend, horizon))
            weights = rng.integers(0, 2, size=horizon).astype(float)
            scores = rng.integers(-1, 2, size=(32, horizon, num)).astype(float)
            gammas, feasible = round_batch(scores, constraints, weights)
            np.testing.assert_array_equal(
                feasible, count_rule_feasible(scores, constraints, weights)
            )
            for b in np.flatnonzero(feasible):
                np.testing.assert_array_equal(
                    gammas[b].T, loop_round_by_scores(scores[b].T, constraints, weights)
                )
            outcomes["feasible"] += int(feasible.sum())
            outcomes["infeasible"] += int((~feasible).sum())
        assert min(outcomes.values()) > 100

    def test_extra_row_masks_violating_candidates(self):
        """Only the candidate that meets the extra row survives the mask,
        and round_by_scores raises on the one that does not."""
        forbid_first = ([1.0, 0.0, 0.0], "<=", 0.0)
        constraints = model.ConstraintSet.build([1], extra=[forbid_first])
        scores = np.array([[[0.9, 0.5, 0.1]], [[0.1, 0.5, 0.9]]])
        gammas, feasible = round_batch(scores, constraints, [1.0])
        np.testing.assert_array_equal(feasible, [False, True])
        np.testing.assert_array_equal(gammas[1, 0], [0, 0, 1])
        with pytest.raises(RoundingInfeasible):
            round_by_scores(scores[0].T, constraints, [1.0])

    def test_lp_route_meets_extra_row_or_raises(self, rng):
        """Against exhaustive_opt with one random extra row: the rounded LP
        schedule meets every row and stays at or below the exhaustive
        optimum, or round_energy raises RoundingInfeasible."""
        outcomes = {"met": 0, "infeasible": 0}
        for _ in range(60):
            num = int(rng.integers(2, 5))
            horizon = int(rng.integers(1, 3))
            scenario = with_random_extra_row(rng, rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=False,
                per_step=[int(rng.integers(1, num)) for _ in range(horizon)],
            ))
            _, best = exhaustive_opt(scenario, "f3")
            problem = build_lp(scenario)
            try:
                rounded = round_energy(solve_lp(problem), scenario, problem)
            except RoundingInfeasible:
                outcomes["infeasible"] += 1
                continue
            outcomes["met"] += 1
            assert rounded.schedule.satisfies(scenario.constraints)
            assert certify(rounded, problem).feasible
            assert rounded.objective <= best + 1e-9 * (1.0 + abs(best))
        assert outcomes["met"] > 0 and outcomes["infeasible"] > 0


class TestSimplexAgainstReference:
    def test_matches_scipy_on_random_programs(self, rng):
        """Box-bounded LPs with mixed relations agree with a reference
        solver on objective value and feasibility status."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        for trial in range(60):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, 7))
            a = rng.normal(size=(m, n))
            rels = [str(rng.choice(["<=", "=", ">="])) for _ in range(m)]
            x_feas = rng.uniform(0, 1, n)
            slack = rng.uniform(0, 1, m)
            rhs = a @ x_feas + np.where(
                [r == "<=" for r in rels], slack,
                np.where([r == ">=" for r in rels], -slack, 0.0),
            )
            c = rng.normal(size=n)
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for row, rel, b in zip(a, rels, rhs):
                if rel == "<=":
                    a_ub.append(row); b_ub.append(b)
                elif rel == ">=":
                    a_ub.append(-row); b_ub.append(-b)
                else:
                    a_eq.append(row); b_eq.append(b)
            reference = linprog(
                -c,
                A_ub=np.array(a_ub) if a_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=[(0, 1)] * n,
                method="highs",
            )
            try:
                x, objective, _ = _simplex_max(c, a, senses(rels), rhs, np.ones(n))
                solved = True
            except Infeasible:
                solved = False
            if reference.status == 0:
                assert solved, trial
                assert objective == pytest.approx(-reference.fun, abs=1e-7, rel=1e-7)
            elif reference.status == 2:
                assert not solved, trial


def selection_program(rng, num, horizon, per_step, budget, extra=()):
    """The LP of a budgeted selection problem (count rows, budget rows,
    then ``extra``) with positive objective weights, as arrays."""
    constraints = model.ConstraintSet.build(
        [per_step] * horizon, energy=[budget] * num, extra=list(extra)
    )
    rows = constraints.rows(num)
    c = rng.integers(1, 4, size=num * horizon) * rng.choice([1.0, 0.25], size=num * horizon)
    rels = [RELATION[sense] for sense in rows.sense]
    return c, rows.a, rels, rows.b, np.ones(num * horizon)


def assert_same_as_loop_oracle(c, a, rels, rhs, upper):
    """The solver returns the oracle's x, objective and iteration count bit
    for bit, or raises the same error; returns whether a point came back."""
    try:
        expected = loop_simplex_max(c, a, rels, rhs, upper)
    except SenselError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _simplex_max(c, a, senses(rels), rhs, upper)
        return False
    x, objective, iterations = _simplex_max(c, a, senses(rels), rhs, upper)
    assert np.array_equal(x, expected[0])
    assert objective == expected[1]
    assert iterations == expected[2]
    return True


class TestSimplexAgainstLoopOracle:
    """The vectorized ratio test and row-restricted elimination follow the
    per-row loop solver pivot for pivot (see ``conftest.loop_simplex_max``)."""

    def test_random_degenerate_programs(self, rng):
        solved = 0
        for _ in range(120):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, 8))
            a = rng.choice([-1.0, 0.0, 0.0, 1.0, 2.0], size=(m, n))
            rels = [str(r) for r in rng.choice(["<=", "=", ">="], size=m)]
            # Right-hand sides met at a point with many coordinates on a
            # bound make degenerate vertices; integer slack keeps ties.
            point = rng.choice([0.0, 0.5, 1.0], size=n)
            slack = rng.integers(0, 2, size=m).astype(float)
            sign = np.array([{"<=": 1.0, "=": 0.0, ">=": -1.0}[r] for r in rels])
            rhs = a @ point + sign * slack
            c = rng.integers(-3, 4, size=n).astype(float)
            upper = np.where(rng.random(n) < 0.2, np.inf, 1.0)
            solved += assert_same_as_loop_oracle(c, a, rels, rhs, upper)
        assert solved > 60

    def test_budgets_and_redundant_rows(self, rng):
        """Redundant rows leave artificials basic at zero after phase 1, so
        the drive-out pivots and the row drop both run."""
        for _ in range(12):
            num = int(rng.integers(4, 12))
            horizon = int(rng.integers(2, 5))
            per_step = int(rng.integers(1, num // 2 + 1))
            budget = int(rng.integers(1, horizon + 1))
            total = (np.ones(num * horizon), "=", per_step * horizon)
            first_step = (
                np.repeat([1.0, 0.0], [num, num * (horizon - 1)]), ">=", per_step
            )
            program = selection_program(
                rng, num, horizon, per_step, budget, extra=[total, first_step]
            )
            assert_same_as_loop_oracle(*program)

    def test_example3_shaped_program(self, rng):
        c, a, rels, rhs, upper = selection_program(rng, 60, 5, 10, 2)
        c = rng.uniform(0.1, 1.0, size=c.shape)
        assert assert_same_as_loop_oracle(c, a, rels, rhs, upper)

    def test_ratio_ties_inside_tolerance(self, rng):
        """Step lengths that differ by less than the tolerance, chained past
        it, where the tie-breaking fold and a plain argmin part ways."""
        for _ in range(80):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, 8))
            a = (rng.random((m, n)) < 0.6).astype(float)
            rhs = 1.0 + rng.choice([0.0, 4e-10, 8e-10, 1.2e-9, 1.6e-9], size=m)
            rels = [str(r) for r in rng.choice(["<=", "<=", "="], size=m)]
            c = rng.integers(1, 3, size=n).astype(float)
            upper = 1.0 + rng.choice([0.0, 6e-10, 1.4e-9], size=n)
            assert_same_as_loop_oracle(c, a, rels, rhs, upper)


def mixed_basis(rng, m, singletons):
    """A nonsingular (m, m) basis in shuffled column order: ``singletons``
    unit-like columns with entries away from +-1 in distinct rows, and dense
    columns that also reach into those rows."""
    rows = rng.permutation(m)
    b = np.zeros((m, m))
    s_rows, d_rows = rows[:singletons], rows[singletons:]
    b[s_rows, np.arange(singletons)] = rng.choice([-1.0, 1.0], singletons) * rng.uniform(
        1.5, 4.0, singletons
    )
    dense = rng.normal(size=(m, m - singletons)) * (rng.random((m, m - singletons)) < 0.5)
    dense[d_rows] += 3.0 * np.eye(m - singletons)
    b[:, singletons:] = dense
    return b[:, rng.permutation(m)]


def assert_matches_dense_solve(b, cols):
    expected = np.linalg.solve(b, cols)
    got = select_lp._basis_solve(b, cols)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


class TestBasisSolve:
    """``_basis_solve`` against ``np.linalg.solve``, for the tableau (a
    matrix of columns) and for the basic values (a vector)."""

    def test_mixed_singleton_and_dense_columns(self, rng):
        for _ in range(40):
            m = int(rng.integers(2, 30))
            b = mixed_basis(rng, m, int(rng.integers(1, m)))
            assert_matches_dense_solve(b, rng.normal(size=(m, int(rng.integers(1, 50)))))
            assert_matches_dense_solve(b, rng.normal(size=m))

    def test_no_singleton_and_pure_slack_bases(self, rng):
        for m in (1, 4, 17):
            dense = rng.normal(size=(m, m)) + 4.0 * np.eye(m)
            slack = np.eye(m)[:, rng.permutation(m)] * rng.choice([-1.0, 1.0], m)
            for b in (dense, slack):
                assert_matches_dense_solve(b, rng.normal(size=(m, 9)))
                assert_matches_dense_solve(b, rng.normal(size=m))

    def test_count_budget_bases_bit_for_bit(self, rng, monkeypatch):
        """Every basis the simplex refactorizes on an example3-shaped program
        (count and budget rows, an incidence matrix) gives exactly the
        dense solve's tableau and basic values."""
        calls = []
        original = select_lp._basis_solve

        def checked(b_cols, cols):
            out = original(b_cols, cols)
            calls.append(np.array_equal(out, np.linalg.solve(b_cols, cols)))
            return out

        monkeypatch.setattr(select_lp, "_basis_solve", checked)
        for num, per_step in ((60, 10), (30, 4)):
            c, a, rels, rhs, upper = selection_program(rng, num, 5, per_step, 2)
            _simplex_max(rng.uniform(0.1, 1.0, size=c.shape), a, senses(rels), rhs, upper)
        assert len(calls) >= 4 and all(calls)


class TestPivotCount:
    """Every basis change goes through ``_pivot``; a second elimination
    path would miss these counts (a guard on speed that needs no timing)."""

    @pytest.fixture
    def pivots(self, monkeypatch):
        calls = []
        original = select_lp._pivot

        def counting(tableau, row, col):
            calls.append((row, col))
            original(tableau, row, col)

        monkeypatch.setattr(select_lp, "_pivot", counting)
        return calls

    def test_phase_pivots_plus_drive_out(self, pivots):
        # x1 + x2 = 1, x1 - x2 = 1 without upper bounds (so no bound flip
        # counts as an iteration): phase 1 pivots x1 in on the first row,
        # which leaves the second row's artificial basic at zero with
        # support on x2; the drive-out pivots x2 in there.
        x, _, iterations = _simplex_max(
            [1.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], senses(["=", "="]), [1.0, 1.0],
            [np.inf, np.inf],
        )
        assert x.tolist() == [1.0, 0.0]
        assert iterations == 1
        assert pivots == [(0, 0), (1, 1)]

    def test_one_pivot_per_basis_change_of_the_oracle(self, rng, pivots, monkeypatch):
        num, horizon = 20, 4
        total = (np.ones(num * horizon), "=", 3 * horizon)
        first_step = (np.repeat([1.0, 0.0], [num, num * (horizon - 1)]), ">=", 3)
        program = selection_program(rng, num, horizon, 3, 2, extra=[total, first_step])
        # The oracle eliminates with one np.outer per basis change, in
        # phase 1, phase 2 and the drive-out alike.
        outer_calls = []
        outer = np.outer

        def counting_outer(*args):
            outer_calls.append(1)
            return outer(*args)

        monkeypatch.setattr(np, "outer", counting_outer)
        _, _, oracle_iterations = loop_simplex_max(*program)
        monkeypatch.setattr(np, "outer", outer)
        c, a, rels, rhs, upper = program
        _, _, iterations = _simplex_max(c, a, senses(rels), rhs, upper)
        assert iterations == oracle_iterations
        assert len(outer_calls) > iterations // 2
        assert len(pivots) == len(outer_calls)

    def test_all_rows_crash_no_artificial_no_phase_one(self, pivots):
        """Budget rows plus ``>=`` rows with rhs <= 0 all start with their
        slack basic: no artificial column is built, and with a negative
        objective the slack basis is already optimal, so no pivot of
        either phase runs."""
        num, horizon = 6, 3
        budgets = model.ConstraintSet.build([1] * horizon, energy=[2] * num).rows(num).a[horizon:]
        a = np.array(
            list(budgets)
            + [np.repeat([1.0, 0.0], [num, num * (horizon - 1)]), np.ones(num * horizon)]
        )
        rels = ["<="] * num + [">=", ">="]
        rhs = np.array([2.0] * num + [-1.0, 0.0])
        full, start_rhs, basis, art_start = _crash_start(a, senses(rels), rhs)
        assert full.shape == (num + 2, art_start)
        assert basis.tolist() == list(range(num * horizon, art_start))
        assert start_rhs.tolist() == [2.0] * num + [1.0, 0.0]
        x, objective, iterations = _simplex_max(
            -np.ones(num * horizon), a, senses(rels), rhs, np.ones(num * horizon)
        )
        assert x.tolist() == [0.0] * (num * horizon) and objective == 0.0
        assert iterations == 0 and pivots == []


EXAMPLE3 = Path(__file__).resolve().parents[1] / "src" / "sensel" / "scenarios" / "example3.json"


@pytest.fixture(scope="module")
def example3_lp():
    problem = build_lp(model.load_scenario(EXAMPLE3))
    return problem, solve_lp(problem)


class TestExample3Lp:
    def test_crash_basis_keeps_pivots_low(self, example3_lp):
        """Starting from the slack basis, only the 5 count rows need an
        artificial; the all-artificial start took 5,690 pivots."""
        problem, solution = example3_lp
        rows = problem.rows
        full, _, _, art_start = _crash_start(rows.a, rows.sense, rows.b)
        assert full.shape[1] - art_start == problem.horizon
        assert solution.iterations < 1000

    def test_objective_matches_scipy_highs(self, example3_lp):
        linprog = pytest.importorskip("scipy.optimize").linprog
        problem, solution = example3_lp
        rows = problem.rows
        ineq = rows.sense == SENSE["<="]
        eq = rows.sense == SENSE["="]
        assert ineq.sum() + eq.sum() == len(rows)
        reference = linprog(
            -problem.c,
            A_ub=rows.a[ineq], b_ub=rows.b[ineq],
            A_eq=rows.a[eq], b_eq=rows.b[eq],
            bounds=[(0, 1)] * problem.c.shape[0], method="highs",
        )
        assert reference.status == 0
        assert solution.objective == pytest.approx(-reference.fun, rel=1e-9, abs=0)


class TestZeroGapWithoutExtraRows:
    """Count and budget rows form the incidence matrix of a bipartite graph
    (steps and sensors), so the LP is totally unimodular: the simplex's
    vertex optimum is integral, greedy rounding returns it, and the
    certified gap is exactly zero."""

    @staticmethod
    def assert_zero_gap(scenario, problem, solution):
        x = solution.x
        assert np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= 1e-9)
        rounded = round_energy(solution, scenario, problem)
        report = certify(rounded, problem)
        assert report.feasible
        assert report.gap == 0.0

    def test_random_lp_family_instances(self, rng):
        """Small grids of the benchmark's LP family: random counts, budgets
        and step weights, every instance feasible."""
        for _ in range(25):
            grid = int(rng.integers(2, 5))
            num = grid * grid
            horizon = int(rng.integers(1, 6))
            budget = int(rng.integers(1, horizon + 1))
            per_step = [int(rng.integers(1, num + 1)) for _ in range(horizon)]
            while sum(per_step) > budget * num:
                per_step[int(np.argmax(per_step))] -= 1
            scenario = model.gen_grid_scenario(
                grid, 100.0, [(5.0, 10.0), (5.0, 10.0)], seed=int(rng.integers(2**31)),
                per_step=per_step, energy=budget, weights=rng.uniform(0.1, 1.0, size=horizon),
            )
            problem = build_lp(scenario)
            self.assert_zero_gap(scenario, problem, solve_lp(problem))

    def test_example2(self):
        scenario = model.load_scenario(EXAMPLE3.with_name("example2.json"))
        problem = build_lp(scenario)
        self.assert_zero_gap(scenario, problem, solve_lp(problem))

    def test_example3(self, example3_lp):
        problem, solution = example3_lp
        self.assert_zero_gap(model.load_scenario(EXAMPLE3), problem, solution)
