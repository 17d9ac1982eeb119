"""LP-route tests: problem construction, simplex correctness against a
reference solver and Boolean enumeration, greedy rounding, certificates."""

import itertools

import numpy as np
import pytest

from sensel import model
from sensel.errors import Infeasible, NotSeparableNoise, RoundingInfeasible
from sensel.select_lp import (
    LpSolution,
    _simplex_max,
    build_lp,
    certify,
    round_batch,
    round_by_scores,
    round_energy,
    solve_lp,
)
from sensel.select_separable import exhaustive_opt

from conftest import loop_round_by_scores, rand_scenario, with_random_extra_row


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
        assert len(problem.rows) == 1
        row = problem.rows[0]
        np.testing.assert_allclose(row.a, [1.0, 1.0])
        assert row.relation == "=" and row.b == 1.0

    def test_energy_row_hits_one_sensor_per_step(self):
        scenario = measures_scenario([0.3, 0.1, 0.2], 1, horizon=3, energy=[2, 2, 2])
        problem = build_lp(scenario)
        energy_rows = problem.rows[3:]
        assert len(energy_rows) == 3
        for i, row in enumerate(energy_rows):
            expected = np.zeros(9)
            expected[[i, 3 + i, 6 + i]] = 1.0
            np.testing.assert_array_equal(row.a, expected)
            assert row.relation == "<=" and row.b == 2.0

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
        impossible = model.LinearConstraint.build([1.0, 1.0], ">=", 3.0)
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
            status="optimal",
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
            x=np.array([1.0, 0.0]), objective=0.1, status="optimal", iterations=0
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

    def test_extra_row_masks_violating_candidates(self):
        """Only the candidate that meets the extra row survives the mask,
        and round_by_scores raises on the one that does not."""
        forbid_first = model.LinearConstraint.build([1.0, 0.0, 0.0], "<=", 0.0)
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
                x, objective, _ = _simplex_max(c, a, rels, rhs, np.ones(n))
                solved = True
            except Infeasible:
                solved = False
            if reference.status == 0:
                assert solved, trial
                assert objective == pytest.approx(-reference.fun, abs=1e-7, rel=1e-7)
            elif reference.status == 2:
                assert not solved, trial
