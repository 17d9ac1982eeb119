"""Semidefinite-route tests: quadratic coefficients, the lifted problem,
the interior-point solver, Gaussian-randomization rounding, and the
correlation-ignoring baseline."""

import numpy as np
import pytest

from sensel import linalg, measure, model
from sensel.errors import RoundingInfeasible
from sensel.filter import selection_gain, stack_measurement
from sensel.select_lp import build_lp
from sensel.select_sdr import (
    bqp_objective,
    build_bqp,
    build_sdp,
    lifted_row_matrix,
    randomize_round,
    relaxation_bound,
    select_ignore_dependence,
    solve_sdp,
)
from sensel.select_separable import exhaustive_opt, select_topk

from conftest import (
    enumerate_feasible,
    loop_round_by_scores,
    rand_scenario,
    with_random_extra_row,
)


def loop_randomize_round(sdp_solution, scenario, s_count, seed, objective):
    """Reference: the per-sample loop that the batched randomization
    replaced (one draw, two greedy roundings and their evaluation at a
    time).  Returns (gamma, value)."""
    noise_seq = scenario.noise_sequence()
    num = scenario.num_sensors
    horizon = scenario.horizon
    nl = num * horizon
    cov = linalg.psd_project(sdp_solution.x, slack=1e-6) + 1e-12 * np.eye(sdp_solution.x.shape[0])
    low = np.linalg.cholesky(cov)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    weights = np.asarray(scenario.weights, dtype=float)

    def evaluate(schedule):
        if objective == "f3":
            return sum(
                float(weights[n]) * float(np.trace(selection_gain(
                    scenario.sensors, noise_seq[n], schedule.column(n), n
                )))
                for n in range(horizon)
                if weights[n] != 0.0
            )
        fn = measure.objective_f1 if objective == "f1" else measure.objective_f2
        return float(np.trace(fn(schedule, scenario, noise_seq)))

    maximize = objective == "f3"
    best_gamma, best_value, best_key = None, -np.inf if maximize else np.inf, None
    for _ in range(int(s_count)):
        eta = (low @ rng.standard_normal(cov.shape[0]))[:nl]
        for signed in (eta, -eta):
            gamma = loop_round_by_scores(
                signed.reshape(horizon, num).T, scenario.constraints, weights
            )
            schedule = model.SelectionSchedule.build(gamma)
            value = evaluate(schedule)
            better = value > best_value if maximize else value < best_value
            if better or (
                value == best_value and (best_key is None or schedule.key() < best_key)
            ):
                best_gamma, best_value, best_key = gamma, value, schedule.key()
    return best_gamma, best_value


def two_sensor_scalar(rho):
    """Two scalar sensors with unit maps and correlation rho."""
    system = model.DynamicSystem.build([[1.0]], [[1.0]])
    sensors = [
        model.SensorModel.build([[1.0]], [0.0, 0.0]),
        model.SensorModel.build([[1.0]], [10.0, 0.0]),
    ]
    noise = model.NoiseModel.from_full([[1.0, rho], [rho, 1.0]], [1, 1])
    return model.make_scenario(
        system, sensors, noise, model.ConstraintSet.build([1]),
        [1.0], [0.0], [[1.0]],
    )


class TestBuildBqp:
    def test_two_sensor_closed_form(self):
        """Unit maps with correlation rho invert to the textbook 2x2 form."""
        rho = 0.6
        bqp = build_bqp(two_sensor_scalar(rho))
        expected = -np.array([[1.0, -rho], [-rho, 1.0]]) / (1.0 - rho**2)
        np.testing.assert_allclose(bqp.b_blocks[0], expected, atol=1e-12)

    def test_uncorrelated_reduces_to_diagonal_measures(self, rng):
        scenario = rand_scenario(rng, num_sensors=4, horizon=2, correlated=False)
        bqp = build_bqp(scenario)
        for n in range(2):
            block = bqp.b_blocks[n]
            measures = [
                measure.sensor_measure(
                    scenario.sensors[i].h_at(n), scenario.noise.block(i, i)
                )
                for i in range(4)
            ]
            np.testing.assert_allclose(block, -np.diag(measures), atol=1e-10)

    def test_quadratic_form_equals_full_inverse_proxy(self, rng):
        """-g'Bg equals the trace of the masked stack against the full
        inverse covariance, for random selections."""
        for _ in range(100):
            num = int(rng.integers(2, 5))
            scenario = rand_scenario(rng, num_sensors=num, horizon=1, correlated=True)
            bqp = build_bqp(scenario)
            gamma = rng.integers(0, 2, size=num).astype(float)
            t_full = np.linalg.inv(scenario.noise.r_full)
            meas = stack_measurement(scenario.sensors, scenario.noise, gamma)
            expected = float(np.trace(meas.h_tilde.T @ t_full @ meas.h_tilde))
            quad = -float(gamma @ bqp.b_blocks[0] @ gamma)
            assert quad == pytest.approx(expected, abs=1e-9, rel=1e-9)

    def test_bqp_argmin_matches_lp_argmax_when_uncorrelated(self, rng):
        """Block-diagonal noise: minimizing the quadratic proxy and
        maximizing the linear objective agree on the best schedules."""
        for _ in range(10):
            num = int(rng.integers(2, 5))
            horizon = int(rng.integers(1, 3))
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=False,
                per_step=[int(rng.integers(1, num))] * horizon,
            )
            bqp = build_bqp(scenario)
            problem = build_lp(scenario)
            quad = {}
            lin = {}
            for schedule in enumerate_feasible(scenario):
                key = schedule.key()
                quad[key] = bqp_objective(bqp, schedule)
                lin[key] = float(problem.c @ schedule.gamma_vec())
            quad_best = min(quad.values())
            lin_best = max(lin.values())
            quad_arg = {k for k, v in quad.items() if abs(v - quad_best) < 1e-10}
            lin_arg = {k for k, v in lin.items() if abs(v - lin_best) < 1e-10}
            assert quad_arg == lin_arg


class TestBuildSdp:
    def test_toy_dimensions_and_corner(self):
        bqp = build_bqp(two_sensor_scalar(0.5))
        sdp = build_sdp(bqp)
        assert sdp.dim == 3
        assert sdp.c.shape == (3, 3)
        assert sdp.c[2, 2] == 0.0

    def test_count_row_right_side(self):
        """A select-m-of-L equality row transforms to 4m - L."""
        scenario = two_sensor_scalar(0.3)
        sdp = build_sdp(build_bqp(scenario))
        a, rel, rhs = sdp.rows[0]
        assert rel == "="
        assert rhs == 4.0 * 1 - 2
        np.testing.assert_array_equal(a, [1.0, 1.0])

    def test_inequality_direction_preserved(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=3, horizon=2, correlated=True,
            per_step=[1, 1], energy=[1, 1, 2],
        )
        sdp = build_sdp(build_bqp(scenario))
        rels = [rel for _, rel, _ in sdp.rows]
        assert rels[:2] == ["=", "="]
        assert rels[2:] == ["<=", "<=", "<="]

    def test_lifted_row_matrix_border(self):
        a = np.array([1.0, 0.0, 2.0])
        e = lifted_row_matrix(a, 4)
        np.testing.assert_array_equal(np.diag(e)[:3], a)
        np.testing.assert_array_equal(e[:3, 3], a)
        np.testing.assert_array_equal(e[3, :3], a)
        assert e[3, 3] == 0.0

    def test_boolean_points_stay_feasible_after_lifting(self, rng):
        """Every feasible schedule maps to a lifted rank-one matrix that
        satisfies the transformed rows, so the relaxation really contains
        the Boolean problem."""
        for _ in range(10):
            num = int(rng.integers(2, 5))
            horizon = int(rng.integers(1, 3))
            energy = [int(rng.integers(1, horizon + 1)) for _ in range(num)]
            per_step = [int(rng.integers(1, num)) for _ in range(horizon)]
            if sum(per_step) >= sum(energy):  # keep budget slack (interior)
                energy = [horizon] * num
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=True,
                per_step=per_step, energy=energy,
            )
            bqp = build_bqp(scenario)
            sdp = build_sdp(bqp)
            for schedule in enumerate_feasible(scenario):
                tau = 2.0 * schedule.gamma_vec() - 1.0
                v = np.concatenate([tau, [1.0]])
                x = np.outer(v, v)
                for a, rel, rhs in sdp.rows:
                    value = float(np.tensordot(lifted_row_matrix(a, sdp.dim), x))
                    if rel == "=":
                        assert value == pytest.approx(rhs, abs=1e-9)
                    elif rel == "<=":
                        assert value <= rhs + 1e-9
                    else:
                        assert value >= rhs - 1e-9
                # objective affine map: g'Bg == (tr(C vv') + 1'B1) / 4
                lifted = float(np.tensordot(sdp.c, x))
                direct = bqp_objective(bqp, schedule)
                assert (lifted + sdp.ones_quad) / 4.0 == pytest.approx(direct, abs=1e-9)


class TestSolveSdp:
    def test_zero_objective_unit_diagonal(self):
        scenario = two_sensor_scalar(0.2)
        sdp = build_sdp(build_bqp(scenario))
        zeroed = type(sdp)(
            c=np.zeros_like(sdp.c), rows=(), dim=sdp.dim, ones_quad=0.0
        )
        solution = solve_sdp(zeroed)
        assert solution.objective == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(np.diag(solution.x), 1.0, atol=1e-6)

    def test_toy_relaxation_bounds_enumeration(self):
        scenario = two_sensor_scalar(0.7)
        bqp = build_bqp(scenario)
        sdp = build_sdp(bqp)
        solution = solve_sdp(sdp)
        best = min(
            bqp_objective(bqp, s) for s in enumerate_feasible(scenario)
        )
        assert relaxation_bound(solution, sdp) <= best + 1e-6

    def test_jammed_network_bound_over_all_pairs(self):
        """On the bundled 25-sensor jammer scenario the relaxation bound
        sits at or below the quadratic value of every one of the 300
        feasible sensor pairs."""
        scenario = model.load_scenario("src/sensel/scenarios/example4.json")
        bqp = build_bqp(scenario)
        sdp = build_sdp(bqp)
        solution = solve_sdp(sdp)
        best = min(bqp_objective(bqp, s) for s in enumerate_feasible(scenario))
        assert relaxation_bound(solution, sdp) <= best + 1e-6 * (1 + abs(best))
        np.testing.assert_allclose(np.diag(solution.x), 1.0, atol=1e-6)

    def test_random_instances_bound_and_conditioning(self, rng):
        """On random correlated instances the solver meets its tolerance,
        pins the diagonal, and lower-bounds the enumerated optimum."""
        for _ in range(15):
            num = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 3))
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=True,
                per_step=[int(rng.integers(1, num)) for _ in range(horizon)],
            )
            bqp = build_bqp(scenario)
            sdp = build_sdp(bqp)
            solution = solve_sdp(sdp)
            assert solution.gap <= 1e-6
            np.testing.assert_allclose(np.diag(solution.x), 1.0, atol=1e-6)
            best = min(bqp_objective(bqp, s) for s in enumerate_feasible(scenario))
            assert relaxation_bound(solution, sdp) <= best + 1e-6 * (1 + abs(best))


class TestRandomizeRound:
    def test_deterministic_given_seed(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=4, horizon=2, correlated=True,
            per_step=[2, 1], energy=[1, 2, 2, 1],
        )
        solution = solve_sdp(build_sdp(build_bqp(scenario)))
        a = randomize_round(solution, scenario, 10, seed=123)
        b = randomize_round(solution, scenario, 10, seed=123)
        np.testing.assert_array_equal(a.schedule.gamma, b.schedule.gamma)
        assert a.objective == b.objective
        c = randomize_round(solution, scenario, 10, seed=124)
        assert a.objective != c.objective or np.array_equal(
            a.schedule.gamma, c.schedule.gamma
        )

    def test_always_feasible(self, rng):
        for _ in range(10):
            num = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 4))
            energy = [int(rng.integers(1, horizon + 1)) for _ in range(num)]
            per_step = [int(rng.integers(1, num)) for _ in range(horizon)]
            if sum(per_step) >= sum(energy):  # keep budget slack (interior)
                energy = [horizon] * num
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=True,
                per_step=per_step, energy=energy,
            )
            solution = solve_sdp(build_sdp(build_bqp(scenario)))
            rounded = randomize_round(solution, scenario, 8, seed=5)
            assert rounded.schedule.satisfies(scenario.constraints)

    def test_nested_samples_never_worsen(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=5, horizon=2, correlated=True, per_step=[2, 2],
        )
        solution = solve_sdp(build_sdp(build_bqp(scenario)))
        values = [
            randomize_round(solution, scenario, s, seed=77).objective
            for s in (1, 5, 20, 60)
        ]
        assert values == sorted(values)

    def test_covariance_objectives_minimized(self, rng):
        """With a covariance objective the best sample has the smallest
        trace among the evaluated candidates."""
        scenario = rand_scenario(
            rng, num_sensors=4, horizon=2, correlated=True, per_step=[1, 2],
        )
        solution = solve_sdp(build_sdp(build_bqp(scenario)))
        rounded = randomize_round(solution, scenario, 30, seed=3, objective="f1")
        trace_best = float(
            np.trace(measure.objective_f1(rounded.schedule, scenario))
        )
        assert rounded.objective == pytest.approx(trace_best)
        exhaustive_best = min(
            float(np.trace(measure.objective_f1(s, scenario)))
            for s in enumerate_feasible(scenario)
        )
        assert rounded.objective >= exhaustive_best - 1e-12

    def test_batched_matches_per_sample_loop(self, rng):
        """Identical schedules and objectives to the per-sample loop for
        f1, f2 and f3, on random correlated instances with budgets and
        zero-weight steps.  Where the loop gave up because one candidate ran
        out of budgeted sensors, the batch keeps the feasible candidates."""
        compared = 0
        for trial in range(12):
            num = int(rng.integers(3, 6))
            horizon = int(rng.integers(1, 4))
            per_step = [int(rng.integers(1, num)) for _ in range(horizon)]
            energy = [int(rng.integers(1, horizon + 1)) for _ in range(num)]
            if sum(per_step) >= sum(energy):  # keep budget slack (interior)
                energy = [horizon] * num
            weights = rng.uniform(0.1, 1.0, size=horizon)
            if horizon > 1:
                weights[int(rng.integers(horizon))] = 0.0
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=True,
                per_step=per_step, energy=energy if trial % 3 else None,
                weights=weights,
            )
            solution = solve_sdp(build_sdp(build_bqp(scenario)))
            for objective in ("f1", "f2", "f3"):
                try:
                    gamma, value = loop_randomize_round(
                        solution, scenario, 15, trial, objective
                    )
                except RoundingInfeasible:
                    try:
                        rounded = randomize_round(
                            solution, scenario, 15, seed=trial, objective=objective
                        )
                    except RoundingInfeasible:
                        continue
                    assert rounded.schedule.satisfies(scenario.constraints)
                    continue
                rounded = randomize_round(
                    solution, scenario, 15, seed=trial, objective=objective
                )
                np.testing.assert_array_equal(rounded.schedule.gamma, gamma)
                assert rounded.objective == value
                compared += 1
        assert compared >= 24

    def test_shared_gain_memo_changes_nothing(self, rng):
        """A memo shared across calls gives the results of fresh memos and
        holds one gain trace per (step, packed column)."""
        scenario = rand_scenario(
            rng, num_sensors=5, horizon=3, correlated=True, per_step=[2, 1, 2],
        )
        solution = solve_sdp(build_sdp(build_bqp(scenario)))
        memo = {}
        for seed in range(4):
            shared = randomize_round(solution, scenario, 25, seed=seed, gain_memo=memo)
            fresh = randomize_round(solution, scenario, 25, seed=seed)
            np.testing.assert_array_equal(shared.schedule.gamma, fresh.schedule.gamma)
            assert shared.objective == fresh.objective
        assert memo
        assert {step for step, _ in memo} <= {0, 1, 2}
        assert all(isinstance(key, bytes) for _, key in memo)

    def test_extra_row_met_or_rounding_infeasible(self, rng):
        """With a random extra row the result meets every row and stays
        below the exhaustive optimum, or the call raises
        RoundingInfeasible.  The relaxation is solved without the row:
        rounding must honour rows whatever matrix it samples from."""
        outcomes = {"met": 0, "infeasible": 0}
        for _ in range(6):
            num = int(rng.integers(3, 6))
            horizon = int(rng.integers(1, 3))
            base = rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=True,
                per_step=[int(rng.integers(1, num)) for _ in range(horizon)],
            )
            solution = solve_sdp(build_sdp(build_bqp(base)))
            for seed in range(8):
                scenario = with_random_extra_row(rng, base)
                _, best = exhaustive_opt(scenario, "f3")
                try:
                    rounded = randomize_round(solution, scenario, 10, seed=seed)
                except RoundingInfeasible:
                    outcomes["infeasible"] += 1
                    continue
                outcomes["met"] += 1
                assert rounded.schedule.satisfies(scenario.constraints)
                assert rounded.objective <= best + 1e-9 * (1.0 + abs(best))
                assert rounded.objective == pytest.approx(
                    measure.objective_f3(rounded.schedule, scenario), rel=1e-12
                )
        assert outcomes["met"] > 0 and outcomes["infeasible"] > 0


class TestIgnoreDependence:
    def test_uncorrelated_equals_topk(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=5, horizon=2, correlated=False, per_step=[2, 3],
        )
        schedule = select_ignore_dependence(scenario)
        for n in range(2):
            np.testing.assert_array_equal(
                schedule.column(n), select_topk(scenario, n)
            )

    def test_zero_power_jammer_equals_topk(self):
        scenario = model.load_scenario("src/sensel/scenarios/example4.json")
        powerless = model.apply_jammer(
            scenario, 0.0, 1.0, 2.0, [550.0, 200.0], np.eye(2)
        )
        schedule = select_ignore_dependence(powerless)
        np.testing.assert_array_equal(
            schedule.column(0), select_topk(powerless, 0)
        )

    def test_strong_jammer_changes_the_answer(self):
        """Correlation-aware rounding picks a different schedule than the
        correlation-blind baseline once the jammer dominates."""
        scenario = model.load_scenario("src/sensel/scenarios/example4.json")
        blind = select_ignore_dependence(scenario)
        solution = solve_sdp(build_sdp(build_bqp(scenario)))
        aware = randomize_round(solution, scenario, 100, seed=11)
        blind_value = measure.objective_f3(blind, scenario)
        assert aware.objective > blind_value
        assert not np.array_equal(aware.schedule.gamma, blind.gamma)

    def test_budgeted_case_uses_lp_route(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=4, horizon=3, correlated=True,
            per_step=[1, 1, 1], energy=[1, 1, 1, 1],
        )
        schedule = select_ignore_dependence(scenario)
        assert schedule.satisfies(scenario.constraints)
