"""Tests for the analytic top-k selection and the exhaustive oracle."""

import tracemalloc

import numpy as np
import pytest

from sensel import measure, model
from sensel.errors import Infeasible, NotSeparableNoise, TooLarge
from sensel.measure import OBJECTIVES
from sensel.select_separable import _SLICE, _schedule_count, exhaustive_opt, topk_schedule

from conftest import (
    enumerate_feasible,
    loop_enumerate_feasible,
    rand_scenario,
    selection_gain,
    with_random_extra_row,
)


def scenario_with_measures(values, per_step, rng, horizon=1, energy=None, weights=None):
    """Scalar-state scenario whose per-sensor measures are exactly `values`
    (sensor i has H = 1 and noise 1/value)."""
    num = len(values)
    system = model.DynamicSystem.build([[1.0]], [[1.0]])
    sensors = model.SensorModel.build_all([[[1.0]]] * num, [[float(i), 0.0] for i in range(num)])
    blocks = [[[1.0 / v]] for v in values]
    noise = model.NoiseModel.build([1] * num, base_blocks=blocks)
    return model.make_scenario(
        system, sensors, noise,
        model.ConstraintSet.build([per_step] * horizon, energy=energy),
        np.ones(horizon) if weights is None else weights, [0.0], [[1.0]], seed=0,
    )


class TestTopK:
    def test_orders_by_measure(self, rng):
        scenario = scenario_with_measures([0.3, 0.1, 0.2], 2, rng)
        column = topk_schedule(scenario).column(0)
        np.testing.assert_array_equal(column, [1, 0, 1])

    def test_tie_goes_to_lowest_index(self, rng):
        scenario = scenario_with_measures([0.2, 0.2, 0.2], 1, rng)
        column = topk_schedule(scenario).column(0)
        np.testing.assert_array_equal(column, [1, 0, 0])

    def test_correlated_noise_rejected(self, rng):
        scenario = rand_scenario(rng, num_sensors=3, horizon=1, correlated=True)
        with pytest.raises(NotSeparableNoise):
            topk_schedule(scenario)

    def test_tied_runner_up_goes_to_lower_index(self, rng):
        scenario = scenario_with_measures([1.0, 3.0, 3.0, 2.0], 2, rng)
        column = topk_schedule(scenario).column(0)
        np.testing.assert_array_equal(column, [0, 1, 1, 0])

    def test_zero_weight_step_still_ranks_by_measure(self, rng):
        """A step of weight 0 still picks its best sensors: top-k ranks by
        the unweighted measures, where a weighted table would tie every
        sensor and fall back to sensor 0."""
        scenario = scenario_with_measures(
            [0.1, 0.3, 0.2], 1, rng, horizon=2, weights=[0.0, 1.0]
        )
        schedule = topk_schedule(scenario)
        np.testing.assert_array_equal(schedule.column(0), [0, 1, 0])
        np.testing.assert_array_equal(schedule.column(1), [0, 1, 0])


class TestExhaustive:
    def test_three_sensor_enumeration(self, rng):
        scenario = scenario_with_measures([0.3, 0.1, 0.2], 1, rng)
        schedule, value = exhaustive_opt(scenario, "f3")
        np.testing.assert_array_equal(schedule.gamma[:, 0], [1, 0, 0])
        assert value == pytest.approx(0.3)

    def test_budget_pruning_respected(self, rng):
        """With a one-use budget on the best sensor, it appears only once."""
        scenario = scenario_with_measures(
            [0.5, 0.2, 0.1], 1, rng, horizon=2, energy=[1, 2, 2]
        )
        schedule, _ = exhaustive_opt(scenario, "f3")
        assert schedule.satisfies(scenario.constraints)
        assert schedule.gamma[0].sum() <= 1

    def test_cap_exceeded(self, rng):
        """C(30, 15)^3 schedules: the count is refused before any
        enumeration, so this returns at once."""
        scenario = rand_scenario(
            rng, num_sensors=30, horizon=3, per_step=[15, 15, 15], correlated=False
        )
        with pytest.raises(TooLarge):
            exhaustive_opt(scenario, "f3")

    def test_extra_linear_row_filters_schedules(self, rng):
        """A row forbidding the strongest sensor changes the optimum."""
        scenario = scenario_with_measures([0.5, 0.2, 0.1], 1, rng)
        forbid_first = ([1.0, 0.0, 0.0], "<=", 0.0)
        constraints = model.ConstraintSet.build([1], extra=[forbid_first])
        import dataclasses

        constrained = dataclasses.replace(scenario, constraints=constraints)
        schedule, value = exhaustive_opt(constrained, "f3")
        np.testing.assert_array_equal(schedule.gamma[:, 0], [0, 1, 0])
        assert value == pytest.approx(0.2)

    def test_topk_matches_exhaustive_f3_single_step(self, rng):
        """Count-constrained single step: the analytic rule attains the
        enumerated maximum exactly."""
        for _ in range(20):
            num = int(rng.integers(2, 7))
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=1, correlated=False,
                per_step=[int(rng.integers(1, num + 1))],
            )
            schedule = topk_schedule(scenario)
            _, best = exhaustive_opt(scenario, "f3")
            mine = measure.objective_f3(schedule, scenario)
            assert mine == best

    def test_topk_minimizes_both_trace_objectives(self, rng):
        """Uncorrelated noise, count constraints: the analytic selection
        attains the enumerated minima of both covariance traces on regular
        instances, where at every step the trace-best selection dominates
        the alternatives in the semidefinite order."""
        import itertools

        from sensel import linalg

        checked = 0
        skipped = 0
        for _ in range(25):
            num = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 4))
            # scalar states keep every pair of gains comparable, so a good
            # share of instances stays regular
            state_dim = 1 if rng.random() < 0.5 else int(rng.integers(2, 4))
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=False,
                per_step=[int(rng.integers(1, num))] * horizon,
                state_dim=state_dim,
            )
            regular = True
            for n in range(horizon):
                gains = []
                for combo in itertools.combinations(
                    range(num), scenario.constraints.per_step[n]
                ):
                    col = np.zeros(num, dtype=np.int8)
                    col[list(combo)] = 1
                    gains.append(selection_gain(scenario, col, n))
                traces = [float(np.trace(g)) for g in gains]
                top = int(np.argmax(traces))
                scale = 1.0 + abs(traces[top])
                if not all(
                    linalg.min_eigenvalue(gains[top] - g) >= -1e-9 * scale
                    for g in gains
                ):
                    regular = False
                    break
            if not regular:
                skipped += 1
                continue
            schedule = topk_schedule(scenario)
            _, f1_min = exhaustive_opt(scenario, "f1")
            _, f2_min = exhaustive_opt(scenario, "f2")
            mine_f1 = measure.objective_value("f1", schedule, scenario)
            mine_f2 = measure.objective_value("f2", schedule, scenario)
            assert mine_f1 == pytest.approx(f1_min, abs=1e-9)
            assert mine_f2 == pytest.approx(f2_min, abs=1e-9)
            checked += 1
        print(f"\ntop-k optimality: {checked} checked, {skipped} non-regular skipped")
        assert checked > 0

    def test_tie_break_lexicographic(self, rng):
        """Equal-measure sensors: the reported optimum has the smallest
        step-major 0/1 vector among the tied schedules."""
        scenario = scenario_with_measures([0.2, 0.2, 0.2], 1, rng)
        schedule, _ = exhaustive_opt(scenario, "f3")
        np.testing.assert_array_equal(schedule.gamma[:, 0], [0, 0, 1])
        # 84^2 = 7,056 schedules, all tied, so tied optima fall in more than
        # one slice of the enumeration.
        scenario = scenario_with_measures([0.2] * 9, 3, rng, horizon=2)
        assert _schedule_count(scenario) > _SLICE
        for objective in OBJECTIVES:
            schedule, _ = exhaustive_opt(scenario, objective)
            np.testing.assert_array_equal(schedule.gamma[:6], 0)
            np.testing.assert_array_equal(schedule.gamma[6:], 1)

    def test_reduced_forty_sensor_replica(self):
        """Reduced replica of the 40-sensor direct-observation study
        (8 sensors, pick 3): the analytic selection reproduces the
        enumerated final-covariance trace on the frozen replica seed."""
        scenario = model.gen_uniform_scenario(
            8, 100.0, [(5.0, 7.0), (10.0, 12.0)], seed=0,
            model="random_walk", per_step=3, weights=[1.0],
            x0=[50.0, 50.0], p0=10.0 * np.eye(2),
        )
        schedule = topk_schedule(scenario)
        mine = measure.objective_value("f1", schedule, scenario)
        _, best = exhaustive_opt(scenario, "f1")
        assert mine == pytest.approx(best, abs=1e-9)

    def test_budgeted_nine_sensor_study(self):
        """The bundled 9-sensor, 3-step, budget-2 configuration enumerates
        quickly under budget pruning and the result respects every
        constraint; the relaxation route can only do as well or worse on
        the final covariance it does not directly optimize."""
        scenario = model.load_scenario("src/sensel/scenarios/example2.json")
        schedule, value = exhaustive_opt(scenario, "f1")
        assert schedule.satisfies(scenario.constraints)
        from sensel.select_lp import build_lp, round_energy, solve_lp

        problem = build_lp(scenario)
        rounded = round_energy(solve_lp(problem), scenario, problem)
        lp_f1 = measure.objective_value("f1", rounded.schedule, scenario)
        assert value <= lp_f1 + 1e-12

    def test_matches_scored_enumeration(self):
        """Random instances with budgets, extra rows and correlated noise:
        the oracle returns the best of every feasible schedule scored by
        ``measure.objective_value``, ties to the smallest ``key()``, all
        three objectives to the bit."""
        rng = np.random.default_rng(606)
        checked = 0
        for _ in range(60):
            num = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 4))
            per_step = [int(rng.integers(1, num)) for _ in range(horizon)]
            energy = None
            if rng.random() < 0.5:
                energy = [int(rng.integers(0, horizon + 1)) for _ in range(num)]
                if sum(per_step) > sum(energy):
                    energy = None
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, per_step=per_step,
                energy=energy, correlated=bool(rng.random() < 0.5),
                state_dim=int(rng.integers(1, 4)),
            )
            feasible = list(enumerate_feasible(scenario))
            if feasible and rng.random() < 0.5:
                scenario = with_random_extra_row(rng, scenario)
                feasible = list(enumerate_feasible(scenario))
            for objective in OBJECTIVES:
                if not feasible:
                    with pytest.raises(Infeasible):
                        exhaustive_opt(scenario, objective)
                    continue
                # f3 is maximized: rank by its negation, then by key.
                sign = -1.0 if objective == "f3" else 1.0
                ranked, key = min(
                    (sign * measure.objective_value(objective, s, scenario), s.key())
                    for s in feasible
                )
                schedule, value = exhaustive_opt(scenario, objective)
                assert schedule.key() == key
                assert value == sign * ranked
            checked += bool(feasible)
        assert checked >= 50

    def test_memory_does_not_grow_with_schedule_count(self, rng):
        """The leaves are scored in fixed slices: 592,704 schedules peak at
        about the traced memory of 46,656."""
        peaks = []
        for per_step in (2, 3):
            scenario = scenario_with_measures(
                rng.uniform(0.1, 1.0, size=9), per_step, rng, horizon=3
            )
            tracemalloc.start()
            exhaustive_opt(scenario, "f3")
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert _schedule_count(scenario) == 84**3
        assert peaks[1] < 1.5 * peaks[0]


class TestEnumerateFeasible:
    def test_batches_match_the_loop(self):
        """The batched ``conftest.enumerate_feasible`` yields the loop's
        schedules in the loop's order, whatever the batch size, on
        instances with budgets (some exhausted) and an extra row."""
        rng = np.random.default_rng(707)
        for _ in range(30):
            num = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 4))
            per_step = [int(rng.integers(1, num + 1)) for _ in range(horizon)]
            energy = [int(rng.integers(0, horizon + 1)) for _ in range(num)]
            if sum(per_step) > sum(energy) or rng.random() < 0.3:
                energy = None
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, per_step=per_step, energy=energy
            )
            if rng.random() < 0.5 and any(loop_enumerate_feasible(scenario)):
                scenario = with_random_extra_row(rng, scenario)
            expected = [s.gamma.tolist() for s in loop_enumerate_feasible(scenario)]
            for batch in (1, 7, 4096):
                got = [s.gamma.tolist() for s in enumerate_feasible(scenario, batch)]
                assert got == expected
