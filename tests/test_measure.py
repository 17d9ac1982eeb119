"""Information-measure tests: per-sensor values, additivity for uncorrelated
noise, scaling behavior, and agreement between the myopic trace criterion
and the covariance objectives on enumerable instances."""

import itertools

import numpy as np
import pytest

from sensel import linalg, measure
from sensel.errors import SingularBlock
from sensel.filter import stack_measurement
from sensel.model import SelectionSchedule

from conftest import rand_scenario


class TestSensorMeasure:
    def test_identity_h_diagonal_r(self):
        assert measure.sensor_measure(np.eye(2), np.diag([5.0, 10.0])) == pytest.approx(0.3)

    def test_zero_h(self):
        assert measure.sensor_measure(np.zeros((2, 2)), np.eye(2)) == 0.0

    def test_tracking_h_same_value(self):
        h = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        assert measure.sensor_measure(h, np.diag([5.0, 10.0])) == pytest.approx(0.3)

    def test_singular_block(self):
        with pytest.raises(SingularBlock):
            measure.sensor_measure(np.eye(2), np.zeros((2, 2)))


class TestGainTrace:
    def test_empty_selection(self, rng):
        scenario = rand_scenario(rng, num_sensors=2, horizon=1)
        meas = stack_measurement(scenario.sensors, scenario.noise, [0, 0])
        assert measure.gain_trace(meas.h_tilde, meas.r_tilde) == 0.0

    def test_uncorrelated_additivity(self, rng):
        """Block-diagonal noise: the stack's trace equals the sum of the
        selected per-sensor measures, to machine precision."""
        for _ in range(30):
            scenario = rand_scenario(rng, num_sensors=4, horizon=1, correlated=False)
            gamma = rng.integers(0, 2, size=4)
            meas = stack_measurement(scenario.sensors, scenario.noise, gamma)
            total = measure.gain_trace(meas.h_tilde, meas.r_tilde)
            parts = sum(
                measure.sensor_measure(
                    scenario.sensors[i].h_at(0), scenario.noise.block(i, i)
                )
                for i in range(4)
                if gamma[i]
            )
            assert total == pytest.approx(parts, abs=1e-12, rel=1e-12)

    def test_correlated_checked_against_generic_pinv(self, rng):
        """Correlated noise: value differs from the per-sensor sum in general
        and must match the generic-pseudoinverse computation."""
        for _ in range(30):
            scenario = rand_scenario(rng, num_sensors=3, horizon=1, correlated=True)
            gamma = rng.integers(0, 2, size=3)
            meas = stack_measurement(scenario.sensors, scenario.noise, gamma)
            value = measure.gain_trace(meas.h_tilde, meas.r_tilde)
            oracle = float(
                np.trace(meas.h_tilde.T @ linalg.pinv(meas.r_tilde) @ meas.h_tilde)
            )
            assert value == pytest.approx(oracle, abs=1e-9, rel=1e-9)

    def test_scale_inverse_in_noise(self, rng):
        """Multiplying the noise covariance by c divides the measure by c."""
        scenario = rand_scenario(rng, num_sensors=3, horizon=1, correlated=True)
        gamma = np.array([1, 0, 1])
        meas = stack_measurement(scenario.sensors, scenario.noise, gamma)
        base = measure.gain_trace(meas.h_tilde, meas.r_tilde)
        for c in (0.25, 2.0, 10.0):
            scaled = measure.gain_trace(meas.h_tilde, c * meas.r_tilde)
            assert scaled == pytest.approx(base / c, rel=1e-10)


class TestObjectives:
    def test_f1_empty_selection_is_prior_prediction(self, rng):
        scenario = rand_scenario(rng, num_sensors=2, horizon=1)
        schedule = SelectionSchedule.build(np.zeros((2, 1)))
        f = scenario.system.f_at(0)
        expected = f @ scenario.p0 @ f.T + scenario.system.q_at(0)
        np.testing.assert_allclose(
            measure.objective_f1(schedule, scenario), expected, atol=1e-9
        )

    def test_f3_last_step_weight_only(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=3, horizon=3, weights=[0.0, 0.0, 1.0], correlated=False
        )
        gamma = rng.integers(0, 2, size=(3, 3))
        schedule = SelectionSchedule.build(gamma)
        meas = stack_measurement(
            scenario.sensors, scenario.noise, schedule.column(2), step=2
        )
        expected = measure.gain_trace(meas.h_tilde, meas.r_tilde)
        assert measure.objective_f3(schedule, scenario) == pytest.approx(expected)

    def test_f2_is_average_of_rollout(self, rng):
        from sensel.filter import covariance_rollout

        scenario = rand_scenario(rng, num_sensors=3, horizon=2, correlated=True)
        gamma = rng.integers(0, 2, size=(3, 2))
        schedule = SelectionSchedule.build(gamma)
        covs = covariance_rollout(
            scenario.p0, scenario.system, scenario.sensors, schedule,
            scenario.noise_sequence(),
        )
        np.testing.assert_allclose(
            measure.objective_f2(schedule, scenario), (covs[0] + covs[1]) / 2
        )

    def test_info_table_entries(self, rng):
        scenario = rand_scenario(rng, num_sensors=3, horizon=2, correlated=False)
        table = measure.info_table(scenario)
        assert table.shape == (3, 2)
        assert np.all(table >= 0)
        for n in range(2):
            for i in range(3):
                expected = scenario.weights[n] * measure.sensor_measure(
                    scenario.sensors[i].h_at(n), scenario.noise.block(i, i)
                )
                assert table[i, n] == pytest.approx(expected)


def _enumerate_schedules(scenario):
    per_step = scenario.constraints.per_step
    num = scenario.num_sensors
    pools = [
        list(itertools.combinations(range(num), m)) for m in per_step
    ]
    for combo in itertools.product(*pools):
        gamma = np.zeros((num, len(per_step)), dtype=np.int8)
        for n, chosen in enumerate(combo):
            gamma[list(chosen), n] = 1
        yield SelectionSchedule.build(gamma)


class TestTraceCriterionConsistency:
    def test_myopic_trace_argmax_minimizes_covariance_when_regular(self, rng):
        """On regular instances (each step has a selection whose gain
        dominates every alternative in the semidefinite order), the
        per-step trace maximizer attains the minimal final covariance
        trace.  Non-regular instances are reported and skipped, since the
        step-by-step decomposition is conditional on that dominance; a
        dominant final covariance alone does not grant it."""
        from sensel.filter import selection_gain

        checked = 0
        non_regular = 0
        for trial in range(40):
            num = int(rng.integers(2, 5))
            horizon = int(rng.integers(1, 3))
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon,
                state_dim=int(rng.integers(1, 4)),
                correlated=bool(rng.integers(0, 2)),
                per_step=[int(rng.integers(1, num))] * horizon,
            )
            noise_seq = scenario.noise_sequence()
            myopic_cols = []
            regular = True
            for n in range(horizon):
                gains = []
                for combo in itertools.combinations(
                    range(num), scenario.constraints.per_step[n]
                ):
                    col = np.zeros(num, dtype=np.int8)
                    col[list(combo)] = 1
                    gains.append(
                        (selection_gain(scenario.sensors, noise_seq[n], col, n), col)
                    )
                traces_n = [float(np.trace(g)) for g, _ in gains]
                top = int(np.argmax(traces_n))
                scale = 1.0 + abs(traces_n[top])
                if not all(
                    linalg.min_eigenvalue(gains[top][0] - g) >= -1e-9 * scale
                    for g, _ in gains
                ):
                    regular = False
                    break
                myopic_cols.append(gains[top][1])
            if not regular:
                non_regular += 1
                continue
            schedules = list(_enumerate_schedules(scenario))
            best_trace = min(
                float(np.trace(measure.objective_f1(s, scenario)))
                for s in schedules
            )
            myopic = SelectionSchedule.from_columns(myopic_cols)
            myopic_trace = float(np.trace(measure.objective_f1(myopic, scenario)))
            assert myopic_trace == pytest.approx(best_trace, abs=1e-9)
            checked += 1
        print(
            f"\ntrace-criterion consistency: {checked} checked, "
            f"{non_regular} non-regular skipped"
        )
        assert checked > 0
