"""Information-measure tests: per-sensor values, additivity for uncorrelated
noise, scaling behavior, and agreement between the myopic trace criterion
and the covariance objectives on enumerable instances."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from sensel import linalg, measure, model
from sensel.errors import InvalidMatrix, NotPositiveDefinite
from sensel.filter import FilterState, masked_model, selection_gains, update_gif, update_kalman
from sensel.model import SelectionSchedule

from conftest import noise_block, rand_scenario, schedule_rollout, selection_gain, sensor_measure


class TestSensorMeasure:
    def test_identity_h_diagonal_r(self):
        assert sensor_measure(np.eye(2), np.diag([5.0, 10.0])) == pytest.approx(0.3)

    def test_zero_h(self):
        assert sensor_measure(np.zeros((2, 2)), np.eye(2)) == 0.0

    def test_tracking_h_same_value(self):
        h = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        assert sensor_measure(h, np.diag([5.0, 10.0])) == pytest.approx(0.3)

    def test_singular_block(self):
        with pytest.raises(NotPositiveDefinite):
            sensor_measure(np.eye(2), np.zeros((2, 2)))


def gain_trace(scenario, gamma_col) -> float:
    """The stack measure f3 sums: the trace of one column's selection gain."""
    return float(np.trace(selection_gain(scenario, gamma_col)))


class TestGainTrace:
    def test_empty_selection(self, rng):
        scenario = rand_scenario(rng, num_sensors=2, horizon=1)
        assert gain_trace(scenario, [0, 0]) == 0.0

    def test_wrong_length_selection_rejected(self):
        """A column or schedule of the wrong length is refused; a longer one
        used to be cut to the network and score all nine of example2."""
        scenario = model.load_scenario("src/sensel/scenarios/example2.json")
        state = FilterState(x=scenario.x0, p=scenario.p0)
        z = np.zeros(scenario.noise.dim)
        for length in (scenario.num_sensors + 2, scenario.num_sensors - 1):
            with pytest.raises(InvalidMatrix, match="length"):
                selection_gains(scenario, [[1] * length])
            for update in (update_kalman, update_gif):
                with pytest.raises(InvalidMatrix, match="length"):
                    update(state, scenario, [1] * length, z)
            schedule = SelectionSchedule.build(np.ones((length, scenario.horizon)))
            with pytest.raises(InvalidMatrix, match="length"):
                measure.objective_f3(schedule, scenario)

    def test_uncorrelated_additivity(self, rng):
        """Block-diagonal noise: the stack's trace equals the sum of the
        selected per-sensor measures, to machine precision."""
        for _ in range(30):
            scenario = rand_scenario(rng, num_sensors=4, horizon=1, correlated=False)
            gamma = rng.integers(0, 2, size=4)
            total = gain_trace(scenario, gamma)
            parts = sum(
                sensor_measure(
                    scenario.sensors[i].h_at(0), noise_block(scenario.noise, i, i)
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
            _, h, r = masked_model(scenario, gamma)
            value = gain_trace(scenario, gamma)
            oracle = float(np.trace(h.T @ linalg.pinv(r) @ h))
            assert value == pytest.approx(oracle, abs=1e-9, rel=1e-9)

    def test_scale_inverse_in_noise(self, rng):
        """Multiplying the noise covariance by c divides the measure by c."""
        scenario = rand_scenario(rng, num_sensors=3, horizon=1, correlated=True)
        gamma = np.array([1, 0, 1])
        noise = scenario.noise
        base = gain_trace(scenario, gamma)
        for c in (0.25, 2.0, 10.0):
            scaled_noise = model.NoiseModel.from_full(c * noise.r_full, noise.block_sizes)
            scaled = gain_trace(replace(scenario, noise=scaled_noise), gamma)
            assert scaled == pytest.approx(base / c, rel=1e-10)


class TestObjectives:
    def test_f1_empty_selection_is_prior_prediction(self, rng):
        scenario = rand_scenario(rng, num_sensors=2, horizon=1)
        schedule = SelectionSchedule.build(np.zeros((2, 1)))
        f = scenario.system.f_at(0)
        expected = f @ scenario.p0 @ f.T + scenario.system.q_at(0)
        final = schedule_rollout(scenario, schedule)[-1]
        np.testing.assert_allclose(final, expected, atol=1e-9)
        assert measure.objective_value("f1", schedule, scenario) == np.trace(final)

    def test_f3_last_step_weight_only(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=3, horizon=3, weights=[0.0, 0.0, 1.0], correlated=False
        )
        gamma = rng.integers(0, 2, size=(3, 3))
        schedule = SelectionSchedule.build(gamma)
        _, h, r = masked_model(scenario, schedule.column(2), step=2)
        expected = np.trace(h.T @ linalg.pinv(r) @ h)
        assert measure.objective_f3(schedule, scenario) == pytest.approx(expected)

    def test_f2_is_average_of_rollout(self, rng):
        scenario = rand_scenario(rng, num_sensors=3, horizon=2, correlated=True)
        gamma = rng.integers(0, 2, size=(3, 2))
        schedule = SelectionSchedule.build(gamma)
        covs = schedule_rollout(scenario, schedule)
        assert measure.objective_value("f2", schedule, scenario) == np.trace(
            (covs[0] + covs[1]) / 2
        )

    def test_info_table_entries(self, rng):
        """Entries are the unweighted per-sensor measures."""
        scenario = rand_scenario(
            rng, num_sensors=3, horizon=2, correlated=False, weights=[0.25, 0.75]
        )
        table = measure.info_table(scenario)
        assert table.shape == (3, 2)
        assert np.all(table >= 0)
        for n in range(2):
            for i in range(3):
                expected = sensor_measure(
                    scenario.sensors[i].h_at(n), noise_block(scenario.noise, i, i)
                )
                assert table[i, n] == expected


def loop_info_table(scenario):
    """The table one ``sensor_measure`` call per sensor and step."""
    return np.array([
        [sensor_measure(sensor.h_at(n), noise_block(scenario.step_noise[n], i, i))
         for n in range(scenario.horizon)]
        for i, sensor in enumerate(scenario.sensors)
    ])


class TestDistinctRows:
    def test_groups_rows_as_numpy_unique(self, rng):
        """On packed rows of 1-70 bytes with many duplicates (and rows one
        bit apart), the grouping is ``np.unique(axis=0)``'s, the distinct
        rows rebuild the input, and each group's index is its first
        occurrence."""
        for width in (1, 2, 7, 8, 9, 16, 33, 64, 70, *rng.integers(1, 71, size=6)):
            pool = rng.integers(0, 256, size=(12, width), dtype=np.uint8)
            pool[1] = pool[0]
            pool[1, -1] ^= 1
            pool[2] = pool[0]
            pool[2, 0] ^= 128
            packed = pool[rng.integers(0, 12, size=300)]
            first, inverse = measure.distinct_rows(packed)
            unique, expected = np.unique(packed, axis=0, return_inverse=True)
            assert len(first) == len(unique)
            assert len(set(zip(inverse.tolist(), expected.ravel().tolist()))) == len(unique)
            assert np.array_equal(packed[first][inverse], packed)
            assert np.array_equal(
                first, [np.flatnonzero(inverse == g)[0] for g in range(len(first))]
            )


class TestBatchedInfoTable:
    """The batched table equals the per-sensor loop bit for bit."""

    def test_mixed_measurement_dimensions(self, rng):
        for correlated in (False, True) * 3:
            # Correlated noise gives dense diagonal blocks.
            scenario = rand_scenario(
                rng, num_sensors=7, horizon=3, meas_dims=[1, 2, 2, 1, 3, 1, 2],
                correlated=correlated,
            )
            assert np.array_equal(measure.info_table(scenario), loop_info_table(scenario))

    def test_per_step_h(self, rng):
        scenario = rand_scenario(rng, num_sensors=5, horizon=4, meas_dims=[2, 1, 2, 2, 1])
        sensors = model.SensorModel.build_all(
            [rng.normal(size=(4, sensor.meas_dim, 2)) for sensor in scenario.sensors],
            [sensor.position for sensor in scenario.sensors],
        )
        scenario = replace(scenario, sensors=sensors)
        table = measure.info_table(scenario)
        assert np.array_equal(table, loop_info_table(scenario))
        assert len(np.unique(table[0])) == 4  # the steps really differ

    def test_state_dependent_noise(self, rng):
        """A distance term: each step's table reads that step's noise."""
        scenario = rand_scenario(rng, num_sensors=6, horizon=3, meas_dims=[1, 2] * 3)
        noise = model.NoiseModel.build(
            scenario.noise.block_sizes, base_blocks=scenario.noise.base_blocks,
            distance_alpha1=0.5,
        )
        distant = replace(scenario, noise=noise, x0=rng.uniform(0.0, 100.0, size=2))
        table = measure.info_table(distant)
        assert np.array_equal(table, loop_info_table(distant))
        assert not np.array_equal(table, measure.info_table(scenario))
        assert not np.array_equal(table[:, 0], table[:, 1])


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
            myopic_cols = []
            regular = True
            for n in range(horizon):
                gains = []
                for combo in itertools.combinations(
                    range(num), scenario.constraints.per_step[n]
                ):
                    col = np.zeros(num, dtype=np.int8)
                    col[list(combo)] = 1
                    gains.append((selection_gain(scenario, col, n), col))
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
                measure.objective_value("f1", s, scenario)
                for s in schedules
            )
            myopic = SelectionSchedule.build(np.column_stack(myopic_cols))
            myopic_trace = measure.objective_value("f1", myopic, scenario)
            assert myopic_trace == pytest.approx(best_trace, abs=1e-9)
            checked += 1
        print(
            f"\ntrace-criterion consistency: {checked} checked, "
            f"{non_regular} non-regular skipped"
        )
        assert checked > 0
