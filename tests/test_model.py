"""Scenario data-model tests: validation, JSON round-trips, generators,
jammer and distance-dependent noise."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sensel import model
from sensel.errors import (
    Infeasible,
    InvalidMatrix,
    NotPositiveDefinite,
    PerStepCountOutOfRange,
    ScenarioError,
)

from conftest import noise_block, rand_correlated_noise, rand_scenario, rand_spd, senses


def small_scenario(**overrides):
    """Two-sensor tracking scenario used as an editing base."""
    system = model.tracking_system(1.0)
    h = model.position_h()
    sensors = model.SensorModel.build_all([h, h], [[0.0, 0.0], [100.0, 0.0]])
    noise = model.NoiseModel.build(
        [2, 2], base_blocks=[np.diag([5.0, 10.0]), np.diag([6.0, 11.0])]
    )
    params = dict(
        system=system,
        sensors=sensors,
        noise=noise,
        constraints=model.ConstraintSet.build([1, 1]),
        weights=[0.5, 0.5],
        x0=np.zeros(4),
        p0=np.eye(4),
        seed=7,
    )
    params.update(overrides)
    return model.make_scenario(**params)


class TestValidation:
    def test_zero_per_step_count_rejected(self):
        with pytest.raises(PerStepCountOutOfRange):
            small_scenario(constraints=model.ConstraintSet.build([0, 1]))

    def test_count_above_sensor_pool_rejected(self):
        with pytest.raises(PerStepCountOutOfRange):
            small_scenario(constraints=model.ConstraintSet.build([3, 1]))

    def test_budget_shortfall_rejected(self):
        with pytest.raises(Infeasible):
            small_scenario(
                constraints=model.ConstraintSet.build([2, 2], energy=[1, 1])
            )

    def test_indefinite_noise_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            model.NoiseModel.build([1, 1], base_blocks=[[[1.0]], [[-1.0]]])

    def test_singular_transition_rejected(self):
        with pytest.raises(InvalidMatrix):
            model.DynamicSystem.build(np.zeros((2, 2)), np.eye(2))

    def test_zero_process_noise_rejected_at_build(self):
        """Q must be positive definite; the rejection happens at model
        construction, not inside the filter."""
        with pytest.raises(NotPositiveDefinite):
            model.DynamicSystem.build(2.0 * np.eye(1), np.zeros((1, 1)))

    def test_process_noise_symmetrized_at_build(self):
        """An off-symmetric Q loads as its symmetric part; constructing a
        DynamicSystem directly with it is refused."""
        q = np.array([[2.0, 0.51], [0.5, 1.0]])
        system = model.DynamicSystem.build(np.eye(2), q)
        assert np.array_equal(system.q[0], 0.5 * (q + q.T))
        with pytest.raises(InvalidMatrix, match="not symmetric"):
            model.DynamicSystem(f=system.f, q=(q,))

    def test_negative_weights_rejected(self):
        with pytest.raises(ScenarioError):
            small_scenario(weights=[0.5, -0.1])

    def test_arrays_are_read_only(self):
        scenario = small_scenario()
        with pytest.raises(ValueError):
            scenario.p0[0, 0] = 2.0
        with pytest.raises(ValueError):
            scenario.noise.r_full[0, 0] = 2.0


def raw_noise(r_full, distance_alpha1=None) -> model.NoiseModel:
    """A NoiseModel made from its fields, one row per sensor, with
    ``r_full`` as its joint base and without ``NoiseModel.build``'s
    symmetrization."""
    r_full = np.asarray(r_full, dtype=float)
    return model.NoiseModel(
        block_sizes=(1,) * r_full.shape[0], base_blocks=None,
        base_full=r_full, jammer=None, distance_alpha1=distance_alpha1,
    )


class TestNoiseModelChecks:
    """Constructing a NoiseModel is the one check of its covariance, so no
    instance with a faulty ``r_full`` exists for a consumer to meet."""

    def test_indefinite_r_full_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            raw_noise([[1.0, 2.0], [2.0, 1.0]])

    def test_singular_r_full_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            raw_noise(np.ones((2, 2)))

    def test_asymmetric_r_full_rejected(self):
        with pytest.raises(InvalidMatrix, match="not symmetric"):
            raw_noise([[2.0, 1.0], [0.0, 2.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_r_full_rejected(self, value):
        with pytest.raises(InvalidMatrix, match="non-finite"):
            raw_noise([[1.0, 0.0], [0.0, value]])
        with pytest.raises(InvalidMatrix, match="non-finite"):
            model.NoiseModel.build([1, 1], base_blocks=[[[1.0]], [[value]]])

    def test_psd_static_part_accepted_with_distance_term(self):
        noise = raw_noise(np.ones((2, 2)), distance_alpha1=0.05)
        assert noise.distance_alpha1 == 0.05
        with pytest.raises(NotPositiveDefinite, match="semidefinite"):
            raw_noise(np.diag([1.0, -1e-6]), distance_alpha1=0.05)


class TestJsonRoundTrip:
    def test_save_load_identity(self, tmp_path, rng):
        scenario = rand_scenario(rng, num_sensors=3, horizon=2, correlated=True)
        path = tmp_path / "scenario.json"
        first = model.save_scenario(scenario, path)
        second = model.save_scenario(model.load_scenario(path))
        assert first == second

    def test_jammer_and_distance_fields_survive(self, tmp_path):
        scenario = small_scenario()
        scenario = model.apply_jammer(scenario, 1e4, 1.0, 2.0, [50.0, 50.0], np.eye(2))
        noise = model.NoiseModel.build(
            scenario.noise.block_sizes,
            base_blocks=scenario.noise.base_blocks,
            jammer=scenario.noise.jammer,
            distance_alpha1=0.05,
            sensor_positions=scenario.sensor_positions(),
        )
        import dataclasses

        scenario = dataclasses.replace(scenario, noise=noise)
        path = tmp_path / "scenario.json"
        model.save_scenario(scenario, path)
        loaded = model.load_scenario(path)
        assert loaded.noise.jammer is not None
        assert loaded.noise.jammer.p0 == 1e4
        assert loaded.noise.distance_alpha1 == 0.05
        np.testing.assert_allclose(loaded.noise.r_full, scenario.noise.r_full)

    def test_linear_rows_survive(self, tmp_path):
        """One extra row of each relation, the last with a negative right
        side: save, load and save again give the same bytes, and the rows'
        senses and right sides come back."""
        extra = [
            ([1.0, 0.0, 0.0, 0.0], "<=", 1.0),
            ([1.0, 1.0, 0.0, 0.0], "=", 1.0),
            ([0.0, 0.0, 1.0, 1.0], ">=", 0.5),
            ([-1.0, 0.0, -1.0, 0.0], ">=", -2.0),
        ]
        scenario = small_scenario(constraints=model.ConstraintSet.build([1, 1], extra=extra))
        path = tmp_path / "rows.json"
        first = model.save_scenario(scenario, path)
        loaded = model.load_scenario(path)
        assert model.save_scenario(loaded) == first
        written = json.loads(first)["constraints"]["linear"]
        assert [row["relation"] for row in written] == ["<=", "=", ">=", ">="]
        rows = loaded.constraints.rows(loaded.num_sensors)
        np.testing.assert_array_equal(rows.sense[2:], senses(["<=", "=", ">=", ">="]))
        np.testing.assert_array_equal(rows.b[2:], [1.0, 1.0, 0.5, -2.0])

    def test_empty_horizon_rejected_at_load(self, tmp_path):
        """``per_step`` needs at least one step: an empty horizon would plan
        an empty schedule, or fail inside the SDR route."""
        data = model.scenario_to_dict(small_scenario())
        data["constraints"]["per_step"] = []
        data["weights"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="horizon needs at least one step"):
            model.load_scenario(path)

    @pytest.mark.parametrize("field, value, message", [
        pytest.param(("constraints", "per_step"), [1.7, 1], r"per_step\[0\]=1.7", id="per_step"),
        pytest.param(("constraints", "energy"), [2, 1.5], r"energy\[1\]=1.5", id="energy"),
        pytest.param((None, "position_indices"), [0, 2.5], r"position_indices\[1\]=2.5",
                     id="position_indices"),
    ])
    def test_non_integral_entry_rejected_at_load(self, tmp_path, field, value, message):
        """Counts, budgets and position indices are integers: 1.7 is
        refused, not truncated to 1."""
        data = model.scenario_to_dict(small_scenario())
        section, key = field
        (data if section is None else data[section])[key] = value
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=message):
            model.load_scenario(path)

    def test_parse_error_mentions_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            model.load_scenario(path)

    def test_missing_field_named(self, tmp_path):
        scenario = small_scenario()
        data = model.scenario_to_dict(scenario)
        del data["weights"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="weights"):
            model.load_scenario(path)

    def test_indefinite_noise_file_rejected(self, tmp_path):
        scenario = small_scenario()
        data = model.scenario_to_dict(scenario)
        data["noise"]["blocks"][0] = [[1.0, 0.0], [0.0, -5.0]]
        path = tmp_path / "bad_noise.json"
        path.write_text(json.dumps(data))
        with pytest.raises(NotPositiveDefinite):
            model.load_scenario(path)

    def test_zero_count_file_rejected(self, tmp_path):
        scenario = small_scenario()
        data = model.scenario_to_dict(scenario)
        data["constraints"]["per_step"] = [0, 1]
        path = tmp_path / "bad_count.json"
        path.write_text(json.dumps(data))
        with pytest.raises(PerStepCountOutOfRange):
            model.load_scenario(path)


class TestGenerators:
    def test_grid_places_all_sensors(self):
        scenario = model.gen_grid_scenario(
            20, 100.0, [(5.0, 10.0), (5.0, 10.0)], seed=3, per_step=10
        )
        assert scenario.num_sensors == 400
        positions = scenario.sensor_positions()
        assert positions.min() == 0.0 and positions.max() == 100.0
        # pairwise distinct
        assert len({tuple(p) for p in positions}) == 400

    def test_single_point_grid(self):
        scenario = model.gen_grid_scenario(
            1, 100.0, [(5.0, 10.0), (5.0, 10.0)], seed=3, per_step=1
        )
        assert scenario.num_sensors == 1
        np.testing.assert_allclose(scenario.sensor_positions()[0], [50.0, 50.0])

    def test_deterministic_in_seed(self):
        a = model.gen_grid_scenario(4, 50.0, [(1.0, 2.0), (1.0, 2.0)], seed=9, per_step=2)
        b = model.gen_grid_scenario(4, 50.0, [(1.0, 2.0), (1.0, 2.0)], seed=9, per_step=2)
        assert model.save_scenario(a) == model.save_scenario(b)
        c = model.gen_grid_scenario(4, 50.0, [(1.0, 2.0), (1.0, 2.0)], seed=10, per_step=2)
        assert model.save_scenario(a) != model.save_scenario(c)

    def test_uniform_scenario_count_and_area(self):
        scenario = model.gen_uniform_scenario(
            40, 100.0, [(5.0, 7.0), (10.0, 12.0)], seed=1,
            model="random_walk", per_step=10,
        )
        assert scenario.num_sensors == 40
        positions = scenario.sensor_positions()
        assert positions.min() >= 0.0 and positions.max() <= 100.0
        for i in range(40):
            block = noise_block(scenario.noise, i, i)
            assert 5.0 <= block[0, 0] <= 7.0
            assert 10.0 <= block[1, 1] <= 12.0

    def test_bundled_scenarios_regenerate_unchanged(self, tmp_path, capsys):
        """tools/gen_bundled_scenarios.py reproduces every bundled file."""
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "gen_bundled_scenarios", root / "tools" / "gen_bundled_scenarios.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        tool.main(tmp_path)
        bundled = root / "src" / "sensel" / "scenarios"
        names = sorted(p.name for p in bundled.glob("example*.json"))
        assert names == [f"example{i}.json" for i in range(1, 8)]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name


class TestJammer:
    @pytest.mark.parametrize("field", ["p0", "alpha", "n_exp"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, field, value):
        params = {"p0": 1e4, "alpha": 1.0, "n_exp": 2.0, field: value}
        with pytest.raises(ScenarioError, match="must be finite"):
            model.JammerSpec.build(position=[0.0, 0.0], r0=np.eye(2), **params)

    def test_zero_power_is_noop(self):
        scenario = small_scenario()
        before = scenario.noise.r_full.copy()
        after = model.apply_jammer(scenario, 0.0, 1.0, 2.0, [10.0, 10.0], np.eye(2))
        np.testing.assert_allclose(after.noise.r_full, before)

    def test_colocated_sensor_unit_mix(self):
        """A sensor at the jammer position with unit parameters gains
        exactly the jammer covariance on its own block."""
        system = model.tracking_system()
        sensors = model.SensorModel.build_all([model.position_h()], [[25.0, 30.0]])
        noise = model.NoiseModel.build([2], base_blocks=[np.diag([5.0, 10.0])])
        scenario = model.make_scenario(
            system, sensors, noise, model.ConstraintSet.build([1]),
            [1.0], np.zeros(4), np.eye(4),
        )
        after = model.apply_jammer(scenario, 1.0, 1.0, 2.0, [25.0, 30.0], np.eye(2))
        np.testing.assert_allclose(
            noise_block(after.noise, 0, 0), np.diag([5.0, 10.0]) + np.eye(2), atol=1e-12
        )

    def test_outer_product_structure(self, rng):
        """The added covariance is exactly beta_i*beta_j*R0 on every pair,
        so each block pair inherits the jammer covariance's rank."""
        scenario = rand_scenario(rng, num_sensors=4, horizon=1, meas_dims=[2, 2, 2, 2])
        v = np.array([1.0, 0.5])
        r0 = np.outer(v, v)  # rank-1 jammer covariance
        after = model.apply_jammer(scenario, 1e6, 1.0, 2.0, [550.0, 200.0], r0)
        betas = after.noise.jammer.betas(scenario.sensor_positions())
        delta = after.noise.r_full - scenario.noise.r_full
        np.testing.assert_allclose(
            delta, np.kron(np.outer(betas, betas), r0), rtol=1e-12
        )
        for i in range(4):
            for j in range(4):
                block = delta[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                scale = np.abs(block).max()
                assert np.linalg.matrix_rank(block, tol=1e-9 * max(scale, 1.0)) <= 1

    def test_strong_jammer_gives_positive_cross_blocks(self):
        scenario = model.load_scenario("src/sensel/scenarios/example4.json")
        block = noise_block(scenario.noise, 0, 1)
        assert np.all(np.diag(block) > 0)


class TestDistanceNoise:
    def test_diagonal_value(self):
        """alpha1 = 0.05 at 100 m adds 5 on each diagonal entry."""
        system = model.tracking_system()
        sensors = model.SensorModel.build_all([model.position_h()], [[0.0, 0.0]])
        noise = model.NoiseModel.build(
            [2], base_blocks=[np.diag([1.0, 1.0])], distance_alpha1=0.05,
        )
        scenario = model.make_scenario(
            system, sensors, noise, model.ConstraintSet.build([1]),
            [1.0], np.zeros(4), np.eye(4),
        )
        state = np.array([100.0, 0.0, 0.0, 0.0])
        seq = model.distance_noise(scenario, [state], 0.05)
        np.testing.assert_allclose(
            seq[0].r_full, np.diag([6.0, 6.0]), atol=1e-12
        )

    def test_zero_distance_keeps_static_part_only(self):
        system = model.tracking_system()
        sensors = model.SensorModel.build_all([model.position_h()], [[10.0, 20.0]])
        noise = model.NoiseModel.build(
            [2], base_blocks=[np.diag([3.0, 4.0])], distance_alpha1=0.05,
        )
        scenario = model.make_scenario(
            system, sensors, noise, model.ConstraintSet.build([1]),
            [1.0], np.zeros(4), np.eye(4),
        )
        state = np.array([10.0, 0.0, 20.0, 0.0])  # target on top of the sensor
        seq = model.distance_noise(scenario, [state], 0.05)
        np.testing.assert_allclose(seq[0].r_full, np.diag([3.0, 4.0]), atol=1e-12)

    def test_zero_distance_without_static_noise_rejected(self):
        system = model.tracking_system()
        sensors = model.SensorModel.build_all([model.position_h()], [[10.0, 20.0]])
        noise = model.NoiseModel.build(
            [2], base_blocks=[np.zeros((2, 2))], distance_alpha1=0.05,
        )
        scenario = model.make_scenario(
            system, sensors, noise, model.ConstraintSet.build([1]),
            [1.0], np.zeros(4), np.eye(4),
        )
        state = np.array([10.0, 0.0, 20.0, 0.0])
        with pytest.raises(NotPositiveDefinite, match="step 0 "):
            model.distance_noise(scenario, [state], 0.05)

    @pytest.mark.parametrize("alpha1", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_bad_scaling_file_rejected(self, alpha1, tmp_path):
        """The scaling is checked when the noise model is made, not when
        the first plan needs the distance term."""
        data = json.loads(open("src/sensel/scenarios/example6.json").read())
        data["noise"]["distance_alpha1"] = alpha1
        path = tmp_path / "alpha1.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="alpha1 must be finite and > 0"):
            model.load_scenario(path)

    @pytest.mark.parametrize(
        "alpha1", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"]
    )
    def test_bad_scaling_call_rejected(self, alpha1):
        """distance_noise applies the check NoiseModel makes of a file's
        scaling."""
        scenario = small_scenario()
        states = [np.zeros(4)] * scenario.horizon
        with pytest.raises(ScenarioError, match="alpha1 must be finite and > 0"):
            model.distance_noise(scenario, states, alpha1)

    def test_bundled_state_dependent_scenario_assembles(self):
        """The per-step noise is the distance term at the open-loop
        predicted states, built once per scenario."""
        from sensel.filter import open_loop_predictions

        scenario = model.load_scenario("src/sensel/scenarios/example6.json")
        seq = scenario.step_noise
        assert len(seq) == scenario.horizon
        assert scenario.step_noise is seq
        predictions = open_loop_predictions(scenario.system, scenario.x0, scenario.horizon)
        expected = model.distance_noise(scenario, predictions, scenario.noise.distance_alpha1)
        for noise, reference in zip(seq, expected, strict=True):
            assert np.all(np.linalg.eigvalsh(noise.r_full) > 0)
            assert np.array_equal(noise.r_full, reference.r_full)


class TestConstraintRows:
    def test_meets_each_sense(self):
        rows = model.ConstraintRows(np.eye(3), senses(["<=", "=", ">="]), [1.0, 1.0, 1.0])
        lhs = np.array([[0.5, 1.0, 1.5], [1.5, 1.5, 0.5], [1.0, 1.0 + 1e-10, 1.0]])
        np.testing.assert_array_equal(
            rows.meets(lhs), [[True, True, True], [False, False, False], [True, True, True]]
        )
        assert len(rows) == 3

    @pytest.mark.parametrize("field", ["a", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, field, value):
        parts = {"a": np.eye(2), "sense": [1.0, 0.0], "b": [1.0, 1.0]}
        parts[field] = np.array(parts[field], dtype=float)
        parts[field].flat[0] = value
        with pytest.raises(ScenarioError, match="non-finite"):
            model.ConstraintRows(**parts)

    def test_bad_sense_and_shapes_rejected(self):
        with pytest.raises(ScenarioError, match="sense"):
            model.ConstraintRows(np.eye(2), [2.0, 0.0], [1.0, 1.0])
        with pytest.raises(ScenarioError, match="shape|matrix"):
            model.ConstraintRows(np.eye(2), [1.0], [1.0, 1.0])
        with pytest.raises(ScenarioError, match="shape|matrix"):
            model.ConstraintRows(np.ones(2), [1.0], [1.0])

    def test_unknown_relation_rejected(self):
        with pytest.raises(ScenarioError, match="relation"):
            model.ConstraintSet.build([1], extra=[([1.0, 0.0], "<", 1.0)])

    def test_row_length_checked_against_the_scenario(self):
        with pytest.raises(ScenarioError, match="length 3, expected 4"):
            small_scenario(
                constraints=model.ConstraintSet.build([1, 1], extra=[([1.0] * 3, "<=", 1.0)])
            )


def stacked_rows(constraints: model.ConstraintSet, num: int) -> np.ndarray:
    """The row matrix stacked from its blocks with ``kron``, ``tile`` and
    ``vstack``: count rows, budget rows, extra rows."""
    a = [np.kron(np.eye(constraints.horizon), np.ones(num))]
    if constraints.energy is not None:
        a.append(np.tile(np.eye(num), constraints.horizon))
    if constraints.extra is not None:
        a.append(constraints.extra.a)
    return np.vstack(a)


class TestConstraintSetRows:
    """``ConstraintSet.rows`` fills one preallocated matrix."""

    @pytest.mark.parametrize("name", [f"example{i}" for i in range(1, 8)])
    def test_bundled_rows_equal_the_stacked_blocks(self, name):
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        rows = scenario.constraints.rows(scenario.num_sensors)
        assert np.array_equal(rows.a, stacked_rows(scenario.constraints, scenario.num_sensors))
        assert not rows.a.flags.writeable

    def test_extra_rows_with_and_without_budgets(self, rng):
        for energy in (None, [2] * 7):
            extra = [(rng.normal(size=21), rel, 1.0) for rel in ("<=", ">=", "=")]
            constraints = model.ConstraintSet.build([3, 2, 4], energy=energy, extra=extra)
            rows = constraints.rows(7)
            assert np.array_equal(rows.a, stacked_rows(constraints, 7))
            assert np.array_equal(rows.b[-3:], [1.0, 1.0, 1.0])
            assert rows.sense[-3:].tolist() == [1.0, -1.0, 0.0]

    def test_lp_family_rows_peak_at_their_size(self, tmp_path):
        """The benchmark's LP family (400 sensors, 5 steps, budgets): the
        rows equal the stacked blocks, and building them, past the cache,
        allocates little beyond the 405 x 2,000 matrix they hold."""
        constraints = model.load_scenario(lp_family_path(tmp_path)).constraints
        build = model.ConstraintSet.rows.__wrapped__
        tracemalloc.start()
        try:
            rows = build(constraints, 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.a.shape == (405, 2000)
        assert np.array_equal(rows.a, stacked_rows(constraints, 400))
        assert peak <= 1.15 * rows.a.nbytes

    def test_read_only_float_arrays_are_held_uncopied(self):
        a = np.eye(2)
        a.setflags(write=False)
        writable = np.eye(2)
        assert model.ConstraintRows(a, [1.0, 1.0], [1.0, 1.0]).a is a
        held = model.ConstraintRows(writable, [1.0, 1.0], [1.0, 1.0]).a
        assert held is not writable and not held.flags.writeable


class TestSchedule:
    def test_satisfies_counts_and_budgets(self):
        cons = model.ConstraintSet.build([1, 2], energy=[1, 1, 1])
        good = model.SelectionSchedule.build([[1, 0], [0, 1], [0, 1]])
        assert good.satisfies(cons)
        over_budget = model.SelectionSchedule.build([[1, 1], [0, 1], [0, 0]])
        assert not over_budget.satisfies(cons)
        wrong_count = model.SelectionSchedule.build([[1, 1], [1, 1], [0, 0]])
        assert not wrong_count.satisfies(cons)

    def test_repeated_satisfies_builds_the_rows_once(self, monkeypatch):
        """``satisfies`` reads the constraint rows built once per (set,
        sensor count); repeated checks build no ``ConstraintRows``."""
        cons = model.ConstraintSet.build(
            [1, 2], energy=[1, 1, 1], extra=[([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], "<=", 1.0)]
        )
        built = []
        check = model.ConstraintRows.__post_init__

        def counting(self):
            built.append(1)
            check(self)

        monkeypatch.setattr(model.ConstraintRows, "__post_init__", counting)
        good = model.SelectionSchedule.build([[1, 0], [0, 1], [0, 1]])
        bad = model.SelectionSchedule.build([[1, 1], [0, 1], [0, 0]])
        for _ in range(20):
            assert good.satisfies(cons) and not bad.satisfies(cons)
        assert len(built) == 1

    def test_gamma_vec_is_step_major(self):
        schedule = model.SelectionSchedule.build([[1, 0], [0, 1]])
        np.testing.assert_array_equal(schedule.gamma_vec(), [1.0, 0.0, 0.0, 1.0])


class TestRowMap:
    """The one sensor-to-row map (``NoiseModel.labels``), the stacked H per
    step (``Scenario.h_stacks``) and the noise properties built on them."""

    def test_labels_name_each_joint_row(self, rng):
        scenario = rand_scenario(rng, num_sensors=4, horizon=1, meas_dims=[1, 3, 2, 1])
        labels = scenario.noise.labels
        np.testing.assert_array_equal(labels, [0, 1, 1, 1, 2, 2, 3])
        assert not labels.flags.writeable

    def test_h_stacks_are_lazy_read_only_and_per_step(self, rng):
        base = rand_scenario(rng, num_sensors=3, horizon=3, meas_dims=[1, 3, 2])
        sensors = model.SensorModel.build_all(
            [rng.normal(size=(3, s.meas_dim, 2)) for s in base.sensors],
            [s.position for s in base.sensors],
        )
        scenario = model.make_scenario(
            base.system, sensors, base.noise, base.constraints, base.weights,
            base.x0, base.p0,
        )
        assert "h_stacks" not in vars(scenario)
        assert len(scenario.h_stacks) == 3
        for n, stack in enumerate(scenario.h_stacks):
            np.testing.assert_array_equal(stack, np.vstack([s.h_at(n) for s in sensors]))
            assert not stack.flags.writeable
        assert scenario.h_stacks is scenario.h_stacks

    def test_loading_computes_no_row_map(self):
        scenario = model.load_scenario("src/sensel/scenarios/example4.json")
        assert "h_stacks" not in vars(scenario)
        for name in ("labels", "is_block_diagonal", "diagonal_only"):
            assert name not in vars(scenario.noise)

    @pytest.mark.parametrize("name", ["example1", "example4", "example5", "example6"])
    def test_diagonal_only_equals_the_diagonal_block_build(self, name):
        noise = model.load_scenario(f"src/sensel/scenarios/{name}.json").noise
        blocks = [noise_block(noise, i, i) for i in range(len(noise.block_sizes))]
        expected = model.NoiseModel.build(noise.block_sizes, base_blocks=blocks)
        assert np.array_equal(noise.diagonal_only.r_full, expected.r_full)
        assert noise.diagonal_only.is_block_diagonal

    def test_diagonal_only_of_mixed_correlated_noise(self, rng):
        for _ in range(20):
            sizes = [int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 6)))]
            noise = rand_correlated_noise(sizes, rng)
            blocks = [noise_block(noise, i, i) for i in range(len(sizes))]
            expected = model.NoiseModel.build(sizes, base_blocks=blocks)
            assert np.array_equal(noise.diagonal_only.r_full, expected.r_full)
            assert noise.is_block_diagonal == (len(sizes) == 1)

    def test_is_block_diagonal(self):
        assert model.load_scenario("src/sensel/scenarios/example1.json").noise.is_block_diagonal
        assert not model.load_scenario("src/sensel/scenarios/example4.json").noise.is_block_diagonal

    def test_block_diagonal_noise_is_not_scanned_again(self, monkeypatch):
        """Construction found that every nonzero lies in a sensor's own
        block; the property reads that and scans nothing."""
        noise = model.load_scenario("src/sensel/scenarios/example3.json").noise
        monkeypatch.setattr(np, "flatnonzero", lambda *args: pytest.fail("r_full scanned"))
        assert noise.is_block_diagonal

    def test_cross_terms_within_the_tolerance_are_scanned(self):
        """Nonzero cross terms below 1e-12 of the largest entry still count
        as block diagonal; larger ones do not."""
        for cross, expected in ((1e-14, True), (1e-6, False)):
            r = np.diag([2.0, 3.0, 4.0])
            r[0, 2] = r[2, 0] = cross
            assert raw_noise(r).is_block_diagonal is expected

    def test_constant_h_is_one_stack_for_every_step(self):
        scenario = model.load_scenario("src/sensel/scenarios/example3.json")
        stacks = scenario.h_stacks
        assert len(stacks) == scenario.horizon
        assert all(stack is stacks[0] for stack in stacks)
        assert np.array_equal(stacks[0], np.vstack([s.h_at(0) for s in scenario.sensors]))
        assert not stacks[0].flags.writeable

    @pytest.mark.parametrize("name", ["example3", "example5"])
    def test_computed_once_per_noise_model(self, name, monkeypatch):
        """A static scenario repeats one noise model per step; the planners
        that check or strip it compute each property once."""
        from sensel.select_sdr import select_ignore_dependence

        counts = {}
        for prop in ("is_block_diagonal", "diagonal_only"):
            cached = vars(model.NoiseModel)[prop]
            compute = cached.func
            monkeypatch.setattr(
                cached, "func",
                lambda noise, prop=prop, compute=compute: (
                    counts.update({prop: counts.get(prop, 0) + 1}) or compute(noise)
                ),
            )
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        assert scenario.horizon > 1
        select_ignore_dependence(scenario)
        assert counts == {"is_block_diagonal": 1, "diagonal_only": 1}
        stripped = [noise.diagonal_only for noise in scenario.step_noise]
        assert all(copy is stripped[0] for copy in stripped)
        assert counts == {"is_block_diagonal": 1, "diagonal_only": 1}


def loop_built_r_full(block_sizes, blocks=None, full=None, jammer=None, positions=None):
    """The joint covariance as ``NoiseModel.build`` assembled it one block
    at a time: symmetrize each block, place it, add the jammer term, then
    symmetrize the sum."""
    dim = sum(block_sizes)
    if full is not None:
        static = 0.5 * (np.asarray(full, dtype=float) + np.asarray(full, dtype=float).T)
    else:
        static = np.zeros((dim, dim))
        off = 0
        for b in blocks:
            b = np.asarray(b, dtype=float)
            static[off : off + b.shape[0], off : off + b.shape[0]] = 0.5 * (b + b.T)
            off += b.shape[0]
    if jammer is not None and jammer.p0 > 0:
        beta = jammer.betas(np.asarray(positions, dtype=float))
        static = static + np.kron(np.outer(beta, beta), jammer.r0)
    return 0.5 * (static + static.T)


def lp_family_path(tmp_path, energy=2):
    """A 400-sensor file of the benchmark's LP family: 20x20 grid, 2x2
    diagonal noise blocks, 5 steps of 10, budget 2 (none when ``energy``
    is None)."""
    scenario = model.gen_grid_scenario(
        20, 100.0, [(5.0, 10.0), (5.0, 10.0)], seed=3,
        per_step=[10] * 5, energy=energy, weights=[0.2] * 5,
        x0=[50.0, 0.0, 50.0, 0.0], p0=np.diag([100.0, 10.0, 100.0, 10.0]),
    )
    path = tmp_path / "grid400.json"
    model.save_scenario(scenario, path)
    return path


def jammer_network() -> model.Scenario:
    """400 sensors uniform over 600 m, 5 steps of 10, budget 2, with
    example4's jammer: every sensor pair has a cross block."""
    scenario = model.gen_uniform_scenario(
        400, 600.0, [(10.0, 10.0), (10.0, 10.0)], seed=5,
        per_step=[10] * 5, energy=2, weights=[0.2] * 5,
    )
    jam = model.load_scenario("src/sensel/scenarios/example4.json").noise.jammer
    return model.apply_jammer(scenario, jam.p0, jam.alpha, jam.n_exp, jam.position, jam.r0)


class TestBlockNoiseWork:
    """Block-diagonal noise is loaded and checked with per-sensor work: the
    counts below, not timings, pin that."""

    def test_network_load_factors_no_matrix_larger_than_a_block(self, tmp_path, monkeypatch):
        path = lp_family_path(tmp_path)
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda a: shapes.append(np.shape(a)) or cholesky(a)
        )
        scenario = model.load_scenario(path)
        assert scenario.noise.dim == 800
        # The noise is factored as one stack of its 400 blocks; the only
        # other factorizations are the 4x4 Q and P0 checks.
        assert sorted(shapes) == [(4, 4), (4, 4), (400, 2, 2)]

    def test_correlated_noise_keeps_the_dense_check(self, monkeypatch):
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda a: shapes.append(np.shape(a)) or cholesky(a)
        )
        noise = model.load_scenario("src/sensel/scenarios/example4.json").noise
        assert (noise.dim, noise.dim) in shapes

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_non_pd_block_among_uneven_sizes_rejected(self, bad, rng):
        sizes = (1, 2, 3)
        blocks = [rand_spd(n, rng) for n in sizes]
        blocks[bad] = -blocks[bad]
        with pytest.raises(NotPositiveDefinite):
            model.NoiseModel.build(sizes, base_blocks=blocks)
        full = loop_built_r_full(sizes, blocks)
        with pytest.raises(NotPositiveDefinite):
            model.NoiseModel(
                block_sizes=sizes, base_blocks=None, base_full=full,
                jammer=None, distance_alpha1=None,
            )

    def test_check_is_chosen_from_the_matrix_not_the_fields(self, rng):
        """A directly built joint base whose blocks are PD but whose cross
        terms make the whole matrix indefinite is refused, although each of
        its own blocks would pass the block-wise check."""
        sizes = (1, 2)
        blocks = (np.eye(1), np.eye(2))
        full = loop_built_r_full(sizes, blocks)
        full[0, 1] = full[1, 0] = 2.0
        with pytest.raises(NotPositiveDefinite):
            model.NoiseModel(
                block_sizes=sizes, base_blocks=None, base_full=full,
                jammer=None, distance_alpha1=None,
            )
        full[0, 1] = 2.0
        full[1, 0] = 0.0
        with pytest.raises(InvalidMatrix, match="not symmetric"):
            model.NoiseModel(
                block_sizes=sizes, base_blocks=None, base_full=full,
                jammer=None, distance_alpha1=None,
            )

    def test_asymmetric_block_rejected(self):
        full = np.diag([1.0, 2.0, 3.0])
        full[1, 2] = 0.5
        with pytest.raises(InvalidMatrix, match="not symmetric"):
            model.NoiseModel(
                block_sizes=(1, 2), base_blocks=None, base_full=full,
                jammer=None, distance_alpha1=None,
            )

    @pytest.mark.parametrize(
        "name", [f"example{k}" for k in range(1, 8)] + ["jammer400", "jammer400-distance"]
    )
    def test_diagonal_only_equals_the_masked_copy(self, name):
        """Gathering the sensors' own blocks gives bit for bit the copy that
        masked every cross entry of ``r_full`` to 0 and rebuilt the model
        from the full matrix; every step model of a distance scenario too.
        The copy keeps the distance term, and stripping the static part
        before the diagonal distance term is added gives each step's
        entries bit for bit as stripping the step's model does: the
        scenario ignore-dep plans on."""
        if name.startswith("jammer400"):
            scenario = jammer_network()
        else:
            scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        if name == "jammer400-distance":
            noise = scenario.noise
            distant = model.NoiseModel.build(
                noise.block_sizes, base_blocks=noise.base_blocks, jammer=noise.jammer,
                distance_alpha1=0.05, sensor_positions=scenario.sensor_positions(),
            )
            scenario = replace(scenario, noise=distant)
        for noise in {id(n): n for n in scenario.step_noise}.values():
            own = noise.labels[:, None] == noise.labels[None, :]
            masked = model.NoiseModel.from_full(
                np.where(own, noise.r_full, 0.0), noise.block_sizes
            )
            assert np.array_equal(noise.diagonal_only.r_full, masked.r_full)
            assert noise.diagonal_only.block_sizes == noise.block_sizes
        alpha1 = scenario.noise.distance_alpha1
        stripped = replace(scenario, noise=scenario.noise.diagonal_only)
        assert stripped.noise.distance_alpha1 == alpha1
        if alpha1 is not None:
            steps = zip(stripped.step_noise, scenario.step_noise, strict=True)
            for before, after in steps:
                assert np.array_equal(before.r_full, after.diagonal_only.r_full)

    def test_diagonal_only_is_built_from_the_own_blocks(self, monkeypatch):
        """The copy is assembled from the 400 own blocks, with no masked
        800 x 800 matrix, and checked as one stack of blocks."""
        noise = jammer_network().noise
        assert noise.dim == 800 and not noise.is_block_diagonal
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda a: shapes.append(np.shape(a)) or cholesky(a)
        )
        stripped = noise.diagonal_only
        assert shapes == [(400, 2, 2)]
        assert stripped.base_full is None
        for i, block in enumerate(stripped.base_blocks):
            assert np.array_equal(block, noise_block(noise, i, i))

    @pytest.mark.parametrize("name", [f"example{k}" for k in range(1, 8)])
    def test_bundled_r_full_equals_the_loop_build(self, name):
        data = json.loads(open(f"src/sensel/scenarios/{name}.json").read())
        scenario = model.scenario_from_dict(data)
        noise = scenario.noise
        expected = loop_built_r_full(
            noise.block_sizes, blocks=data["noise"]["blocks"], full=data["noise"]["full"],
            jammer=noise.jammer, positions=scenario.sensor_positions(),
        )
        assert np.array_equal(noise.r_full, expected)

    def test_random_uneven_r_full_equals_the_loop_build(self, rng):
        for trial in range(30):
            sizes = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(1, 9)))]
            blocks = [
                rand_spd(n, rng) + 1e-9 * rng.normal(size=(n, n)) for n in sizes
            ]  # off-symmetric in the last digits
            noise = model.NoiseModel.build(sizes, base_blocks=blocks)
            assert np.array_equal(noise.r_full, loop_built_r_full(sizes, blocks))
            for b, given in zip(noise.base_blocks, blocks):
                assert np.array_equal(b, 0.5 * (given + given.T))
                assert not b.flags.writeable
        sizes = [2] * 5
        blocks = [rand_spd(2, rng) for _ in sizes]
        positions = rng.uniform(0.0, 100.0, size=(5, 2))
        jammer = model.JammerSpec.build(1e4, 1.0, 2.0, [50.0, 50.0], rand_spd(2, rng))
        noise = model.NoiseModel.build(
            sizes, base_blocks=blocks, jammer=jammer, sensor_positions=positions
        )
        assert np.array_equal(
            noise.r_full, loop_built_r_full(sizes, blocks, jammer=jammer, positions=positions)
        )

    def test_is_block_diagonal_agrees_with_the_cross_mask(self, rng):
        """The entry-by-entry test gives the former masked result, also
        for cross terms just above and below the tolerance."""
        def by_mask(noise):
            tol = 1e-12 * max(1.0, float(np.abs(noise.r_full).max()))
            cross = noise.labels[:, None] != noise.labels[None, :]
            return bool(np.all(np.abs(noise.r_full[cross]) <= tol))

        for trial in range(40):
            sizes = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(2, 7)))]
            full = loop_built_r_full(sizes, [10.0 * rand_spd(n, rng) for n in sizes])
            if trial % 2:
                i, j = 0, sum(sizes) - 1
                full[i, j] = full[j, i] = float(rng.choice([0.5, 2.0])) * 1e-12 * np.abs(full).max()
            noise = model.NoiseModel.from_full(full, sizes)
            assert noise.is_block_diagonal == by_mask(noise)
        for name in ("example1", "example4", "example6"):
            noise = model.load_scenario(f"src/sensel/scenarios/{name}.json").noise
            assert noise.is_block_diagonal == by_mask(noise)

    def test_non_finite_sensor_values_rejected_at_load(self):
        data = json.loads(open("src/sensel/scenarios/example1.json").read())
        for field in ("H", "position"):
            bad = json.loads(json.dumps(data))
            value = bad["sensors"][3][field]
            if field == "H":
                value[0][1] = float("nan")
            else:
                value[1] = float("inf")
            with pytest.raises(InvalidMatrix, match="non-finite"):
                model.scenario_from_dict(bad)


def dense_entries(noise, rows):
    """The entries of ``rows``'s row sets, indexed from the dense matrix."""
    return noise.r_full[rows[:, :, None], rows[:, None, :]]


def row_sets(noise, rng, count=40):
    """Random (U, k) row-index arrays into the joint stack: every sensor's
    own rows, then sets drawn with repeats across sensors, k = 1..4."""
    sets = [noise.offsets[:-1][:, None] + np.arange(min(noise.block_sizes))]
    for k in range(1, 5):
        sets.append(rng.integers(0, noise.dim, size=(count, k)))
    return sets


class TestNoiseParts:
    """A noise model stores its parts; the dense ``r_full`` is assembled
    only for a reader that needs it, and ``entries`` reads the same values
    either way."""

    def assert_entries_match(self, noise, rng):
        for rows in row_sets(noise, rng):
            assert np.array_equal(noise.entries(rows), dense_entries(noise, rows))
        for i in range(len(noise.block_sizes)):
            for j in (0, i, len(noise.block_sizes) - 1):
                off = noise.offsets
                assert np.array_equal(
                    noise_block(noise, i, j),
                    noise.r_full[off[i] : off[i + 1], off[j] : off[j + 1]],
                )

    def test_block_entries_equal_the_dense_entries(self, rng):
        for trial in range(30):
            sizes = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(1, 9)))]
            blocks = [rand_spd(n, rng) + 1e-9 * rng.normal(size=(n, n)) for n in sizes]
            noise = model.NoiseModel.build(sizes, base_blocks=blocks)
            rows = row_sets(noise, rng)[-1]
            entries = noise.entries(rows)
            assert "r_full" not in vars(noise)
            assert np.array_equal(entries, dense_entries(noise, rows))
            self.assert_entries_match(noise, rng)

    @pytest.mark.parametrize("p0", [0.0, 1e4])
    def test_jammer_entries_equal_the_dense_entries(self, p0, rng):
        sizes = [2] * 6
        positions = rng.uniform(0.0, 100.0, size=(6, 2))
        jammer = model.JammerSpec.build(p0, 1.0, 2.0, [50.0, 50.0], rand_spd(2, rng))
        noise = model.NoiseModel.build(
            sizes, base_blocks=[rand_spd(2, rng) for _ in sizes], jammer=jammer,
            sensor_positions=positions,
        )
        self.assert_entries_match(noise, rng)
        assert noise.is_block_diagonal == (p0 == 0.0)

    def test_joint_base_entries_equal_the_dense_entries(self, rng):
        for trial in range(10):
            sizes = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(1, 7)))]
            self.assert_entries_match(rand_correlated_noise(sizes, rng), rng)

    @pytest.mark.parametrize("name", [f"example{k}" for k in range(1, 8)])
    def test_bundled_entries_equal_the_dense_entries(self, name, rng):
        """Every bundled scenario's noise, and every step model of the
        distance scenarios."""
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        for noise in (scenario.noise, *scenario.step_noise):
            self.assert_entries_match(noise, rng)

    @pytest.mark.parametrize(
        "algo, energy", [("lp", 2), ("ignore-dep", 2), ("topk", None), ("ignore-dep", None)]
    )
    def test_planning_uncorrelated_noise_assembles_no_dense_matrix(self, algo, energy, tmp_path):
        """Loading and planning a 400-sensor uncorrelated scenario, and
        scoring its schedule, read only the sensors' own blocks."""
        from sensel.measure import OBJECTIVES, objective_value
        from sensel.plan import prepare

        scenario = model.load_scenario(lp_family_path(tmp_path, energy))
        plan = prepare(scenario, algo, "f3")
        for kind in OBJECTIVES:
            objective_value(kind, plan.schedule, scenario)
        assert all(noise is scenario.noise for noise in scenario.step_noise)
        assert "r_full" not in vars(scenario.noise)
        assert "r_full" not in vars(scenario.noise.diagonal_only)

    def test_network_load_stays_below_the_dense_matrix(self, tmp_path):
        """Loading the 400-sensor LP input peaks under 2 MB, below the
        5.1 MB of its 800 x 800 noise matrix alone."""
        path = lp_family_path(tmp_path)
        model.load_scenario(path)
        tracemalloc.start()
        try:
            noise = model.load_scenario(path).noise
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert noise.dim == 800
        assert peak < 2e6 < noise.r_full.nbytes

    def test_jammer_needs_one_gain_per_sensor(self):
        jammer = model.JammerSpec.build(1e4, 1.0, 2.0, [0.0, 0.0], np.eye(2))
        with pytest.raises(ScenarioError, match="one gain per sensor"):
            model.NoiseModel(
                block_sizes=(2, 2), base_blocks=(np.eye(2), np.eye(2)), base_full=None,
                jammer=jammer, distance_alpha1=None,
            )
