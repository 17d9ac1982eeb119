"""Simulation-harness tests: reproducibility, noise synthesis statistics,
closed-loop consistency with the covariance rollout, sweeps, CSV output."""

import csv

import numpy as np
import pytest

from sensel import model
from sensel.errors import ScenarioError
from sensel.sim import (
    RunConfig,
    run_closed_loop,
    simulate_measurements,
    simulate_truth,
    sweep,
    write_results_csv,
)

from conftest import noise_block, rand_scenario, results_equal, schedule_rollout


def tiny_tracking_scenario(num=3, horizon=2, seed=0, energy=None):
    system = model.tracking_system(1.0)
    h = model.position_h()
    rng = np.random.default_rng(seed)
    sensors = model.SensorModel.build_all([h] * num, [rng.uniform(0, 100, 2) for _ in range(num)])
    blocks = [np.diag(rng.uniform(5, 10, 2)) for _ in range(num)]
    noise = model.NoiseModel.build([2] * num, base_blocks=blocks)
    return model.make_scenario(
        system, sensors, noise,
        model.ConstraintSet.build([1] * horizon, energy=energy),
        np.full(horizon, 1.0 / horizon),
        [50.0, 1.0, 50.0, -1.0], np.diag([25.0, 4.0, 25.0, 4.0]), seed=seed,
    )


class TestSimulateTruth:
    def test_nearly_deterministic_with_tiny_noise(self):
        system = model.DynamicSystem.build(np.eye(2), 1e-18 * np.eye(2))
        sensors = model.SensorModel.build_all([np.eye(2)], [[0.0, 0.0]])
        noise = model.NoiseModel.build([2], base_blocks=[np.eye(2)])
        scenario = model.make_scenario(
            system, sensors, noise, model.ConstraintSet.build([1]),
            [1.0], [3.0, 4.0], np.eye(2),
        )
        truth = simulate_truth(scenario, 5, seed=0)
        np.testing.assert_allclose(truth, np.tile([3.0, 4.0], (6, 1)), atol=1e-7)

    def test_same_seed_same_trajectory(self):
        scenario = tiny_tracking_scenario()
        a = simulate_truth(scenario, 10, seed=42)
        b = simulate_truth(scenario, 10, seed=42)
        np.testing.assert_array_equal(a, b)
        c = simulate_truth(scenario, 10, seed=43)
        assert not np.array_equal(a, c)

    def test_expected_drift_follows_velocity(self):
        scenario = model.load_scenario("src/sensel/scenarios/example7.json")
        steps = 5
        drifts = []
        for seed in range(200):
            truth = simulate_truth(scenario, steps, seed=seed)
            drifts.append((truth[-1][0] - truth[0][0]) / steps)
        assert np.mean(drifts) == pytest.approx(-20.0, abs=1.0)


class TestSimulateMeasurements:
    def test_noiseless_limit_reproduces_h_x(self):
        scenario = tiny_tracking_scenario()
        scaled = model.NoiseModel.build(
            scenario.noise.block_sizes,
            base_blocks=[1e-12 * b for b in scenario.noise.base_blocks],
        )
        import dataclasses

        quiet = dataclasses.replace(scenario, noise=scaled)
        truth = simulate_truth(quiet, 2, seed=3)
        out = simulate_measurements(truth, quiet, seed=4)
        assert out.shape == (2, quiet.noise.dim)
        for n in range(2):
            expected = np.concatenate(
                [s.h_at(n) @ truth[n + 1] for s in quiet.sensors]
            )
            np.testing.assert_allclose(out[n], expected, atol=1e-4)

    def test_noiseless_limit_follows_per_step_h(self, rng):
        base = tiny_tracking_scenario()
        sensors = model.SensorModel.build_all(
            [rng.normal(size=(2, 2, 4)) for _ in base.sensors],
            [s.position for s in base.sensors],
        )
        quiet = model.make_scenario(
            base.system, sensors,
            model.NoiseModel.build([2] * 3, base_blocks=[1e-12 * np.eye(2)] * 3),
            base.constraints, base.weights, base.x0, base.p0,
        )
        truth = simulate_truth(quiet, 2, seed=3)
        out = simulate_measurements(truth, quiet, seed=4)
        for n in range(2):
            expected = np.concatenate([s.h_at(n) @ truth[n + 1] for s in sensors])
            np.testing.assert_allclose(out[n], expected, atol=1e-4)

    def test_jammer_correlation_matches_mixing_structure(self):
        """Empirical cross-sensor covariance over many draws approaches the
        outer-product mixing model."""
        scenario = model.load_scenario("src/sensel/scenarios/example4.json")
        truth = np.tile(scenario.x0, (2, 1))
        draws = []
        base = np.concatenate([s.h_at(0) @ truth[1] for s in scenario.sensors])
        for seed in range(4000):
            out = simulate_measurements(truth, scenario, seed=seed)
            draws.append(out[0] - base)
        sample_cov = np.cov(np.array(draws).T)
        # compare a sensor pair block against the model; the absolute
        # tolerance is a few sampling standard deviations of a covariance
        # estimate at this variance level and draw count
        expected = noise_block(scenario.noise, 0, 7)
        got = sample_cov[0:2, 14:16]
        level = np.sqrt(sample_cov[0, 0] * sample_cov[14, 14] / len(draws))
        np.testing.assert_allclose(got, expected, rtol=0.1, atol=5 * level)


class TestClosedLoop:
    def test_trace_matches_rollout(self):
        """Filtered covariance traces equal the deterministic rollout for
        the planned schedule (covariance evolution ignores measurements)."""
        scenario = tiny_tracking_scenario()
        config = RunConfig(scenario=scenario, algorithm="topk", runs=3, seed=5)
        result = run_closed_loop(config)
        from sensel.select_separable import topk_schedule

        schedule = topk_schedule(scenario)
        covs = schedule_rollout(scenario, schedule)
        np.testing.assert_allclose(
            result.mean_trace_p, [float(np.trace(p)) for p in covs], atol=1e-10
        )
        assert np.all(result.rmse >= 0)
        assert result.runs == 3

    def test_deterministic_in_config(self):
        scenario = tiny_tracking_scenario(energy=[1, 2, 2])
        config = RunConfig(scenario=scenario, algorithm="lp", runs=4, seed=11)
        assert results_equal(run_closed_loop(config), run_closed_loop(config))

    def test_threaded_matches_sequential(self):
        scenario = tiny_tracking_scenario()
        base = RunConfig(scenario=scenario, algorithm="topk", runs=4, seed=3)
        threaded = RunConfig(
            scenario=scenario, algorithm="topk", runs=4, seed=3, threads=2
        )
        assert results_equal(run_closed_loop(base), run_closed_loop(threaded))

    def test_threaded_sdr_matches_sequential(self):
        """Five runs split into uneven blocks of drawn schedules: two
        workers take 2 and 3 runs, three take 1, 2 and 2."""
        scenario = tiny_tracking_scenario(num=5, horizon=3, seed=2)
        results = [
            run_closed_loop(RunConfig(
                scenario=scenario, algorithm="sdr", runs=5, seed=6, s_count=20,
                threads=threads,
            ))
            for threads in (1, 2, 3)
        ]
        assert results_equal(results[0], results[1])
        assert results_equal(results[0], results[2])

    def test_exhaustive_single_run(self):
        scenario = tiny_tracking_scenario()
        config = RunConfig(scenario=scenario, algorithm="exhaustive", runs=1, seed=1)
        result = run_closed_loop(config)
        assert np.all(np.isfinite(result.rmse))

    def test_sdr_runs_with_correlated_noise(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=4, horizon=2, state_dim=4, correlated=True,
            per_step=[2, 2],
        )
        config = RunConfig(
            scenario=scenario, algorithm="sdr", runs=2, seed=2, s_count=10
        )
        result = run_closed_loop(config)
        assert result.gap is None
        assert np.all(np.isfinite(result.rmse))

    def test_state_dependent_noise_closed_loop(self):
        scenario = model.load_scenario("src/sensel/scenarios/example7.json")
        config = RunConfig(
            scenario=scenario, algorithm="ignore-dep", runs=2, seed=8
        )
        result = run_closed_loop(config)
        assert result.rmse.shape == (5,)
        assert np.all(np.isfinite(result.rmse))


class TestNoiseFactor:
    @pytest.mark.parametrize("name", ["static", "example4", "example7"])
    def test_study_factors_each_noise_model_once(self, name, monkeypatch):
        """Every step of every run draws its joint noise through the noise
        model's cached factor: a study factors each distinct noise model
        once (a static scenario's once, a distance-noise scenario's once per
        step model), and makes no more full-size factorizations for three
        runs than for one."""
        from sensel import sim

        computed, used, orders = [], [], []
        cached = vars(model.NoiseModel)["r_chol"]
        compute = cached.func
        monkeypatch.setattr(cached, "func", lambda noise: computed.append(noise) or compute(noise))
        update = sim.update_gif

        def recording(state, scenario, columns, z, step):
            # One stacked update per step filters every run: one entry
            # per run's column.
            used.extend(scenario.step_noise[step] for _ in columns)
            return update(state, scenario, columns, z, step=step)

        monkeypatch.setattr(sim, "update_gif", recording)
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda a: orders.append(np.shape(a)[-1]) or cholesky(a)
        )
        factorizations = {}
        for runs in (1, 3):
            del computed[:], used[:], orders[:]
            if name == "static":
                scenario = tiny_tracking_scenario(num=4, horizon=3)
            else:
                scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
            config = RunConfig(scenario=scenario, algorithm="ignore-dep", runs=runs, seed=8)
            assert np.all(np.isfinite(run_closed_loop(config).rmse))
            assert len(used) == runs * scenario.horizon
            models = {id(noise) for noise in used}
            assert len(models) == (1 if scenario.noise.distance_alpha1 is None else scenario.horizon)
            assert sorted(map(id, computed)) == sorted(models)
            factorizations[runs] = orders.count(scenario.noise.dim)
        assert factorizations[1] == factorizations[3]

    def test_measurements_use_the_cached_factor(self):
        """The cached factor is the one ``np.linalg.cholesky`` gives, so the
        simulated measurements are unchanged by the cache."""
        scenario = tiny_tracking_scenario(num=4, horizon=2)
        noise = scenario.noise
        assert np.array_equal(noise.r_chol, np.linalg.cholesky(noise.r_full))
        assert not noise.r_chol.flags.writeable
        assert noise.r_chol is noise.r_chol

    @pytest.mark.parametrize("name", ["static", "example7"])
    def test_study_factors_each_q_once(self, name, monkeypatch):
        """Construction factors each process-noise Q once and keeps the
        factor (``DynamicSystem.q_chol``); every run's truth simulation
        reads it, so a study factors each Q once, at 3 runs as at 1."""
        computed, factored = [], []
        cached = vars(model.DynamicSystem)["q_chol"]
        compute = cached.func
        monkeypatch.setattr(
            cached, "func", lambda system: computed.append(system) or compute(system)
        )
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
        counts = {}
        for runs in (1, 3):
            del computed[:], factored[:]
            if name == "static":
                scenario = tiny_tracking_scenario(num=4, horizon=3)
            else:
                scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
            config = RunConfig(scenario=scenario, algorithm="ignore-dep", runs=runs, seed=8)
            assert np.all(np.isfinite(run_closed_loop(config).rmse))
            qs = scenario.system.q
            assert sum(system is scenario.system for system in computed) == 1
            counts[runs] = sum(any(a is q for q in qs) for a in factored)
        assert counts[1] == counts[3] == len(qs)

    def test_truth_uses_the_cached_q_factor(self):
        system = tiny_tracking_scenario().system
        for q, low in zip(system.q, system.q_chol):
            assert np.array_equal(low, np.linalg.cholesky(q))
            assert not low.flags.writeable
        assert system.q_chol is system.q_chol


class TestStudyScoring:
    """A study reports the mean f3 of its runs' schedules; the counts below
    pin that each schedule is scored once."""

    @staticmethod
    def _count_f3(monkeypatch):
        """Record f3 evaluations (calls of ``measure.f3_values``) made
        inside ``randomize_round``'s ``objective_values`` call and those
        made anywhere else."""
        from sensel import measure, select_sdr

        calls = {"inside": 0, "outside": 0}
        rounding = []
        f3_values = measure.f3_values
        objective_values = select_sdr.objective_values

        def counted_f3(*args):
            where = "inside" if rounding else "outside"
            calls[where] += 1
            return f3_values(*args)

        def scoring(*args):
            rounding.append(True)
            try:
                return objective_values(*args)
            finally:
                rounding.pop()

        monkeypatch.setattr(measure, "f3_values", counted_f3)
        monkeypatch.setattr(select_sdr, "objective_values", scoring)
        return calls

    @pytest.mark.parametrize("algorithm", ["topk", "lp", "ignore-dep"])
    def test_fixed_schedule_scored_once(self, algorithm, monkeypatch):
        from sensel.measure import objective_f3
        from sensel.plan import prepare

        calls = self._count_f3(monkeypatch)
        scenario = tiny_tracking_scenario(num=4, horizon=3)
        for runs in (1, 3):
            calls.update(inside=0, outside=0)
            result = run_closed_loop(
                RunConfig(scenario=scenario, algorithm=algorithm, runs=runs, seed=4)
            )
            assert calls == {"inside": 0, "outside": 1}
        value = objective_f3(prepare(scenario, algorithm, "f3").schedule, scenario)
        assert result.f3 == np.full(3, value).mean()

    @pytest.mark.parametrize("objective", ["f3", "f1"])
    def test_sdr_study_reuses_the_rounding_value(self, objective, monkeypatch):
        """An f3 study scores f3 only inside its ``runs`` roundings, and the
        value it reuses is bit for bit ``objective_f3`` of the drawn
        schedule; an f1 study scores each drawn schedule's f3 once."""
        from sensel.measure import objective_f3
        from sensel.plan import prepare
        from sensel.sim import _run_seed

        calls = self._count_f3(monkeypatch)
        scenario = tiny_tracking_scenario(num=5, horizon=3, seed=2)
        config = RunConfig(
            scenario=scenario, algorithm="sdr", runs=3, seed=6, s_count=20,
            objective=objective,
        )
        result = run_closed_loop(config)
        if objective == "f3":
            assert calls == {"inside": 3, "outside": 0}
        else:
            assert calls == {"inside": 0, "outside": 3}
        plan = prepare(scenario, "sdr", objective)
        values = [
            objective_f3(plan.draw(20, _run_seed(6, run, 0)).schedule, scenario)
            for run in range(3)
        ]
        assert result.f3 == np.array(values).mean()


class TestConvergenceBand:
    def test_doubling_runs_moves_mean_rmse_within_band(self):
        """Sanity band, logged rather than hard-asserted at the exact
        threshold: doubling the run count should move the mean RMSE by a
        few standard errors at most."""
        scenario = tiny_tracking_scenario(num=4, horizon=3, seed=2)
        small = run_closed_loop(
            RunConfig(scenario=scenario, algorithm="topk", runs=40, seed=17)
        )
        large = run_closed_loop(
            RunConfig(scenario=scenario, algorithm="topk", runs=80, seed=17)
        )
        shift = abs(float(large.rmse.mean()) - float(small.rmse.mean()))
        stderr = float(small.rmse.std()) / np.sqrt(40)
        print(f"\nRMSE convergence: shift {shift:.4f}, 3x stderr {3 * stderr:.4f}")
        # loose envelope (10x) so statistical flutter cannot flake the suite
        assert shift < 10 * max(stderr, 1e-3)


class TestSweep:
    def test_jammer_power_sweep_rows(self):
        scenario = model.load_scenario("src/sensel/scenarios/example4.json")
        config = RunConfig(scenario=scenario, algorithm="ignore-dep", runs=1, seed=0)
        values = [1e5, 3e5, 6e5]
        results = sweep(config, "jammer_power", values)
        assert [r.param_value for r in results] == values
        assert all(r.seed == 0 for r in results)

    def test_count_sweep_changes_constraints(self):
        scenario = tiny_tracking_scenario()
        config = RunConfig(scenario=scenario, algorithm="topk", runs=1, seed=0)
        results = sweep(config, "m_per_step", [1, 2])
        assert results[0].param_value == 1.0
        assert results[1].param_value == 2.0

    def test_single_value(self):
        scenario = tiny_tracking_scenario()
        config = RunConfig(scenario=scenario, algorithm="topk", runs=1, seed=0)
        results = sweep(config, "s_count", [25])
        assert len(results) == 1

    def test_negative_seed_rejected(self):
        """A negative seed, a worker count below 1 and an unknown objective
        are refused when the config is built, before any planning."""
        scenario = tiny_tracking_scenario()
        with pytest.raises(ScenarioError, match="seed"):
            RunConfig(scenario=scenario, algorithm="topk", seed=-1)
        for threads in (0, -1):
            with pytest.raises(ScenarioError, match="worker"):
                RunConfig(scenario=scenario, algorithm="topk", threads=threads)
        with pytest.raises(ScenarioError, match="objective"):
            RunConfig(scenario=scenario, algorithm="sdr", objective="f4")

    def test_unknown_parameter(self):
        scenario = tiny_tracking_scenario()
        config = RunConfig(scenario=scenario, algorithm="topk", runs=1, seed=0)
        with pytest.raises(ScenarioError, match="jammer_power"):
            sweep(config, "nonsense", [1.0])


class TestCsv:
    def test_csv_layout(self, tmp_path):
        scenario = tiny_tracking_scenario()
        config = RunConfig(scenario=scenario, algorithm="topk", runs=2, seed=1)
        result = run_closed_loop(config)
        path = tmp_path / "out.csv"
        write_results_csv([result], path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "step", "trace_p", "rmse", "f3", "gap", "algo", "param_value", "seed"
        ]
        assert len(rows) == 1 + scenario.horizon
        assert rows[1][5] == "topk"
        assert float(rows[1][1]) == pytest.approx(result.mean_trace_p[0])
