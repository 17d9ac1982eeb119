"""Filtering tests: hand-checked updates, gain-form versus information-form
agreement, covariance monotonicity, and rollout consistency."""

import numpy as np
import pytest

from sensel import linalg, measure, model
from sensel.errors import NotPositiveDefinite
from sensel.filter import (
    FilterState,
    covariance_rollout,
    masked_model,
    posterior,
    predict,
    update_gif,
    update_kalman,
)

from conftest import rand_scenario, rand_spd, schedule_rollout, selection_gain, step_gains


def per_step_h_scenario(rng, num_sensors=4, horizon=3, correlated=True):
    """Random scenario whose sensors have 1-3 rows and a new H at every
    step."""
    base = rand_scenario(
        rng, num_sensors=num_sensors, horizon=horizon, correlated=correlated,
        meas_dims=[int(d) for d in rng.integers(1, 4, size=num_sensors)],
    )
    sensors = model.SensorModel.build_all(
        [rng.normal(size=(horizon, s.meas_dim, 2)) for s in base.sensors],
        [s.position for s in base.sensors],
    )
    return model.make_scenario(
        base.system, sensors, base.noise, base.constraints, base.weights,
        base.x0, base.p0,
    )


def scalar_setup():
    """One-dimensional system with a single unit sensor."""
    system = model.DynamicSystem.build([[1.0]], [[1.0]])
    sensors = model.SensorModel.build_all([[[1.0]]], [[0.0, 0.0]])
    noise = model.NoiseModel.build([1], base_blocks=[[[1.0]]])
    return model.make_scenario(
        system, sensors, noise, model.ConstraintSet.build([1]), [1.0], [0.0], [[1.0]]
    )


class TestPredict:
    def test_identity_doubles_covariance(self):
        system = model.DynamicSystem.build(np.eye(2), np.eye(2))
        state = FilterState(x=np.zeros(2), p=np.eye(2))
        out = predict(state, system)
        np.testing.assert_allclose(out.p, 2.0 * np.eye(2))

    def test_tracking_velocity_advances_position(self):
        system = model.tracking_system(1.0)
        state = FilterState(x=np.array([0.0, 1.0, 0.0, 0.0]), p=np.eye(4))
        out = predict(state, system)
        np.testing.assert_allclose(out.x, [1.0, 1.0, 0.0, 0.0])


class TestUpdates:
    def test_empty_selection_is_noop_both_forms(self, rng):
        """No selected sensor leaves x as it is.  The gain form leaves P
        too; the information form takes the posterior of a zero gain, the
        rollout's step, which is P to rounding."""
        scenario = rand_scenario(rng, num_sensors=3, horizon=1, correlated=True)
        state = FilterState(x=rng.normal(size=2), p=rand_spd(2, rng))
        z = rng.normal(size=scenario.noise.dim)
        kalman = update_kalman(state, scenario, [0, 0, 0], z)
        gif = update_gif(state, scenario, [0, 0, 0], z)
        np.testing.assert_array_equal(kalman.x, state.x)
        np.testing.assert_array_equal(gif.x, state.x)
        np.testing.assert_allclose(kalman.p, state.p, atol=1e-15)
        assert np.array_equal(gif.p, posterior(state.p, np.zeros((1, 2, 2)))[0])

    def test_update_reads_only_the_selected_rows(self, rng):
        """The information form reads the selected rows of ``z`` and of the
        noise model only: new values on the unselected rows leave its
        output bit for bit, and a block-only noise model is read from its
        blocks, never assembling the dense ``r_full``."""
        for _ in range(20):
            scenario = rand_scenario(rng, num_sensors=4, horizon=1, correlated=False)
            noise = scenario.noise
            gamma = rng.permutation([1, 0, int(rng.integers(0, 2)), int(rng.integers(0, 2))])
            state = FilterState(x=rng.normal(size=2), p=rand_spd(2, rng))
            z = rng.normal(size=noise.dim)
            moved = np.where(gamma[noise.labels] == 1, z, rng.normal(size=noise.dim))
            a = update_gif(state, scenario, gamma, z)
            b = update_gif(state, scenario, gamma, moved)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.p, b.p)
            assert "r_full" not in vars(noise)

    def test_scalar_posterior_half(self):
        """Unit prior, unit noise, scalar measurement: posterior variance 1/2."""
        scenario = scalar_setup()
        state = FilterState(x=np.array([0.0]), p=np.array([[1.0]]))
        for updater in (update_kalman, update_gif):
            out = updater(state, scenario, [1], np.array([1.0]))
            np.testing.assert_allclose(out.p, [[0.5]], atol=1e-12)
            np.testing.assert_allclose(out.x, [0.5], atol=1e-12)

    def test_all_selected_matches_plain_inverse_filter(self, rng):
        """With every sensor on, the masked update equals the textbook
        information filter computed with plain inverses."""
        scenario = rand_scenario(rng, num_sensors=3, horizon=1, correlated=True)
        dim = scenario.noise.dim
        state = FilterState(x=rng.normal(size=2), p=rand_spd(2, rng))
        z = rng.normal(size=dim)
        h = np.vstack([s.h_at(0) for s in scenario.sensors])
        r = scenario.noise.r_full
        info = np.linalg.inv(state.p) + h.T @ np.linalg.inv(r) @ h
        p_ref = np.linalg.inv(info)
        x_ref = p_ref @ (np.linalg.inv(state.p) @ state.x + h.T @ np.linalg.inv(r) @ z)
        out = update_kalman(state, scenario, [1, 1, 1], z)
        np.testing.assert_allclose(out.p, p_ref, atol=1e-10)
        np.testing.assert_allclose(out.x, x_ref, atol=1e-10)

    @pytest.mark.parametrize("name", ["example4", "example7"])
    def test_information_update_reads_the_selected_rows(self, name, rng):
        """Bit for bit the posterior step written out from the selected
        rows of ``r_full`` and ``h_stacks[step]``, under a jammer's
        correlated noise (example4) and per-step distance noise (example7):
        the gain H' R^-1 H by one solve on a batch of one, P = L (I + L' G
        L)^-1 L' from the prior's Cholesky factor, and x moved by P H' R^-1
        times the innovation.  The simulator's CSVs rest on these bits."""
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        r = scenario.state_dim
        for n in range(scenario.horizon):
            noise = scenario.step_noise[n]
            gamma = rng.integers(0, 2, size=scenario.num_sensors)
            gamma[int(rng.integers(scenario.num_sensors))] = 1
            state = FilterState(x=rng.normal(size=r), p=rand_spd(r, rng))
            z = rng.normal(size=noise.dim)
            out = update_gif(state, scenario, gamma, z, step=n)
            rows = np.flatnonzero(np.repeat(gamma, noise.block_sizes))
            h = scenario.h_stacks[n][rows]
            r_sel = noise.r_full[np.ix_(rows, rows)]
            gain = linalg.symmetrize(h.T[None] @ np.linalg.solve(r_sel[None], h[None]))
            low = np.linalg.cholesky(state.p)
            inner = np.eye(r) + low.T @ gain @ low
            p = linalg.symmetrize(low @ np.linalg.solve(inner, low.T[None]))[0]
            x = state.x + p @ (h.T @ np.linalg.solve(r_sel, z[rows] - h @ state.x))
            assert np.array_equal(out.p, p)
            assert np.array_equal(out.x, x)

    def test_prior_not_positive_definite_raises(self, rng, monkeypatch):
        """An indefinite prior is a typed error in the filter update and in
        the rollout, which share the posterior step.  A loaded scenario's
        P0 and Q are positive definite, so the rollout is handed a negative
        Q."""
        scenario = rand_scenario(rng, num_sensors=3, horizon=1, correlated=True)
        prior = FilterState(x=np.zeros(2), p=np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            update_gif(prior, scenario, [1, 1, 1], np.zeros(scenario.noise.dim))
        gains = step_gains(scenario, np.ones((2, 1, 3)))
        monkeypatch.setattr(model.DynamicSystem, "q_at", lambda self, n: -1e3 * np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            covariance_rollout(scenario, gains)


class TestStackedUpdates:
    """A stack of states takes one predict and one update_gif per step, and
    every state's result is bit for bit its own single-state call."""

    @pytest.mark.parametrize("correlated", [False, True])
    def test_stack_equals_per_state_calls(self, correlated, rng):
        scenario = rand_scenario(
            rng, num_sensors=5, horizon=3, state_dim=3, meas_dims=[1, 2, 3, 1, 2],
            correlated=correlated,
        )
        runs, r = 6, scenario.state_dim
        columns = rng.integers(0, 2, size=(runs, scenario.horizon, 5)).astype(np.int8)
        # Step 0: runs selecting 1, 2 and 3 rows, and one selecting none;
        # step 2: no run selects anything.
        columns[:4, 0] = np.eye(5, dtype=np.int8)[[0, 1, 2, 2]]
        columns[3, 0] = 0
        columns[:, 2] = 0
        rows = np.array(scenario.noise.block_sizes) @ columns[:, 0].T
        assert len(set(rows.tolist())) > 2 and 0 in rows
        z = rng.normal(size=(runs, scenario.horizon, scenario.noise.dim))
        stack = FilterState(
            x=rng.normal(size=(runs, r)), p=np.array([rand_spd(r, rng) for _ in range(runs)])
        )
        alone = [FilterState(x=stack.x[i], p=stack.p[i]) for i in range(runs)]
        for n in range(scenario.horizon):
            stack = predict(stack, scenario.system, n)
            alone = [predict(state, scenario.system, n) for state in alone]
            self._assert_same(stack, alone)
            grid = update_gif(
                FilterState(x=stack.x.reshape(2, 3, r), p=stack.p.reshape(2, 3, r, r)),
                scenario, columns[:, n].reshape(2, 3, 5), z[:, n].reshape(2, 3, -1), step=n,
            )
            stack = update_gif(stack, scenario, columns[:, n], z[:, n], step=n)
            alone = [
                update_gif(state, scenario, columns[i, n], z[i, n], step=n)
                for i, state in enumerate(alone)
            ]
            self._assert_same(stack, alone)
            assert np.array_equal(grid.x.reshape(runs, r), stack.x)
            assert np.array_equal(grid.p.reshape(runs, r, r), stack.p)

    @staticmethod
    def _assert_same(stack, alone):
        assert stack.x.shape == (len(alone), alone[0].x.shape[0])
        for i, state in enumerate(alone):
            assert np.array_equal(stack.x[i], state.x), i
            assert np.array_equal(stack.p[i], state.p), i


class TestEquivalence:
    def test_forms_agree_on_random_instances(self, rng):
        """Gain form and information form agree for random systems, mixed
        correlated/block-diagonal noise, and random selections."""
        for trial in range(200):
            r = int(rng.integers(1, 5))
            num = int(rng.integers(1, 6))
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=1, state_dim=r,
                correlated=bool(rng.integers(0, 2)),
            )
            gamma = rng.integers(0, 2, size=num)
            state = FilterState(x=rng.normal(size=r), p=rand_spd(r, rng))
            z = rng.normal(size=scenario.noise.dim)
            a = update_kalman(state, scenario, gamma, z)
            b = update_gif(state, scenario, gamma, z)
            x_scale = 1.0 + np.linalg.norm(a.x)
            p_scale = np.linalg.norm(a.p)
            assert np.linalg.norm(a.x - b.x) <= 1e-8 * x_scale, trial
            assert np.linalg.norm(a.p - b.p) <= 1e-8 * p_scale, trial


class TestMonotonicity:
    def test_extra_sensor_never_hurts_uncorrelated(self, rng):
        """Adding a sensor shrinks the posterior in the semidefinite order
        when noises are uncorrelated."""
        for _ in range(50):
            r = int(rng.integers(1, 4))
            num = int(rng.integers(2, 6))
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=1, state_dim=r, correlated=False
            )
            gamma = rng.integers(0, 2, size=num)
            off = [i for i in range(num) if gamma[i] == 0]
            if not off:
                continue
            extra = gamma.copy()
            extra[off[int(rng.integers(0, len(off)))]] = 1
            state = FilterState(x=np.zeros(r), p=rand_spd(r, rng))
            z = np.zeros(scenario.noise.dim)
            p_small = update_gif(state, scenario, gamma, z).p
            p_large = update_gif(state, scenario, extra, z).p
            assert linalg.min_eigenvalue(p_small - p_large) >= -1e-9


class TestRollout:
    def test_single_step_no_selection_is_prediction(self, rng):
        scenario = rand_scenario(rng, num_sensors=2, horizon=1)
        schedule = model.SelectionSchedule.build(np.zeros((2, 1)))
        out = schedule_rollout(scenario, schedule)
        f = scenario.system.f_at(0)
        expected = f @ scenario.p0 @ f.T + scenario.system.q_at(0)
        np.testing.assert_allclose(out[0], expected, atol=1e-9)

    def test_single_step_all_sensors_matches_information_form(self, rng):
        scenario = rand_scenario(rng, num_sensors=3, horizon=1, correlated=False)
        schedule = model.SelectionSchedule.build(np.ones((3, 1)))
        out = schedule_rollout(scenario, schedule)
        f = scenario.system.f_at(0)
        p_pred = f @ scenario.p0 @ f.T + scenario.system.q_at(0)
        h = np.vstack([s.h_at(0) for s in scenario.sensors])
        r = scenario.noise.r_full
        expected = np.linalg.inv(
            np.linalg.inv(p_pred) + h.T @ np.linalg.inv(r) @ h
        )
        np.testing.assert_allclose(out[0], expected, atol=1e-9)

    def test_stays_positive_definite(self, rng):
        for _ in range(20):
            scenario = rand_scenario(rng, num_sensors=3, horizon=4, correlated=True)
            gamma = rng.integers(0, 2, size=(3, 4))
            schedule = model.SelectionSchedule.build(gamma)
            out = schedule_rollout(scenario, schedule)
            for p in out:
                assert linalg.min_eigenvalue(p) > 0

    def test_gain_matches_compressed_stack(self, rng):
        """The selection gain equals the explicit stacked computation with
        the generic pseudoinverse of the masked covariance."""
        for _ in range(30):
            scenario = rand_scenario(rng, num_sensors=4, horizon=1, correlated=True)
            gamma = rng.integers(0, 2, size=4)
            _, h, r = masked_model(scenario, gamma)
            reference = h.T @ linalg.pinv(r) @ h
            gain = selection_gain(scenario, gamma)
            np.testing.assert_allclose(gain, reference, atol=1e-9)

    def test_selection_gain_reads_each_steps_h(self, rng):
        """Per-step H with mixed 1-3-row sensors: step n's gain uses the
        selected rows of step n's stacked H."""
        for _ in range(20):
            scenario = per_step_h_scenario(rng)
            sensors = scenario.sensors
            gamma = rng.integers(0, 2, size=4)
            rows = np.repeat(gamma, scenario.noise.block_sizes).astype(bool)
            for n in range(3):
                h = np.vstack([s.h_at(n) for s in sensors])[rows]
                r = scenario.noise.r_full[np.ix_(rows, rows)]
                reference = h.T @ np.linalg.solve(r, h) if rows.any() else np.zeros((2, 2))
                gain = selection_gain(scenario, gamma, step=n)
                np.testing.assert_allclose(gain, reference, rtol=1e-9, atol=1e-9)

    def test_batch_matches_gain_form_per_schedule(self, rng):
        """The batched information-form rollout matches, schedule by
        schedule, ``predict`` and the gain-form ``update_kalman`` (the
        pseudoinverse of the masked stack) within 1e-9: the reference that
        the objectives' one recursion is checked against."""
        for trial in range(12):
            scenario = per_step_h_scenario(rng, num_sensors=int(rng.integers(2, 6)))
            gammas = rng.integers(0, 2, size=(8, 3, scenario.num_sensors))
            covs = covariance_rollout(scenario, step_gains(scenario, gammas))
            for b, gamma in enumerate(gammas):
                state = FilterState(x=scenario.x0, p=scenario.p0)
                for n in range(3):
                    z = np.zeros(scenario.noise.dim)
                    state = predict(state, scenario.system, n)
                    state = update_kalman(state, scenario, gamma[n], z, step=n)
                    np.testing.assert_allclose(covs[n][b], state.p, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("name", ["example4", "example7", None])
    def test_filter_steps_equal_the_rollout(self, name, rng):
        """``predict`` + ``update_gif`` over a feasible schedule gives, step
        by step, bit for bit the covariance that ``covariance_rollout``
        scores for it: example4's and example7's per-step noise, and random
        scenarios with a new H at every step.  Over three or more steps the
        schedule with its middle step emptied is checked too: an empty step
        takes the posterior of a zero gain in both."""
        if name is None:
            cases = [per_step_h_scenario(rng, num_sensors=int(rng.integers(2, 6)))
                     for _ in range(10)]
        else:
            cases = [model.load_scenario(f"src/sensel/scenarios/{name}.json")] * 10
        for scenario in cases:
            constraints = scenario.constraints
            budget = np.array(constraints.energy or [scenario.horizon] * scenario.num_sensors)
            gamma = np.zeros((scenario.horizon, scenario.num_sensors), dtype=np.int8)
            for n, m in enumerate(constraints.per_step):
                pick = rng.choice(np.flatnonzero(budget > 0), size=m, replace=False)
                gamma[n, pick] = 1
                budget[pick] -= 1
            assert gamma.any(axis=1).all()
            assert model.SelectionSchedule.build(gamma.T).satisfies(constraints)
            gammas = gamma[None]
            if scenario.horizon >= 3:
                emptied = gamma.copy()
                emptied[scenario.horizon // 2] = 0
                gammas = np.stack([gamma, emptied])
            covs = covariance_rollout(scenario, step_gains(scenario, gammas))
            z = np.zeros(scenario.noise.dim)
            for b, schedule in enumerate(gammas):
                state = FilterState(x=scenario.x0, p=scenario.p0)
                for n in range(scenario.horizon):
                    state = predict(state, scenario.system, n)
                    state = update_gif(state, scenario, schedule[n], z, step=n)
                    assert np.array_equal(state.p, covs[n][b]), (b, n)

    def test_batch_equals_its_one_schedule_calls(self, rng):
        """A batch's covariances and f1, f2 and f3 values are bit for bit
        those of each of its schedules alone; repeated schedules, a batch
        of one, and a batch whose distinct schedules share columns and
        repeat in no order included."""
        for trial in range(6):
            scenario = per_step_h_scenario(rng, correlated=bool(trial % 2))
            gammas = rng.integers(0, 2, size=(12, 3, scenario.num_sensors)).astype(np.int8)
            gammas[6:9] = gammas[:3]
            # Every step's column of ``mixed`` is one of two, combined into
            # up to eight distinct schedules, each repeated.
            picks = rng.integers(0, 2, size=(20, 3))
            mixed = gammas[picks, np.arange(3)]
            assert len({g.tobytes() for g in mixed}) < len(mixed)
            for batch in (gammas, gammas[:1], mixed):
                covs = covariance_rollout(scenario, step_gains(scenario, batch))
                for b in range(len(batch)):
                    alone = covariance_rollout(scenario, step_gains(scenario, batch[b : b + 1]))
                    for n in range(3):
                        assert np.array_equal(covs[n][b], alone[n][0])
                for kind in measure.OBJECTIVES:
                    values = measure.objective_values(kind, batch, scenario)
                    assert np.array_equal(values, [
                        measure.objective_value(
                            kind, model.SelectionSchedule.build(gamma.T), scenario
                        )
                        for gamma in batch
                    ])
