"""Semidefinite-route tests: quadratic coefficients, the lifted problem,
the interior-point solver, Gaussian-randomization rounding, and the
correlation-ignoring baseline."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sensel import linalg, measure, model, select_sdr
from sensel.errors import NotConverged, NotPSD, RoundingInfeasible
from sensel.filter import masked_model
from sensel.select_lp import build_lp, solve_lp
from sensel.select_sdr import (
    _START_CLIP,
    _TOL,
    SdpSolution,
    _adjoint,
    _eliminate,
    _newton_solve,
    _nt_scaling,
    _operator,
    _primal_start,
    _psd_step_lengths,
    _schur,
    _second_order,
    bqp_objective,
    build_bqp,
    build_sdp,
    randomize_round,
    relaxation_bound,
    select_ignore_dependence,
    solve_sdp,
)
from sensel.select_separable import exhaustive_opt, topk_schedule

from conftest import (
    RELATION,
    dense_adjoint,
    dense_completion,
    dense_cost,
    dense_max_psd_step,
    dense_operator,
    dense_schur,
    dense_solve_sdp,
    enumerate_feasible,
    lifted_row_matrix,
    loop_build_bqp,
    loop_round_by_scores,
    noise_block,
    rand_scenario,
    rand_spd,
    selection_gain,
    sensor_measure,
    with_random_extra_row,
)


def loop_randomize_round(sdp_solution, scenario, s_count, seed, objective):
    """Reference: the per-sample loop that the batched randomization
    replaced (one draw through the same sampling factor, two greedy
    roundings and their evaluation at a time).  Returns (gamma, value)."""
    num = scenario.num_sensors
    horizon = scenario.horizon
    factor = sdp_solution.sampling_factor
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    weights = np.asarray(scenario.weights, dtype=float)

    def evaluate(schedule):
        if objective == "f3":
            return sum(
                float(weights[n]) * float(np.trace(selection_gain(scenario, schedule.column(n), n)))
                for n in range(horizon)
                if weights[n] != 0.0
            )
        return measure.objective_value(objective, schedule, scenario)

    maximize = objective == "f3"
    best_gamma, best_value, best_key = None, -np.inf if maximize else np.inf, None
    for _ in range(int(s_count)):
        eta = rng.standard_normal(factor.shape[0]) @ factor
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
    sensors = model.SensorModel.build_all([[[1.0]]] * 2, [[0.0, 0.0], [10.0, 0.0]])
    noise = model.NoiseModel.from_full([[1.0, rho], [rho, 1.0]], [1, 1])
    return model.make_scenario(
        system, sensors, noise, model.ConstraintSet.build([1]),
        [1.0], [0.0], [[1.0]],
    )


def per_step_h_scenario(rng, num, horizon, correlated):
    """rand_scenario with 1- to 3-row sensors whose H differs per step."""
    scenario = rand_scenario(
        rng, num_sensors=num, horizon=horizon, state_dim=3, correlated=correlated,
        meas_dims=[int(d) for d in rng.integers(1, 4, size=num)],
    )
    sensors = model.SensorModel.build_all(
        [rng.normal(size=(horizon, s.meas_dim, 3)) for s in scenario.sensors],
        [s.position for s in scenario.sensors],
    )
    return replace(scenario, sensors=sensors)


class TestBuildBqp:
    @pytest.mark.parametrize("name", ["example4", "example5", "example6", "example7"])
    def test_bundled_blocks_equal_the_pairwise_loop(self, name):
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        blocks = build_bqp(scenario).b_blocks
        for block, expected in zip(blocks, loop_build_bqp(scenario), strict=True):
            assert np.array_equal(block, expected)

    def test_random_blocks_match_the_pairwise_loop(self, rng):
        """Mixed 1-3-row sensors, per-step H, and correlated noise that
        differs per step: a distance term on a correlated static model."""
        for _ in range(40):
            num = int(rng.integers(1, 7))
            horizon = int(rng.integers(1, 4))
            scenario = per_step_h_scenario(rng, num, horizon, correlated=True)
            noise = model.NoiseModel.build(
                scenario.noise.block_sizes, base_full=scenario.noise.base_full,
                distance_alpha1=float(rng.uniform(0.01, 0.1)),
            )
            scenario = replace(scenario, noise=noise)
            steps = scenario.step_noise
            assert all(not np.array_equal(a.r_full, steps[0].r_full) for a in steps[1:])
            blocks = build_bqp(scenario).b_blocks
            for block, expected in zip(blocks, loop_build_bqp(scenario), strict=True):
                np.testing.assert_allclose(block, expected, rtol=1e-12, atol=0.0)
                assert np.array_equal(block, block.T)

    @pytest.mark.parametrize("name", ["example5", "example7"])
    def test_each_step_model_is_built_once(self, name):
        """example5's five steps share one model, and so one block object;
        example7's distance term gives each step a block of its own."""
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        blocks = build_bqp(scenario).b_blocks
        shared = [block is blocks[0] for block in blocks]
        assert shared == [True] * 5 if name == "example5" else [True] + [False] * 4

    def test_inverts_each_noise_model_once(self, monkeypatch):
        """example3 repeats one static noise model over its five steps;
        its 800 x 800 joint covariance is inverted once."""
        calls = []
        cached = vars(model.NoiseModel)["r_inv"]
        compute = cached.func
        monkeypatch.setattr(
            cached, "func", lambda noise: calls.append(noise) or compute(noise)
        )
        scenario = model.load_scenario("src/sensel/scenarios/example3.json")
        assert scenario.horizon == 5
        build_bqp(scenario)
        assert len(calls) == 1
        assert not scenario.noise.r_inv.flags.writeable

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
                sensor_measure(
                    scenario.sensors[i].h_at(n), noise_block(scenario.noise, i, i)
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
            _, h, _ = masked_model(scenario, gamma)
            expected = float(np.trace(h.T @ t_full @ h))
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
        assert sdp.c_blocks.shape == (1, 3, 3)
        assert sdp.c_blocks[0, 2, 2] == 0.0

    def test_count_row_right_side(self):
        """A select-m-of-L equality row transforms to 4m - L."""
        scenario = two_sensor_scalar(0.3)
        sdp = build_sdp(build_bqp(scenario))
        a, rel, rhs = sdp.rows.a[0], RELATION[sdp.rows.sense[0]], sdp.rows.b[0]
        assert rel == "="
        assert rhs == 4.0 * 1 - 2
        np.testing.assert_array_equal(a, [1.0, 1.0])

    def test_inequality_direction_preserved(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=3, horizon=2, correlated=True,
            per_step=[1, 1], energy=[1, 1, 2],
        )
        sdp = build_sdp(build_bqp(scenario))
        rels = [RELATION[sense] for sense in sdp.rows.sense]
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
                for a, sense, rhs in zip(sdp.rows.a, sdp.rows.sense, sdp.rows.b):
                    rel = RELATION[sense]
                    value = float(np.tensordot(lifted_row_matrix(a, sdp.dim), x))
                    if rel == "=":
                        assert value == pytest.approx(rhs, abs=1e-9)
                    elif rel == "<=":
                        assert value <= rhs + 1e-9
                    else:
                        assert value >= rhs - 1e-9
                # objective affine map: g'Bg == (tr(C vv') + 1'B1) / 4
                lifted = float(np.tensordot(dense_cost(sdp), x))
                direct = bqp_objective(bqp, schedule)
                assert (lifted + sdp.ones_quad) / 4.0 == pytest.approx(direct, abs=1e-9)


def block_diag(blocks):
    """The (N*k, N*k) block-diagonal matrix of an (N, k, k) stack."""
    horizon, k, _ = blocks.shape
    out = np.zeros((horizon * k, horizon * k))
    for n, block in enumerate(blocks):
        out[n * k : (n + 1) * k, n * k : (n + 1) * k] = block
    return out


def random_block_rows(rng, num_rows, horizon, num):
    """Random padded rows ``a_hat`` (num_rows, N, k) and the dense stack of
    the constraint matrices of order N*k: each linear row lifted in every
    block, then one unit-diagonal row per block entry."""
    k = num + 1
    a_hat = np.zeros((num_rows, horizon, k))
    a_hat[:, :, :-1] = rng.normal(size=(num_rows, horizon, num))
    mats = np.array(
        [block_diag(np.array([lifted_row_matrix(a[:-1], k) for a in row]))
         for row in a_hat]
        + [np.diag(np.eye(horizon * k)[t]) for t in range(horizon * k)]
    )
    return a_hat, mats


def dense_stack_schur(mats, big_w):
    """G_qr = tr(A_q W A_r W) over the dense stack, W block-diagonal."""
    m = mats.shape[0]
    dense_w = block_diag(big_w)
    scaled = np.matmul(dense_w[None], np.matmul(mats, dense_w[None]))
    return mats.reshape(m, -1) @ scaled.reshape(m, -1).T


def nt_scaling(x, z):
    """The Nesterov-Todd point W with W Z W = X, from eigendecompositions:
    W = X^1/2 (X^1/2 Z X^1/2)^-1/2 X^1/2."""

    def power(a, t):
        lam, vec = np.linalg.eigh(a)
        return (vec * lam**t) @ vec.T

    root = power(x, 0.5)
    return linalg.symmetrize(root @ power(root @ z @ root, -0.5) @ root)


class TestClosedForms:
    def test_match_the_dense_constraint_stack(self, rng):
        """The operator, its adjoint and the Schur complement computed from
        the padded rows agree with the tensordot forms over the stack of
        dense lifted matrices (the linear rows, then the unit-diagonal
        rows), for random rows of every relation and for no rows at all."""

        def close(closed, dense):
            assert np.linalg.norm(closed - dense) <= 1e-12 * np.linalg.norm(dense)

        for num_rows, dim in ((0, 5), (3, 6), (7, 11), (12, 9)):
            rows = [
                (rng.normal(size=dim - 1), str(rng.choice(["=", "<=", ">="])), 0.0)
                for _ in range(num_rows)
            ]
            a_hat = np.array([np.append(a, 0.0) for a, _, _ in rows]).reshape(-1, dim)
            mats = np.array(
                [lifted_row_matrix(a, dim) for a, _, _ in rows]
                + [np.diag(np.eye(dim)[s]) for s in range(dim)]
            )
            m = mats.shape[0]
            x = linalg.symmetrize(rng.normal(size=(dim, dim)))
            y = rng.normal(size=m)
            big_w = rand_spd(dim, rng)
            close(dense_operator(a_hat, x), np.tensordot(mats, x, axes=2))
            close(dense_adjoint(a_hat, y), np.tensordot(y, mats, axes=(0, 0)))
            scaled = np.matmul(big_w[None], np.matmul(mats, big_w[None]))
            stack_schur = mats.reshape(m, -1) @ scaled.reshape(m, -1).T
            close(dense_schur(a_hat, big_w), stack_schur)

    def test_block_forms_match_the_block_diagonal_stack(self, rng):
        """The per-step operator and adjoint, and each of the Schur
        complement's three blocks (the linear part, the coupling D and the
        diagonal blocks V_n), agree with the tensordot forms over dense
        block-diagonal matrices of order N*k: each linear row lifted in
        every block, then one unit-diagonal row per block entry."""

        def close(closed, dense):
            assert np.linalg.norm(closed - dense) <= 1e-12 * np.linalg.norm(dense)

        for num_rows, horizon, num in ((0, 1, 4), (3, 2, 5), (7, 3, 3), (12, 4, 2)):
            k = num + 1
            a_hat, mats = random_block_rows(rng, num_rows, horizon, num)
            m = mats.shape[0]
            x = linalg.symmetrize(rng.normal(size=(horizon, k, k)))
            y = rng.normal(size=m)
            big_w = np.array([rand_spd(k, rng) for _ in range(horizon)])
            close(_operator(a_hat, x), np.tensordot(mats, block_diag(x), axes=2))
            close(block_diag(_adjoint(a_hat, y)), np.tensordot(y, mats, axes=(0, 0)))
            stack_schur = dense_stack_schur(mats, big_w)
            linear, coupling, big_v = _schur(a_hat, big_w)
            assert coupling.shape == (horizon, k, num_rows)
            close(linear, stack_schur[:num_rows, :num_rows])
            close(coupling.reshape(horizon * k, num_rows), stack_schur[num_rows:, :num_rows])
            close(block_diag(big_v), stack_schur[num_rows:, num_rows:])

    def test_eliminated_newton_solve_matches_the_dense_solve(self, rng):
        """At random Nesterov-Todd points (W_n Z_n W_n = X_n for random PD
        X_n and Z_n), with rows of every sense, the step-by-step
        elimination solves the assembled Newton matrix -- the tensordot
        Schur complement plus the slack diagonal s/w on the inequality
        rows plus the ridge -- as np.linalg.solve does, with no rows too."""
        for num_rows, horizon, num in ((0, 1, 4), (0, 3, 3), (3, 2, 5), (7, 3, 3), (8, 4, 3)):
            k = num + 1
            a_hat, mats = random_block_rows(rng, num_rows, horizon, num)
            m = mats.shape[0]
            sense = rng.permutation(np.resize([-1.0, 0.0, 1.0], num_rows))
            slack = np.where(sense != 0.0, rng.uniform(0.1, 10.0, num_rows), 0.0)
            big_w = np.array([
                nt_scaling(rand_spd(k, rng), rand_spd(k, rng)) for _ in range(horizon)
            ])
            gram = dense_stack_schur(mats, big_w)
            gram[:num_rows, :num_rows] += np.diag(slack)
            linear, coupling, big_v = _schur(a_hat, big_w)
            linear = linalg.symmetrize(linear) + np.diag(slack)
            h = rng.normal(size=m)
            base = 1e-13 * (1.0 + float(np.trace(gram)) / m)
            for ridge in (base, 1e5 * base):
                dy = _newton_solve(_eliminate(linear, coupling, big_v, ridge), h)
                dense = np.linalg.solve(gram + ridge * np.eye(m), h)
                assert np.linalg.norm(dy - dense) <= 1e-10 * np.linalg.norm(dense)


def spd_with_eigenvalues(rng, eigenvalues):
    """A symmetric matrix with the given eigenvalues and a random basis."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues),) * 2))
    return linalg.symmetrize((q * eigenvalues) @ q.T)


def scaling_stacks(rng):
    """Pairs of PD block stacks (X, Z), three blocks each, of every order
    from 2 to 21, then one ill-conditioned pair of order 8 shaped like a
    late iterate near the central path: X's eigenvalues spread over six
    decades, and X Z within 10% of 1e-6 I."""
    for k in range(2, 22):
        yield (
            np.array([rand_spd(k, rng) for _ in range(3)]),
            np.array([rand_spd(k, rng) for _ in range(3)]),
        )
    spread = np.logspace(-6, 0, 8)
    pairs = []
    for _ in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        near_mu = 1e-6 * rng.uniform(1.0, 1.1, 8)
        pairs.append([linalg.symmetrize((q * e) @ q.T) for e in (spread, near_mu / spread)])
    yield tuple(np.array(stack) for stack in zip(*pairs))


def scaled_directions(x, z, dx, dz):
    """Dense D_X = R^-1 ΔX R^-T and D_Z = R' ΔZ R, per block, with R = X^1/2
    V Λ^-1/2 from the eigendecomposition X^1/2 Z X^1/2 = V Λ² V' (the NT
    frame: R' Z R = R^-1 X R^-T = Λ, eigenvalues ascending).  Returns
    them with Λ."""
    out = []
    for x_n, z_n, dx_n, dz_n in zip(x, z, dx, dz):
        lam_x, vec_x = np.linalg.eigh(x_n)
        root = (vec_x * np.sqrt(lam_x)) @ vec_x.T
        lam2, v = np.linalg.eigh(root @ z_n @ root)
        lam = np.sqrt(lam2)
        r = root @ v / np.sqrt(lam)
        r_inv_dx = np.linalg.solve(r, dx_n)
        out.append((np.linalg.solve(r, r_inv_dx.T), r.T @ dz_n @ r, lam))
    return [np.array(stack) for stack in zip(*out)]


class TestNtScaling:
    """The scaling of :func:`_nt_scaling` and the step lengths read in its
    frames, against their definitions and the dense reference."""

    def test_scaling_meets_its_definition(self, rng):
        """W Z W = X; with Λ² the eigenvalues of X Z and R the dual frame
        times Λ^1/2, R R' = W and R' Z R = R^-1 X R^-T = Λ; Z^-1 Z = I;
        and W is the matrix-root form of the Nesterov-Todd point."""

        def close(a, b, tol=1e-9):
            assert np.linalg.norm(a - b) <= tol * np.linalg.norm(b)

        for x, z in scaling_stacks(rng):
            horizon, k, _ = x.shape
            big_w, z_inv, frames, lam = _nt_scaling(x, z)
            assert frames.shape == (2 * horizon, k, k)
            assert lam.shape == (horizon, k)
            for n in range(horizon):
                w_n, x_n, z_n = big_w[n], x[n], z[n]
                close(lam[n], np.sqrt(np.sort(np.linalg.eigvals(x_n @ z_n).real)))
                r = frames[horizon + n] * np.sqrt(lam[n])
                close(w_n @ z_n @ w_n, x_n)
                close(r @ r.T, w_n)
                close(r.T @ z_n @ r, np.diag(lam[n]))
                r_inv_x = np.linalg.solve(r, x_n)
                close(np.linalg.solve(r, r_inv_x.T), np.diag(lam[n]))
                close(z_inv[n] @ z_n, np.eye(k))
                close(w_n, nt_scaling(x_n, z_n), tol=1e-7)

    def test_step_lengths_match_the_dense_reference(self, rng):
        """Both stacked step lengths equal the smallest over the blocks of
        ``conftest.dense_max_psd_step`` on the same direction: random
        symmetric directions, and a PSD direction, whose step is infinite.
        The returned stack is exactly symmetric and equals Λ^-1/2 D Λ^-1/2
        for D_X = R^-1 ΔX R^-T over D_Z = R' ΔZ R, R the dual frame times
        Λ^1/2."""
        for x, z in scaling_stacks(rng):
            horizon, k, _ = x.shape
            _, _, frames, lam = _nt_scaling(x, z)
            dx = linalg.symmetrize(rng.normal(size=(horizon, k, k)))
            spd = np.array([rand_spd(k, rng) for _ in range(horizon)])
            for delta_x, delta_z in ((dx, -spd), (spd, dx), (-spd, -spd)):
                expected = [
                    min(dense_max_psd_step(np.linalg.cholesky(a), d) for a, d in zip(m, delta))
                    for m, delta in ((x, delta_x), (z, delta_z))
                ]
                psd_p, psd_d, inner = _psd_step_lengths(frames, delta_x, delta_z)
                assert (psd_p, psd_d) == pytest.approx(expected, rel=1e-9)
                assert np.array_equal(inner, inner.transpose(0, 2, 1))
                r = frames[horizon:] * np.sqrt(lam)[:, None, :]
                r_inv_dx = np.linalg.solve(r, delta_x)
                dense = np.concatenate([
                    np.linalg.solve(r, r_inv_dx.transpose(0, 2, 1)),
                    r.transpose(0, 2, 1) @ delta_z @ r,
                ])
                root = np.sqrt(np.concatenate([lam, lam]))
                scaled = root[:, :, None] * inner * root[:, None, :]
                assert np.linalg.norm(scaled - dense) <= 1e-7 * np.linalg.norm(dense)
            assert _psd_step_lengths(frames, spd, spd)[:2] == (np.inf, np.inf)

    @pytest.mark.parametrize("side", ["x", "z"])
    def test_iterate_outside_the_cone_is_reported(self, rng, side):
        """An X block with one negative eigenvalue (Z positive definite, so
        Z's Cholesky factor exists), or a Z block with one, raises
        LinAlgError, which the solver reports as NotConverged."""
        x = np.array([rand_spd(5, rng) for _ in range(3)])
        z = np.array([rand_spd(5, rng) for _ in range(3)])
        (x if side == "x" else z)[1] = spd_with_eigenvalues(rng, [-1e-3, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(np.linalg.LinAlgError):
            _nt_scaling(x, z)


class TestMehrotraCorrector:
    """The corrected complementarity right side that :func:`_sdp_ipm`'s
    ``step`` builds, target Z^-1 - X - :func:`_second_order`, against the
    scaled Newton equation it linearizes."""

    def test_corrected_direction_solves_the_scaled_equation(self, rng):
        """A direction with ΔX + W ΔZ W equal to that right side (how
        ``step`` sets ΔX from ΔZ) has, in the NT frame of
        :func:`scaled_directions`, D_X + D_Z = M with
        Λ M + M Λ = 2σμ I - 2Λ² - (D_Xa D_Za + D_Za D_Xa), the affine
        directions' second-order term; M comes from a dense Kronecker
        solve of that Lyapunov equation, whatever ΔZ is."""
        for x, z in scaling_stacks(rng):
            horizon, k, _ = x.shape
            big_w, z_inv, frames, lam = _nt_scaling(x, z)
            dx_aff, dz_aff, dz = (
                linalg.symmetrize(rng.normal(size=(horizon, k, k))) for _ in range(3)
            )
            target = float(rng.uniform(0.1, 1.0)) * float(np.mean(lam**2))
            inner = _psd_step_lengths(frames, dx_aff, dz_aff)[2]
            rc_mat = target * z_inv - x - _second_order(frames, lam, inner)
            dx = rc_mat - big_w @ dz @ big_w
            d_xa, d_za, lam_dense = scaled_directions(x, z, dx_aff, dz_aff)
            d_x, d_z, _ = scaled_directions(x, z, dx, dz)
            eye = np.eye(k)
            for n in range(horizon):
                lam_n = np.diag(lam_dense[n])
                rhs = 2.0 * target * eye - 2.0 * lam_n @ lam_n - (
                    d_xa[n] @ d_za[n] + d_za[n] @ d_xa[n]
                )
                lyapunov = np.kron(eye, lam_n) + np.kron(lam_n, eye)
                m = np.linalg.solve(lyapunov, rhs.ravel()).reshape(k, k)
                got = d_x[n] + d_z[n]
                assert np.linalg.norm(got - m) <= 1e-7 * np.linalg.norm(m)

    def test_zero_affine_direction_leaves_the_centered_step(self, rng):
        """Zero affine directions give an exactly zero second-order term,
        so the corrected right sides equal the centered step's target Z^-1
        - X and target - s w bit for bit."""
        for x, z in scaling_stacks(rng):
            _, z_inv, frames, lam = _nt_scaling(x, z)
            zeros = np.zeros_like(x)
            inner = _psd_step_lengths(frames, zeros, zeros)[2]
            term = _second_order(frames, lam, inner)
            assert not term.any()
            target = float(rng.uniform(0.1, 1.0))
            assert np.array_equal(target * z_inv - x - term, target * z_inv - x)
            s, w = rng.uniform(0.1, 1.0, size=(2, 5))
            ds, dw = np.zeros((2, 5))
            assert np.array_equal(target - s * w - ds * dw, target - s * w)


class TestSolveSdp:
    def test_zero_objective_unit_diagonal(self):
        scenario = two_sensor_scalar(0.2)
        sdp = build_sdp(build_bqp(scenario))
        no_rows = model.ConstraintRows(np.zeros((0, 2)), [], [])
        zeroed = replace(sdp, c_blocks=np.zeros_like(sdp.c_blocks), rows=no_rows, ones_quad=0.0)
        solution = solve_sdp(zeroed)
        assert solution.objective == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(np.diagonal(solution.blocks, axis1=1, axis2=2), 1.0, atol=1e-6)

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
        np.testing.assert_allclose(np.diagonal(solution.blocks, axis1=1, axis2=2), 1.0, atol=1e-6)

    def test_peak_memory_holds_no_constraint_stack(self):
        """Solving example5 (dim 126, 30 linear rows) allocates a few
        dim x dim arrays at a time: a stack of the 156 lifted constraint
        matrices alone would take 19.8 MB."""
        scenario = model.load_scenario("src/sensel/scenarios/example5.json")
        sdp = build_sdp(build_bqp(scenario))
        tracemalloc.start()
        try:
            solve_sdp(sdp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

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
            diagonal = np.diagonal(solution.blocks, axis1=1, axis2=2)
            np.testing.assert_allclose(diagonal, 1.0, atol=1e-6)
            best = min(bqp_objective(bqp, s) for s in enumerate_feasible(scenario))
            assert relaxation_bound(solution, sdp) <= best + 1e-6 * (1 + abs(best))


def jammer_instance(seed, per_step=(2,) * 5, energy=2):
    """20 sensors uniform over 600 m under example4's jammer, by default 5
    steps of 2 and a budget of 2: the generated SDR family of dimension
    101 (``perfbench/workloads.py``'s ``sdr_instance``)."""
    scenario = model.gen_uniform_scenario(
        20, 600.0, [(10.0, 10.0), (10.0, 10.0)], seed=seed,
        model="tracking", per_step=list(per_step), energy=energy, weights=[0.2] * 5,
        x0=[600.0, -20.0, 200.0, 0.0], p0=np.diag([100.0, 10.0, 100.0, 10.0]),
    )
    jam = model.load_scenario("src/sensel/scenarios/example4.json").noise.jammer
    return model.apply_jammer(scenario, jam.p0, jam.alpha, jam.n_exp, jam.position, jam.r0)


def assert_completed_blocks(solution, sdp):
    """The dense X completed from the blocks has a unit diagonal, is PSD,
    holds the blocks on the pattern and x_e x_e' / X_ee off it, and tr(C X)
    equals the reported objective."""
    x = dense_completion(solution.blocks)
    horizon, k, _ = solution.blocks.shape
    num = k - 1
    assert x.shape == (sdp.dim, sdp.dim)
    assert np.array_equal(x, x.T)
    np.testing.assert_allclose(np.diag(x), 1.0, atol=1e-6)
    np.testing.assert_allclose(solution.blocks[:, -1, -1], x[-1, -1], atol=1e-6)
    assert float(np.linalg.eigvalsh(x)[0]) >= -1e-9
    on_pattern = np.zeros(x.shape, dtype=bool)
    on_pattern[-1, :] = on_pattern[:, -1] = True
    for n, block in enumerate(solution.blocks):
        rows = slice(n * num, (n + 1) * num)
        on_pattern[rows, rows] = True
        assert np.array_equal(x[rows, rows], block[:num, :num])
        assert np.array_equal(x[rows, -1], block[:num, num])
    border = x[:-1, -1]
    assert np.array_equal(x[:-1, :-1][~on_pattern[:-1, :-1]],
                          (np.outer(border, border) / x[-1, -1])[~on_pattern[:-1, :-1]])
    assert float(np.tensordot(dense_cost(sdp), x)) == pytest.approx(
        solution.objective, rel=1e-12, abs=1e-12
    )


class TestBlockSolver:
    """The solver over one PSD block per step against the dense solver it
    replaced (``conftest.dense_solve_sdp``)."""

    @staticmethod
    def check_against_dense(sdp, dense):
        block = solve_sdp(sdp)
        assert block.gap <= _TOL
        assert block.objective == pytest.approx(dense.objective, rel=1e-6)
        assert_completed_blocks(block, sdp)
        return block

    @pytest.mark.parametrize("name", ["example2", "example4", "example5", "example6"])
    def test_bundled_objectives_match_dense(self, name):
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        sdp = build_sdp(build_bqp(scenario))
        self.check_against_dense(sdp, dense_solve_sdp(sdp))

    def test_jammer_family_matches_dense(self):
        sdp = build_sdp(build_bqp(jammer_instance(2)))
        self.check_against_dense(sdp, dense_solve_sdp(sdp))

    @pytest.mark.parametrize("seed", range(4))
    def test_exhausted_budgets_match_dense(self, seed):
        """Four sensors per step and a budget of one each: the counts use
        the budgets up exactly, so ``build_sdp`` makes the budget rows
        equalities.  The count rows and the budget rows then sum to the
        same row, which leaves the eliminated complement S singular up to
        the ridge; the solve still meets the tolerance and the dense
        oracle's objective."""
        sdp = build_sdp(build_bqp(jammer_instance(seed, per_step=(4,) * 5, energy=[1] * 20)))
        assert not sdp.rows.sense.any()
        ones = np.ones(5)
        assert np.allclose(ones @ sdp.rows.a[:5], np.ones(20) @ sdp.rows.a[5:])
        self.check_against_dense(sdp, dense_solve_sdp(sdp))

    def test_factors_no_matrix_above_the_block_order(self, monkeypatch):
        """One solve on the generated SDR family (p = 25 linear rows, blocks
        of order k = 21) factors and inverts no matrix of order above
        max(p, k): the (p + N*k) = 130 Newton matrix is never formed."""
        sdp = build_sdp(build_bqp(jammer_instance(1)))
        orders = []
        for name in ("cholesky", "inv", "solve"):
            def recorded(a, *args, _call=getattr(np.linalg, name), **kwargs):
                orders.append(np.shape(a)[-1])
                return _call(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        solution = solve_sdp(sdp)
        monkeypatch.undo()
        assert solution.gap <= _TOL
        p, k = len(sdp.rows), sdp.c_blocks.shape[1]
        assert (p, k) == (25, 21)
        assert len(orders) >= 4 * solution.iterations
        assert max(orders) <= max(p, k)

    def test_random_objectives_match_dense_and_bound_the_optimum(self, rng):
        """20 random correlated instances, every third with a random extra
        row; the bound stays at or below the enumerated optimum.  A random
        row can leave the relaxation with no strictly feasible point, which
        neither solver handles yet: there both raise NotConverged."""
        no_interior = 0
        for trial in range(20):
            num = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 4))
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=True,
                per_step=[int(rng.integers(1, num)) for _ in range(horizon)],
            )
            if trial % 3 == 0:
                scenario = with_random_extra_row(rng, scenario)
            bqp = build_bqp(scenario)
            sdp = build_sdp(bqp)
            try:
                dense = dense_solve_sdp(sdp)
            except NotConverged:
                with pytest.raises(NotConverged):
                    solve_sdp(sdp)
                no_interior += 1
                continue
            solution = self.check_against_dense(sdp, dense)
            best = min(bqp_objective(bqp, s) for s in enumerate_feasible(scenario))
            assert relaxation_bound(solution, sdp) <= best + 1e-6 * (1 + abs(best))
        assert no_interior <= 1

    def test_row_with_no_interior(self):
        """example5 plus the row sum_n g_3n <= 0, which forces sensor 3 off
        and leaves the relaxation without a strictly feasible point: the
        solve still meets its tolerance and no rounded schedule picks 3."""
        scenario = model.load_scenario("src/sensel/scenarios/example5.json")
        cons = scenario.constraints
        a = np.zeros(scenario.num_sensors * scenario.horizon)
        a[3 :: scenario.num_sensors] = 1.0
        scenario = replace(scenario, constraints=model.ConstraintSet.build(
            cons.per_step, energy=cons.energy,
            extra=[(a, "<=", 0.0)],
        ))
        solution = solve_sdp(build_sdp(build_bqp(scenario)))
        assert solution.gap <= _TOL
        for seed in range(5):
            rounded = randomize_round(solution, scenario, 100, seed)
            assert not rounded.schedule.gamma[3].any()
            assert rounded.schedule.satisfies(scenario.constraints)


def lp_reference_instances(rng):
    """Random scenarios whose relaxation is exactly an LP: 1- to 3-row
    sensors under full per-sensor noise blocks (block-diagonal noise),
    per-sensor budgets on every second, a zero step weight on every third,
    and 0-3 extra rows of the senses <=, >=, = in turn.  Every row is met
    by the uniform point g = m_n / L, strictly inside the box, with slack
    on the inequalities, so both relaxations have a strictly feasible
    point."""
    for trial in range(24):
        num = int(rng.integers(3, 7))
        horizon = int(rng.integers(1, 4))
        per_step = [int(rng.integers(1, num)) for _ in range(horizon)]
        uniform = np.repeat(np.array(per_step) / num, num)
        energy = None
        if trial % 2:
            floor = sum(per_step) // num
            energy = [floor + 1 + int(rng.integers(0, 2)) for _ in range(num)]
        weights = rng.uniform(0.1, 1.0, size=horizon)
        if trial % 3 == 1:
            weights[int(rng.integers(horizon))] = 0.0
        sizes = [int(d) for d in rng.integers(1, 4, size=num)]
        scenario = rand_scenario(
            rng, num_sensors=num, horizon=horizon, state_dim=3, meas_dims=sizes,
            per_step=per_step, energy=energy, weights=weights,
        )
        noise = model.NoiseModel.build(sizes, base_blocks=[rand_spd(d, rng) for d in sizes])
        extra = []
        for relation in ("<=", ">=", "=")[: trial % 4]:
            a = rng.integers(-2, 3, size=num * horizon).astype(float)
            slack = {"<=": 1.0, ">=": -1.0, "=": 0.0}[relation] * rng.uniform(0.1, 1.0)
            extra.append((a, relation, float(a @ uniform) + slack))
        yield replace(scenario, noise=noise, constraints=model.ConstraintSet.build(
            per_step, energy=energy, extra=extra,
        ))


class TestLpReference:
    """Under block-diagonal noise every B_n is diagonal, so the lifted cost
    and every lifted row read only the border x_n = X_n[:L, e]; any x in
    [-1, 1] meeting the rows extends to the feasible block [[x x' +
    Diag(1 - x²), x], [x', 1]].  The relaxation's optimum is then exactly
    the LP relaxation's, mapped to ±1 variables: -4 f_lp - ones_quad."""

    def test_relaxation_equals_the_lp_optimum(self, rng):
        """On :func:`lp_reference_instances` the two optima agree within
        the solver's tolerance in its own relative-gap normalization."""
        senses = set()
        for scenario in lp_reference_instances(rng):
            if scenario.constraints.extra is not None:
                senses.update(scenario.constraints.extra.sense)
            sdp = build_sdp(build_bqp(scenario))
            solution = solve_sdp(sdp)
            lifted = -4.0 * solve_lp(build_lp(scenario)).objective - sdp.ones_quad
            assert abs(solution.objective - lifted) <= _TOL * (
                1.0 + abs(solution.objective) + abs(lifted)
            )
        assert senses == {-1.0, 0.0, 1.0}


def solve_recording_start(monkeypatch, sdp):
    """Solve ``sdp`` and return the solution with the primal start, blocks
    and slacks, that :func:`_primal_start` handed the interior point."""
    starts = []

    def recorded(*args):
        starts.append(_primal_start(*args))
        return starts[-1]

    monkeypatch.setattr(select_sdr, "_primal_start", recorded)
    solution = solve_sdp(sdp)
    monkeypatch.undo()
    assert len(starts) == 1
    return solution, starts[0]


def uniform_border(scenario):
    """x = 2 m_n / L - 1 in every step: the uniform selection in +/-1."""
    per_step = np.asarray(scenario.constraints.per_step, dtype=float)
    return np.repeat(2.0 * per_step / scenario.num_sensors - 1.0, scenario.num_sensors)


class TestPrimalStart:
    """The interior point starts from the selection nearest 1/2 that meets
    every equality row, lifted to one positive definite unit-diagonal block
    per step; each inequality row's slack is its residual there, or the
    dual start's scale where the point does not meet the row strictly."""

    @staticmethod
    def check_start(sdp, start):
        """The blocks are positive definite with an exactly unit diagonal
        and the equality rows hold to rounding.  Every inequality slack is
        positive: the row's residual where that is positive, the same
        value on every row the point does not meet strictly.  Returns the
        border x and whether each inequality row is met strictly."""
        blocks, slack = start
        rows = sdp.rows
        horizon, k, _ = blocks.shape
        assert np.array_equal(np.diagonal(blocks, axis1=1, axis2=2), np.ones((horizon, k)))
        assert float(np.linalg.eigvalsh(blocks)[:, 0].min()) > 0.0
        x = blocks[:, :-1, -1].ravel()
        # In 0/1 variables g = (x + 1) / 2 a lifted row reads a'g (sense) (b + sum a) / 4.
        lhs = rows.a @ ((x + 1.0) / 2.0)
        rhs = (rows.b + rows.a.sum(axis=1)) / 4.0
        eq = rows.sense == 0.0
        tol = 1e-12 * (1.0 + float(np.abs(rows.a).sum(axis=1).max(initial=0.0)))
        np.testing.assert_allclose(lhs[eq], rhs[eq], rtol=0.0, atol=tol)
        p = len(rows)
        assert not slack[:p][eq].any() and not slack[p:].any()
        ineq_slack = slack[:p][~eq]
        assert (ineq_slack > 0.0).all()
        residual = 4.0 * rows.sense[~eq] * (rhs - lhs)[~eq]
        met = residual > 0.0
        np.testing.assert_allclose(ineq_slack[met], residual[met], rtol=1e-12, atol=tol)
        assert len(set(ineq_slack[~met])) <= 1
        return x, met

    @pytest.mark.parametrize("seed", [1, 1302])
    def test_sdr_plan_family_starts_at_the_uniform_selection(self, monkeypatch, seed):
        """The generated SDR family (5 steps of 2 of 20, budget 2): the
        start is x = 2 * 2/20 - 1 everywhere and meets every budget row
        strictly."""
        scenario = jammer_instance(seed)
        sdp = build_sdp(build_bqp(scenario))
        solution, start = solve_recording_start(monkeypatch, sdp)
        x, met = self.check_start(sdp, start)
        np.testing.assert_allclose(x, uniform_border(scenario), rtol=0.0, atol=1e-14)
        assert met.size == 20 and met.all()
        assert solution.gap <= _TOL

    def test_lp_reference_instances_start_at_the_uniform_selection(self, monkeypatch, rng):
        """The uniform point meets every row of :func:`lp_reference_instances`,
        extra equalities included, so it is also the nearest point to 1/2
        that meets the equalities: the start, with every inequality met
        strictly."""
        for scenario in lp_reference_instances(rng):
            sdp = build_sdp(build_bqp(scenario))
            solution, start = solve_recording_start(monkeypatch, sdp)
            x, met = self.check_start(sdp, start)
            np.testing.assert_allclose(x, uniform_border(scenario), rtol=0.0, atol=1e-12)
            assert met.all()
            assert solution.gap <= _TOL

    def test_exhausted_budgets_hold_as_equalities(self, monkeypatch):
        """Four of 20 sensors in each of 5 steps against budgets of one:
        ``build_sdp`` makes the budgets equalities, which with the counts
        form a rank-deficient system; the start meets all of them."""
        sdp = build_sdp(build_bqp(jammer_instance(0, per_step=(4,) * 5, energy=[1] * 20)))
        solution, start = solve_recording_start(monkeypatch, sdp)
        x, met = self.check_start(sdp, start)
        assert met.size == 0
        np.testing.assert_allclose(x, 2.0 * 4 / 20 - 1.0, rtol=0.0, atol=1e-12)
        assert solution.gap <= _TOL

    def test_budget_row_the_uniform_point_violates(self, monkeypatch, rng):
        """Six sensors, steps of 3 and 4, budgets (2, 2, 2, 1, 1, 2): the
        uniform point spends 1/2 + 2/3 of sensors 3 and 4, over their
        budget of 1 by 1/6, a lifted residual of -2/3.  Those rows keep the
        fallback slack, and the solve still meets its tolerance."""
        scenario = rand_scenario(
            rng, num_sensors=6, horizon=2, correlated=True,
            per_step=[3, 4], energy=[2, 2, 2, 1, 1, 2],
        )
        bqp = build_bqp(scenario)
        sdp = build_sdp(bqp)
        solution, start = solve_recording_start(monkeypatch, sdp)
        x, met = self.check_start(sdp, start)
        np.testing.assert_allclose(x, uniform_border(scenario), rtol=0.0, atol=1e-14)
        assert list(met) == [True, True, True, False, False, True]
        assert solution.gap <= _TOL
        best = min(bqp_objective(bqp, s) for s in enumerate_feasible(scenario))
        assert relaxation_bound(solution, sdp) <= best + 1e-6 * (1 + abs(best))

    def test_extra_ge_row_the_uniform_point_violates(self, monkeypatch):
        """example5 plus sum_n g_0n >= 1, which the uniform point (0.4)
        misses: the row keeps the fallback slack, every rounded schedule
        uses sensor 0, and the solve still meets its tolerance."""
        scenario = model.load_scenario("src/sensel/scenarios/example5.json")
        cons = scenario.constraints
        a = np.zeros(scenario.num_sensors * scenario.horizon)
        a[0 :: scenario.num_sensors] = 1.0
        scenario = replace(scenario, constraints=model.ConstraintSet.build(
            cons.per_step, energy=cons.energy, extra=[(a, ">=", 1.0)],
        ))
        sdp = build_sdp(build_bqp(scenario))
        solution, start = solve_recording_start(monkeypatch, sdp)
        x, met = self.check_start(sdp, start)
        np.testing.assert_allclose(x, uniform_border(scenario), rtol=0.0, atol=1e-14)
        assert met[:-1].all() and not met[-1]
        assert solution.gap <= _TOL
        rounded = randomize_round(solution, scenario, 100, 0)
        assert rounded.schedule.gamma[0].any()

    def test_step_that_selects_every_sensor_is_clipped(self, monkeypatch):
        """example5 with a first step of all 25 sensors: there g = 1, whose
        lift is singular, so the start holds x = 1 - _START_CLIP in that
        step and the uniform point elsewhere.  The clipped count row is
        missed by the start and met by the solution."""
        scenario = model.load_scenario("src/sensel/scenarios/example5.json")
        cons = scenario.constraints
        scenario = replace(scenario, constraints=model.ConstraintSet.build(
            [25, *cons.per_step[1:]], energy=cons.energy,
        ))
        sdp = build_sdp(build_bqp(scenario))
        solution, (blocks, _) = solve_recording_start(monkeypatch, sdp)
        assert np.array_equal(np.diagonal(blocks, axis1=1, axis2=2), np.ones((5, 26)))
        assert float(np.linalg.eigvalsh(blocks)[:, 0].min()) > 0.0
        expected = uniform_border(scenario).reshape(5, 25)
        expected[0] = 1.0 - _START_CLIP
        np.testing.assert_allclose(blocks[:, :-1, -1], expected, rtol=0.0, atol=1e-12)
        assert solution.gap <= _TOL
        np.testing.assert_allclose(solution.blocks[0, :-1, -1], 1.0, atol=1e-3)

    def test_no_rows_start_at_the_identity(self, monkeypatch):
        scenario = two_sensor_scalar(0.2)
        sdp = build_sdp(build_bqp(scenario))
        no_rows = model.ConstraintRows(np.zeros((0, 2)), [], [])
        _, (blocks, slack) = solve_recording_start(monkeypatch, replace(sdp, rows=no_rows))
        assert np.array_equal(blocks, np.eye(3)[None])
        assert not slack.any()


def synthetic_solution(schur, border, corner=1.0):
    """One-step SdpSolution whose block has the given Schur complement
    X[:L, :L] - b b' / c, border b and corner c."""
    border = np.asarray(border, dtype=float)
    block = np.block([
        [schur + np.outer(border, border) / corner, border[:, None]],
        [border[None, :], np.array([[corner]])],
    ])
    return SdpSolution(blocks=block[None], objective=0.0, gap=0.0, iterations=1)


def band_of(schur):
    """The sampling factor's band around zero for a Schur complement."""
    return 1e-6 * (1.0 + float(np.abs(schur).max()))


class TestSamplingFactor:
    """The (sum_n r_n + 1, N*L) factor M built from the blocks against the
    dense maximum-determinant completion (``conftest.dense_completion``)
    whose Schur eigenvalues within the band of zero are set to zero; r_n
    counts step n's eigenvalues above the band."""

    @staticmethod
    def assert_factor_completes(solution):
        factor = solution.sampling_factor
        horizon, k, _ = solution.blocks.shape
        num = k - 1
        dense = dense_completion(solution.blocks)
        border, corner = dense[:-1, -1], dense[-1, -1]
        # Given the corner the completion's Schur complement is block
        # diagonal, one block per step.
        schur = dense[:-1, :-1] - np.outer(border, border) / corner
        steps = [slice(n * num, (n + 1) * num) for n in range(horizon)]
        band = band_of(np.array([schur[s, s] for s in steps]))
        reference = np.outer(border, border) / corner
        ranks = []
        for s in steps:
            lam, vec = np.linalg.eigh(schur[s, s])
            assert lam.min() >= -band
            kept = lam > band
            ranks.append(int(kept.sum()))
            reference[s, s] += (vec[:, kept] * lam[kept]) @ vec[:, kept].T
        assert factor.shape == (sum(ranks) + 1, horizon * num)
        assert np.abs(factor.T @ factor - reference).max() <= 1e-12 * np.abs(dense).max()
        return ranks

    @pytest.mark.parametrize("name", ["example4", "example5", "example6", "example7"])
    def test_bundled_factor_equals_the_dense_completion(self, name):
        scenario = model.load_scenario(f"src/sensel/scenarios/{name}.json")
        solution = solve_sdp(build_sdp(build_bqp(scenario)))
        self.assert_factor_completes(solution)

    def test_random_factor_equals_the_dense_completion(self, rng):
        for _ in range(10):
            num = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 4))
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, correlated=True,
                per_step=[int(rng.integers(1, num)) for _ in range(horizon)],
            )
            self.assert_factor_completes(solve_sdp(build_sdp(build_bqp(scenario))))

    def test_clips_slightly_negative(self):
        """A Schur eigenvalue of -1e-10 is clipped to zero, not rejected."""
        border = np.array([0.3, -0.2])
        factor = synthetic_solution(np.diag([1.0, -1e-10]), border).sampling_factor
        np.testing.assert_array_equal(factor[-1], border)
        schur = factor[:-1].T @ factor[:-1]
        np.testing.assert_allclose(schur, np.diag([1.0, 0.0]), atol=1e-12)
        assert linalg.min_eigenvalue(schur) >= -1e-15

    def test_rejects_clearly_indefinite(self):
        with pytest.raises(NotPSD):
            _ = synthetic_solution(np.diag([1.0, -0.5]), [0.3, -0.2]).sampling_factor

    @pytest.mark.parametrize("ratio, rows", [(0.5, 2), (2.0, 3)], ids=["half", "twice"])
    def test_row_per_eigenvalue_above_the_band(self, ratio, rows):
        """An eigenvalue at half the band gets no row; one at twice the
        band keeps its row, of squared norm that eigenvalue."""
        border = np.array([0.3, -0.2])
        small = ratio * band_of(np.eye(2))
        factor = synthetic_solution(np.diag([1.0, small]), border).sampling_factor
        assert factor.shape == (rows, 2)
        np.testing.assert_array_equal(factor[-1], border)
        self.assert_factor_completes(synthetic_solution(np.diag([1.0, small]), border))
        if rows == 3:
            np.testing.assert_allclose(factor[0] @ factor[0], small, rtol=1e-9)

    def test_rank_zero_step_leaves_the_border_row(self):
        border = np.array([0.3, -0.2, 0.5])
        solution = synthetic_solution(np.zeros((3, 3)), border, corner=4.0)
        np.testing.assert_array_equal(solution.sampling_factor, border[None] / 2.0)
        assert self.assert_factor_completes(solution) == [0]

    def test_samples_no_matrix_above_the_block_order(self, monkeypatch):
        """Sampling from a solution of the generated SDR family (N = 5
        blocks of L = 20 sensors, dim 101) eigendecomposes or factors no
        matrix of order above L: the dense lifted matrix is never formed."""
        scenario = jammer_instance(1)
        solution = solve_sdp(build_sdp(build_bqp(scenario)))
        # A first rounding, on a copy with its own factor cache, fills the
        # noise models' caches; only the sampling is counted below.
        randomize_round(replace(solution), scenario, 20, 0)
        orders = []
        for name in ("eigh", "eigvalsh", "cholesky", "svd"):
            def recorded(a, *args, _call=getattr(np.linalg, name), **kwargs):
                orders.append(np.shape(a)[-1])
                return _call(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        rounded = randomize_round(solution, scenario, 20, 0)
        monkeypatch.undo()
        assert rounded.schedule.satisfies(scenario.constraints)
        assert orders and max(orders) <= scenario.num_sensors == 20


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
        trace_best = measure.objective_value("f1", rounded.schedule, scenario)
        assert rounded.objective == pytest.approx(trace_best)
        exhaustive_best = min(
            measure.objective_value("f1", s, scenario)
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

    def test_f3_values_match_per_column_gain_loop(self, rng):
        """The batched f3 (stacked solves over each step's distinct
        columns) is bit for bit the step-order sum of
        one-column ``filter.selection_gains`` traces; mixed
        measurement dimensions, a weight-0 step and empty columns included."""
        for trial in range(6):
            num, horizon = 6, 3
            weights = rng.uniform(0.1, 1.0, size=horizon)
            weights[trial % horizon] = 0.0
            scenario = rand_scenario(
                rng, num_sensors=num, horizon=horizon, state_dim=int(rng.integers(1, 5)),
                meas_dims=[1, 2, 3, 1, 2, 1], correlated=bool(trial % 2),
                per_step=[2] * horizon, weights=weights,
            )
            gammas = rng.integers(0, 2, size=(40, horizon, num)).astype(np.int8)
            gammas[:3, 1] = 0  # empty selections
            gammas[20:30] = gammas[:10]  # repeated columns
            expected = []
            for gamma in gammas:
                total = 0.0
                for n in range(horizon):
                    if weights[n] != 0.0:
                        gain = selection_gain(scenario, gamma[n], n)
                        total = total + float(weights[n]) * float(np.trace(gain))
                expected.append(total)
            np.testing.assert_array_equal(measure.f3_values(gammas, scenario), expected)

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
                assert rounded.objective == measure.objective_f3(
                    rounded.schedule, scenario
                )
        assert outcomes["met"] > 0 and outcomes["infeasible"] > 0


class TestIgnoreDependence:
    def test_uncorrelated_equals_topk(self, rng):
        scenario = rand_scenario(
            rng, num_sensors=5, horizon=2, correlated=False, per_step=[2, 3],
        )
        schedule = select_ignore_dependence(scenario)
        np.testing.assert_array_equal(schedule.gamma, topk_schedule(scenario).gamma)

    def test_zero_power_jammer_equals_topk(self):
        scenario = model.load_scenario("src/sensel/scenarios/example4.json")
        powerless = model.apply_jammer(
            scenario, 0.0, 1.0, 2.0, [550.0, 200.0], np.eye(2)
        )
        schedule = select_ignore_dependence(powerless)
        np.testing.assert_array_equal(schedule.gamma, topk_schedule(powerless).gamma)

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
