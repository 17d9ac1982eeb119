"""Shared helpers for building randomized test instances."""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from sensel import linalg, model, select_sdr
from sensel.errors import Infeasible, NotConverged, NotPositiveDefinite, SenselError
from sensel.filter import covariance_rollout, selection_gains
from sensel.select_lp import _FEAS_TOL, _TOL, _basis_solve
from sensel.sim import RunResult

# Each relation's slack sign in ``model.ConstraintRows``, written out here
# independently of the package's own mapping.
SENSE = {"<=": 1.0, "=": 0.0, ">=": -1.0}
RELATION = {sense: relation for relation, sense in SENSE.items()}


def senses(relations) -> np.ndarray:
    """The sense array of a list of relation strings."""
    return np.array([SENSE[r] for r in relations])


def rand_spd(n: int, rng: np.random.Generator, ridge: float = 0.5) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T + ridge * np.eye(n)


def rand_correlated_noise(sizes, rng, ridge=1.0) -> model.NoiseModel:
    dim = sum(sizes)
    return model.NoiseModel.from_full(rand_spd(dim, rng, ridge), sizes)


def rand_diagonal_noise(sizes, rng, lo=0.5, hi=5.0) -> model.NoiseModel:
    blocks = [np.diag(rng.uniform(lo, hi, size=n)) for n in sizes]
    return model.NoiseModel.build(sizes, base_blocks=blocks)


def rand_scenario(
    rng: np.random.Generator,
    num_sensors: int,
    horizon: int,
    state_dim: int = 2,
    meas_dims=None,
    correlated: bool = False,
    per_step=None,
    energy=None,
    weights=None,
) -> model.Scenario:
    """Small random scenario with a stable (near-identity) transition."""
    sizes = list(meas_dims) if meas_dims is not None else [
        int(rng.integers(1, 3)) for _ in range(num_sensors)
    ]
    f = np.eye(state_dim) + 0.1 * rng.normal(size=(state_dim, state_dim))
    system = model.DynamicSystem.build(f, rand_spd(state_dim, rng))
    hs, positions = zip(
        *[(rng.normal(size=(n, state_dim)), rng.uniform(0.0, 100.0, size=2)) for n in sizes]
    )
    sensors = model.SensorModel.build_all(hs, positions)
    noise = (
        rand_correlated_noise(sizes, rng)
        if correlated
        else rand_diagonal_noise(sizes, rng)
    )
    if per_step is None:
        per_step = [int(rng.integers(1, num_sensors + 1)) for _ in range(horizon)]
    constraints = model.ConstraintSet.build(per_step, energy=energy)
    if weights is None:
        weights = rng.uniform(0.1, 1.0, size=horizon)
    return model.make_scenario(
        system,
        sensors,
        noise,
        constraints,
        weights,
        x0=rng.normal(size=state_dim),
        p0=rand_spd(state_dim, rng),
        seed=int(rng.integers(0, 2**31)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def matrix_reads(monkeypatch):
    """Every assembly of a constraint matrix from count or budget structure
    (a first read of ``ConstraintRows.a``), as the row count of each."""
    log = []
    cached = vars(model.ConstraintRows)["a"]
    assemble = cached.func

    def counting(rows):
        if len(rows) > rows.dense.shape[0]:
            log.append(len(rows))
        return assemble(rows)

    monkeypatch.setattr(cached, "func", counting)
    return log


def loop_round_by_scores(scores, constraints, weights) -> np.ndarray:
    """Reference greedy rounding: the per-candidate Python loop that the
    batched rounder replaced.  Checks counts and budgets only; returns the
    sensors-by-steps 0/1 matrix or raises RoundingInfeasible."""
    from sensel.errors import RoundingInfeasible

    scores = np.asarray(scores, dtype=float)
    num, horizon = scores.shape
    weights = np.asarray(weights, dtype=float)
    order = sorted(range(horizon), key=lambda n: (-weights[n], -n))
    budgets = None if constraints.energy is None else list(constraints.energy)
    gamma = np.zeros((num, horizon), dtype=np.int8)
    for n in order:
        m = constraints.per_step[n]
        candidates = [i for i in range(num) if budgets is None or budgets[i] > 0]
        if len(candidates) < m:
            raise RoundingInfeasible(f"step {n}: out of budgeted sensors")
        chosen = sorted(candidates, key=lambda i: (-scores[i, n], i))[:m]
        gamma[chosen, n] = 1
        if budgets is not None:
            for i in chosen:
                budgets[i] -= 1
    return gamma


def enumerate_feasible(scenario, batch: int = 4096):
    """Every schedule that meets the scenario's constraint set, in the
    order of ``itertools.product`` over the steps' count-sized
    ``itertools.combinations``.  Candidates are built ``batch`` at a time
    as step-major 0/1 rows and checked with one constraint-row product per
    batch; only the feasible ones become schedules."""
    num, horizon = scenario.num_sensors, scenario.horizon
    rows = scenario.constraints.rows(num)
    columns = []
    for m in scenario.constraints.per_step:
        chosen = np.array(list(itertools.combinations(range(num), m)))
        column = np.zeros((len(chosen), num), dtype=np.int8)
        np.put_along_axis(column, chosen, 1, axis=1)
        columns.append(column)
    radices = [len(column) for column in columns]
    total = math.prod(radices)
    for start in range(0, total, batch):
        picks = np.unravel_index(np.arange(start, min(start + batch, total)), radices)
        vectors = np.concatenate([column[pick] for column, pick in zip(columns, picks)], axis=1)
        for vector in vectors[rows.meets(vectors @ rows.a.T).all(axis=1)]:
            yield model.SelectionSchedule.build(vector.reshape(horizon, num).T)


def loop_enumerate_feasible(scenario):
    """Reference for :func:`enumerate_feasible`: one schedule and one
    ``satisfies`` check per candidate, as it was before batching."""
    pools = [
        itertools.combinations(range(scenario.num_sensors), m)
        for m in scenario.constraints.per_step
    ]
    for combo in itertools.product(*pools):
        gamma = np.zeros((scenario.num_sensors, scenario.horizon), dtype=np.int8)
        for n, chosen in enumerate(combo):
            gamma[list(chosen), n] = 1
        schedule = model.SelectionSchedule.build(gamma)
        if schedule.satisfies(scenario.constraints):
            yield schedule


def with_random_extra_row(rng, scenario) -> model.Scenario:
    """The scenario plus one random integer row that a randomly chosen
    feasible schedule meets, so the Boolean problem stays feasible."""
    feasible = list(enumerate_feasible(scenario))
    target = feasible[int(rng.integers(len(feasible)))]
    a = rng.integers(-2, 3, size=scenario.num_sensors * scenario.horizon).astype(float)
    relation = str(rng.choice(["<=", ">="]))
    row = (a, relation, float(a @ target.gamma_vec()))
    cons = scenario.constraints
    constraints = model.ConstraintSet.build(cons.per_step, energy=cons.energy, extra=[row])
    return replace(scenario, constraints=constraints)


# The per-sensor measure as ``measure.info_table`` computed it, one solve
# per sensor and step, before it batched each step; kept as the reference
# for the batched table.  ``r_block`` is an exactly symmetric block of a
# checked noise model, so it is solved as it is.
def sensor_measure(h: np.ndarray, r_block: np.ndarray) -> float:
    """Per-sensor information measure trace(H' R^-1 H); nonnegative."""
    h = np.asarray(h, dtype=float)
    try:
        np.linalg.cholesky(r_block)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("noise block is not positive definite") from None
    return float(np.trace(h.T @ np.linalg.solve(r_block, h)))


def noise_block(noise: model.NoiseModel, i: int, j: int) -> np.ndarray:
    """Sensor i's rows by sensor j's columns of the joint noise covariance,
    read by one ``NoiseModel.entries`` of the two sensors' rows."""
    off = noise.offsets
    rows = np.r_[off[i] : off[i + 1], off[j] : off[j + 1]]
    k = off[i + 1] - off[i]
    return noise.entries(rows[None])[0, :k, k:]


def selection_gain(scenario, gamma_col, step: int = 0) -> np.ndarray:
    """Information gain of one selection column: ``filter.selection_gains``
    on a one-column batch, symmetrized as the objectives use it."""
    column = np.asarray(gamma_col)[None]
    return linalg.symmetrize(selection_gains(scenario, column, step))[0]


def step_gains(scenario, gammas) -> list[np.ndarray]:
    """Each step's symmetrized selection gains of a (B, horizon, num) 0/1
    batch, as ``measure.objective_values`` hands them to the rollout."""
    return [
        linalg.symmetrize(selection_gains(scenario, gammas[:, n], n))
        for n in range(gammas.shape[1])
    ]


def schedule_rollout(scenario, schedule) -> list[np.ndarray]:
    """Posterior covariances of one schedule: ``filter.covariance_rollout``
    of a one-schedule batch."""
    gains = step_gains(scenario, schedule.gamma.T[None])
    return [p[0] for p in covariance_rollout(scenario, gains)]


# The lifted constraint matrix of one linear row as the SDP solver built it
# before it worked from the closed forms of the two constraint shapes, kept
# unchanged as the dense reference for those forms.
def lifted_row_matrix(a: np.ndarray, dim: int) -> np.ndarray:
    """Materialize the lifted constraint matrix of one linear row."""
    e = np.zeros((dim, dim))
    nl = dim - 1
    e[:nl, :nl] = np.diag(a)
    e[:nl, nl] = a
    e[nl, :nl] = a
    return e


# The SDP solver as it stood before it split the relaxation into one PSD
# block per step: one dense dim x dim matrix variable with the closed forms
# of its two constraint shapes, kept unchanged (but for its cost, assembled
# from the blocks by ``dense_cost``) as the oracle for the block solver.
@dataclass(frozen=True)
class DenseSolution:
    x: np.ndarray
    objective: float
    gap: float
    iterations: int


def dense_cost(sdp) -> np.ndarray:
    """The dense lifted cost C: every step's block on the diagonal, its
    border in the shared last row and column, a zero corner."""
    horizon, k, _ = sdp.c_blocks.shape
    num = k - 1
    c = np.zeros((sdp.dim, sdp.dim))
    for n, block in enumerate(sdp.c_blocks):
        rows = slice(n * num, (n + 1) * num)
        c[rows, rows] = block[:num, :num]
        c[rows, -1] = block[:num, num]
        c[-1, rows] = block[num, :num]
    return c


def dense_completion(blocks: np.ndarray) -> np.ndarray:
    """Reference: the dense lifted matrix that the per-step blocks (N, k, k)
    complete to, by maximum determinant.  Each step's block sits on the
    pattern, and off it X[i, j] = X[i, e] X[j, e] / X_ee.  X_ee is the
    largest corner, which keeps the completion PSD whenever every block is."""
    horizon, k, _ = blocks.shape
    num = k - 1
    border = blocks[:, :num, num].ravel()
    corner = float(blocks[:, num, num].max())
    x = np.empty((horizon * num + 1,) * 2)
    x[:-1, :-1] = np.outer(border, border) / corner
    for n, block in enumerate(blocks):
        x[n * num : (n + 1) * num, n * num : (n + 1) * num] = block[:num, :num]
    x[:-1, -1] = border
    x[-1, :-1] = border
    x[-1, -1] = corner
    return x


def dense_solve_sdp(sdp) -> DenseSolution:
    """Solve the relaxation over one dense unit-diagonal PSD matrix."""
    a_hat = np.array([np.append(a, 0.0) for a in sdp.rows.a]).reshape(-1, sdp.dim)
    rels = [RELATION[sense] for sense in sdp.rows.sense] + ["="] * sdp.dim
    rhs = np.array(list(sdp.rows.b) + [1.0] * sdp.dim)
    return dense_sdp_ipm(dense_cost(sdp), a_hat, rels, rhs)


def dense_operator(a_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A(X): every linear row's tr(A_q X) = a_q'(diag X + 2 X e), then diag X."""
    diag = np.diagonal(x)
    return np.concatenate([a_hat @ (diag + 2.0 * x[:, -1]), diag])


def dense_adjoint(a_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A*(y) = Diag(v + y_diag) + v e' + e v', with v = Â' y_lin."""
    v = a_hat.T @ y[: a_hat.shape[0]]
    out = np.diag(v + y[a_hat.shape[0] :])
    out[:, -1] += v
    out[-1, :] += v
    return out


def dense_schur(a_hat: np.ndarray, big_w: np.ndarray) -> np.ndarray:
    """G_qr = tr(A_q W A_r W), linear rows first.  With w = W e, V = W∘W
    and U = W Â', column q of D is diag(W A_q W) and column q of E is
    W A_q W e; G = [[Â (D + 2E), D'], [D, V]] (V as for max-cut)."""
    p, dim = a_hat.shape
    w = big_w[:, -1]
    big_v = big_w * big_w
    big_u = big_w @ a_hat.T
    d = big_v @ a_hat.T + 2.0 * big_u * w[:, None]
    e = big_w @ (a_hat.T * w[:, None]) + big_w[-1, -1] * big_u + np.outer(w, a_hat @ w)
    gram = np.empty((p + dim, p + dim))
    gram[:p, :p] = a_hat @ (d + 2.0 * e)
    gram[:p, p:] = d.T
    gram[p:, :p] = d
    gram[p:, p:] = big_v
    return gram


def dense_max_psd_step(chol_lower: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with X + alpha*Delta still PSD, given X = L L'."""
    inner = np.linalg.solve(chol_lower, np.linalg.solve(chol_lower, delta).T)
    lam_min = float(np.linalg.eigvalsh(linalg.symmetrize(inner))[0])
    if lam_min >= 0.0:
        return np.inf
    return -1.0 / lam_min


def dense_sdp_ipm(c, a_hat, rels, b):
    """Primal-dual path-following with Nesterov-Todd scaling.

    Standard form after adding one slack per inequality row:
        minimize tr(C X)   s.t.  tr(A_q X) + sigma_q s_q = b_q,
        X PSD, s >= 0,
    solved together with its dual by damped Newton steps on the perturbed
    complementarity conditions.  The rows are the p linear rows, whose
    padded coefficients are ``a_hat`` (p, dim), then the dim unit-diagonal
    rows (``rels`` and ``b`` cover all p + dim); :func:`dense_operator`,
    :func:`dense_adjoint` and :func:`dense_schur` give their closed forms.
    An affine predictor probe chooses the centering weight each iteration;
    when the recentered step still stalls at the cone boundary, a full
    centering step is taken instead.
    """
    dim = c.shape[0]
    m = a_hat.shape[0] + dim
    sigma_sign = np.array(
        [1.0 if r == "<=" else (-1.0 if r == ">=" else 0.0) for r in rels]
    )
    ineq = sigma_sign != 0.0
    n_ineq = int(ineq.sum())

    scale = max(1.0, float(np.abs(b).max(initial=0.0)), float(np.abs(c).max()))
    x = np.eye(dim) * scale
    z = np.eye(dim) * scale
    y = np.zeros(m)
    s = np.full(m, scale)
    w = np.full(m, scale)
    s[~ineq] = 0.0
    w[~ineq] = 0.0

    c_norm = 1.0 + float(np.linalg.norm(c))
    b_norm = 1.0 + float(np.linalg.norm(b))
    best = None
    best_err = np.inf

    for iteration in range(1, select_sdr._MAX_ITER + 1):
        mu = (float(np.tensordot(x, z)) + float(s[ineq] @ w[ineq])) / (dim + max(n_ineq, 1))
        rp = b - dense_operator(a_hat, x) - sigma_sign * s
        rd = c - dense_adjoint(a_hat, y) - z
        rdl = -sigma_sign * y - w  # dual residual on slack coordinates
        rdl[~ineq] = 0.0

        pobj = float(np.tensordot(c, x))
        dobj = float(b @ y)
        pinf = float(np.linalg.norm(rp)) / b_norm
        dinf = (float(np.linalg.norm(rd)) + float(np.linalg.norm(rdl))) / c_norm
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        err = max(pinf, dinf, relgap)
        if err < best_err:
            best_err = err
            best = DenseSolution(
                x=linalg.symmetrize(x), objective=pobj, gap=relgap,
                iterations=iteration,
            )
        if err <= select_sdr._TOL:
            return best
        if float(np.abs(y).max(initial=0.0)) > 1e12 * scale:
            raise Infeasible("dual iterates diverge; constraint rows look infeasible")

        # Nesterov-Todd scaling point W = R R' with W Z W = X.
        try:
            lx = np.linalg.cholesky(linalg.symmetrize(x))
            lz = np.linalg.cholesky(linalg.symmetrize(z))
        except np.linalg.LinAlgError:
            # An iterate slid onto the cone boundary (typically a relaxation
            # with no strict interior); report the best point found so far.
            raise NotConverged(
                f"interior-point iterate left the cone at iteration {iteration} "
                f"with error {best_err:.2e}",
                solution=best,
            ) from None
        _, lam, vt = np.linalg.svd(lz.T @ lx)
        r_mat = lx @ vt.T / np.sqrt(lam)
        big_w = r_mat @ r_mat.T
        z_inv = linalg.inv_spd(z)

        gram = dense_schur(a_hat, big_w)
        slack_diag = np.zeros(m)
        slack_diag[ineq] = s[ineq] / w[ineq]
        gram = linalg.symmetrize(gram) + np.diag(slack_diag)
        ridge = 1e-13 * (1.0 + float(np.trace(gram)) / m)
        try:
            gram_chol = np.linalg.cholesky(gram + ridge * np.eye(m))
        except np.linalg.LinAlgError:
            try:
                gram_chol = np.linalg.cholesky(gram + 1e5 * ridge * np.eye(m))
            except np.linalg.LinAlgError:
                raise NotConverged(
                    f"normal equations lost definiteness at iteration {iteration} "
                    f"with error {best_err:.2e}",
                    solution=best,
                ) from None

        w_rd_w = big_w @ rd @ big_w

        def solve_direction(rc_mat, rc_slack):
            h = (
                rp
                - dense_operator(a_hat, rc_mat - w_rd_w)
                - sigma_sign * (rc_slack - s * rdl) / np.where(ineq, w, 1.0)
            )
            dy = np.linalg.solve(
                gram_chol.T, np.linalg.solve(gram_chol, h)
            )
            dz = linalg.symmetrize(rd - dense_adjoint(a_hat, dy))
            dx = linalg.symmetrize(rc_mat - big_w @ dz @ big_w)
            dw = rdl - sigma_sign * dy
            dw[~ineq] = 0.0
            ds = (rc_slack - s * dw) / np.where(ineq, w, 1.0)
            ds[~ineq] = 0.0
            return dx, dy, dz, ds, dw

        def step_lengths(dx, dz, ds, dw):
            a_p = min(
                1.0, 0.98 * min(dense_max_psd_step(lx, dx), select_sdr._max_pos_step(s[ineq], ds[ineq]))
            )
            a_d = min(
                1.0, 0.98 * min(dense_max_psd_step(lz, dz), select_sdr._max_pos_step(w[ineq], dw[ineq]))
            )
            return a_p, a_d

        # Predictor: pure Newton toward complementarity zero, used only to
        # pick the centering weight for the actual step.
        dx_a, dy_a, dz_a, ds_a, dw_a = solve_direction(-x.copy(), -s * w)
        alpha_p, alpha_d = step_lengths(dx_a, dz_a, ds_a, dw_a)
        mu_aff = (
            float(np.tensordot(x + alpha_p * dx_a, z + alpha_d * dz_a))
            + float((s + alpha_p * ds_a)[ineq] @ (w + alpha_d * dw_a)[ineq])
        ) / (dim + max(n_ineq, 1))
        center = min(1.0, (max(mu_aff, 0.0) / mu) ** 3)

        rc_mat = center * mu * z_inv - x
        rc_slack = np.where(ineq, center * mu - s * w, 0.0)
        dx, dy, dz, ds, dw = solve_direction(rc_mat, rc_slack)
        alpha_p, alpha_d = step_lengths(dx, dz, ds, dw)
        if min(alpha_p, alpha_d) < 0.05:
            # Iterates drifted toward the cone boundary: take a pure
            # centering step instead of crawling along it.
            rc_mat = mu * z_inv - x
            rc_slack = np.where(ineq, mu - s * w, 0.0)
            dx, dy, dz, ds, dw = solve_direction(rc_mat, rc_slack)
            alpha_p, alpha_d = step_lengths(dx, dz, ds, dw)

        x = linalg.symmetrize(x + alpha_p * dx)
        s = s + alpha_p * ds
        y = y + alpha_d * dy
        z = linalg.symmetrize(z + alpha_d * dz)
        w = w + alpha_d * dw

    raise NotConverged(
        f"SDP solver stopped after {select_sdr._MAX_ITER} iterations with error {best_err:.2e}",
        solution=best,
    )


# The quadratic coefficients as ``select_sdr.build_bqp`` computed them
# before each step became one product: one ``np.trace`` per sensor pair,
# kept unchanged as the reference for the block sums.
def loop_build_bqp(scenario) -> list[np.ndarray]:
    """Per-step matrices B_n with B_n[i, s] = -trace(H_i' T_is H_s)."""
    num = scenario.num_sensors
    blocks = []
    for n in range(scenario.horizon):
        noise = scenario.step_noise[n]
        t_full = linalg.inv_spd(noise.r_full)
        off = noise.offsets
        h = [scenario.sensors[i].h_at(n) for i in range(num)]
        b = np.zeros((num, num))
        for i in range(num):
            for s in range(i, num):
                t_block = t_full[off[i] : off[i + 1], off[s] : off[s + 1]]
                b[i, s] = -float(np.trace(h[i].T @ t_block @ h[s]))
                b[s, i] = b[i, s]
        blocks.append(b)
    return blocks


# The bounded simplex as it stood before its pivots were vectorized (a
# per-row Python ratio test and a full-tableau outer product per pivot),
# kept as the oracle for the current solver's pivot sequence.  Four things
# changed since.  The start puts columns at their upper bounds greedily,
# computed here by its own per-column loop.  The slack of every row whose
# slack column is +e_p starts basic, and only the other rows get an
# artificial.  Phase 1 runs only when some artificial starts above zero.
# In both phases an artificial column never enters, and a basic one leaves
# only by a ratio-test pivot through its row: phase 2 fixes the artificials
# at zero, so the first pivot through such a row retires its artificial,
# and one in a redundant row stays basic.  The tableau is rebuilt every 200
# pivots, counted across both phases, through the solver's own
# ``_basis_solve``, which has its own test against ``np.linalg.solve``: on
# rows that are not totally unimodular the two round differently in the
# last ulp, and this oracle checks the ratio test and the elimination, not
# the refactorization.
def loop_simplex_max(c, a, rels, rhs, upper, max_iter: int = 200_000):
    """Maximize c'x subject to a x (rel) rhs and 0 <= x <= upper.

    Dense two-phase tableau simplex with variable bounds.  Entering and
    leaving choices follow Bland's rule, so the method terminates even on
    degenerate instances.  Returns (x, objective, iterations).
    """
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rhs = np.asarray(rhs, dtype=float).copy()
    n_struct = c.shape[0]
    m = a.shape[0]

    # Greedy start: by decreasing positive cost (ties to the lower index),
    # put each column with a finite bound at that bound unless a "<=" or "="
    # row it raises would pass its rhs or a ">=" row it lowers would fall
    # below it.
    upper = np.asarray(upper, dtype=float)
    residual = rhs.copy()
    lifted = np.zeros(n_struct, dtype=bool)
    for j in sorted(range(n_struct), key=lambda j: -c[j]):
        if c[j] <= 0:
            break
        if not np.isfinite(upper[j]):
            continue
        moved = {}
        for p in range(m):
            if a[p, j] == 0:
                continue
            moved[p] = residual[p] - upper[j] * a[p, j]
            if a[p, j] > 0 and rels[p] != ">=" and moved[p] < 0:
                break
            if a[p, j] < 0 and rels[p] == ">=" and moved[p] > 0:
                break
        else:
            for p, value in moved.items():
                residual[p] = value
            lifted[j] = True

    # Slack column per inequality, then sign-normalize so the residual rhs
    # - a x0 is >= 0 (and a ">=" row with residual 0 so its slack is +e_p).
    # Each row whose slack column is +e_p starts with that slack basic;
    # every other row gets an artificial column, and the artificials start
    # basic in their rows.
    slack_cols = []
    slack_of_row = {}
    for p, rel in enumerate(rels):
        if rel == "<=":
            col = np.zeros(m)
            col[p] = 1.0
            slack_of_row[p] = n_struct + len(slack_cols)
            slack_cols.append(col)
        elif rel == ">=":
            col = np.zeros(m)
            col[p] = -1.0
            slack_of_row[p] = n_struct + len(slack_cols)
            slack_cols.append(col)
        elif rel != "=":
            raise ValueError(f"unknown relation {rel!r}")
    n_slack = len(slack_cols)
    full = np.hstack([a, np.array(slack_cols).T.reshape(m, n_slack)]) if n_slack else a.copy()
    for p in range(m):
        if residual[p] < 0 or (residual[p] == 0 and rels[p] == ">="):
            full[p] *= -1.0
            rhs[p] = -rhs[p]
            residual[p] = abs(residual[p])
    art_start = n_struct + n_slack
    basis = []
    art_cols = []
    for p in range(m):
        if p in slack_of_row and full[p, slack_of_row[p]] == 1.0:
            basis.append(slack_of_row[p])
        else:
            col = np.zeros(m)
            col[p] = 1.0
            basis.append(art_start + len(art_cols))
            art_cols.append(col)
    n_art = len(art_cols)
    if n_art:
        full = np.hstack([full, np.array(art_cols).T])
    ntot = art_start + n_art

    ub = np.concatenate([upper, np.full(n_slack + n_art, np.inf)])
    cost1 = np.zeros(ntot)
    cost1[art_start:] = 1.0
    cost2 = np.zeros(ntot)
    cost2[:n_struct] = -c  # phase 2 minimizes the negated objective

    tableau = full.copy()
    in_basis = np.zeros(ntot, dtype=bool)
    in_basis[basis] = True
    at_upper = np.zeros(ntot, dtype=bool)
    at_upper[:n_struct] = lifted
    xb = residual
    iterations = 0
    pivots = 0

    def nonbasic_values():
        vals = np.where(at_upper, np.where(np.isfinite(ub), ub, 0.0), 0.0)
        vals[in_basis] = 0.0
        return vals

    def refactorize():
        nonlocal tableau, xb
        b_cols = full[:, basis]
        tableau = _basis_solve(b_cols, full)
        xb = _basis_solve(b_cols, rhs - full @ nonbasic_values())

    def run_phase(cost):
        nonlocal iterations, pivots, tableau, xb
        stalled = 0
        bland_mode = False
        reduced = cost - cost[basis] @ tableau
        while True:
            if iterations >= max_iter:
                raise SenselError("simplex exceeded its iteration cap")
            eligible = ~in_basis & (
                (~at_upper & (reduced < -_TOL)) | (at_upper & (reduced > _TOL))
            )
            eligible[art_start:] = False
            idx = np.flatnonzero(eligible)
            if idx.size == 0:
                return
            # Dantzig pricing normally; Bland's smallest-index rule takes
            # over during degenerate stretches, which rules out cycling.
            if bland_mode:
                j = int(idx[0])
            else:
                scores = np.where(at_upper[idx], reduced[idx], -reduced[idx])
                j = int(idx[int(np.argmax(scores))])
            direction = -1.0 if at_upper[j] else 1.0
            col = tableau[:, j]
            rate = direction * col  # xb decreases at this rate per unit step
            # Candidates: (step length, variable index, row or None for a bound flip)
            best_t = ub[j]
            best_var = j
            best_row = None
            for i in range(m):
                if rate[i] > _TOL:
                    t = xb[i] / rate[i]
                elif rate[i] < -_TOL and np.isfinite(ub[basis[i]]):
                    t = (ub[basis[i]] - xb[i]) / (-rate[i])
                else:
                    continue
                if t < best_t - _TOL or (t < best_t + _TOL and basis[i] < best_var):
                    best_t = t
                    best_var = basis[i]
                    best_row = i
            if not np.isfinite(best_t):
                raise SenselError("LP is unbounded")
            t = max(best_t, 0.0)
            if t <= 1e-12:
                stalled += 1
                if stalled >= 40:
                    bland_mode = True
            else:
                stalled = 0
                bland_mode = False
            xb -= t * rate
            iterations += 1
            if best_row is None:
                at_upper[j] = ~at_upper[j]
                continue
            leaving = basis[best_row]
            in_basis[leaving] = False
            at_upper[leaving] = rate[best_row] < 0  # left at its upper bound
            basis[best_row] = j
            in_basis[j] = True
            entering_value = (ub[j] - t) if at_upper[j] else t
            at_upper[j] = False
            xb[best_row] = entering_value
            # The ratio test only admits rows with |rate| > _TOL, so the
            # pivot element is safely away from zero.
            piv = tableau[best_row, j]
            tableau[best_row] /= piv
            others = tableau[:, j].copy()
            others[best_row] = 0.0
            tableau -= np.outer(others, tableau[best_row])
            reduced -= reduced[j] * tableau[best_row]
            pivots += 1
            if pivots % 200 == 0:
                refactorize()
                reduced = cost - cost[basis] @ tableau

    # Phase 1 runs only when some artificial starts above zero; when none
    # does, the start is feasible as it stands.
    if any(xb[i] > 0 for i in range(m) if basis[i] >= art_start):
        run_phase(cost1)
        art_total = sum(xb[i] for i in range(m) if basis[i] >= art_start)
        if art_total > _FEAS_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0))):
            raise Infeasible("constraint rows admit no feasible point")

    # From here on every artificial is fixed at zero: a basic one leaves on
    # the first pivot through its row.
    ub[art_start:] = 0.0
    run_phase(cost2)

    values = nonbasic_values()
    for i, var in enumerate(basis):
        values[var] = xb[i]
    x = np.clip(values[:n_struct], 0.0, upper)
    return x, float(c @ x), iterations


def results_equal(a: RunResult, b: RunResult) -> bool:
    """Bit-exact comparison of the deterministic fields (timing excluded)."""
    return (
        a.algorithm == b.algorithm
        and a.seed == b.seed
        and a.runs == b.runs
        and a.param_value == b.param_value
        and a.gap == b.gap
        and np.array_equal(a.rmse, b.rmse)
        and np.array_equal(a.mean_trace_p, b.mean_trace_p)
        and a.f3 == b.f3
    )
