"""Selection for correlated sensors via semidefinite relaxation.

The weighted-information objective with the full inverse noise covariance
is a Boolean quadratic form.  Lifting the +/-1 reformulation to a unit-
diagonal PSD matrix variable gives a semidefinite program whose optimum
lower-bounds every feasible schedule; sampling Gaussian vectors with that
matrix as covariance and rounding each one greedily recovers good feasible
schedules.

The SDP solver is a self-contained primal-dual path-following method with
Nesterov-Todd scaling.  Each constraint is a unit-diagonal entry E_ss or a
lifted linear row diag(a) + a e' + e a' (``a`` padded by a 0, ``e`` the
last unit vector), and the solver works from these two shapes in closed
form: no constraint matrix is built, only a few dim x dim arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    Infeasible,
    NotConverged,
    NotPositiveDefinite,
    RoundingInfeasible,
    SingularNoise,
)
from .measure import OBJECTIVES, distinct_rows, f3_values, objective_value
from .model import ConstraintSet, Scenario, SelectionSchedule
from .select_lp import build_lp, round_batch, round_energy, solve_lp
from .select_separable import topk_schedule

_TOL = 1e-7
_MAX_ITER = 200


@dataclass(frozen=True)
class BqpProblem:
    """Boolean quadratic selection problem: minimize sum_n w_n g_n' B_n g_n."""

    b_blocks: tuple[np.ndarray, ...]
    weights: np.ndarray
    constraints: ConstraintSet

    @property
    def num_sensors(self) -> int:
        return self.b_blocks[0].shape[0]

    @property
    def horizon(self) -> int:
        return len(self.b_blocks)


@dataclass(frozen=True)
class SdpProblem:
    """Lifted relaxation: minimize tr(C X) over unit-diagonal PSD X.

    Each linear row (a, relation, rhs) holds its coefficients over the
    step-major selection variables and stands for tr(A X) (relation) rhs
    with A = [[diag(a), a], [a', 0]], never built; rhs carries the shift of
    mapping 0/1 to +/-1 variables, and ``ones_quad`` the objective's
    constant of that mapping.  The unit-diagonal rows are implicit.
    """

    c: np.ndarray
    rows: tuple[tuple[np.ndarray, str, float], ...]
    dim: int
    ones_quad: float


@dataclass(frozen=True)
class SdpSolution:
    x: np.ndarray
    objective: float
    gap: float
    iterations: int

    @cached_property
    def sampling_factor(self) -> np.ndarray:
        """Cholesky factor of the PSD-projected lifted matrix: the
        covariance of the randomization draws, computed once per solution."""
        cov = linalg.psd_project(self.x, slack=1e-6) + 1e-12 * np.eye(self.x.shape[0])
        return np.linalg.cholesky(cov)


@dataclass(frozen=True)
class SdrRounding:
    """Best feasible schedule found by Gaussian randomization."""

    schedule: SelectionSchedule
    objective: float
    objective_kind: str
    samples: int


def build_bqp(scenario: Scenario, noise_seq=None) -> BqpProblem:
    """Quadratic coefficients from the full inverse noise covariance.

    Entry (i, s) of a step's matrix is minus the trace coupling
    trace(H_i' T_is H_s) of sensors i and s through block (i, s) of the
    inverse joint covariance T; the quadratic form in the 0/1 selection
    vector then equals minus the step's information proxy, so minimizing
    the weighted sum maximizes information.  Each step is one product:
    the block sums of T ∘ (H H') over the sensors' rows, with H the step's
    ``scenario.h_stacks`` entry.
    """
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    blocks = []
    for n in range(scenario.horizon):
        noise = noise_seq[n]
        try:
            t_full = linalg.inv_spd(noise.r_full)
        except NotPositiveDefinite:
            raise SingularNoise(
                f"step {n} joint noise covariance is singular"
            ) from None
        h = scenario.h_stacks[n]
        starts = noise.offsets[:-1]
        row_sums = np.add.reduceat(t_full * (h @ h.T), starts, axis=0)
        blocks.append(-linalg.symmetrize(np.add.reduceat(row_sums, starts, axis=1)))
    return BqpProblem(
        b_blocks=tuple(blocks),
        weights=np.asarray(scenario.weights, dtype=float),
        constraints=scenario.constraints,
    )


def bqp_objective(bqp: BqpProblem, schedule: SelectionSchedule) -> float:
    """Weighted quadratic value of a schedule (to be minimized)."""
    total = 0.0
    for n, b in enumerate(bqp.b_blocks):
        g = schedule.column(n).astype(float)
        total += float(bqp.weights[n]) * float(g @ b @ g)
    return total


def build_sdp(bqp: BqpProblem) -> SdpProblem:
    """Lift the Boolean quadratic problem to its PSD relaxation."""
    num = bqp.num_sensors
    horizon = bqp.horizon
    nl = num * horizon
    big_b = np.zeros((nl, nl))
    for n, b in enumerate(bqp.b_blocks):
        big_b[n * num : (n + 1) * num, n * num : (n + 1) * num] = (
            float(bqp.weights[n]) * b
        )
    c = np.zeros((nl + 1, nl + 1))
    c[:nl, :nl] = big_b
    border = big_b @ np.ones(nl)
    c[:nl, nl] = border
    c[nl, :nl] = border
    # Budgets exhausted exactly by the counts force every budget row tight,
    # which would leave the relaxation without a strict interior; convert
    # them to equalities so the interior-point solver keeps a Slater point.
    cons = bqp.constraints
    tight = cons.energy is not None and sum(cons.per_step) == sum(cons.energy)
    budget_rows = range(horizon, horizon + num) if tight else range(0)
    rows = tuple(
        (row.a, "=" if p in budget_rows else row.relation,
         4.0 * row.b - float(row.a.sum()))
        for p, row in enumerate(cons.rows(num))
    )
    ones_quad = float(np.ones(nl) @ big_b @ np.ones(nl))
    return SdpProblem(c=c, rows=rows, dim=nl + 1, ones_quad=ones_quad)


def relaxation_bound(sdp_solution: SdpSolution, sdp: SdpProblem) -> float:
    """Lower bound on the Boolean quadratic optimum implied by the SDP."""
    return (sdp_solution.objective + sdp.ones_quad) / 4.0


def solve_sdp(problem: SdpProblem) -> SdpSolution:
    """Solve the relaxation to ``_TOL`` within ``_MAX_ITER`` iterations;
    unit-diagonal rows are added internally."""
    a_hat = np.array([np.append(a, 0.0) for a, _, _ in problem.rows]).reshape(-1, problem.dim)
    rels = [rel for _, rel, _ in problem.rows] + ["="] * problem.dim
    rhs = np.array([b for _, _, b in problem.rows] + [1.0] * problem.dim)
    return _sdp_ipm(problem.c, a_hat, rels, rhs)


def _operator(a_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A(X): every linear row's tr(A_q X) = a_q'(diag X + 2 X e), then diag X."""
    diag = np.diagonal(x)
    return np.concatenate([a_hat @ (diag + 2.0 * x[:, -1]), diag])


def _adjoint(a_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A*(y) = Diag(v + y_diag) + v e' + e v', with v = Â' y_lin."""
    v = a_hat.T @ y[: a_hat.shape[0]]
    out = np.diag(v + y[a_hat.shape[0] :])
    out[:, -1] += v
    out[-1, :] += v
    return out


def _schur(a_hat: np.ndarray, big_w: np.ndarray) -> np.ndarray:
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


def _max_psd_step(chol_lower: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with X + alpha*Delta still PSD, given X = L L'."""
    inner = np.linalg.solve(chol_lower, np.linalg.solve(chol_lower, delta).T)
    lam_min = float(np.linalg.eigvalsh(linalg.symmetrize(inner))[0])
    if lam_min >= 0.0:
        return np.inf
    return -1.0 / lam_min


def _max_pos_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def _sdp_ipm(c, a_hat, rels, b):
    """Primal-dual path-following with Nesterov-Todd scaling.

    Standard form after adding one slack per inequality row:
        minimize tr(C X)   s.t.  tr(A_q X) + sigma_q s_q = b_q,
        X PSD, s >= 0,
    solved together with its dual by damped Newton steps on the perturbed
    complementarity conditions.  The rows are the p linear rows, whose
    padded coefficients are ``a_hat`` (p, dim), then the dim unit-diagonal
    rows (``rels`` and ``b`` cover all p + dim); :func:`_operator`,
    :func:`_adjoint` and :func:`_schur` give their closed forms.  An affine
    predictor probe chooses the centering weight each iteration; when the
    recentered step still stalls at the cone boundary, a full centering
    step is taken instead.
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

    for iteration in range(1, _MAX_ITER + 1):
        mu = (float(np.tensordot(x, z)) + float(s[ineq] @ w[ineq])) / (dim + max(n_ineq, 1))
        rp = b - _operator(a_hat, x) - sigma_sign * s
        rd = c - _adjoint(a_hat, y) - z
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
            best = SdpSolution(
                x=linalg.symmetrize(x), objective=pobj, gap=relgap,
                iterations=iteration,
            )
        if err <= _TOL:
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

        gram = _schur(a_hat, big_w)
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
                - _operator(a_hat, rc_mat - w_rd_w)
                - sigma_sign * (rc_slack - s * rdl) / np.where(ineq, w, 1.0)
            )
            dy = np.linalg.solve(
                gram_chol.T, np.linalg.solve(gram_chol, h)
            )
            dz = linalg.symmetrize(rd - _adjoint(a_hat, dy))
            dx = linalg.symmetrize(rc_mat - big_w @ dz @ big_w)
            dw = rdl - sigma_sign * dy
            dw[~ineq] = 0.0
            ds = (rc_slack - s * dw) / np.where(ineq, w, 1.0)
            ds[~ineq] = 0.0
            return dx, dy, dz, ds, dw

        def step_lengths(dx, dz, ds, dw):
            a_p = min(
                1.0, 0.98 * min(_max_psd_step(lx, dx), _max_pos_step(s[ineq], ds[ineq]))
            )
            a_d = min(
                1.0, 0.98 * min(_max_psd_step(lz, dz), _max_pos_step(w[ineq], dw[ineq]))
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
        f"SDP solver stopped after {_MAX_ITER} iterations with error {best_err:.2e}",
        solution=best,
    )


def randomize_round(
    sdp_solution: SdpSolution,
    scenario: Scenario,
    s_count: int,
    seed: int,
    objective: str = "f3",
    noise_seq=None,
    gain_memo: dict | None = None,
) -> SdrRounding:
    """Sample schedules from the lifted solution and keep the best one.

    Each draw is a zero-mean Gaussian vector with the PSD-projected lifted
    matrix as covariance (factored once per solution, see
    ``SdpSolution.sampling_factor``); its leading entries rank the sensors
    per step and are rounded greedily to a schedule.  Both the drawn vector and its
    negation are rounded (the lifting is sign-symmetric), so each draw
    yields two candidates, interleaved as (+draw 0, -draw 0, +draw 1, ...).

    The work is batched: all ``s_count`` draws come from one generator
    call, and all 2S candidates are rounded in one vectorized greedy pass
    (:func:`select_lp.round_batch`).  Candidates that run out of budgeted
    sensors or violate an extra constraint row are dropped; when none is
    left the call raises RoundingInfeasible.  f3 (:func:`measure.f3_values`)
    scores each step only on its distinct columns through ``gain_memo``, a
    dict of gain traces keyed by (step, packed column); pass one memo to
    every call on the same scenario and noise sequence to share it, or omit
    it for a fresh one.
    f1 and f2 are evaluated once per distinct schedule.  The best value
    wins, ties going to the smallest ``SelectionSchedule.key()``.

    Deterministic for a fixed seed, and the sample stream is nested: a
    larger count extends the draws of a smaller one.
    """
    if s_count < 1:
        raise ValueError("need at least one randomization sample")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    if gain_memo is None:
        gain_memo = {}
    num = scenario.num_sensors
    horizon = scenario.horizon
    nl = num * horizon
    low = sdp_solution.sampling_factor
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))

    signed = np.empty((2 * int(s_count), nl))
    signed[0::2] = rng.standard_normal((int(s_count), low.shape[0])) @ low[:nl].T
    signed[1::2] = -signed[0::2]
    gammas, feasible = round_batch(
        signed.reshape(-1, horizon, num), scenario.constraints, scenario.weights
    )
    if not feasible.any():
        raise RoundingInfeasible(
            f"none of the {signed.shape[0]} randomized candidates satisfies every constraint row"
        )
    gammas = gammas[feasible]

    if objective == "f3":
        values = f3_values(gammas, scenario, noise_seq, gain_memo)
        best_value = values.max()
    else:
        _, first, inverse = distinct_rows(gammas.reshape(gammas.shape[0], -1))
        traces = np.array([
            objective_value(objective, SelectionSchedule.build(gammas[k].T), scenario, noise_seq)
            for k in first
        ])
        values = traces[inverse]
        best_value = values.min()
    # The step-major bytes of a 0/1 schedule order like its key().
    tied = np.flatnonzero(values == best_value)
    best = min(tied, key=lambda k: gammas[k].tobytes())
    return SdrRounding(
        schedule=SelectionSchedule.build(gammas[best].T),
        objective=float(best_value),
        objective_kind=objective,
        samples=int(s_count),
    )


def select_ignore_dependence(scenario: Scenario, noise_seq=None) -> SelectionSchedule:
    """Baseline that drops cross-sensor correlation and selects as if
    the noise were block-diagonal: analytic top-k when the constraints are
    per-step counts only, the LP route otherwise."""
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    stripped = tuple(noise.diagonal_only for noise in noise_seq)
    cons = scenario.constraints
    if cons.energy is None and not cons.extra:
        return topk_schedule(scenario, stripped)
    problem = build_lp(scenario, noise_seq=stripped)
    solution = solve_lp(problem)
    rounded = round_energy(solution, scenario, problem)
    return rounded.schedule
