"""Selection for correlated sensors via semidefinite relaxation.

The weighted-information objective with the full inverse noise covariance
is a Boolean quadratic form.  Lifting the +/-1 reformulation to a unit-
diagonal PSD matrix variable gives a semidefinite program whose optimum
lower-bounds every feasible schedule; sampling Gaussian vectors with that
matrix as covariance and rounding each one greedily recovers good feasible
schedules.

The lifted cost and every constraint row touch only the step blocks, the
diagonal and the border column of the shared corner ``e``: the sparsity is
chordal, one clique per step (its sensors plus ``e``).  By Grone, Johnson,
Sa and Wolkowicz (1984) the relaxation over one PSD block per step has the
same optimum (Fukuda, Kojima, Murota and Nakata 2001; Vandenberghe and
Andersen 2015).  The solver is a self-contained primal-dual path-following
method with Nesterov-Todd scaling over those blocks, working in closed form
from the two constraint shapes, a unit-diagonal entry of one block and a
lifted linear row diag(a_n) + a_n e' + e a_n' summed over the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import Infeasible, NotConverged, RoundingInfeasible
from .measure import OBJECTIVES, distinct_rows, f3_values, objective_value
from .model import ConstraintRows, ConstraintSet, Scenario, SelectionSchedule
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
    """Lifted relaxation: minimize sum_n tr(C_n X_n) over unit-diagonal PSD
    blocks X_n, one per step, each over the step's sensors then the corner.

    ``c_blocks`` stacks the per-step costs as an (N, k, k) array, k = L + 1.
    Row q of ``rows`` holds its coefficients a over the step-major
    selection variables and stands for sum_n tr(A_n X_n) (sense_q) b_q
    with A_n = [[diag(a_n), a_n], [a_n', 0]], never built; b carries the
    shift of mapping 0/1 to +/-1 variables, and ``ones_quad`` the
    objective's constant of that mapping.  The unit-diagonal rows are
    implicit.
    """

    c_blocks: np.ndarray
    rows: ConstraintRows
    ones_quad: float

    @property
    def dim(self) -> int:
        """Order of the dense lifted matrix: every step's sensors, then e."""
        horizon, k, _ = self.c_blocks.shape
        return horizon * (k - 1) + 1


@dataclass(frozen=True)
class SdpSolution:
    """Per-step blocks of the relaxation's solution, stacked as (N, k, k)."""

    blocks: np.ndarray
    objective: float
    gap: float
    iterations: int

    @cached_property
    def x(self) -> np.ndarray:
        """The dense lifted matrix: the maximum-determinant completion of
        the blocks, which is the limit of the dense central path.  Off the
        blocks X[i, j] = X[i, e] X[j, e] / X_ee.  The blocks' corners all
        equal 1 to the solver's tolerance; X_ee takes the largest of them,
        which keeps the completion PSD whenever every block is."""
        horizon, k, _ = self.blocks.shape
        num = k - 1
        border = self.blocks[:, :num, num].ravel()
        corner = float(self.blocks[:, num, num].max())
        x = np.empty((horizon * num + 1,) * 2)
        x[:-1, :-1] = np.outer(border, border) / corner
        for n, block in enumerate(self.blocks):
            x[n * num : (n + 1) * num, n * num : (n + 1) * num] = block[:num, :num]
        x[:-1, -1] = border
        x[-1, :-1] = border
        x[-1, -1] = corner
        return x

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
        h = scenario.h_stacks[n]
        starts = noise.offsets[:-1]
        row_sums = np.add.reduceat(noise.r_inv * (h @ h.T), starts, axis=0)
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
    """Lift the Boolean quadratic problem to its PSD relaxation: step n's
    cost block is [[B, B 1], [1' B, 0]] with B = w_n B_n."""
    num = bqp.num_sensors
    horizon = bqp.horizon
    c_blocks = np.zeros((horizon, num + 1, num + 1))
    c_blocks[:, :num, :num] = bqp.weights[:, None, None] * np.array(bqp.b_blocks)
    border = c_blocks[:, :num, :num].sum(axis=2)
    c_blocks[:, :num, num] = border
    c_blocks[:, num, :num] = border
    # Budgets exhausted exactly by the counts force every budget row tight,
    # which would leave the relaxation without a strict interior; convert
    # them to equalities so the interior-point solver keeps a Slater point.
    cons = bqp.constraints
    rows = cons.rows(num)
    sense = rows.sense.copy()
    if cons.energy is not None and sum(cons.per_step) == sum(cons.energy):
        sense[horizon : horizon + num] = 0.0
    rows = ConstraintRows(rows.a, sense, 4.0 * rows.b - rows.a.sum(axis=1))
    return SdpProblem(c_blocks=c_blocks, rows=rows, ones_quad=float(border.sum()))


def relaxation_bound(sdp_solution: SdpSolution, sdp: SdpProblem) -> float:
    """Lower bound on the Boolean quadratic optimum implied by the SDP."""
    return (sdp_solution.objective + sdp.ones_quad) / 4.0


def solve_sdp(problem: SdpProblem) -> SdpSolution:
    """Solve the relaxation to ``_TOL`` within ``_MAX_ITER`` iterations;
    unit-diagonal rows are added internally."""
    horizon, k, _ = problem.c_blocks.shape
    rows = problem.rows
    a_hat = np.zeros((len(rows), horizon, k))
    a_hat[:, :, :-1] = rows.a.reshape(len(rows), horizon, k - 1)
    sense = np.concatenate([rows.sense, np.zeros(horizon * k)])
    rhs = np.concatenate([rows.b, np.ones(horizon * k)])
    return _sdp_ipm(problem.c_blocks, a_hat, sense, rhs)


def _operator(a_hat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A(X): every linear row's sum_n a_qn'(diag X_n + 2 X_n e), then the
    diagonal of every block."""
    diag = np.diagonal(x, axis1=1, axis2=2)
    lin = a_hat.reshape(a_hat.shape[0], diag.size) @ (diag + 2.0 * x[:, :, -1]).ravel()
    return np.concatenate([lin, diag.ravel()])


def _adjoint(a_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A*(y), block n: Diag(v_n + y_diag,n) + v_n e' + e v_n', with v = Â' y_lin."""
    p, horizon, k = a_hat.shape
    v = (y[:p] @ a_hat.reshape(p, horizon * k)).reshape(horizon, k)
    out = np.zeros((horizon, k, k))
    out[:, np.arange(k), np.arange(k)] = v + y[p:].reshape(horizon, k)
    out[:, :, -1] += v
    out[:, -1, :] += v
    return out


def _schur(a_hat: np.ndarray, big_w: np.ndarray) -> np.ndarray:
    """G_qr = sum_n tr(A_qn W_n A_rn W_n), linear rows first.  Per block,
    with w = W e, V = W∘W and U = W Â', column q of D is diag(W A_q W) and
    column q of E is W A_q W e; G = [[sum_n Â_n (D_n + 2E_n), D'], [D, V]],
    where V is block-diagonal, one W_n∘W_n per step."""
    p, horizon, k = a_hat.shape
    a_t = a_hat.transpose(1, 2, 0)
    w = big_w[:, :, -1:]
    big_v = big_w * big_w
    big_u = big_w @ a_t
    d = big_v @ a_t + 2.0 * big_u * w
    e = big_w @ (a_t * w) + big_w[:, -1:, -1:] * big_u + w * (w.transpose(0, 2, 1) @ a_t)
    gram = np.zeros((p + horizon * k,) * 2)
    gram[:p, :p] = np.einsum("nkp,nkq->pq", a_t, d + 2.0 * e)
    gram[p:, :p] = d.reshape(horizon * k, p)
    gram[:p, p:] = gram[p:, :p].T
    for n in range(horizon):
        gram[p + n * k : p + (n + 1) * k, p + n * k : p + (n + 1) * k] = big_v[n]
    return gram


def _max_psd_step(chol_inv: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha with every X_n + alpha*Delta_n still PSD, given the
    inverses of the factors L_n of X_n = L_n L_n'."""
    inner = chol_inv @ delta @ chol_inv.transpose(0, 2, 1)
    lam_min = float(np.linalg.eigvalsh(linalg.symmetrize(inner))[:, 0].min())
    if lam_min >= 0.0:
        return np.inf
    return -1.0 / lam_min


def _max_pos_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def _sdp_ipm(c, a_hat, sigma_sign, b):
    """Primal-dual path-following with Nesterov-Todd scaling over the
    blocks of the chordal relaxation.

    Standard form after adding one slack per inequality row:
        minimize sum_n tr(C_n X_n)   s.t.  sum_n tr(A_qn X_n) + sigma_q s_q = b_q,
        every X_n PSD, s >= 0,
    solved together with its dual by damped Newton steps on the perturbed
    complementarity conditions.  ``c`` stacks the (N, k, k) cost blocks.
    The rows are the p linear rows, whose padded coefficients are ``a_hat``
    (p, N, k), then the N*k unit-diagonal rows; ``sigma_sign`` (each row's
    slack sign, 0 on equalities) and ``b`` cover all p + N*k rows.
    :func:`_operator`, :func:`_adjoint` and :func:`_schur` give
    their closed forms.  Every block is scaled on its own, and each
    Cholesky factor is inverted once per iteration.  An affine predictor
    probe chooses the centering weight each iteration; when the recentered
    step still stalls at the cone boundary, a full centering step is taken
    instead.
    """
    horizon, k, _ = c.shape
    order = horizon * k
    m = a_hat.shape[0] + order
    ineq = sigma_sign != 0.0
    n_ineq = int(ineq.sum())

    def transpose(a):
        return a.transpose(0, 2, 1)

    scale = max(1.0, float(np.abs(b).max(initial=0.0)), float(np.abs(c).max()))
    x = np.tile(np.eye(k) * scale, (horizon, 1, 1))
    z = x.copy()
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
        mu = (float(np.vdot(x, z)) + float(s[ineq] @ w[ineq])) / (order + max(n_ineq, 1))
        rp = b - _operator(a_hat, x) - sigma_sign * s
        rd = c - _adjoint(a_hat, y) - z
        rdl = -sigma_sign * y - w  # dual residual on slack coordinates
        rdl[~ineq] = 0.0

        pobj = float(np.vdot(c, x))
        dobj = float(b @ y)
        pinf = float(np.linalg.norm(rp)) / b_norm
        dinf = (float(np.linalg.norm(rd)) + float(np.linalg.norm(rdl))) / c_norm
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        err = max(pinf, dinf, relgap)
        if err < best_err:
            best_err = err
            best = SdpSolution(
                blocks=x, objective=pobj, gap=relgap, iterations=iteration,
            )
        if err <= _TOL:
            return best
        if float(np.abs(y).max(initial=0.0)) > 1e12 * scale:
            raise Infeasible("dual iterates diverge; constraint rows look infeasible")

        # Nesterov-Todd scaling point W_n = R_n R_n' with W_n Z_n W_n = X_n.
        try:
            lx = np.linalg.cholesky(x)
            lz = np.linalg.cholesky(z)
        except np.linalg.LinAlgError:
            # An iterate slid onto the cone boundary (typically a relaxation
            # with no strict interior); report the best point found so far.
            raise NotConverged(
                f"interior-point iterate left the cone at iteration {iteration} "
                f"with error {best_err:.2e}",
                solution=best,
            ) from None
        lx_inv = np.linalg.inv(lx)
        lz_inv = np.linalg.inv(lz)
        _, lam, vt = np.linalg.svd(transpose(lz) @ lx)
        r_mat = lx @ transpose(vt) / np.sqrt(lam)[:, None, :]
        big_w = r_mat @ transpose(r_mat)
        z_inv = transpose(lz_inv) @ lz_inv

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
        gram_inv = np.linalg.inv(gram_chol)

        w_rd_w = big_w @ rd @ big_w

        def solve_direction(rc_mat, rc_slack):
            h = (
                rp
                - _operator(a_hat, rc_mat - w_rd_w)
                - sigma_sign * (rc_slack - s * rdl) / np.where(ineq, w, 1.0)
            )
            dy = gram_inv.T @ (gram_inv @ h)
            dz = linalg.symmetrize(rd - _adjoint(a_hat, dy))
            dx = linalg.symmetrize(rc_mat - big_w @ dz @ big_w)
            dw = rdl - sigma_sign * dy
            dw[~ineq] = 0.0
            ds = (rc_slack - s * dw) / np.where(ineq, w, 1.0)
            ds[~ineq] = 0.0
            return dx, dy, dz, ds, dw

        def step_lengths(dx, dz, ds, dw):
            a_p = min(
                1.0, 0.98 * min(_max_psd_step(lx_inv, dx), _max_pos_step(s[ineq], ds[ineq]))
            )
            a_d = min(
                1.0, 0.98 * min(_max_psd_step(lz_inv, dz), _max_pos_step(w[ineq], dw[ineq]))
            )
            return a_p, a_d

        # Predictor: pure Newton toward complementarity zero, used only to
        # pick the centering weight for the actual step.
        dx_a, dy_a, dz_a, ds_a, dw_a = solve_direction(-x, -s * w)
        alpha_p, alpha_d = step_lengths(dx_a, dz_a, ds_a, dw_a)
        mu_aff = (
            float(np.vdot(x + alpha_p * dx_a, z + alpha_d * dz_a))
            + float((s + alpha_p * ds_a)[ineq] @ (w + alpha_d * dw_a)[ineq])
        ) / (order + max(n_ineq, 1))
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
) -> SdrRounding:
    """Sample schedules from the lifted solution and keep the best one.

    Each draw is a zero-mean Gaussian vector with the PSD-projected lifted
    matrix as covariance (factored once per solution, see
    ``SdpSolution.sampling_factor``); its leading entries rank the sensors
    per step and are rounded greedily to a schedule.  Both the drawn vector and its
    negation are rounded (the lifting is sign-symmetric), so each draw
    yields two candidates, interleaved as (+draw 0, -draw 0, +draw 1, ...).

    The work is batched: all ``s_count`` draws come from one generator
    call.  One (S, 2, N*L) buffer holds the candidates' scores: the product
    of the draws with the factor's leading rows is written into its
    ``[:, 0]`` half and the negation into its ``[:, 1]`` half, so that the
    buffer read as (2S, N, L) is the interleaved order above with no
    further copy.  All 2S candidates are rounded in one vectorized greedy
    pass (:func:`select_lp.round_batch`).  Candidates that run out of budgeted
    sensors or violate an extra constraint row are dropped; when none is
    left the call raises RoundingInfeasible.  f3 (:func:`measure.f3_values`)
    scores each step only on its distinct columns; f1 and f2 are evaluated
    once per distinct schedule.  The best value wins, ties going to the
    smallest ``SelectionSchedule.key()``.

    Deterministic for a fixed seed, and the sample stream is nested: a
    larger count extends the draws of a smaller one.
    """
    if s_count < 1:
        raise ValueError("need at least one randomization sample")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    num = scenario.num_sensors
    horizon = scenario.horizon
    nl = num * horizon
    low = sdp_solution.sampling_factor
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))

    signed = np.empty((int(s_count), 2, nl))
    np.matmul(rng.standard_normal((int(s_count), low.shape[0])), low[:nl].T, out=signed[:, 0])
    np.negative(signed[:, 0], out=signed[:, 1])
    gammas, feasible = round_batch(
        signed.reshape(-1, horizon, num), scenario.constraints, scenario.weights
    )
    if not feasible.any():
        raise RoundingInfeasible(
            f"none of the {2 * int(s_count)} randomized candidates satisfies every constraint row"
        )
    gammas = gammas[feasible]

    if objective == "f3":
        values = f3_values(gammas, scenario, noise_seq)
        best_value = values.max()
    else:
        bits = np.packbits(gammas.reshape(gammas.shape[0], -1), axis=1)
        first, inverse = distinct_rows(bits)
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
