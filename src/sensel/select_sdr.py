"""Selection for correlated sensors via semidefinite relaxation.

The weighted-information objective with the full inverse noise covariance
is a Boolean quadratic form.  Lifting the +/-1 reformulation to a unit-
diagonal PSD matrix variable gives a semidefinite program whose optimum
lower-bounds every feasible schedule; sampling Gaussian vectors with that
matrix as covariance and rounding each one greedily recovers good feasible
schedules (Luo, Ma, So, Ye and Zhang 2010).

The lifted cost and every constraint row touch only the step blocks, the
diagonal and the border column of the shared corner ``e``: the sparsity is
chordal, one clique per step (its sensors plus ``e``).  By Grone, Johnson,
Sa and Wolkowicz (1984) the relaxation over one PSD block per step has the
same optimum (Fukuda, Kojima, Murota and Nakata 2001; Vandenberghe and
Andersen 2015).  The solver is a self-contained primal-dual path-following
method with Nesterov-Todd scaling over those blocks, working in closed form
from the two constraint shapes, a unit-diagonal entry of one block and a
lifted linear row diag(a_n) + a_n e' + e a_n' summed over the blocks.  Its
Newton system is never assembled: the unit-diagonal rows of each step form
one positive definite k x k block W_n∘W_n, which is eliminated step by
step, leaving one dense system in the p linear rows.  Each block's scaling
W_n takes one Cholesky factor and one eigendecomposition, with no SVD and
no triangular inverse, and its frames give both step lengths at once.  Each
iteration solves for two directions with one factorization: an affine
predictor, then Mehrotra's corrector, which recenters it and subtracts its
second-order term (Mehrotra 1992; Todd, Toh and Tütüncü 1998).  No dense
lifted matrix is formed for rounding either: the draws' covariance, the
blocks' maximum-determinant completion, is factored from the N per-step
Schur complements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg
from .errors import Infeasible, NotConverged, NotPSD, RoundingInfeasible
from .measure import OBJECTIVES, objective_values
from .model import ConstraintRows, ConstraintSet, Scenario, SelectionSchedule, philox
from .select_lp import build_lp, round_batch, round_energy, solve_lp
from .select_separable import topk_schedule

_TOL = 1e-7
_MAX_ITER = 200
_START_CLIP = 0.05


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
    def sampling_factor(self) -> np.ndarray:
        """The (sum_n r_n + 1, N*L) factor M, built once per solution, whose
        M'M is the blocks' maximum-determinant completion on the sensors,
        each r_n the numerical rank of step n's Schur complement: each
        X_n[:L, :L] on the diagonal, b_i b_j / c off it (b the border, c the
        largest corner).  Given the corner the steps are independent: M's
        last row is b / sqrt(c), and above it step n has one row per
        eigenvector of its Schur complement X_n[:L, :L] - b_n b_n' / c (PSD
        as c is at least every block's corner), scaled by the root of its
        eigenvalue, in the step's columns.  An eigenvalue within the band
        1e-6 (1 + max|complement|) of zero counts as zero and has no row, so
        a draw spends no normal on the interior point's residue; one below
        minus the band raises NotPSD."""
        horizon, k, _ = self.blocks.shape
        num = k - 1
        border = self.blocks[:, :num, num]
        corner = float(self.blocks[:, num, num].max())
        schur = self.blocks[:, :num, :num] - border[:, :, None] * border[:, None, :] / corner
        lam, vec = np.linalg.eigh(schur)
        band = 1e-6 * (1.0 + float(np.abs(schur).max()))
        if lam[:, 0].min() < -band:
            raise NotPSD(f"sampling covariance eigenvalue {lam[:, 0].min():.3e} below {-band:.3e}")
        # Row i of F_n' is eigenvector i scaled by its clipped root.
        f_t = (vec * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]).transpose(0, 2, 1)
        factor = np.zeros((horizon * num + 1, horizon * num))
        steps = np.arange(horizon)
        factor[:-1].reshape(horizon, num, horizon, num)[steps, :, steps] = f_t
        factor[-1] = border.ravel() / np.sqrt(corner)
        return factor[np.append(lam.ravel() > band, True)]


@dataclass(frozen=True)
class SdrRounding:
    """Best feasible schedule found by Gaussian randomization."""

    schedule: SelectionSchedule
    objective: float
    objective_kind: str
    samples: int


def build_bqp(scenario: Scenario) -> BqpProblem:
    """Quadratic coefficients from the full inverse noise covariance.

    Entry (i, s) of a step's matrix is minus the trace coupling
    trace(H_i' T_is H_s) of sensors i and s through block (i, s) of the
    inverse T of the step's joint covariance (``scenario.step_noise``);
    the quadratic form in the 0/1 selection vector then equals minus the
    step's information proxy, so minimizing the weighted sum maximizes
    information.  Each step is one product:
    the block sums of T ∘ (H H') over the sensors' rows, with H the step's
    ``scenario.h_stacks`` entry, taken once per distinct step model
    (``scenario.step_models``); a step that repeats a model shares its
    block.
    """
    blocks = []
    for n, first in enumerate(scenario.step_models):
        if first == n:
            noise, h = scenario.step_noise[n], scenario.h_stacks[n]
            starts = noise.offsets[:-1]
            row_sums = np.add.reduceat(noise.r_inv * (h @ h.T), starts, axis=0)
            blocks.append(-linalg.symmetrize(np.add.reduceat(row_sums, starts, axis=1)))
        else:
            blocks.append(blocks[first])
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
    rows = replace(rows, sense=sense, b=4.0 * rows.b - rows.row_sums())
    return SdpProblem(c_blocks=c_blocks, rows=rows, ones_quad=float(border.sum()))


def relaxation_bound(sdp_solution: SdpSolution, sdp: SdpProblem) -> float:
    """Lower bound on the Boolean quadratic optimum implied by the SDP."""
    return (sdp_solution.objective + sdp.ones_quad) / 4.0


def solve_sdp(problem: SdpProblem) -> SdpSolution:
    """Solve the relaxation to ``_TOL`` within ``_MAX_ITER`` iterations;
    unit-diagonal rows are added internally."""
    horizon, k, _ = problem.c_blocks.shape
    rows = problem.rows
    a = np.zeros((len(rows), horizon * (k - 1)))
    rows.fill(a)
    a_hat = np.zeros((len(rows), horizon, k))
    a_hat[:, :, :-1] = a.reshape(len(rows), horizon, k - 1)
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


def _schur(a_hat: np.ndarray, big_w: np.ndarray):
    """Blocks of G_qr = sum_n tr(A_qn W_n A_rn W_n), linear rows first.
    Per block, with w = W e, V = W∘W and U = W Â', column q of D is
    diag(W A_q W) and column q of E is W A_q W e; G = [[sum_n Â_n (D_n +
    2E_n), D'], [D, V]], where V is block-diagonal, one W_n∘W_n per step.
    Returns the p x p linear part, D as (N, k, p) and V as (N, k, k)."""
    p, horizon, k = a_hat.shape
    a_t = a_hat.transpose(1, 2, 0)
    w = big_w[:, :, -1:]
    big_v = big_w * big_w
    big_u = big_w @ a_t
    d = big_v @ a_t + 2.0 * big_u * w
    e = big_w @ (a_t * w) + big_w[:, -1:, -1:] * big_u + w * (w.transpose(0, 2, 1) @ a_t)
    linear = np.tensordot(a_t, d + 2.0 * e, axes=([0, 1], [0, 1]))
    return linear, d, big_v


def _eliminate(linear: np.ndarray, coupling: np.ndarray, big_v: np.ndarray, ridge: float):
    """Factor the Newton matrix [[G11, D'], [D, V]] + ridge*I, given as the
    blocks of :func:`_schur`, by eliminating the unit-diagonal rows step by
    step: V_n + ridge*I = L_n L_n' (one batched Cholesky), C_n = L_n^-1 D_n
    and S = G11 + ridge*I - sum_n C_n'C_n = L_S L_S'.  Returns L_n^-1
    (N, k, k), C stacked as (N*k, p) and L_S^-1; raises LinAlgError when a
    V_n or S is not numerically positive definite."""
    horizon, k, p = coupling.shape
    lv_inv = np.linalg.inv(np.linalg.cholesky(big_v + ridge * np.eye(k)))
    c_stack = (lv_inv @ coupling).reshape(horizon * k, p)
    schur = _symmetrize(linear - c_stack.T @ c_stack) + ridge * np.eye(p)
    return lv_inv, c_stack, np.linalg.inv(np.linalg.cholesky(schur))


def _newton_solve(factors, h: np.ndarray) -> np.ndarray:
    """Solve the Newton system factored by :func:`_eliminate` for the
    right side ``h`` (linear rows first) by block forward and back
    substitution: t_n = L_n^-1 h_n, S y_lin = h_lin - sum_n C_n' t_n, then
    y_n = L_n^-T (t_n - C_n y_lin)."""
    lv_inv, c_stack, ls_inv = factors
    horizon, k, _ = lv_inv.shape
    p = ls_inv.shape[0]
    t = (lv_inv @ h[p:].reshape(horizon, k, 1)).ravel()
    dy_lin = ls_inv.T @ (ls_inv @ (h[:p] - c_stack.T @ t))
    back = (t - c_stack @ dy_lin).reshape(horizon, k, 1)
    return np.concatenate([dy_lin, (lv_inv.transpose(0, 2, 1) @ back).ravel()])


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """``linalg.symmetrize`` without its conversion and shape check, for the
    square stacks the interior-point loop builds itself."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _nt_scaling(x: np.ndarray, z: np.ndarray):
    """Nesterov-Todd scaling of every block pair (X_n, Z_n) from one
    Cholesky Z = Lz Lz' and one eigendecomposition Lz' X Lz = U Λ² U'.
    With R = X Lz U Λ^-3/2, whose inverse is Λ^-1/2 U' Lz', R' Z R =
    R^-1 X R^-T = Λ; so W = R R' satisfies W Z W = X and Z^-1 = R Λ^-1 R'.
    Returns W, Z^-1, the (2N, k, k) stack of the primal frames Lz U Λ^-1
    over the dual frames R Λ^-1/2 that :func:`_psd_step_lengths` reads,
    and the (N, k) eigenvalues Λ of the scaled point.  Raises LinAlgError
    when a block of X or Z is not positive definite."""
    lz = np.linalg.cholesky(z)
    lam2, u = np.linalg.eigh(lz.transpose(0, 2, 1) @ x @ lz)
    if not (lam2[:, 0] > 0.0).all():
        raise np.linalg.LinAlgError("X is not positive definite")
    lam = np.sqrt(lam2)
    lz_u = lz @ u
    x_lz_u = x @ lz_u
    r = x_lz_u / lam2[:, None, :] ** 0.75
    dual = x_lz_u / lam2[:, None, :]
    frames = np.concatenate([lz_u / lam[:, None, :], dual])
    return r @ r.transpose(0, 2, 1), dual @ dual.transpose(0, 2, 1), frames, lam


def _psd_step_lengths(frames: np.ndarray, dx: np.ndarray, dz: np.ndarray):
    """Largest alphas with every X_n + alpha*ΔX_n, and every Z_n +
    alpha*ΔZ_n, still PSD: minus the inverse smallest eigenvalue of
    Λ^-1 (Lz U)' ΔX (Lz U) Λ^-1 and of Λ^-1/2 R' ΔZ R Λ^-1/2, both read
    from one stacked eigvalsh over the frames of :func:`_nt_scaling`.
    Also returns that symmetrized (2N, k, k) stack: Λ^-1/2 D Λ^-1/2 for
    the scaled directions D_X = R^-1 ΔX R^-T over D_Z = R' ΔZ R."""
    inner = _symmetrize(frames.transpose(0, 2, 1) @ np.concatenate([dx, dz]) @ frames)
    lam_min = np.linalg.eigvalsh(inner)[:, 0]
    horizon = dx.shape[0]
    lows = (float(lam_min[:horizon].min()), float(lam_min[horizon:].min()))
    psd_p, psd_d = (np.inf if low >= 0.0 else -1.0 / low for low in lows)
    return psd_p, psd_d, inner


def _second_order(frames: np.ndarray, lam: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Mehrotra's second-order term R [(D_X D_Z + D_Z D_X) ./ (λ_i + λ_j)] R'
    of an affine direction, from the frames and Λ of :func:`_nt_scaling`
    and the scaled stack ``inner`` of :func:`_psd_step_lengths`.  With
    D = Λ^1/2 inner Λ^1/2 and R = (dual frame) Λ^1/2 it is the dual frame
    times λ_i λ_j (P + P')_ij / (λ_i + λ_j) times its transpose, where
    P = inner_X Λ inner_Z."""
    horizon = lam.shape[0]
    p = (inner[:horizon] * lam[:, None, :]) @ inner[horizon:]
    pair = lam[:, :, None] * lam[:, None, :] / (lam[:, :, None] + lam[:, None, :])
    dual = frames[horizon:]
    return dual @ ((p + p.transpose(0, 2, 1)) * pair) @ dual.transpose(0, 2, 1)


def _max_pos_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    return float(np.min(-v[neg] / dv[neg], initial=np.inf))


def _primal_start(a_hat: np.ndarray, sigma_sign: np.ndarray, b: np.ndarray, scale: float):
    """The interior point's primal start, from the rows of :func:`_sdp_ipm`.

    x = 2g - 1 for the selection g nearest 1/2 that meets every equality
    row, which is g_n = m_n / L in every step when the counts are the only
    equalities.  A lifted row reads sum a + 2 a'x at a unit-diagonal point,
    so x is the least-norm solution of a'x = (b - sum a) / 2 over the
    linear equality rows.  x is clipped to |x| <= 1 - _START_CLIP: a step
    that selects every sensor has x = 1, whose lift is singular, and the
    iteration repairs the clipped rows.  Each step's block is then [[x x' +
    Diag(1 - x²), x], [x', 1]], positive definite with a unit diagonal (I
    when x = 0).  Returns those (N, k, k) blocks and the slacks: an
    inequality row's residual at the blocks where it is positive, ``scale``
    on a row the point does not meet strictly, 0 on the equalities.
    """
    p, horizon, k = a_hat.shape
    a = a_hat[:, :, :-1].reshape(p, horizon * (k - 1))
    eq = sigma_sign[:p] == 0.0
    x, *_ = np.linalg.lstsq(a[eq], (b[:p][eq] - a[eq].sum(axis=1)) / 2.0, rcond=None)
    x = np.clip(x, _START_CLIP - 1.0, 1.0 - _START_CLIP).reshape(horizon, k - 1)
    blocks = np.zeros((horizon, k, k))
    blocks[:, :-1, :-1] = x[:, :, None] * x[:, None, :]
    blocks[:, :-1, -1] = blocks[:, -1, :-1] = x
    blocks[:, np.arange(k), np.arange(k)] = 1.0
    residual = sigma_sign * (b - _operator(a_hat, blocks))
    return blocks, np.where(sigma_sign != 0.0, np.where(residual > 0.0, residual, scale), 0.0)


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
    :func:`_operator`, :func:`_adjoint` and :func:`_schur` give their
    closed forms.  The primal start meets the rows where it can
    (:func:`_primal_start`), so the first iterations do not spend
    themselves on primal feasibility; the dual start is Z_n = scale*I and
    w = scale.  Every block is scaled on its own: W_n comes from one
    Cholesky factor of Z_n and one eigendecomposition (:func:`_nt_scaling`),
    and both step lengths of a direction are read in the scaled frames from
    one stacked eigvalsh (:func:`_psd_step_lengths`).  The Newton matrix of
    order p + N*k is never formed: each iteration factors its N diagonal
    blocks and the p x p complement (:func:`_eliminate`) and solves every
    direction by block substitution (:func:`_newton_solve`), so no matrix
    of order above max(p, k) is factored or inverted.  Each iteration is
    Mehrotra's predictor-corrector: the affine predictor toward X Z = 0
    chooses the centering weight sigma = (mu_aff / mu)^3, and the step
    taken aims at X Z = sigma mu I less the predictor's second-order term,
    R [(D_X D_Z + D_Z D_X) ./ (λ_i + λ_j)] R' in the scaled frame
    (:func:`_second_order`) and ds*dw on the slacks, with the same
    factorization.  When that step still stalls at the cone boundary, a
    pure centering step is taken instead.
    """
    horizon, k, _ = c.shape
    order = horizon * k
    p = a_hat.shape[0]
    m = p + order
    ineq = sigma_sign != 0.0
    n_ineq = int(ineq.sum())

    scale = max(1.0, float(np.abs(b).max(initial=0.0)), float(np.abs(c).max()))
    x, s = _primal_start(a_hat, sigma_sign, b, scale)
    z = np.tile(np.eye(k) * scale, (horizon, 1, 1))
    y = np.zeros(m)
    w = np.where(ineq, scale, 0.0)

    c_norm = 1.0 + float(np.linalg.norm(c))
    b_norm = 1.0 + float(np.linalg.norm(b))
    best = None
    best_err = np.inf

    for iteration in range(1, _MAX_ITER + 1):
        mu = (float(np.vdot(x, z)) + float(s[ineq] @ w[ineq])) / (order + max(n_ineq, 1))
        rp = b - _operator(a_hat, x) - sigma_sign * s
        rd = c - _adjoint(a_hat, y) - z
        rdl = np.where(ineq, -sigma_sign * y - w, 0.0)  # dual residual on slack coordinates

        pobj = float(np.vdot(c, x))
        dobj = float(b @ y)
        pinf = float(np.linalg.norm(rp)) / b_norm
        dinf = (float(np.linalg.norm(rd)) + float(np.linalg.norm(rdl))) / c_norm
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        err = max(pinf, dinf, relgap)
        if err < best_err:
            best_err = err
            best = SdpSolution(blocks=x, objective=pobj, gap=relgap, iterations=iteration)
        if err <= _TOL:
            return best
        if float(np.abs(y).max(initial=0.0)) > 1e12 * scale:
            raise Infeasible("dual iterates diverge; constraint rows look infeasible")

        try:
            big_w, z_inv, frames, lam = _nt_scaling(x, z)
        except np.linalg.LinAlgError:
            # An iterate slid onto the cone boundary (typically a relaxation
            # with no strict interior); report the best point found so far.
            raise NotConverged(
                f"interior-point iterate left the cone at iteration {iteration} "
                f"with error {best_err:.2e}",
                solution=best,
            ) from None

        # The Newton matrix is [[G11 + Diag(s/w), D'], [D, V]] + ridge*I;
        # the unit-diagonal rows are equalities, so s/w covers the first p.
        linear, coupling, big_v = _schur(a_hat, big_w)
        linear = _symmetrize(linear) + np.diag(
            np.divide(s[:p], w[:p], out=np.zeros(p), where=ineq[:p])
        )
        ridge = 1e-13 * (
            1.0 + (float(np.trace(linear)) + float(np.trace(big_v, axis1=1, axis2=2).sum())) / m
        )

        try:
            factors = _eliminate(linear, coupling, big_v, ridge)
        except np.linalg.LinAlgError:
            try:
                factors = _eliminate(linear, coupling, big_v, 1e5 * ridge)
            except np.linalg.LinAlgError:
                raise NotConverged(
                    f"normal equations lost definiteness at iteration {iteration} "
                    f"with error {best_err:.2e}",
                    solution=best,
                ) from None

        w_rd_w = big_w @ rd @ big_w

        def step(target, second_mat=0.0, second_slack=0.0):
            """Newton direction toward X_n Z_n = target*I and s w = target,
            less the second-order terms ``second_mat`` (of
            :func:`_second_order`) and ``second_slack`` (ds*dw) of an affine
            direction, with its primal and dual step lengths and the scaled
            stack of :func:`_psd_step_lengths`."""
            rc_mat = target * z_inv - x - second_mat
            rc_slack = np.where(ineq, target - s * w - second_slack, 0.0)
            h = rp - _operator(a_hat, rc_mat - w_rd_w)
            h = h - sigma_sign * (rc_slack - s * rdl) / np.where(ineq, w, 1.0)
            dy = _newton_solve(factors, h)
            dz = _symmetrize(rd - _adjoint(a_hat, dy))
            dx = _symmetrize(rc_mat - big_w @ dz @ big_w)
            dw = np.where(ineq, rdl - sigma_sign * dy, 0.0)
            ds = np.where(ineq, (rc_slack - s * dw) / np.where(ineq, w, 1.0), 0.0)
            psd_p, psd_d, inner = _psd_step_lengths(frames, dx, dz)
            a_p = min(1.0, 0.98 * min(psd_p, _max_pos_step(s[ineq], ds[ineq])))
            a_d = min(1.0, 0.98 * min(psd_d, _max_pos_step(w[ineq], dw[ineq])))
            return dx, dy, dz, ds, dw, a_p, a_d, inner

        # Predictor: pure Newton toward complementarity zero.  Its progress
        # picks the centering weight, and its second-order terms correct the
        # step actually taken (Mehrotra's predictor-corrector).
        dx, dy, dz, ds, dw, alpha_p, alpha_d, inner = step(0.0)
        mu_aff = (
            float(np.vdot(x + alpha_p * dx, z + alpha_d * dz))
            + float((s + alpha_p * ds)[ineq] @ (w + alpha_d * dw)[ineq])
        ) / (order + max(n_ineq, 1))
        center = min(1.0, (max(mu_aff, 0.0) / mu) ** 3)
        dx, dy, dz, ds, dw, alpha_p, alpha_d, _ = step(
            center * mu, _second_order(frames, lam, inner), ds * dw
        )
        if min(alpha_p, alpha_d) < 0.05:
            # Iterates drifted toward the cone boundary: take a pure
            # centering step instead of crawling along it.
            dx, dy, dz, ds, dw, alpha_p, alpha_d, _ = step(mu)

        x = _symmetrize(x + alpha_p * dx)
        s = s + alpha_p * ds
        y = y + alpha_d * dy
        z = _symmetrize(z + alpha_d * dz)
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
) -> SdrRounding:
    """Sample schedules from the lifted solution and keep the best one.

    Each draw is a standard normal vector, one entry per row of the
    per-step block factor (``SdpSolution.sampling_factor``: the Schur
    complements' numerical rank plus the border row), times that factor:
    a zero-mean Gaussian vector over the sensors whose covariance is the
    blocks' maximum-determinant completion, its Schur eigenvalues within
    the factor's band of zero set to zero.  Its entries rank the sensors
    per step and are rounded greedily to a schedule.  Both the drawn vector and its
    negation are rounded (the lifting is sign-symmetric), so each draw
    yields two candidates, interleaved as (+draw 0, -draw 0, +draw 1, ...).

    The work is batched: all ``s_count`` draws come from one generator
    call.  One (S, 2, N*L) buffer holds the candidates' scores: the product
    of the draws with the factor, one GEMM, is written into its
    ``[:, 0]`` half and the negation into its ``[:, 1]`` half, so that the
    buffer read as (2S, N, L) is the interleaved order above with no
    further copy.  All 2S candidates are rounded in one vectorized greedy
    pass (:func:`select_lp.round_batch`).  Candidates that run out of budgeted
    sensors or violate an extra constraint row are dropped; when none is
    left the call raises RoundingInfeasible.  One
    :func:`measure.objective_values` call scores the rest: f3 on each
    step's distinct columns, f1 and f2 by one covariance rollout of the
    whole batch.  The best value wins, ties going to the smallest
    ``SelectionSchedule.key()``.

    Deterministic for a fixed seed, and the sample stream is nested: a
    larger count extends the draws of a smaller one.
    """
    if s_count < 1:
        raise ValueError("need at least one randomization sample")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    num = scenario.num_sensors
    horizon = scenario.horizon
    nl = num * horizon
    factor = sdp_solution.sampling_factor
    rng = philox(seed)

    signed = np.empty((int(s_count), 2, nl))
    np.matmul(rng.standard_normal((int(s_count), factor.shape[0])), factor, out=signed[:, 0])
    np.negative(signed[:, 0], out=signed[:, 1])
    gammas, feasible = round_batch(
        signed.reshape(-1, horizon, num), scenario.constraints, scenario.weights
    )
    if not feasible.any():
        raise RoundingInfeasible(
            f"none of the {2 * int(s_count)} randomized candidates satisfies every constraint row"
        )
    gammas = gammas[feasible]

    values = objective_values(objective, gammas, scenario)
    best_value = values.max() if objective == "f3" else values.min()
    # The step-major bytes of a 0/1 schedule order like its key().
    tied = np.flatnonzero(values == best_value)
    best = min(tied, key=lambda k: gammas[k].tobytes())
    return SdrRounding(
        schedule=SelectionSchedule.build(gammas[best].T),
        objective=float(best_value),
        objective_kind=objective,
        samples=int(s_count),
    )


def select_ignore_dependence(scenario: Scenario) -> SelectionSchedule:
    """Baseline that drops cross-sensor correlation and selects as if
    the noise were block-diagonal: analytic top-k when the constraints are
    per-step counts only, the LP route otherwise, on the scenario with its
    noise's cross-sensor blocks dropped (:attr:`NoiseModel.diagonal_only`)."""
    stripped = replace(scenario, noise=scenario.noise.diagonal_only)
    cons = scenario.constraints
    if cons.energy is None and not cons.extra:
        return topk_schedule(stripped)
    problem = build_lp(stripped)
    return round_energy(solve_lp(problem), stripped, problem).schedule
