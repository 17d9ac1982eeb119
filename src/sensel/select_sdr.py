"""Selection for correlated sensors via semidefinite relaxation.

The weighted-information objective with the full inverse noise covariance
is a Boolean quadratic form.  Lifting the +/-1 reformulation to a unit-
diagonal PSD matrix variable gives a semidefinite program whose optimum
lower-bounds every feasible schedule; sampling Gaussian vectors with that
matrix as covariance and rounding each one greedily recovers good feasible
schedules.

The SDP solver is a self-contained primal-dual path-following method with
Nesterov-Todd scaling, dense and aimed at the few-hundred-dimensional
problems this pipeline produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    Infeasible,
    NotConverged,
    NotPositiveDefinite,
    RoundingInfeasible,
    SingularNoise,
)
from .measure import objective_f1, objective_f2
from .model import ConstraintSet, Scenario, SelectionSchedule
from .select_lp import build_lp, round_batch, round_energy, solve_lp
from .select_separable import select_topk


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

    Each linear row is stored by its coefficient vector over the step-major
    selection variables; the lifted constraint matrix is
    [[diag(a), diag(a) 1], [(diag(a) 1)', 0]] and the right side carries
    the affine shift from mapping 0/1 variables to +/-1 variables.
    ``ones_quad`` is the constant of the same mapping for the objective.
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
    status: str


@dataclass(frozen=True)
class SdrRounding:
    """Best feasible schedule found by Gaussian randomization."""

    schedule: SelectionSchedule
    objective: float
    objective_kind: str
    samples: int


def build_bqp(scenario: Scenario, noise_seq=None) -> BqpProblem:
    """Quadratic coefficients from the full inverse noise covariance.

    Entry (i, s) of a step's matrix is minus the trace coupling of sensors
    i and s through the inverse joint covariance; the quadratic form in
    the 0/1 selection vector then equals minus the step's information
    proxy, so minimizing the weighted sum maximizes information.
    """
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    num = scenario.num_sensors
    blocks = []
    for n in range(scenario.horizon):
        noise = noise_seq[n]
        try:
            t_full = linalg.inv_spd(noise.r_full)
        except NotPositiveDefinite:
            raise SingularNoise(
                f"step {n} joint noise covariance is singular"
            ) from None
        off = noise.offsets()
        h = [scenario.sensors[i].h_at(n) for i in range(num)]
        b = np.zeros((num, num))
        for i in range(num):
            for s in range(i, num):
                t_block = t_full[off[i] : off[i + 1], off[s] : off[s + 1]]
                b[i, s] = -float(np.trace(h[i].T @ t_block @ h[s]))
                b[s, i] = b[i, s]
        blocks.append(b)
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


def constraint_rows(constraints: ConstraintSet, num: int):
    """Step-major coefficient rows for counts, budgets, and extra rows."""
    horizon = constraints.horizon
    nl = num * horizon
    rows = []
    for n, m in enumerate(constraints.per_step):
        a = np.zeros(nl)
        a[n * num : (n + 1) * num] = 1.0
        rows.append((a, "=", float(m)))
    if constraints.energy is not None:
        for i, budget in enumerate(constraints.energy):
            a = np.zeros(nl)
            a[i::num] = 1.0
            rows.append((a, "<=", float(budget)))
    for row in constraints.extra:
        rows.append((np.asarray(row.a, dtype=float), row.relation, float(row.b)))
    return rows


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
    gamma_rows = constraint_rows(bqp.constraints, num)
    # Budgets exhausted exactly by the counts force every budget row tight,
    # which would leave the relaxation without a strict interior; convert
    # them to equalities so the interior-point solver keeps a Slater point.
    cons = bqp.constraints
    if cons.energy is not None and sum(cons.per_step) == sum(cons.energy):
        start = horizon
        gamma_rows = (
            gamma_rows[:start]
            + [(a, "=", b) for a, _, b in gamma_rows[start : start + num]]
            + gamma_rows[start + num :]
        )
    rows = tuple(
        (a, rel, 4.0 * b - float(a.sum())) for a, rel, b in gamma_rows
    )
    ones_quad = float(np.ones(nl) @ big_b @ np.ones(nl))
    return SdpProblem(c=c, rows=rows, dim=nl + 1, ones_quad=ones_quad)


def lifted_row_matrix(a: np.ndarray, dim: int) -> np.ndarray:
    """Materialize the lifted constraint matrix of one linear row."""
    e = np.zeros((dim, dim))
    nl = dim - 1
    e[:nl, :nl] = np.diag(a)
    e[:nl, nl] = a
    e[nl, :nl] = a
    return e


def relaxation_bound(sdp_solution: SdpSolution, sdp: SdpProblem) -> float:
    """Lower bound on the Boolean quadratic optimum implied by the SDP."""
    return (sdp_solution.objective + sdp.ones_quad) / 4.0


def solve_sdp(problem: SdpProblem, tol: float = 1e-7, max_iter: int = 200) -> SdpSolution:
    """Solve the relaxation; unit-diagonal rows are added internally."""
    dim = problem.dim
    mats = []
    rels = []
    rhs = []
    for a, rel, b in problem.rows:
        mats.append(lifted_row_matrix(a, dim))
        rels.append(rel)
        rhs.append(b)
    for s in range(dim):
        e = np.zeros((dim, dim))
        e[s, s] = 1.0
        mats.append(e)
        rels.append("=")
        rhs.append(1.0)
    return _sdp_ipm(
        problem.c, np.array(mats), rels, np.array(rhs, dtype=float),
        tol=tol, max_iter=max_iter,
    )


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


def _sdp_ipm(c, mats, rels, b, tol, max_iter):
    """Primal-dual path-following with Nesterov-Todd scaling.

    Standard form after adding one slack per inequality row:
        minimize tr(C X)   s.t.  tr(A_q X) + sigma_q s_q = b_q,
        X PSD, s >= 0,
    solved together with its dual by damped Newton steps on the perturbed
    complementarity conditions.  An affine predictor probe chooses the
    centering weight each iteration; when the recentered step still stalls
    at the cone boundary, a full centering step is taken instead.
    """
    dim = c.shape[0]
    m = mats.shape[0]
    sigma_sign = np.array(
        [1.0 if r == "<=" else (-1.0 if r == ">=" else 0.0) for r in rels]
    )
    ineq = sigma_sign != 0.0
    n_ineq = int(ineq.sum())
    flat_a = mats.reshape(m, dim * dim)

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

    def operator_a(mat):
        return flat_a @ mat.reshape(-1)

    def adjoint_a(vec):
        return np.tensordot(vec, mats, axes=(0, 0))

    for iteration in range(1, max_iter + 1):
        mu = (float(np.tensordot(x, z)) + float(s[ineq] @ w[ineq])) / (dim + max(n_ineq, 1))
        rp = b - operator_a(x) - sigma_sign * s
        rd = c - adjoint_a(y) - z
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
                iterations=iteration, status="optimal",
            )
        if err <= tol:
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

        g_mats = np.matmul(big_w[None], np.matmul(mats, big_w[None]))
        gram = flat_a @ g_mats.reshape(m, dim * dim).T
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
                - operator_a(rc_mat - w_rd_w)
                - sigma_sign * (rc_slack - s * rdl) / np.where(ineq, w, 1.0)
            )
            dy = np.linalg.solve(
                gram_chol.T, np.linalg.solve(gram_chol, h)
            )
            dz = linalg.symmetrize(rd - adjoint_a(dy))
            dx = linalg.symmetrize(rc_mat - big_w @ dz @ big_w)
            dw = rdl - sigma_sign * dy
            dw[~ineq] = 0.0
            ds = (rc_slack - s * dw) / np.where(ineq, w, 1.0)
            ds[~ineq] = 0.0
            return dx, dy, dz, ds, dw

        # Predictor: pure Newton toward complementarity zero, used only to
        # pick the centering weight for the actual step.
        dx_a, dy_a, dz_a, ds_a, dw_a = solve_direction(-x.copy(), -s * w)
        alpha_p = min(
            1.0, 0.98 * min(_max_psd_step(lx, dx_a), _max_pos_step(s[ineq], ds_a[ineq]))
        )
        alpha_d = min(
            1.0, 0.98 * min(_max_psd_step(lz, dz_a), _max_pos_step(w[ineq], dw_a[ineq]))
        )
        mu_aff = (
            float(np.tensordot(x + alpha_p * dx_a, z + alpha_d * dz_a))
            + float((s + alpha_p * ds_a)[ineq] @ (w + alpha_d * dw_a)[ineq])
        ) / (dim + max(n_ineq, 1))
        center = min(1.0, (max(mu_aff, 0.0) / mu) ** 3)

        def step_lengths(dx, dz, ds, dw):
            a_p = min(
                1.0, 0.98 * min(_max_psd_step(lx, dx), _max_pos_step(s[ineq], ds[ineq]))
            )
            a_d = min(
                1.0, 0.98 * min(_max_psd_step(lz, dz), _max_pos_step(w[ineq], dw[ineq]))
            )
            return a_p, a_d

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
        f"SDP solver stopped after {max_iter} iterations with error {best_err:.2e}",
        solution=best,
    )


def _distinct_rows(bits: np.ndarray):
    """Deduplicate the 0/1 rows of a (B, k) array.

    Each row is packed bit by bit into one fixed-width key and the keys go
    through ``np.unique``.  Returns the distinct keys (``.tobytes()`` gives
    a hashable form), the index of each key's first row, and the index of
    each row's key.
    """
    packed = np.ascontiguousarray(np.packbits(bits, axis=1))
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return distinct, first, inverse.reshape(-1)


def _f3_values(gammas, scenario: Scenario, noise_seq, gain_memo: dict) -> np.ndarray:
    """Weighted f3 sum of each (horizon, num) schedule in a batch.

    Each step's gain trace is computed once per distinct selection column
    and kept in ``gain_memo`` under (step, packed column).  The weighted
    terms are added step by step in step order, as a scalar sum over the
    steps would, so the values are exactly those of a per-schedule sum.
    """
    from .filter import selection_gain

    weights = np.asarray(scenario.weights, dtype=float)
    totals = np.zeros(gammas.shape[0])
    for n in range(gammas.shape[1]):
        if weights[n] == 0.0:
            continue
        columns = gammas[:, n]
        distinct, first, inverse = _distinct_rows(columns)
        gains = np.empty(distinct.shape[0])
        for k, key in enumerate(distinct):
            memo_key = (n, key.tobytes())
            value = gain_memo.get(memo_key)
            if value is None:
                gain = selection_gain(scenario.sensors, noise_seq[n], columns[first[k]], n)
                value = float(np.trace(gain))
                gain_memo[memo_key] = value
            gains[k] = value
        totals = totals + float(weights[n]) * gains[inverse]
    return totals


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
    matrix as covariance; its leading entries rank the sensors per step and
    are rounded greedily to a schedule.  Both the drawn vector and its
    negation are rounded (the lifting is sign-symmetric), so each draw
    yields two candidates, interleaved as (+draw 0, -draw 0, +draw 1, ...).

    The work is batched: all ``s_count`` draws come from one generator
    call, and all 2S candidates are rounded in one vectorized greedy pass
    (:func:`select_lp.round_batch`).  Candidates that run out of budgeted
    sensors or violate an extra constraint row are dropped; when none is
    left the call raises RoundingInfeasible.  f3 scores each step only on
    its distinct columns through ``gain_memo``, a dict of gain traces keyed
    by (step, packed column); pass one memo to every call on the same
    scenario and noise sequence to share it, or omit it for a fresh one.
    f1 and f2 are evaluated once per distinct schedule.  The best value
    wins, ties going to the smallest ``SelectionSchedule.key()``.

    Deterministic for a fixed seed, and the sample stream is nested: a
    larger count extends the draws of a smaller one.
    """
    if s_count < 1:
        raise ValueError("need at least one randomization sample")
    if objective not in ("f1", "f2", "f3"):
        raise ValueError("objective must be f1, f2, or f3")
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    if gain_memo is None:
        gain_memo = {}
    num = scenario.num_sensors
    horizon = scenario.horizon
    nl = num * horizon
    cov = linalg.psd_project(sdp_solution.x, slack=1e-6) + 1e-12 * np.eye(sdp_solution.x.shape[0])
    low = np.linalg.cholesky(cov)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))

    signed = np.empty((2 * int(s_count), nl))
    signed[0::2] = rng.standard_normal((int(s_count), cov.shape[0])) @ low[:nl].T
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
        values = _f3_values(gammas, scenario, noise_seq, gain_memo)
        best_value = values.max()
    else:
        measure = objective_f1 if objective == "f1" else objective_f2
        _, first, inverse = _distinct_rows(gammas.reshape(gammas.shape[0], -1))
        traces = np.array([
            float(np.trace(measure(SelectionSchedule.build(gammas[k].T), scenario, noise_seq)))
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
    stripped = tuple(noise.diagonal_only() for noise in noise_seq)
    cons = scenario.constraints
    if cons.energy is None and not cons.extra:
        columns = [
            select_topk(scenario, n, noise_seq=stripped)
            for n in range(scenario.horizon)
        ]
        return SelectionSchedule.from_columns(columns)
    problem = build_lp(scenario, noise_seq=stripped)
    solution = solve_lp(problem)
    rounded = round_energy(solution, scenario, problem=problem, noise_seq=stripped)
    return rounded.schedule
