"""Selection for uncorrelated sensors under general linear constraints.

Pipeline: build the Boolean linear program over the step-major selection
vector, relax the 0/1 constraint to the unit box, solve the LP, round the
fractional solution to a feasible schedule by weight-ordered greedy
selection, and certify the result with the bound gap.

The LP solver is a self-contained bounded-variable primal simplex (dense
tableau, two phases, Bland's anti-cycling rule).  Problem sizes here stay
within a few thousand variables and a few hundred rows, where a dense
tableau is perfectly adequate and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NotSeparableNoise, RoundingInfeasible, SenselError
from .measure import info_table
from .model import ConstraintSet, LinearConstraint, Scenario, SelectionSchedule

_TOL = 1e-9
_FEAS_TOL = 1e-8


@dataclass(frozen=True)
class LpProblem:
    """Relaxed selection problem: maximize c'g, rows on g, 0 <= g <= 1."""

    c: np.ndarray
    rows: tuple[LinearConstraint, ...]
    num_sensors: int
    horizon: int


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
    status: str
    iterations: int


@dataclass(frozen=True)
class RoundedSelection:
    """Feasible Boolean schedule with its certified suboptimality gap."""

    schedule: SelectionSchedule
    objective: float  # value of the rounded schedule
    bound: float  # LP optimum, an upper bound on any Boolean schedule
    gap: float


@dataclass(frozen=True)
class Certificate:
    lp_objective: float
    rounded_objective: float
    gap: float
    relative_gap: float
    feasible: bool
    constraint_ok: tuple[bool, ...]
    optimal: bool

    def to_dict(self) -> dict:
        return {
            "f_lp": self.lp_objective,
            "f_blp_hat": self.rounded_objective,
            "gap": self.gap,
            "relative_gap": self.relative_gap,
            "feasible": self.feasible,
            "constraint_ok": list(self.constraint_ok),
            "optimal": self.optimal,
        }


def build_lp(scenario: Scenario, noise_seq=None) -> LpProblem:
    """LP relaxation of the weighted-information selection problem.

    Variables are the step-major selection vector.  Rows: one equality per
    step (select exactly the required count), one inequality per sensor
    when energy budgets are present, then any extra scenario rows.
    """
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    for n, noise in enumerate(noise_seq):
        if not noise.is_block_diagonal():
            raise NotSeparableNoise(
                f"step {n} noise is correlated; use the semidefinite route"
            )
    num = scenario.num_sensors
    horizon = scenario.horizon
    nl = num * horizon
    c = info_table(scenario, noise_seq).T.reshape(-1)
    rows: list[LinearConstraint] = []
    for n, m in enumerate(scenario.constraints.per_step):
        a = np.zeros(nl)
        a[n * num : (n + 1) * num] = 1.0
        rows.append(LinearConstraint.build(a, "=", float(m)))
    if scenario.constraints.energy is not None:
        for i, budget in enumerate(scenario.constraints.energy):
            a = np.zeros(nl)
            a[i::num] = 1.0
            rows.append(LinearConstraint.build(a, "<=", float(budget)))
    rows.extend(scenario.constraints.extra)
    return LpProblem(c=c, rows=tuple(rows), num_sensors=num, horizon=horizon)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the relaxation to optimality; raises Infeasible when empty."""
    a = np.array([row.a for row in problem.rows], dtype=float)
    rels = [row.relation for row in problem.rows]
    rhs = np.array([row.b for row in problem.rows], dtype=float)
    upper = np.ones(problem.c.shape[0])
    x, objective, iterations = _simplex_max(problem.c, a, rels, rhs, upper)
    scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    for row, value in zip(problem.rows, a @ x):
        if row.relation == "<=" and value > row.b + _FEAS_TOL * scale:
            raise SenselError("simplex returned an infeasible point")
        if row.relation == ">=" and value < row.b - _FEAS_TOL * scale:
            raise SenselError("simplex returned an infeasible point")
        if row.relation == "=" and abs(value - row.b) > _FEAS_TOL * scale:
            raise SenselError("simplex returned an infeasible point")
    return LpSolution(x=x, objective=objective, status="optimal", iterations=iterations)


def round_batch(
    scores: np.ndarray, constraints: ConstraintSet, weights
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy schedules for a batch of step-major score arrays, in one pass.

    ``scores`` has shape (B, horizon, num).  Steps are processed from the
    largest weight to the smallest (ties go to the later step); at each step
    every candidate takes the count-many highest-scoring sensors that still
    have budget, spending one budget unit per pick.  Score ties go to the
    lower sensor index.  Budgets are carried as a (B, num) array; without
    energy budgets every sensor gets ``horizon`` units, which never bind.

    Returns the (B, horizon, num) 0/1 schedules and a (B,) mask that is
    false where a step ran out of sensors with budget left or an extra
    constraint row is violated; a masked-out schedule is meaningless.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("rounding scores must be finite")
    batch, horizon, num = scores.shape
    weights = np.asarray(weights, dtype=float)
    order = sorted(range(horizon), key=lambda n: (-weights[n], -n))
    energy = constraints.energy if constraints.energy is not None else [horizon] * num
    budgets = np.tile(np.asarray(energy, dtype=np.int64), (batch, 1))
    gammas = np.zeros((batch, horizon, num), dtype=np.int8)
    feasible = np.ones(batch, dtype=bool)
    rows = np.arange(batch)
    for n in order:
        m = constraints.per_step[n]
        has_budget = budgets > 0
        feasible &= np.count_nonzero(has_budget, axis=1) >= m
        # Scores are finite, so -inf marks exactly the sensors out of reach;
        # argmax returns the first maximum, the lower index on a tie.
        key = np.where(has_budget, scores[:, n], -np.inf)
        for _ in range(m):
            pick = key.argmax(axis=1)
            gammas[rows, n, pick] = 1
            key[rows, pick] = -np.inf
        budgets -= gammas[:, n]
    if constraints.extra:
        a = np.array([row.a for row in constraints.extra])
        lhs = gammas.reshape(batch, -1) @ a.T
        for p, row in enumerate(constraints.extra):
            feasible &= row.compare(lhs[:, p])
    return gammas, feasible


def round_by_scores(scores: np.ndarray, constraints: ConstraintSet, weights) -> SelectionSchedule:
    """Greedy feasible schedule from a sensors-by-steps score matrix.

    The single-candidate case of :func:`round_batch`.  Raises
    RoundingInfeasible when a step runs out of sensors with budget left or
    the greedy schedule violates an extra constraint row.
    """
    scores = np.asarray(scores, dtype=float)
    gammas, feasible = round_batch(scores.T[None], constraints, weights)
    if not feasible[0]:
        raise RoundingInfeasible(
            "greedy rounding ran out of sensors with budget left or "
            "violated an extra constraint row"
        )
    return SelectionSchedule.build(gammas[0].T)


def round_energy(
    lp: LpSolution, scenario: Scenario, problem: LpProblem | None = None,
    noise_seq=None,
) -> RoundedSelection:
    """Round a fractional LP point to a feasible schedule and compute the gap.

    Raises RoundingInfeasible when the greedy schedule cannot meet every
    constraint row.
    """
    if problem is None:
        problem = build_lp(scenario, noise_seq)
    scores = lp.x.reshape(problem.horizon, problem.num_sensors).T
    schedule = round_by_scores(scores, scenario.constraints, scenario.weights)
    objective = float(problem.c @ schedule.gamma_vec())
    gap = lp.objective - objective
    if gap < -_FEAS_TOL * (1.0 + abs(lp.objective)):
        raise SenselError(
            f"rounded objective {objective} exceeds the LP bound {lp.objective}"
        )
    return RoundedSelection(
        schedule=schedule, objective=objective, bound=lp.objective, gap=gap
    )


def certify(rounded: RoundedSelection, problem: LpProblem) -> Certificate:
    """Feasibility and bound report for a rounded schedule."""
    vec = rounded.schedule.gamma_vec()
    ok = tuple(row.holds(vec) for row in problem.rows)
    gap = rounded.gap
    denom = max(1.0, abs(rounded.bound))
    return Certificate(
        lp_objective=rounded.bound,
        rounded_objective=rounded.objective,
        gap=gap,
        relative_gap=gap / denom,
        feasible=all(ok),
        constraint_ok=ok,
        optimal=gap <= _FEAS_TOL * (1.0 + abs(rounded.bound)),
    )


# ---------------------------------------------------------------------------
# Bounded-variable primal simplex


def _simplex_max(c, a, rels, rhs, upper, max_iter: int = 200_000):
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
    if m == 0:
        x = np.where(c > 0, np.asarray(upper, dtype=float), 0.0)
        if not np.all(np.isfinite(x)):
            raise SenselError("LP is unbounded")
        return x, float(c @ x), 0

    # Slack column per inequality, then sign-normalize so rhs >= 0, then one
    # artificial per row; the artificial block is the starting basis.
    slack_cols = []
    for p, rel in enumerate(rels):
        if rel == "<=":
            col = np.zeros(m)
            col[p] = 1.0
            slack_cols.append(col)
        elif rel == ">=":
            col = np.zeros(m)
            col[p] = -1.0
            slack_cols.append(col)
        elif rel != "=":
            raise ValueError(f"unknown relation {rel!r}")
    n_slack = len(slack_cols)
    full = np.hstack([a, np.array(slack_cols).T.reshape(m, n_slack)]) if n_slack else a.copy()
    for p in range(m):
        if rhs[p] < 0:
            full[p] *= -1.0
            rhs[p] *= -1.0
    art_start = n_struct + n_slack
    full = np.hstack([full, np.eye(m)])
    ntot = art_start + m

    ub = np.concatenate([np.asarray(upper, dtype=float), np.full(n_slack + m, np.inf)])
    cost1 = np.zeros(ntot)
    cost1[art_start:] = 1.0
    cost2 = np.zeros(ntot)
    cost2[:n_struct] = -c  # phase 2 minimizes the negated objective

    tableau = full.copy()
    basis = list(range(art_start, art_start + m))
    in_basis = np.zeros(ntot, dtype=bool)
    in_basis[art_start:] = True
    at_upper = np.zeros(ntot, dtype=bool)
    xb = rhs.copy()
    iterations = 0

    def nonbasic_values():
        vals = np.where(at_upper, np.where(np.isfinite(ub), ub, 0.0), 0.0)
        vals[in_basis] = 0.0
        return vals

    def refactorize():
        nonlocal tableau, xb
        b_cols = full[:, basis]
        tableau = np.linalg.solve(b_cols, full)
        xb = np.linalg.solve(b_cols, rhs - full @ nonbasic_values())

    def run_phase(cost, banned_from: int | None):
        nonlocal iterations, tableau, xb
        since_refactor = 0
        stalled = 0
        bland_mode = False
        reduced = cost - cost[basis] @ tableau
        while True:
            if iterations >= max_iter:
                raise SenselError("simplex exceeded its iteration cap")
            eligible = ~in_basis & (
                (~at_upper & (reduced < -_TOL)) | (at_upper & (reduced > _TOL))
            )
            if banned_from is not None:
                eligible[banned_from:] = False
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
            since_refactor += 1
            if since_refactor >= 200:
                refactorize()
                reduced = cost - cost[basis] @ tableau
                since_refactor = 0

    run_phase(cost1, banned_from=None)
    art_total = sum(xb[i] for i in range(m) if basis[i] >= art_start)
    if art_total > _FEAS_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0))):
        raise Infeasible("constraint rows admit no feasible point")

    # Remove leftover artificials from the basis: pivot them out where the
    # row has support on real columns, drop the row where it does not
    # (redundant constraint).
    drop_rows = []
    for i in range(m):
        if basis[i] < art_start:
            continue
        support = np.flatnonzero(np.abs(tableau[i, :art_start]) > 1e-7)
        if support.size == 0:
            drop_rows.append(i)
            continue
        j = int(support[0])
        leaving = basis[i]
        in_basis[leaving] = False
        basis[i] = j
        in_basis[j] = True
        entering_value = ub[j] if at_upper[j] else 0.0
        at_upper[j] = False
        xb[i] = entering_value
        piv = tableau[i, j]
        tableau[i] /= piv
        others = tableau[:, j].copy()
        others[i] = 0.0
        tableau -= np.outer(others, tableau[i])
    if drop_rows:
        keep = [i for i in range(m) if i not in drop_rows]
        tableau = tableau[keep]
        xb = xb[keep]
        full = full[keep]
        rhs = rhs[keep]
        basis = [basis[i] for i in keep]
        m = len(keep)
    # Clean any residue the basis surgery left behind before optimizing.
    refactorize()

    run_phase(cost2, banned_from=art_start)

    values = nonbasic_values()
    for i, var in enumerate(basis):
        values[var] = xb[i]
    x = np.clip(values[:n_struct], 0.0, np.asarray(upper, dtype=float))
    return x, float(c @ x), iterations
