"""Selection for uncorrelated sensors under general linear constraints.

Pipeline: build the Boolean linear program over the step-major selection
vector, relax the 0/1 constraint to the unit box, solve the LP, round the
fractional solution to a feasible schedule by weight-ordered greedy
selection, and certify the result with the bound gap.

The LP solver is a self-contained bounded-variable primal simplex (dense
tableau, two phases, Bland's anti-cycling rule).  Problem sizes here stay
within a few thousand variables and a few hundred rows, where a dense
tableau is perfectly adequate and fully deterministic.

It starts from a crash basis: every row whose slack can take the row's
right side starts with that slack basic, which covers the budget rows, and
only the count rows (and any ``>=`` row with a positive right side) get an
artificial variable for phase 1.  On the 400-sensor example3 LP that is 5
artificials instead of 405, and 399 pivots instead of 5,690.

One pivot touches only what it changes.  The ratio test computes the step
lengths of every bounding row in one numpy pass and runs its tie-breaking
comparison over those rows alone.  The elimination (:func:`_pivot`)
subtracts the pivot row only from the rows where the entering column is
nonzero; the count and budget rows form an incidence matrix, so on
selection LPs most entries of that column are zero and most rows are
skipped.

Every 200 pivots, and once after phase 1, the tableau is rebuilt from the
basis columns (:func:`_basis_solve`).  Almost every basic column of a
selection LP is a unit slack column, so the rebuild solves only the few
other basic columns densely and back-substitutes the rest: on the
400-sensor example3 LP that is a 28 x 28 solve in place of a 405 x 405 one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NotSeparableNoise, RoundingInfeasible, SenselError
from .measure import info_table
from .model import ConstraintRows, ConstraintSet, Scenario, SelectionSchedule

_TOL = 1e-9
_FEAS_TOL = 1e-8
_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LpProblem:
    """Relaxed selection problem: maximize c'g, rows on g, 0 <= g <= 1."""

    c: np.ndarray
    rows: ConstraintRows
    num_sensors: int
    horizon: int


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
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
        if not noise.is_block_diagonal:
            raise NotSeparableNoise(
                f"step {n} noise is correlated; use the semidefinite route"
            )
    num = scenario.num_sensors
    c = (info_table(scenario, noise_seq) * scenario.weights).T.reshape(-1)
    return LpProblem(
        c=c, rows=scenario.constraints.rows(num), num_sensors=num,
        horizon=scenario.horizon,
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the relaxation to optimality; raises Infeasible when empty."""
    rows = problem.rows
    upper = np.ones(problem.c.shape[0])
    x, objective, iterations = _simplex_max(problem.c, rows.a, rows.sense, rows.b, upper)
    scale = 1.0 + float(np.abs(rows.b).max(initial=0.0))
    if not rows.meets(rows.a @ x, _FEAS_TOL * scale).all():
        raise SenselError("simplex returned an infeasible point")
    return LpSolution(x=x, objective=objective, iterations=iterations)


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
    Each step builds one key, the scores with -inf at the sensors out of
    budget, and every pick sets its entry to -inf.  Scores are finite, so a
    pick lands on -inf exactly when fewer than the count of sensors had
    budget left, and that marks the candidate infeasible.
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
        key = np.where(budgets > 0, scores[:, n], -np.inf)
        for _ in range(constraints.per_step[n]):
            # argmax returns the first maximum, the lower index on a tie.
            pick = key.argmax(axis=1)
            feasible &= key[rows, pick] > -np.inf
            key[rows, pick] = -np.inf
            gammas[rows, n, pick] = 1
            budgets[rows, pick] -= 1
    extra = constraints.extra
    if extra is not None:
        feasible &= extra.meets(gammas.reshape(batch, -1) @ extra.a.T).all(axis=1)
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


def round_energy(lp: LpSolution, scenario: Scenario, problem: LpProblem) -> RoundedSelection:
    """Round a fractional LP point to a feasible schedule and compute the gap.

    Raises RoundingInfeasible when the greedy schedule cannot meet every
    constraint row.
    """
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
    rows = problem.rows
    ok = tuple(rows.meets(rows.a @ rounded.schedule.gamma_vec()).tolist())
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


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Pivot the tableau in place on (row, col): scale the pivot row, then
    eliminate the column from the rows where it is nonzero.  Rows with a
    zero there are left untouched, which on selection LPs is most rows."""
    tableau[row] /= tableau[row, col]
    others = tableau[:, col].copy()
    others[row] = 0.0
    nz = np.flatnonzero(others)
    tableau[nz] -= np.outer(others[nz], tableau[row])


def _basis_solve(b_cols: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Solve ``b_cols @ out = cols`` for a nonsingular basis matrix, one row
    of ``out`` per basic column, in basis order; ``cols`` is a matrix (the
    tableau) or a vector (the basic values).

    Basic columns with a single nonzero entry (slacks, artificials, and
    structural columns on count-only programs) are singletons.  A singleton
    is zero off its own row, so the k rows that no singleton covers hold
    only the other k basic columns: one k x k solve.  Each singleton's row
    then subtracts the solved rows only where its entry in their columns is
    nonzero, as :func:`_pivot` does, and divides by the singleton's entry
    (the triangular part of a basis factorization, after Suhl and Suhl
    1990).  A basis with no singleton is the k = m case.
    """
    nonzero = b_cols != 0.0
    single = np.count_nonzero(nonzero, axis=0) == 1
    s_pos = np.flatnonzero(single)
    d_pos = np.flatnonzero(~single)
    s_rows = nonzero[:, s_pos].argmax(axis=0)
    d_rows = np.setdiff1d(np.arange(b_cols.shape[0]), s_rows)
    source = np.empty(b_cols.shape[0], dtype=int)
    source[s_pos] = s_rows
    source[d_pos] = d_rows
    out = cols[source]
    out[d_pos] = np.linalg.solve(b_cols[np.ix_(d_rows, d_pos)], out[d_pos])
    coupling = b_cols[np.ix_(s_rows, d_pos)]
    for k, pos in enumerate(d_pos):
        hit = np.flatnonzero(coupling[:, k])
        out[s_pos[hit]] -= np.multiply.outer(coupling[hit, k], out[pos])
    entries = b_cols[s_rows, s_pos]
    scaled = np.flatnonzero(entries != 1.0)  # dividing by 1 changes nothing
    out[s_pos[scaled]] /= entries[scaled].reshape((-1,) + (1,) * (out.ndim - 1))
    return out


def _crash_start(a, sense, rhs):
    """Equality form of a x + sense s = rhs, s >= 0, and its starting basis.

    Each inequality row (sense +1 or -1) gets a slack column sense_p e_p.
    Rows are then negated where rhs < 0, and sense -1 rows where rhs = 0,
    so that rhs >= 0 and every slack that can start at its row's rhs has
    column +e_p.  That slack is the row's starting basic variable (a crash
    basis, after Bixby 1992); only the remaining rows, the equalities and
    the sense -1 rows with rhs > 0, get an artificial column +e_p.

    Returns (full, rhs, basis, art_start): the columns [a | slacks |
    artificials], the normalized rhs, the basic column of each row, and the
    index of the first artificial column.
    """
    m, n_struct = a.shape
    slack_rows = np.flatnonzero(sense != 0)
    art_start = n_struct + slack_rows.size
    slacks = np.zeros((m, slack_rows.size))
    slacks[slack_rows, np.arange(slack_rows.size)] = sense[slack_rows]
    full = np.hstack([a, slacks])
    full[(rhs < 0) | ((rhs == 0) & (sense < 0))] *= -1.0
    crashed = np.where(sense > 0, rhs >= 0, (sense < 0) & (rhs <= 0))
    art_rows = np.flatnonzero(~crashed)
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = np.arange(n_struct, art_start)
    basis[art_rows] = np.arange(art_start, art_start + art_rows.size)
    full = np.hstack([full, np.eye(m)[:, art_rows]])
    return full, np.abs(rhs), basis, art_start


def _simplex_max(c, a, sense, rhs, upper):
    """Maximize c'x subject to a x (sense) rhs and 0 <= x <= upper, where
    sense +1, 0 and -1 ask for a row at most, equal to or at least its rhs.

    Dense two-phase tableau simplex with variable bounds, started from the
    crash basis of :func:`_crash_start`; phase 1 runs only when some row
    needed an artificial.  Entering and leaving choices follow Bland's
    rule, so the method terminates even on degenerate instances.  Returns
    (x, objective, iterations).
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

    full, rhs, basis, art_start = _crash_start(a, np.asarray(sense, dtype=float), rhs)
    m, ntot = full.shape
    ub = np.concatenate([np.asarray(upper, dtype=float), np.full(ntot - n_struct, np.inf)])
    tableau = full.copy()  # every starting basic column is a unit column
    in_basis = np.zeros(ntot, dtype=bool)
    in_basis[basis] = True
    at_upper = np.zeros(ntot, dtype=bool)
    xb = rhs.copy()
    iterations = 0

    def nonbasic_values():
        vals = np.where(at_upper, np.where(np.isfinite(ub), ub, 0.0), 0.0)
        vals[in_basis] = 0.0
        return vals

    def refactorize():
        nonlocal tableau, xb
        tableau = None  # so that only one full-size tableau is alive at a time
        b_cols = full[:, basis]
        tableau = _basis_solve(b_cols, full)
        xb = _basis_solve(b_cols, rhs - full @ nonbasic_values())

    def run_phase(cost):
        nonlocal iterations, tableau, xb
        since_refactor = 0
        stalled = 0
        bland_mode = False
        reduced = cost - cost[basis] @ tableau
        while True:
            if iterations >= _MAX_PIVOTS:
                raise SenselError("simplex exceeded its iteration cap")
            eligible = ~in_basis & (
                (~at_upper & (reduced < -_TOL)) | (at_upper & (reduced > _TOL))
            )
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
            rate = direction * tableau[:, j]  # xb decreases at this rate per unit step
            # Rows that bound the step: a basic variable falling to 0, or
            # rising to a finite upper bound.  Step lengths for all of them
            # in one pass, then the sequential tie-breaking fold over just
            # those rows (the tolerance chain is not transitive, so a
            # min/argmin would not pick the same row).
            ub_basis = ub[basis]
            down = rate > _TOL
            up = (rate < -_TOL) & np.isfinite(ub_basis)
            rows = np.flatnonzero(down | up)
            room = np.where(down[rows], xb[rows], ub_basis[rows] - xb[rows])
            steps = room / np.abs(rate[rows])
            # Candidates: (step length, variable index, row or None for a bound flip)
            best_t = ub[j]
            best_var = j
            best_row = None
            for i, t, var in zip(rows.tolist(), steps.tolist(), basis[rows].tolist()):
                if t < best_t - _TOL or (t < best_t + _TOL and var < best_var):
                    best_t = t
                    best_var = var
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
            _pivot(tableau, best_row, j)
            reduced -= reduced[j] * tableau[best_row]
            since_refactor += 1
            if since_refactor >= 200:
                refactorize()
                reduced = cost - cost[basis] @ tableau
                since_refactor = 0

    if art_start < ntot:  # phase 1 drives the artificials to zero
        cost1 = np.zeros(ntot)
        cost1[art_start:] = 1.0
        run_phase(cost1)
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
            _pivot(tableau, i, j)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tableau = tableau[keep]
            xb = xb[keep]
            full = full[keep]
            rhs = rhs[keep]
            basis = basis[keep]
            m = len(keep)
        # No artificial is basic any more and phase 2 never prices one, so
        # their columns go; the refactorization rebuilds the tableau without
        # them and cleans any residue the basis surgery left behind.
        full = full[:, :art_start]
        ub = ub[:art_start]
        at_upper = at_upper[:art_start]
        in_basis = in_basis[:art_start]
        refactorize()

    cost2 = np.zeros(art_start)
    cost2[:n_struct] = -c  # phase 2 minimizes the negated objective
    run_phase(cost2)

    values = nonbasic_values()
    for i, var in enumerate(basis):
        values[var] = xb[i]
    x = np.clip(values[:n_struct], 0.0, np.asarray(upper, dtype=float))
    return x, float(c @ x), iterations
