"""Selection for uncorrelated sensors under general linear constraints.

Pipeline: build the Boolean linear program over the step-major selection
vector, relax the 0/1 constraint to the unit box, solve the LP, round the
fractional solution to a feasible schedule by weight-ordered greedy
selection, and certify the result with the bound gap.

The LP solver is a self-contained bounded-variable primal simplex (dense
tableau, two phases, Bland's anti-cycling rule).  Problem sizes here stay
within a few thousand variables and a few hundred rows, where a dense
tableau is perfectly adequate and fully deterministic.

It starts from a greedy point: by decreasing objective weight, each
column goes to its upper bound unless that takes a ``<=`` or ``=`` row
above its right side or a ``>=`` row below it, which fills the count rows
with the best sensors that have budget left.  Every row whose slack can
take the row's residual at that point starts with that slack basic, which
covers the budget rows, and only the count rows (and any row the point
leaves on the wrong side) get an artificial variable.  On selection LPs
the greedy point fills every count row exactly, so every artificial starts
at zero and the start is already feasible: phase 1 does not run, and the
artificials stay basic as variables fixed at zero until a pivot through
their row takes them out (Maros 2003).  On the 400-sensor example3 LP the
whole solve is 61 phase-2 pivots, against 399 from the zero start and
5,690 from an all-artificial basis.  Where the optimum is not unique, the
vertex returned is the one this start leads to.

One pivot touches only what it changes.  The ratio test computes the step
lengths of every bounding row in one numpy pass and runs its tie-breaking
comparison over those rows alone.  The elimination (:func:`_pivot`)
subtracts the pivot row only from the rows where the entering column is
nonzero; the count and budget rows form an incidence matrix, so on
selection LPs most entries of that column are zero and most rows are
skipped.

The tableau is the one full-size array the solver keeps.  Every 200
pivots, counted across both phases, the tableau is rebuilt from the basis
columns (:func:`_basis_solve`) of an equality form built afresh from the
rows and dropped again.  Almost every basic column of a selection LP
is a unit slack column, so the rebuild solves only the few other basic
columns densely and back-substitutes the rest.

The constraint rows are never held as a (p, N*L) matrix.  A
``ConstraintRows`` keeps the count rows (one per step) and the budget rows
(one per sensor) as structure and only the extra rows as a dense matrix.
The crash start reads the column nonzeros from it, the equality form is
written from it straight into the tableau, and the feasibility checks of
:func:`solve_lp` and :func:`certify` form A x as per-step and per-sensor
sums plus one product with the extra rows.
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


def build_lp(scenario: Scenario) -> LpProblem:
    """LP relaxation of the weighted-information selection problem.

    Variables are the step-major selection vector.  Rows: one equality per
    step (select exactly the required count), one inequality per sensor
    when energy budgets are present, then any extra scenario rows.
    """
    for n, noise in enumerate(scenario.step_noise):
        if not noise.is_block_diagonal:
            raise NotSeparableNoise(
                f"step {n} noise is correlated; use the semidefinite route"
            )
    num = scenario.num_sensors
    c = (info_table(scenario) * scenario.weights).T.reshape(-1)
    return LpProblem(
        c=c, rows=scenario.constraints.rows(num), num_sensors=num,
        horizon=scenario.horizon,
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the relaxation to optimality; raises Infeasible when empty."""
    rows = problem.rows
    x, objective, iterations = _simplex_max(problem.c, rows, np.ones(problem.c.shape[0]))
    scale = 1.0 + float(np.abs(rows.b).max(initial=0.0))
    if not rows.meets(rows.lhs(x), _FEAS_TOL * scale).all():
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
    budget left, and that marks the candidate infeasible.  The key, the
    budgets and the schedules are row-major, so each pick reads and writes
    them through one 1-D array of flat indices, the candidate's row offset
    plus the picked sensor.
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
    # Flat views of the (B, num) key and budgets and the (B, horizon, num)
    # schedules, and each candidate's row offset into them.
    flat_budgets = budgets.reshape(-1)
    flat_gammas = gammas.reshape(-1)
    offsets = np.arange(batch) * num
    for n in order:
        key = np.where(budgets > 0, scores[:, n], -np.inf)
        flat_key = key.reshape(-1)
        step_offsets = offsets * horizon + n * num
        for _ in range(constraints.per_step[n]):
            # argmax returns the first maximum, the lower index on a tie.
            pick = key.argmax(axis=1)
            at = offsets + pick
            feasible &= flat_key[at] > -np.inf
            flat_key[at] = -np.inf
            flat_gammas[step_offsets + pick] = 1
            flat_budgets[at] -= 1
    extra = constraints.extra
    if extra is not None:
        feasible &= extra.meets(extra.lhs(gammas.reshape(batch, -1))).all(axis=1)
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
    ok = tuple(rows.meets(rows.lhs(rounded.schedule.gamma_vec())).tolist())
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


def _equality_form(rows, sign, art_rows):
    """The columns [A | slacks | artificials] of A x + sense s = rhs, row p
    times ``sign[p]``: A written by ``rows.fill``, a slack column
    sense_p e_p per inequality row, then an artificial column +e_p per row
    of ``art_rows``, in one zeroed array."""
    sense = rows.sense
    m, n_struct = len(rows), rows.dense.shape[1]
    slack_rows = np.flatnonzero(sense != 0)
    art_start = n_struct + slack_rows.size
    ntot = art_start + art_rows.size
    full = np.zeros((m, ntot))
    rows.fill(full[:, :n_struct])
    full[slack_rows, np.arange(n_struct, art_start)] = sense[slack_rows]
    full[sign < 0] *= -1.0
    full[art_rows, np.arange(art_start, ntot)] = 1.0
    return full


def _crash_start(c, rows, upper):
    """Equality form of A x + sense s = rhs, s >= 0, and its starting point,
    for the ``ConstraintRows`` ``rows``.

    The start puts columns at their upper bounds greedily (a crash, after
    Bixby 1992).  Walking the structural columns from the largest positive
    cost down (ties in index order), skipping infinite upper bounds, a
    column goes to its bound when that keeps every ``<=`` and ``=`` row it
    raises at or below its rhs and every ``>=`` row it lowers at or above
    its rhs.  The column nonzeros come from ``rows.nonzeros()``, read from
    the count and budget structure and the dense rows' nonzeros, and the
    walk is a scalar loop over them: each column's count row, then its
    budget row, then its dense rows in ascending order.

    Each inequality row (sense +1 or -1) gets a slack column sense_p e_p.
    Rows are then negated where the residual rhs - A x0 is negative, and
    sense -1 rows where it is zero, so that every slack that can take its
    row's residual has column +e_p.  That slack is the row's starting basic
    variable; only the remaining rows get an artificial column +e_p.  A
    lifted column never takes a row whose slack could start basic at
    x = 0 past its rhs, so this start needs no more artificials than
    x = 0 would.

    Returns (full, sign, start, basis, art_start, lifted): the columns
    [A | slacks | artificials] of :func:`_equality_form`, each row's sign
    (-1 where it was negated), the basic values (the normalized residual),
    the basic column of each row, the index of the first artificial
    column, and the mask of the structural columns at their upper bound.
    """
    sense, rhs = rows.sense, rows.b
    m, n_struct = len(rows), c.shape[0]
    order = np.argsort(-c, kind="stable")
    order = order[(c[order] > 0) & np.isfinite(upper[order])].tolist()
    # The nonzeros grouped by column in walk order; the stable sort keeps
    # each column's rows ascending.
    at, cols, values = rows.nonzeros()
    rank = np.full(n_struct, len(order))
    rank[order] = np.arange(len(order))
    by_rank = np.argsort(rank[cols], kind="stable")
    at, cols, values = at[by_rank], cols[by_rank], values[by_rank]
    ends = np.searchsorted(rank[cols], np.arange(1, len(order) + 1)).tolist()
    # +1 where the entry must keep its row's residual >= 0, -1 where <= 0.
    limits = np.where(sense[at] < 0, -1.0 * (values < 0), 1.0 * (values > 0)).tolist()
    at, values = at.tolist(), values.tolist()
    residual = rhs.tolist()
    bounds = upper.tolist()
    lifted = np.zeros(n_struct, dtype=bool)
    start = 0
    for j, end in zip(order, ends):
        bound = bounds[j]
        for k in range(start, end):
            if limits[k] * (residual[at[k]] - bound * values[k]) < 0.0:
                break
        else:
            for k in range(start, end):
                residual[at[k]] -= bound * values[k]
            lifted[j] = True
        start = end

    residual = np.array(residual)
    sign = np.where((residual < 0) | ((residual == 0) & (sense < 0)), -1.0, 1.0)
    crashed = np.where(sense > 0, residual >= 0, (sense < 0) & (residual <= 0))
    slack_rows = np.flatnonzero(sense != 0)
    art_rows = np.flatnonzero(~crashed)
    full = _equality_form(rows, sign, art_rows)
    art_start = n_struct + slack_rows.size
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = np.arange(n_struct, art_start)
    basis[art_rows] = np.arange(art_start, full.shape[1])
    return full, sign, np.abs(residual), basis, art_start, lifted


def _simplex_max(c, rows, upper):
    """Maximize c'x subject to the ``ConstraintRows`` ``rows``, A x (sense)
    rhs, and 0 <= x <= upper, where sense +1, 0 and -1 ask for a row at
    most, equal to or at least its rhs.

    Dense two-phase tableau simplex with variable bounds, started from the
    greedy point and crash basis of :func:`_crash_start`, whose array is
    the tableau: no other full-size array is kept.  Phase 1 runs only when
    some artificial starts above zero.  One rule holds in both phases: an
    artificial column never enters, and a basic artificial leaves only by
    a ratio-test pivot through its row.  Phase 2 fixes the artificials
    still basic at zero, so the first pivot through such a row retires its
    artificial; one in a redundant row stays basic to the end (Chvátal
    1983; Maros 2003).  Entering and leaving choices follow Bland's rule,
    so the method terminates even on degenerate instances.  Returns (x,
    objective, iterations).
    """
    c = np.asarray(c, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n_struct = c.shape[0]

    # Every starting basic column is a unit column, so the equality form is
    # the starting tableau as it stands.
    tableau, sign, xb, basis, art_start, lifted = _crash_start(c, rows, upper)
    rhs = sign * rows.b
    art_rows = np.flatnonzero(basis >= art_start)
    ntot = tableau.shape[1]
    ub = np.concatenate([upper, np.full(ntot - n_struct, np.inf)])
    in_basis = np.zeros(ntot, dtype=bool)
    in_basis[basis] = True
    at_upper = np.zeros(ntot, dtype=bool)
    at_upper[:n_struct] = lifted
    iterations = 0
    pivots = 0

    def nonbasic_values():
        vals = np.where(at_upper, np.where(np.isfinite(ub), ub, 0.0), 0.0)
        vals[in_basis] = 0.0
        return vals

    def refactorize():
        # The equality form is rebuilt from the rows for the basis solve
        # and dropped with it, so between refactorizations the tableau is
        # the only full-size array.
        nonlocal tableau, xb
        tableau = None
        full = _equality_form(rows, sign, art_rows)
        b_cols = full[:, basis]
        xb = _basis_solve(b_cols, rhs - full @ nonbasic_values())
        tableau = _basis_solve(b_cols, full)

    def run_phase(cost):
        """Optimize ``cost`` over the columns below ``art_start``."""
        nonlocal iterations, pivots, xb
        stalled = 0
        bland_mode = False
        reduced = cost - cost[basis] @ tableau
        while True:
            if iterations >= _MAX_PIVOTS:
                raise SenselError("simplex exceeded its iteration cap")
            eligible = ~in_basis & (
                (~at_upper & (reduced < -_TOL)) | (at_upper & (reduced > _TOL))
            )
            idx = np.flatnonzero(eligible[:art_start])
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
            pivots += 1
            if pivots % 200 == 0:
                refactorize()
                reduced = cost - cost[basis] @ tableau

    if xb[art_rows].any():  # phase 1 drives the artificials to zero
        cost1 = np.zeros(ntot)
        cost1[art_start:] = 1.0
        run_phase(cost1)
        if xb[basis >= art_start].sum() > _FEAS_TOL * (1.0 + float(np.abs(rhs).max())):
            raise Infeasible("constraint rows admit no feasible point")

    ub[art_start:] = 0.0
    cost2 = np.zeros(ntot)
    cost2[:n_struct] = -c  # phase 2 minimizes the negated objective
    run_phase(cost2)

    values = nonbasic_values()
    values[basis] = xb
    x = np.clip(values[:n_struct], 0.0, upper)
    return x, float(c @ x), iterations
