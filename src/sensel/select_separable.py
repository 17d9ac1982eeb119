"""Analytic top-k selection for uncorrelated sensors, plus the exhaustive
search used as the optimality oracle everywhere else.

With block-diagonal noise and per-step count constraints the optimum is
simply the count-many sensors with the largest per-sensor measures at each
step, which is what the LP route's greedy rounder picks from the measure
table and the counts alone.  The exhaustive search enumerates every
feasible schedule and is intentionally unrelated to any other solver in
this package so it can serve as an independent reference.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from . import linalg
from .errors import Infeasible, NotSeparableNoise, TooLarge, UnsupportedConstraints
from .filter import selection_gain
from .measure import OBJECTIVES, info_table
from .model import ConstraintSet, Scenario, SelectionSchedule
from .select_lp import round_by_scores

EXHAUSTIVE_CAP = 10_000_000


def topk_schedule(scenario: Scenario, noise_seq=None) -> SelectionSchedule:
    """Greedy rounding of the unweighted measure table under the per-step
    counts alone: each step's largest measures, ties to the lower index.

    Raises NotSeparableNoise on correlated noise at any step, and
    UnsupportedConstraints when the schedule breaks a budget or extra row.
    """
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    if not all(noise.is_block_diagonal for noise in noise_seq):
        raise NotSeparableNoise(
            "sensor noises are correlated; top-k selection does not apply"
        )
    counts = ConstraintSet.build(scenario.constraints.per_step)
    schedule = round_by_scores(info_table(scenario, noise_seq), counts, scenario.weights)
    if not schedule.satisfies(scenario.constraints):
        raise UnsupportedConstraints(
            "the top-k schedule violates an energy budget or an extra "
            "constraint row; use the lp route"
        )
    return schedule


def _schedule_count(scenario: Scenario) -> int:
    return math.prod(
        math.comb(scenario.num_sensors, m) for m in scenario.constraints.per_step
    )


def exhaustive_opt(
    scenario: Scenario,
    objective: str = "f1",
    cap: int = EXHAUSTIVE_CAP,
    noise_seq=None,
) -> tuple[SelectionSchedule, float]:
    """Best feasible schedule by brute-force enumeration.

    Minimizes the trace objectives f1 and f2, maximizes the information
    objective f3.
    Ties resolve to the schedule whose step-major 0/1 vector is
    lexicographically smallest.  Energy budgets prune partial schedules;
    extra linear constraints are checked on complete ones.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    total = _schedule_count(scenario)
    if total > cap:
        raise TooLarge(
            f"{total} candidate schedules exceed the cap of {cap}"
        )
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    cons = scenario.constraints
    num = scenario.num_sensors
    horizon = scenario.horizon
    maximize = objective == "f3"
    weights = scenario.weights
    p_seed = np.asarray(scenario.p0, dtype=float)

    # Per-step gain matrices are shared across every branch that picks the
    # same combination at that step.
    gain_cache: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}

    def gain_for(step: int, combo: tuple[int, ...]) -> np.ndarray:
        key = (step, combo)
        hit = gain_cache.get(key)
        if hit is None:
            col = np.zeros(num, dtype=np.int8)
            col[list(combo)] = 1
            hit = selection_gain(scenario, noise_seq[step], col, step=step)
            gain_cache[key] = hit
        return hit

    best: list = [None, math.inf if not maximize else -math.inf, None]

    def consider(columns: list[tuple[int, ...]], value: float) -> None:
        schedule = SelectionSchedule.build(_combo_matrix(columns, num))
        if cons.extra and not schedule.satisfies(cons):
            return
        better = value > best[1] if maximize else value < best[1]
        if better or (value == best[1] and (best[2] is None or schedule.key() < best[2])):
            best[0], best[1], best[2] = schedule, value, schedule.key()

    def recurse(step, budgets, columns, p, trace_acc, f3_acc):
        if step == horizon:
            if objective == "f1":
                consider(columns, float(np.trace(p)))
            elif objective == "f2":
                consider(columns, trace_acc / horizon)
            else:
                consider(columns, f3_acc)
            return
        f = scenario.system.f_at(step)
        q = scenario.system.q_at(step)
        if objective != "f3":
            p_pred = linalg.symmetrize(f @ p @ f.T + q)
            info_pred = linalg.inv_spd(p_pred)
        for combo in combinations(range(num), cons.per_step[step]):
            if budgets is not None:
                if any(budgets[i] == 0 for i in combo):
                    continue
                next_budgets = list(budgets)
                for i in combo:
                    next_budgets[i] -= 1
            else:
                next_budgets = None
            columns.append(combo)
            if objective == "f3":
                gain_val = float(np.trace(gain_for(step, combo)))
                recurse(
                    step + 1, next_budgets, columns, p,
                    trace_acc, f3_acc + float(weights[step]) * gain_val,
                )
            else:
                p_next = linalg.inv_spd(info_pred + gain_for(step, combo))
                recurse(
                    step + 1, next_budgets, columns, p_next,
                    trace_acc + float(np.trace(p_next)), f3_acc,
                )
            columns.pop()

    budgets = list(cons.energy) if cons.energy is not None else None
    recurse(0, budgets, [], p_seed, 0.0, 0.0)
    if best[0] is None:
        raise Infeasible("no feasible schedule under the constraint set")
    return best[0], float(best[1])


def _combo_matrix(columns: list[tuple[int, ...]], num: int) -> np.ndarray:
    gamma = np.zeros((num, len(columns)), dtype=np.int8)
    for n, combo in enumerate(columns):
        gamma[list(combo), n] = 1
    return gamma
