"""Analytic top-k selection for uncorrelated sensors, plus the exhaustive
search used as the optimality oracle everywhere else.

With block-diagonal noise and per-step count constraints the optimum is
simply the count-many sensors with the largest per-sensor measures at each
step, which is what the LP route's greedy rounder picks from the measure
table and the counts alone.  The exhaustive search scores every feasible
schedule, up to ``EXHAUSTIVE_CAP`` candidates, in fixed slices, so its
memory depends on the slice and each step's combination count, not on
the number of schedules.  It shares the gain computation, the constraint
rows and the f1/f2 covariance recursion (:func:`filter.covariance_rollout`,
read by :func:`measure.rollout_values`) with the solvers' scorer, and
calls no solver, rounder or f3 evaluator.  The recursion's own reference
is the gain-form filter: the test suite checks the batched rollout against
``predict`` and ``update_kalman``, which masks the all-sensor stack to
each step's selection, schedule by schedule.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from . import linalg
from .errors import Infeasible, NotSeparableNoise, TooLarge, UnsupportedConstraints
from .filter import covariance_rollout, selection_gains
from .measure import OBJECTIVES, info_table, rollout_values
from .model import ConstraintSet, Scenario, SelectionSchedule
from .select_lp import round_by_scores

EXHAUSTIVE_CAP = 10_000_000
# Leaves scored together by the exhaustive search.
_SLICE = 4096


def topk_schedule(scenario: Scenario) -> SelectionSchedule:
    """Greedy rounding of the unweighted measure table under the per-step
    counts alone: each step's largest measures, ties to the lower index.

    Raises NotSeparableNoise on correlated noise at any step, and
    UnsupportedConstraints when the schedule breaks a budget or extra row.
    """
    if not all(noise.is_block_diagonal for noise in scenario.step_noise):
        raise NotSeparableNoise(
            "sensor noises are correlated; top-k selection does not apply"
        )
    counts = ConstraintSet.build(scenario.constraints.per_step)
    schedule = round_by_scores(info_table(scenario), counts, scenario.weights)
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


def exhaustive_opt(scenario: Scenario, objective: str = "f1") -> tuple[SelectionSchedule, float]:
    """Best feasible schedule by brute-force enumeration.

    Minimizes the trace objectives f1 and f2, maximizes the information
    objective f3.  Every schedule is one leaf of the product of the steps'
    count-sized combinations, each step in ``itertools.combinations``
    order; the leaves are scored in slices of ``_SLICE`` consecutive
    mixed-radix indices, so memory does not grow with the schedule count.
    Each step's gains come from one :func:`filter.selection_gains` call.
    One constraint-row product per slice drops the leaves that break a
    budget or an extra row.  f3 adds the weighted gain traces in step
    order; f1 and f2 run one :func:`filter.covariance_rollout` of the
    slice's gathered gains.
    Ties resolve to the schedule whose step-major 0/1 vector is
    lexicographically smallest: in combination order the 0/1 vectors
    descend, so that is the tied leaf of largest index.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    total = _schedule_count(scenario)
    if total > EXHAUSTIVE_CAP:
        raise TooLarge(
            f"{total} candidate schedules exceed the cap of {EXHAUSTIVE_CAP}"
        )
    num = scenario.num_sensors
    rows = scenario.constraints.rows(num)
    # Each step's combinations as 0/1 rows, in itertools order.
    columns = []
    for m in scenario.constraints.per_step:
        chosen = np.array(list(combinations(range(num), m)))
        column = np.zeros((len(chosen), num), dtype=np.int8)
        np.put_along_axis(column, chosen, 1, axis=1)
        columns.append(column)
    gains = [
        linalg.symmetrize(selection_gains(scenario, column, n))
        for n, column in enumerate(columns)
    ]
    traces = [np.trace(gain, axis1=1, axis2=2) for gain in gains]
    radices = [len(column) for column in columns]
    maximize = objective == "f3"
    best_leaf, best_value = None, None
    for start in range(0, total, _SLICE):
        leaves = np.arange(start, min(start + _SLICE, total))
        picks = np.unravel_index(leaves, radices)
        vectors = np.concatenate(
            [column[pick] for column, pick in zip(columns, picks)], axis=1
        )
        keep = np.flatnonzero(rows.meets(vectors @ rows.a.T).all(axis=1))
        if keep.size == 0:
            continue
        picks = [pick[keep] for pick in picks]
        if maximize:
            values = 0.0
            for n, pick in enumerate(picks):
                values = values + float(scenario.weights[n]) * traces[n][pick]
        else:
            gathered = [gain[pick] for gain, pick in zip(gains, picks)]
            values = rollout_values(objective, covariance_rollout(scenario, gathered))
        value = values.max() if maximize else values.min()
        if best_leaf is None or (value >= best_value if maximize else value <= best_value):
            best_leaf = leaves[keep[np.flatnonzero(values == value)[-1]]]
            best_value = value
    if best_leaf is None:
        raise Infeasible("no feasible schedule under the constraint set")
    picks = np.unravel_index(best_leaf, radices)
    gamma = np.stack([column[pick] for column, pick in zip(columns, picks)], axis=1)
    return SelectionSchedule.build(gamma), float(best_value)
