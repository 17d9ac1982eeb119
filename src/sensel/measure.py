"""Information measures and the three selection objectives.

The per-step measure is the trace of the information gain of the selected
sensors: for uncorrelated sensors it splits into per-sensor terms, which is
what makes the analytic top-k selection and the LP formulation work.
f3 has one evaluator, :func:`f3_values`, batched over schedules; f1 and f2
read :func:`filter.covariance_rollout`.
"""

from __future__ import annotations

import numpy as np

from .filter import covariance_rollout
from .model import Scenario, SelectionSchedule

OBJECTIVES = ("f1", "f2", "f3")


def info_table(scenario: Scenario, noise_seq=None) -> np.ndarray:
    """Unweighted per-sensor measures, sensors by steps.

    Entry (i, n) is trace(H_i' R_ii^-1 H_i) at step n, using the diagonal
    noise block of sensor i.  Top-k ranks each step's sensors by it; the
    LP route weights it by the step weights to get its objective.

    Each step takes one batched pass per measurement dimension: one gather
    of the diagonal blocks and of the sensors' rows of
    ``scenario.h_stacks[n]``, one stacked solve and one stacked trace.
    No block is checked here: a noise model is checked when it is made,
    and every one a step uses (all but the static part of a distance
    model) is positive definite, and so is each of its diagonal blocks.
    """
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    sensors = scenario.sensors
    dims = np.array([sensor.meas_dim for sensor in sensors])
    groups = [(d, np.flatnonzero(dims == d)) for d in np.unique(dims)]
    table = np.zeros((len(sensors), scenario.horizon))
    for n in range(scenario.horizon):
        noise = noise_seq[n]
        for d, idx in groups:
            rows = noise.offsets[idx][:, None] + np.arange(d)
            r = noise.r_full[rows[:, :, None], rows[:, None, :]]
            h = scenario.h_stacks[n][rows]
            solved = np.linalg.solve(r, h)
            table[idx, n] = np.trace(h.transpose(0, 2, 1) @ solved, axis1=1, axis2=2)
    return table


def objective_f1(schedule: SelectionSchedule, scenario: Scenario, noise_seq=None) -> np.ndarray:
    """Final-step posterior covariance under the schedule."""
    return covariance_rollout(scenario, schedule, noise_seq)[-1]


def objective_f2(schedule: SelectionSchedule, scenario: Scenario, noise_seq=None) -> np.ndarray:
    """Average posterior covariance over the horizon."""
    covs = covariance_rollout(scenario, schedule, noise_seq)
    return sum(covs) / len(covs)


def distinct_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate the rows of a (B, k) uint8 array, for any width k: 0/1
    rows packed by ``np.packbits`` along their last axis.

    Each row is padded into 64-bit words, and one stable ``lexsort`` of the
    words groups equal rows.  Returns the index of each distinct row's
    first occurrence and the index of each row's distinct row.
    """
    words = np.zeros((packed.shape[0], max(1, -(-packed.shape[1] // 8)) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    words = words.view(np.uint64)
    order = np.lexsort(words.T)
    ranked = words[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _gain_traces(scenario: Scenario, noise, columns: np.ndarray, step: int) -> np.ndarray:
    """trace(H' R^-1 H) of each 0/1 selection column of a (U, num) array, as
    :func:`filter.selection_gain` computes it, with one stacked solve per
    count of selected noise rows."""
    selected = columns.astype(bool)[:, noise.labels]
    counts = np.count_nonzero(selected, axis=1)
    traces = np.zeros(columns.shape[0])
    # A set, not np.unique: numpy's hash-based unique of an int array holds
    # about 1 MB more resident memory from its first call on.
    for k in sorted(set(counts.tolist()) - {0}):
        idx = np.flatnonzero(counts == k)
        rows = np.nonzero(selected[idx])[1].reshape(idx.size, k)
        h = scenario.h_stacks[step][rows]
        r = noise.r_full[rows[:, :, None], rows[:, None, :]]
        gains = h.transpose(0, 2, 1) @ np.linalg.solve(r, h)
        traces[idx] = np.trace(gains, axis1=1, axis2=2)
    return traces


def f3_values(gammas: np.ndarray, scenario: Scenario, noise_seq) -> np.ndarray:
    """Weighted f3 sum of each (horizon, num) 0/1 schedule in a batch.

    Each step's gain trace is computed once per distinct selection column.
    The columns of every step are packed by one ``np.packbits`` over the
    batch, each padded with zeros to whole bytes first, which gives the
    bytes that packing each step alone would give.  The weighted terms are
    added step by step in step order, starting from 0.0, and steps of
    weight 0 are skipped.
    """
    weights = np.asarray(scenario.weights, dtype=float)
    batch, horizon, num = gammas.shape
    totals = np.zeros(batch)
    padded = np.zeros((batch, horizon, -(-num // 8) * 8), dtype=bool)
    padded[:, :, :num] = gammas
    packed = np.packbits(padded.reshape(batch, -1), axis=1).reshape(batch, horizon, -1)
    for n in range(horizon):
        if weights[n] == 0.0:
            continue
        first, inverse = distinct_rows(packed[:, n])
        gains = _gain_traces(scenario, noise_seq[n], gammas[first, n], n)
        totals = totals + float(weights[n]) * gains[inverse]
    return totals


def objective_f3(schedule: SelectionSchedule, scenario: Scenario, noise_seq=None) -> float:
    """Weighted sum over steps of the information-gain trace: the
    single-schedule case of :func:`f3_values`."""
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    return float(f3_values(schedule.gamma.T[None], scenario, noise_seq)[0])


def objective_value(kind: str, schedule: SelectionSchedule, scenario: Scenario, noise_seq=None) -> float:
    """Scalar value of objective ``kind``: the trace of f1 or f2 (to be
    minimized) or f3 itself (to be maximized)."""
    if kind == "f3":
        return objective_f3(schedule, scenario, noise_seq)
    if kind not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    measure = objective_f1 if kind == "f1" else objective_f2
    return float(np.trace(measure(schedule, scenario, noise_seq)))
