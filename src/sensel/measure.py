"""Information measures and the three selection objectives.

The per-step measure is the trace of the information gain of the selected
sensors: for uncorrelated sensors it splits into per-sensor terms, which is
what makes the analytic top-k selection and the LP formulation work.
:func:`objective_values` scores a batch of schedules: f3 by
:func:`f3_values`, f1 and f2 by the one batched recursion
:func:`filter.covariance_rollout`, read by :func:`rollout_values`.  Each
reads step n's noise where the filter does, from ``scenario.step_noise[n]``,
so a measure takes the scenario and nothing else about the noise.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .filter import covariance_rollout, row_gains, selection_gains
from .model import Scenario, SelectionSchedule

OBJECTIVES = ("f1", "f2", "f3")


def info_table(scenario: Scenario) -> np.ndarray:
    """Unweighted per-sensor measures, sensors by steps.

    Entry (i, n) is trace(H_i' R_ii^-1 H_i) at step n, using sensor i's
    diagonal block of the step's noise ``scenario.step_noise[n]``.  Top-k
    ranks each step's sensors by it; the LP route weights it by the step
    weights to get its objective.

    Each step takes one :func:`filter.row_gains` per measurement
    dimension, on each sensor's own rows, and one stacked trace.
    No block is checked here: a noise model is checked when it is made,
    and every one a step uses (all but the static part of a distance
    model) is positive definite, and so is each of its diagonal blocks.
    """
    sensors = scenario.sensors
    dims = np.array([sensor.meas_dim for sensor in sensors])
    groups = [(d, np.flatnonzero(dims == d)) for d in np.unique(dims)]
    table = np.zeros((len(sensors), scenario.horizon))
    offsets = scenario.noise.offsets
    for n in range(scenario.horizon):
        for d, idx in groups:
            rows = offsets[idx][:, None] + np.arange(d)
            gains = row_gains(scenario, rows, n)
            table[idx, n] = np.trace(gains, axis1=1, axis2=2)
    return table


def distinct_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate the rows of a (B, k) uint8 array, for any width k: 0/1
    rows packed by ``np.packbits`` along their last axis.

    One stable ``lexsort`` of the bytes, each column a contiguous uint8
    key (which numpy sorts by radix), groups equal rows; each row padded
    into 64-bit words marks where a group starts.  Returns the index of
    each distinct row's first occurrence and the index of each row's
    distinct row.
    """
    order = np.lexsort(np.ascontiguousarray(packed.T))
    words = np.zeros((packed.shape[0], max(1, -(-packed.shape[1] // 8)) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    ranked = words.view(np.uint64)[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def packed_columns(gammas: np.ndarray) -> np.ndarray:
    """The (B, horizon, bytes) uint8 packing of a batch of (horizon, num)
    0/1 schedules that :func:`distinct_rows` reads, one step's column per
    row.  The columns of every step are packed by one ``np.packbits`` over
    the batch, each padded with zeros to whole bytes first, which gives the
    bytes that packing each step alone would give."""
    batch, horizon, num = gammas.shape
    padded = np.zeros((batch, horizon, -(-num // 8) * 8), dtype=bool)
    padded[:, :, :num] = gammas
    return np.packbits(padded.reshape(batch, -1), axis=1).reshape(batch, horizon, -1)


def f3_values(gammas: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Weighted f3 sum of each (horizon, num) 0/1 schedule in a batch.

    Each step's gain traces come from one :func:`filter.selection_gains`
    of its distinct selection columns (:func:`packed_columns`).  The
    weighted terms are added step by step in step order, starting from
    0.0, and steps of weight 0 are skipped.
    """
    weights = np.asarray(scenario.weights, dtype=float)
    batch, horizon, num = gammas.shape
    totals = np.zeros(batch)
    packed = packed_columns(gammas)
    for n in range(horizon):
        if weights[n] == 0.0:
            continue
        first, inverse = distinct_rows(packed[:, n])
        gains = selection_gains(scenario, gammas[first, n], n)
        traces = np.trace(gains, axis1=1, axis2=2)
        totals = totals + float(weights[n]) * traces[inverse]
    return totals


def objective_f3(schedule: SelectionSchedule, scenario: Scenario) -> float:
    """Weighted sum over steps of the information-gain trace: the
    single-schedule case of :func:`f3_values`."""
    return float(f3_values(schedule.gamma.T[None], scenario)[0])


def rollout_values(kind: str, covs) -> np.ndarray:
    """Trace objective f1 or f2 of each schedule from its
    :func:`filter.covariance_rollout`: f1 reads the last step's
    covariance, f2 adds the steps' covariances in step order, starting
    from 0, and divides by their count."""
    total = covs[-1] if kind == "f1" else sum(covs) / len(covs)
    return np.trace(total, axis1=1, axis2=2)


def objective_values(kind: str, gammas: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Value of objective ``kind`` for each (horizon, num) 0/1 schedule of
    a batch: the traces of f1 or f2 (to be minimized) or f3 itself (to be
    maximized).  f3 is :func:`f3_values`.  f1 and f2 run one
    :func:`filter.covariance_rollout` of the batch's distinct schedules,
    taking each step's gains from one :func:`filter.selection_gains` of
    their distinct columns, and gather the values back over the batch."""
    if kind == "f3":
        return f3_values(gammas, scenario)
    if kind not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    packed = packed_columns(gammas)
    first, inverse = distinct_rows(packed.reshape(len(packed), -1))
    gains = []
    for n in range(gammas.shape[1]):
        columns, column_of = distinct_rows(packed[first, n])
        step = selection_gains(scenario, gammas[first[columns], n], n)
        gains.append(linalg.symmetrize(step)[column_of])
    return rollout_values(kind, covariance_rollout(scenario, gains))[inverse]


def objective_value(kind: str, schedule: SelectionSchedule, scenario: Scenario) -> float:
    """Value of objective ``kind`` for one schedule: the one-schedule case
    of :func:`objective_values`."""
    return float(objective_values(kind, schedule.gamma.T[None], scenario)[0])
