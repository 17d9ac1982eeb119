"""Information measures and the three selection objectives.

The per-step measure is the trace of the information gain of the selected
sensors: for uncorrelated sensors it splits into per-sensor terms, which is
what makes the analytic top-k selection and the LP formulation work.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import NotPositiveDefinite, SingularBlock
from .filter import covariance_rollout, selection_gain
from .model import Scenario, SelectionSchedule


def sensor_measure(h: np.ndarray, r_block: np.ndarray) -> float:
    """Per-sensor information measure trace(H' R^-1 H); nonnegative."""
    h = np.asarray(h, dtype=float)
    try:
        solved = linalg.solve_spd(r_block, h)
    except NotPositiveDefinite:
        raise SingularBlock("sensor noise block is not positive definite") from None
    return float(np.trace(h.T @ solved))


def gain_trace(h_tilde: np.ndarray, r_tilde: np.ndarray) -> float:
    """Trace of the information gain of a masked measurement stack.

    Selected rows are recognized by their nonzero noise diagonal (a
    positive definite block has a strictly positive diagonal, a masked one
    is all zero), so only the selected sub-block is ever inverted.
    """
    h_tilde = np.asarray(h_tilde, dtype=float)
    r_tilde = np.asarray(r_tilde, dtype=float)
    sel = np.diag(r_tilde) > 0
    if not np.any(sel):
        return 0.0
    h_sel = h_tilde[sel]
    r_sel = r_tilde[np.ix_(sel, sel)]
    try:
        solved = linalg.solve_spd(r_sel, h_sel)
    except NotPositiveDefinite:
        # Degenerate stack (for instance a PSD-singular block): fall back to
        # the generic pseudoinverse.
        return float(np.trace(h_sel.T @ linalg.pinv(linalg.symmetrize(r_sel)) @ h_sel))
    return float(np.trace(h_sel.T @ solved))


def info_table(scenario: Scenario, noise_seq=None) -> np.ndarray:
    """Weighted per-sensor measures, sensors by steps.

    Entry (i, n) is weight_n * trace(H_i' R_ii^-1 H_i) at step n, using the
    diagonal noise block of sensor i.  This is the objective table of the
    LP route and of any method that ignores cross-sensor correlation.
    """
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    num = scenario.num_sensors
    horizon = scenario.horizon
    table = np.zeros((num, horizon))
    for n in range(horizon):
        noise = noise_seq[n]
        for i, sensor in enumerate(scenario.sensors):
            table[i, n] = scenario.weights[n] * sensor_measure(
                sensor.h_at(n), noise.block(i, i)
            )
    return table


def _rollout(schedule: SelectionSchedule, scenario: Scenario, noise_seq):
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    return covariance_rollout(
        scenario.p0, scenario.system, scenario.sensors, schedule, noise_seq
    )


def objective_f1(schedule: SelectionSchedule, scenario: Scenario, noise_seq=None) -> np.ndarray:
    """Final-step posterior covariance under the schedule."""
    return _rollout(schedule, scenario, noise_seq)[-1]


def objective_f2(schedule: SelectionSchedule, scenario: Scenario, noise_seq=None) -> np.ndarray:
    """Average posterior covariance over the horizon."""
    covs = _rollout(schedule, scenario, noise_seq)
    return sum(covs) / len(covs)


def objective_f3(schedule: SelectionSchedule, scenario: Scenario, noise_seq=None) -> float:
    """Weighted sum over steps of the information-gain trace."""
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    total = 0.0
    for n in range(schedule.horizon):
        w = float(scenario.weights[n])
        if w == 0.0:
            continue
        gain = selection_gain(
            scenario.sensors, noise_seq[n], schedule.column(n), step=n
        )
        total += w * float(np.trace(gain))
    return total
