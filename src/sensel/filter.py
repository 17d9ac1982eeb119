"""State estimation under sensor selection.

Two equivalent update forms are provided: the gain form, which applies the
Moore-Penrose pseudoinverse to the (singular) innovation covariance of the
masked measurement stack, and the information form, which inverts only the
noise blocks of the selected sensors.  Their agreement is the core
correctness property of this module and is enforced by the test suite.
All functions are pure; covariances are re-symmetrized after every update.

Every step's joint stack has one row layout: ``noise.labels`` names the
sensor of each row and ``scenario.h_stacks[n]`` holds the rows of H, so
the functions below take the scenario and read both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidMatrix
from .model import DynamicSystem, NoiseModel, Scenario, SelectionSchedule


@dataclass(frozen=True)
class FilterState:
    """State estimate and its error covariance at one time step."""

    x: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class StackedMeasurement:
    """All-sensor measurement stack with unselected blocks masked to zero.

    ``row_mask`` flags the rows belonging to selected sensors; on those
    rows ``h_tilde`` and ``r_tilde`` carry the original model, everywhere
    else they are zero.
    """

    z: np.ndarray
    h_tilde: np.ndarray
    r_tilde: np.ndarray
    row_mask: np.ndarray

    def __post_init__(self):
        dim = self.z.shape[0]
        if self.h_tilde.shape[0] != dim or self.r_tilde.shape != (dim, dim):
            raise InvalidMatrix("stacked measurement dimensions disagree")
        if self.row_mask.shape != (dim,):
            raise InvalidMatrix("row mask length does not match the stack")


def stack_measurement(
    scenario: Scenario,
    noise: NoiseModel,
    gamma_col,
    step: int = 0,
    z=None,
) -> StackedMeasurement:
    """Assemble the masked stack for one step's selection column.

    ``z`` carries raw per-sensor measurements for the full stack; they are
    masked here.  Omitted ``z`` yields a zero vector (enough for covariance
    work).
    """
    gamma = np.asarray(gamma_col).astype(bool)
    if gamma.shape != (scenario.num_sensors,):
        raise InvalidMatrix("selection column length does not match sensors")
    row_mask = gamma[noise.labels]
    h_tilde = np.where(row_mask[:, None], scenario.h_stacks[step], 0.0)
    r_tilde = np.where(np.outer(row_mask, row_mask), noise.r_full, 0.0)
    if z is None:
        z_masked = np.zeros(noise.dim)
    else:
        z_masked = np.where(row_mask, np.asarray(z, dtype=float), 0.0)
    return StackedMeasurement(
        z=z_masked, h_tilde=h_tilde, r_tilde=linalg.symmetrize(r_tilde),
        row_mask=row_mask,
    )


def predict(state: FilterState, system: DynamicSystem, step: int = 0) -> FilterState:
    """Time update: x <- F x, P <- F P F' + Q."""
    f = system.f_at(step)
    q = system.q_at(step)
    return FilterState(
        x=f @ state.x,
        p=linalg.symmetrize(f @ state.p @ f.T + q),
    )


def update_kalman(state_pred: FilterState, meas: StackedMeasurement) -> FilterState:
    """Measurement update in gain form.

    The innovation covariance of the masked stack is rank-deficient
    whenever some sensors are unselected, so the gain uses its
    pseudoinverse instead of an inverse.
    """
    h = meas.h_tilde
    s = h @ state_pred.p @ h.T + meas.r_tilde
    k = state_pred.p @ h.T @ linalg.pinv(linalg.symmetrize(s))
    x = state_pred.x + k @ (meas.z - h @ state_pred.x)
    p = linalg.symmetrize((np.eye(state_pred.p.shape[0]) - k @ h) @ state_pred.p)
    return FilterState(x=x, p=p)


def update_gif(state_pred: FilterState, meas: StackedMeasurement) -> FilterState:
    """Measurement update in information form.

    Equivalent to :func:`update_kalman`; the pseudoinverse of the masked
    noise covariance reduces to inverting the selected sensors' block
    (extract, invert, re-embed), which is both exact and cheap.
    """
    sel = meas.row_mask
    if not np.any(sel):
        return state_pred
    info_pred = linalg.inv_spd(state_pred.p)
    h_sel = meas.h_tilde[sel]
    r_sel = meas.r_tilde[np.ix_(sel, sel)]
    r_inv = linalg.inv_spd(r_sel)
    gain = h_sel.T @ r_inv @ h_sel
    p = linalg.inv_spd(info_pred + gain)
    x = p @ (info_pred @ state_pred.x + h_sel.T @ (r_inv @ meas.z[sel]))
    return FilterState(x=x, p=p)


def selection_gain(
    scenario: Scenario,
    noise: NoiseModel,
    gamma_col,
    step: int = 0,
) -> np.ndarray:
    """Information gain H' R+ H of one selection column, as an r-by-r matrix.

    Computed on the selected sensors' rows only; unselected sensors
    contribute nothing.
    """
    rows = np.flatnonzero(np.asarray(gamma_col).astype(bool)[noise.labels])
    if rows.size == 0:
        return np.zeros((scenario.state_dim, scenario.state_dim))
    h_sel = scenario.h_stacks[step][rows]
    r_sel = noise.r_full[np.ix_(rows, rows)]
    return linalg.symmetrize(h_sel.T @ np.linalg.solve(r_sel, h_sel))


def covariance_rollout(
    scenario: Scenario, schedule: SelectionSchedule, noise_seq=None
) -> list[np.ndarray]:
    """Posterior covariances over the horizon under a fixed schedule.

    Covariance evolution does not depend on measurement values, so this is
    deterministic: starting from ``scenario.p0``, predict, add the selected
    sensors' information gain, invert back.  ``noise_seq`` defaults to
    ``scenario.noise_sequence()``.  Returns the posterior covariance after
    each step.
    """
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    system = scenario.system
    p = linalg.symmetrize(np.asarray(scenario.p0, dtype=float))
    out = []
    for n in range(schedule.horizon):
        f = system.f_at(n)
        q = system.q_at(n)
        p_pred = linalg.symmetrize(f @ p @ f.T + q)
        gain = selection_gain(scenario, noise_seq[n], schedule.column(n), step=n)
        p = linalg.inv_spd(linalg.inv_spd(p_pred) + gain)
        out.append(p)
    return out


def open_loop_predictions(system: DynamicSystem, x0, n_steps: int) -> list[np.ndarray]:
    """Predicted states x(k+n|k) for n = 1..n_steps with no measurements."""
    x = np.asarray(x0, dtype=float)
    out = []
    for n in range(n_steps):
        x = system.f_at(n) @ x
        out.append(x)
    return out
