"""State estimation under sensor selection.

Two equivalent update forms take a step's 0/1 selection column and raw
all-sensor measurement: the gain form, which applies the Moore-Penrose
pseudoinverse to the (singular) innovation covariance of the masked stack
(:func:`masked_model`), and the information form, which reads only the
selected rows and whose :func:`posterior` step the f1/f2 rollout shares.
Their agreement is enforced by the test suite.  All functions are pure;
covariances are re-symmetrized after every update.

Step n's joint stack has one row layout: the step's noise model
``scenario.step_noise[n]`` names the sensor of each row (``labels``) and
``scenario.h_stacks[n]`` holds the rows of H, so the functions below take
the scenario and the step and read both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidMatrix, NotPositiveDefinite
from .model import DynamicSystem, Scenario


@dataclass(frozen=True)
class FilterState:
    """State estimate and its error covariance at one time step."""

    x: np.ndarray
    p: np.ndarray


def predict(state: FilterState, system: DynamicSystem, step: int = 0) -> FilterState:
    """Time update: x <- F x, P <- F P F' + Q, of one state or of a stack
    of them (x of shape (..., r), P of shape (..., r, r))."""
    f = system.f_at(step)
    q = system.q_at(step)
    return FilterState(
        x=(f @ np.asarray(state.x)[..., None])[..., 0],
        p=linalg.symmetrize(f @ state.p @ f.T + q),
    )


def masked_model(scenario: Scenario, column, step: int = 0):
    """The gain form's masked all-sensor model of one selection column:
    the row mask, and the step's H and R kept on the selected rows (and,
    for R, columns) and zero elsewhere."""
    noise = scenario.step_noise[step]
    mask = _selected(scenario, column)[noise.labels]
    h = np.where(mask[:, None], scenario.h_stacks[step], 0.0)
    return mask, h, np.where(np.outer(mask, mask), noise.r_full, 0.0)


def update_kalman(
    state_pred: FilterState, scenario: Scenario, column, z, step: int = 0
) -> FilterState:
    """Measurement update in gain form, on the all-sensor stack masked to
    the selected rows of the raw measurement ``z``.

    The innovation covariance of the masked stack is rank-deficient
    whenever some sensors are unselected, so the gain uses its
    pseudoinverse instead of an inverse.
    """
    mask, h, r = masked_model(scenario, column, step)
    s = h @ state_pred.p @ h.T + r
    k = state_pred.p @ h.T @ linalg.pinv(linalg.symmetrize(s))
    x = state_pred.x + k @ (np.where(mask, z, 0.0) - h @ state_pred.x)
    p = linalg.symmetrize((np.eye(state_pred.p.shape[0]) - k @ h) @ state_pred.p)
    return FilterState(x=x, p=p)


def posterior(p_prior, gains) -> np.ndarray:
    """Symmetrized posterior (P^-1 + G)^-1 of a prior P, or of a stack of
    them, and symmetric gains G.  One Cholesky factor P = L L' tests the
    prior (NotPositiveDefinite) and gives L (I + L' G L)^-1 L', whose inner
    matrix has every eigenvalue >= 1 (Anderson and Moore 1979)."""
    try:
        low = np.linalg.cholesky(p_prior)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("prior covariance is not positive definite") from None
    low_t = np.swapaxes(low, -1, -2)
    inner = np.eye(low.shape[-1]) + low_t @ gains @ low
    # b of a's full shape: numpy < 2.0 reads a b one dimension short as vectors.
    return linalg.symmetrize(low @ np.linalg.solve(inner, np.broadcast_to(low_t, inner.shape)))


def update_gif(
    state_pred: FilterState, scenario: Scenario, column, z, step: int = 0
) -> FilterState:
    """Measurement update in information form, equivalent to
    :func:`update_kalman`: it reads only the selected rows of the step's
    H, of the noise (:meth:`NoiseModel.entries`) and of the raw
    measurement ``z``, takes :func:`row_gains`'s gain and the rollout's
    :func:`posterior`, and moves x by P H' R^-1 (z - H x).  An empty
    selection takes the posterior of a zero gain.

    One state or a stack of them: x of shape (..., r) and P of shape
    (..., r, r), with a selection column (..., num) and a raw measurement
    (..., dim) per state.  The states are grouped by their count of
    selected rows, as :func:`selection_gains` groups columns, and each
    group takes one stacked gain, posterior and solve; every state's
    result is bit for bit the one it gets alone.
    """
    noise = scenario.step_noise[step]
    x_pred = np.asarray(state_pred.x, dtype=float)
    shape = x_pred.shape
    x_pred = x_pred.reshape(-1, shape[-1])
    p_pred = np.asarray(state_pred.p, dtype=float).reshape(-1, shape[-1], shape[-1])
    selected = _selected(scenario, column)[..., noise.labels].reshape(-1, noise.dim)
    z = np.asarray(z).reshape(-1, noise.dim)
    x = np.empty_like(x_pred)
    p = np.empty_like(p_pred)
    for idx, rows in _row_groups(selected):
        h = scenario.h_stacks[step][rows]
        prior = x_pred[idx]
        p[idx] = posterior(p_pred[idx], linalg.symmetrize(row_gains(scenario, rows, step)))
        innovation = np.take_along_axis(z[idx], rows, axis=1)[..., None] - h @ prior[..., None]
        step_x = np.swapaxes(h, -1, -2) @ np.linalg.solve(noise.entries(rows), innovation)
        x[idx] = prior + (p[idx] @ step_x)[..., 0]
    return FilterState(x=x.reshape(shape), p=p.reshape(shape + shape[-1:]))


def row_gains(scenario: Scenario, rows, step: int = 0) -> np.ndarray:
    """Information gain H' R^-1 H of each row set of a (U, k) index array
    into the step's stack, as a (U, r, r) array, by one stacked solve."""
    h = scenario.h_stacks[step][rows]
    r = scenario.step_noise[step].entries(rows)
    return h.transpose(0, 2, 1) @ np.linalg.solve(r, h)


def _selected(scenario: Scenario, columns) -> np.ndarray:
    """0/1 selection columns as booleans; other lengths raise InvalidMatrix."""
    selected = np.asarray(columns).astype(bool)
    if selected.shape[-1] != scenario.num_sensors:
        raise InvalidMatrix("selection column length does not match sensors")
    return selected


def _row_groups(selected: np.ndarray) -> list[tuple]:
    """The rows of a (B, n) boolean array grouped by their count of true
    entries, as (index, (G, count) array of each row's true columns)
    pairs: one group of all B, indexed by a full slice, when every count
    is equal (a single row's included), else one per count, in increasing
    count."""
    counts = selected.sum(axis=1)
    # A set, not np.unique: numpy's hash-based unique of an int array holds
    # about 1 MB more resident memory from its first call on.
    sizes = set(counts.tolist())
    if len(sizes) == 1:
        return [(slice(None), np.nonzero(selected)[1].reshape(counts.size, sizes.pop()))]
    groups = []
    for k in sorted(sizes):
        idx = np.flatnonzero(counts == k)
        groups.append((idx, np.nonzero(selected[idx])[1].reshape(idx.size, k)))
    return groups


def selection_gains(scenario: Scenario, columns, step: int = 0) -> np.ndarray:
    """Information gain H' R+ H of each 0/1 selection column of a (U, num)
    array, as a (U, r, r) array: one :func:`row_gains` of the selected
    sensors' rows per count of them."""
    selected = _selected(scenario, columns)[:, scenario.step_noise[step].labels]
    groups = _row_groups(selected)
    if len(groups) == 1 and groups[0][1].shape[1]:
        return row_gains(scenario, groups[0][1], step)
    gains = np.zeros((selected.shape[0], scenario.state_dim, scenario.state_dim))
    for idx, rows in groups:
        if rows.shape[1]:
            gains[idx] = row_gains(scenario, rows, step)
    return gains


def covariance_rollout(scenario: Scenario, step_gains) -> list[np.ndarray]:
    """Posterior covariances over the horizon of a batch of schedules.

    Covariance evolution does not depend on measurement values, so this is
    deterministic: from ``scenario.p0``, each step predicts and takes the
    :func:`posterior` that :func:`update_gif` takes.  ``step_gains`` holds
    each step's (B, r, r) stack of symmetric selection gains, one per
    schedule; the result holds each step's (B, r, r) posterior covariances.
    """
    system = scenario.system
    p = linalg.symmetrize(np.asarray(scenario.p0, dtype=float))
    out = []
    for n, gains in enumerate(step_gains):
        f = system.f_at(n)
        p = posterior(linalg.symmetrize(f @ p @ f.T + system.q_at(n)), gains)
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
