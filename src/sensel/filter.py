"""State estimation under sensor selection.

Two equivalent update forms are provided: the gain form, which applies the
Moore-Penrose pseudoinverse to the (singular) innovation covariance of the
masked measurement stack, and the information form, whose :func:`posterior`
step the f1/f2 rollout shares.  Their agreement is enforced by the test
suite.  All functions are pure; covariances are re-symmetrized after every
update.

Every step's joint stack has one row layout: ``noise.labels`` names the
sensor of each row and ``scenario.h_stacks[n]`` holds the rows of H, so
the functions below take the scenario and read both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidMatrix, NotPositiveDefinite
from .model import DynamicSystem, NoiseModel, Scenario


@dataclass(frozen=True)
class FilterState:
    """State estimate and its error covariance at one time step."""

    x: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class StackedMeasurement:
    """One step's all-sensor stack: ``h`` and ``r`` are the step's
    ``scenario.h_stacks[step]`` and ``noise.r_full`` by reference,
    ``row_mask`` flags the selected sensors' rows and ``z`` is zero on the
    others.  The gain form's masked ``h_tilde`` and ``r_tilde`` (the model
    on selected rows and columns, zero elsewhere) are built when read.
    """

    z: np.ndarray
    row_mask: np.ndarray
    h: np.ndarray
    r: np.ndarray

    @property
    def h_tilde(self) -> np.ndarray:
        return np.where(self.row_mask[:, None], self.h, 0.0)

    @property
    def r_tilde(self) -> np.ndarray:
        return np.where(np.outer(self.row_mask, self.row_mask), self.r, 0.0)


def stack_measurement(
    scenario: Scenario, noise: NoiseModel, gamma_col, step: int = 0, z=None
) -> StackedMeasurement:
    """The stack for one step's selection column.

    ``z`` carries raw per-sensor measurements for the full stack; they are
    masked here.  Omitted ``z`` yields a zero vector (enough for covariance
    work).
    """
    gamma = np.asarray(gamma_col).astype(bool)
    if gamma.shape != (scenario.num_sensors,):
        raise InvalidMatrix("selection column length does not match sensors")
    row_mask = gamma[noise.labels]
    if z is None:
        z_masked = np.zeros(noise.dim)
    else:
        z_masked = np.where(row_mask, np.asarray(z, dtype=float), 0.0)
    return StackedMeasurement(
        z=z_masked, row_mask=row_mask, h=scenario.h_stacks[step], r=noise.r_full
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


def update_gif(state_pred: FilterState, meas: StackedMeasurement) -> FilterState:
    """Measurement update in information form, equivalent to
    :func:`update_kalman`: it reads only the selected rows of ``h``, ``r``
    and ``z``, takes :func:`row_gains`'s gain on a batch of one and the
    rollout's :func:`posterior`, and moves x by P H' R^-1 (z - H x)."""
    sel = meas.row_mask
    if not np.any(sel):
        return state_pred
    h, r = meas.h[sel], meas.r[np.ix_(sel, sel)]
    p = posterior(state_pred.p, linalg.symmetrize(h.T[None] @ np.linalg.solve(r[None], h[None])))[0]
    x = state_pred.x + p @ (h.T @ np.linalg.solve(r, meas.z[sel] - h @ state_pred.x))
    return FilterState(x=x, p=p)


def row_gains(scenario: Scenario, noise: NoiseModel, rows, step: int = 0) -> np.ndarray:
    """Information gain H' R^-1 H of each row set of a (U, k) index array
    into the step's stack, as a (U, r, r) array, by one stacked solve."""
    h = scenario.h_stacks[step][rows]
    r = noise.entries(rows)
    return h.transpose(0, 2, 1) @ np.linalg.solve(r, h)


def _selected(scenario: Scenario, columns) -> np.ndarray:
    """0/1 selection columns as booleans; other lengths raise InvalidMatrix."""
    selected = np.asarray(columns).astype(bool)
    if selected.shape[-1] != scenario.num_sensors:
        raise InvalidMatrix("selection column length does not match sensors")
    return selected


def selection_gains(scenario: Scenario, noise: NoiseModel, columns, step: int = 0) -> np.ndarray:
    """Information gain H' R+ H of each 0/1 selection column of a (U, num)
    array, as a (U, r, r) array: one :func:`row_gains` of the selected
    sensors' rows per count of them."""
    selected = _selected(scenario, columns)[:, noise.labels]
    counts = selected.sum(axis=1)
    # A set, not np.unique: numpy's hash-based unique of an int array holds
    # about 1 MB more resident memory from its first call on.
    sizes = set(counts.tolist())
    if len(sizes) == 1 and 0 not in sizes:
        # One count for all columns, a single column's included: no regrouping.
        rows = np.nonzero(selected)[1].reshape(counts.size, -1)
        return row_gains(scenario, noise, rows, step)
    gains = np.zeros((selected.shape[0], scenario.state_dim, scenario.state_dim))
    for k in sorted(sizes - {0}):
        idx = np.flatnonzero(counts == k)
        rows = np.nonzero(selected[idx])[1].reshape(idx.size, k)
        gains[idx] = row_gains(scenario, noise, rows, step)
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
