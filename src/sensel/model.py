"""Scenario data model: dynamics, sensor network, noise, and constraints.

Scenario values are immutable after construction (arrays are marked
read-only) and safe to share across worker processes.  The on-disk format
is JSON; ``scenario.schema.json`` next to this module documents it.  All
positions are in meters, time steps in seconds.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import linalg
from .errors import (
    Infeasible,
    InvalidMatrix,
    NotPositiveDefinite,
    PerStepCountOutOfRange,
    ScenarioError,
)

# The one place relation strings meet the slack signs of ConstraintRows.
_SENSE = {"<=": 1.0, "=": 0.0, ">=": -1.0}


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _matrix_steps(arr: np.ndarray, name: str) -> tuple[np.ndarray, ...]:
    """Split a read-only constant matrix, or per-step stack of matrices,
    into its steps (views of ``arr``)."""
    if arr.ndim == 2:
        return (arr,)
    if arr.ndim == 3:
        return tuple(arr)
    raise InvalidMatrix(f"{name} must be a matrix or a list of matrices")


def _size_groups(block_sizes: tuple[int, ...]) -> list[tuple[list[int], tuple]]:
    """Per distinct block size ``s``, ascending: the sensors whose noise
    block is s x s, and the index that reads or writes their blocks of the
    joint matrix as one (sensors, s, s) stack."""
    sizes = np.array(block_sizes, dtype=int)
    starts = np.cumsum(sizes) - sizes
    groups = []
    for s in sorted(set(block_sizes)):
        which = np.flatnonzero(sizes == s)
        rows = starts[which, None] + np.arange(s)
        groups.append((which.tolist(), (rows[:, :, None], rows[:, None, :])))
    return groups


@dataclass(frozen=True)
class DynamicSystem:
    """Linear dynamics x_next = F x + w with process-noise covariance Q.

    ``f`` and ``q`` hold either a single matrix (constant model) or one
    matrix per horizon step.
    """

    f: tuple[np.ndarray, ...]
    q: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.f or not self.q:
            raise InvalidMatrix("dynamic system needs at least one F and Q")
        r = self.f[0].shape[0]
        for idx, m in enumerate(self.f):
            if m.shape != (r, r):
                raise InvalidMatrix(f"F[{idx}] must be {r}x{r}, got {m.shape}")
            sv = np.linalg.svd(m, compute_uv=False)
            if sv[-1] <= 1e-12 * max(1.0, sv[0]):
                raise InvalidMatrix(f"F[{idx}] is singular")
        for idx, m in enumerate(self.q):
            if m.shape != (r, r):
                raise InvalidMatrix(f"Q[{idx}] must be {r}x{r}, got {m.shape}")
            if not np.array_equal(m, m.T):
                raise InvalidMatrix(f"Q[{idx}] is not symmetric")
        _ = self.q_chol

    @staticmethod
    def build(f, q) -> "DynamicSystem":
        """Validated dynamics; each square Q is symmetrized first."""
        q = np.asarray(q, dtype=float)
        if q.ndim in (2, 3) and q.shape[-1] == q.shape[-2]:
            q = linalg.symmetrize(q)
        return DynamicSystem(
            f=_matrix_steps(_frozen(linalg.check_finite(f, "F")), "F"),
            q=_matrix_steps(_frozen(linalg.check_finite(q, "Q")), "Q"),
        )

    @property
    def state_dim(self) -> int:
        return self.f[0].shape[0]

    def f_at(self, n: int) -> np.ndarray:
        return self.f[0] if len(self.f) == 1 else self.f[n]

    def q_at(self, n: int) -> np.ndarray:
        return self.q[0] if len(self.q) == 1 else self.q[n]

    @functools.cached_property
    def q_chol(self) -> tuple[np.ndarray, ...]:
        """Lower Cholesky factor of each Q, read-only: factored once, where
        construction checks that Q is positive definite; the simulator draws
        every step's process noise through it."""
        factors = []
        for idx, m in enumerate(self.q):
            try:
                low = np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(f"Q[{idx}] is not positive definite") from None
            low.setflags(write=False)
            factors.append(low)
        return tuple(factors)

    def q_chol_at(self, n: int) -> np.ndarray:
        return self.q_chol[0] if len(self.q_chol) == 1 else self.q_chol[n]


@dataclass(frozen=True)
class SensorModel:
    """One sensor: measurement matrix (possibly per step) and 2-d position."""

    h: tuple[np.ndarray, ...]
    position: np.ndarray

    def __post_init__(self):
        if not self.h:
            raise InvalidMatrix("sensor needs at least one H matrix")
        n_i, r = self.h[0].shape
        if n_i < 1:
            raise InvalidMatrix("sensor measurement dimension must be >= 1")
        for idx, m in enumerate(self.h):
            if m.shape != (n_i, r):
                raise InvalidMatrix(f"H[{idx}] shape {m.shape} != ({n_i}, {r})")
        if self.position.shape != (2,):
            raise InvalidMatrix("sensor position must be a 2-vector")

    @staticmethod
    def build(h, position) -> "SensorModel":
        return SensorModel.build_all([h], [position])[0]

    @staticmethod
    def build_all(hs, positions) -> tuple["SensorModel", ...]:
        """One sensor per (H, position) pair, with one finiteness check over
        every sensor's H and position."""
        hs = [_frozen(h) for h in hs]
        positions = [_frozen(p) for p in positions]
        values = [a.ravel() for a in (*hs, *positions)]
        linalg.check_finite(np.concatenate(values or [np.zeros(0)]), "sensor H or position")
        return tuple(
            SensorModel(h=_matrix_steps(h, "H"), position=p) for h, p in zip(hs, positions)
        )

    @property
    def meas_dim(self) -> int:
        return self.h[0].shape[0]

    def h_at(self, n: int) -> np.ndarray:
        return self.h[0] if len(self.h) == 1 else self.h[n]


@dataclass(frozen=True)
class JammerSpec:
    """Common interference source mixed into every sensor's noise.

    Sensor i picks up the jammer signal scaled by
    beta_i = p0 / (1 + alpha * d_i ** n_exp) with d_i the distance from
    sensor i to the jammer.
    """

    p0: float
    alpha: float
    n_exp: float
    position: np.ndarray
    r0: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite([self.p0, self.alpha, self.n_exp])):
            raise ScenarioError("jammer p0, alpha and n_exp must be finite")
        if self.p0 < 0:
            raise ScenarioError("jammer power p0 must be >= 0")
        if self.position.shape != (2,):
            raise ScenarioError("jammer position must be a 2-vector")

    @staticmethod
    def build(p0, alpha, n_exp, position, r0) -> "JammerSpec":
        return JammerSpec(
            p0=float(p0),
            alpha=float(alpha),
            n_exp=float(n_exp),
            position=_frozen(linalg.check_finite(position, "jammer position")),
            r0=_frozen(linalg.symmetrize(linalg.check_finite(r0, "jammer R0"), "jammer R0")),
        )

    def betas(self, sensor_positions: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(sensor_positions - self.position[None, :], axis=1)
        return self.p0 / (1.0 + self.alpha * d**self.n_exp)


def _check_alpha1(alpha1) -> None:
    if not (np.isfinite(alpha1) and alpha1 > 0):
        raise ScenarioError("distance noise scaling alpha1 must be finite and > 0")


@dataclass(frozen=True)
class NoiseModel:
    """Joint measurement-noise covariance with addressable per-sensor blocks.

    ``r_full`` is the assembled static covariance: the block-diagonal base
    (or an explicit joint base) plus the jammer cross terms.  When
    ``distance_alpha1`` is set, a per-step diagonal term proportional to
    the sensor-to-target distance is added on top; see
    :func:`distance_noise`.  The properties below are cached: each is
    computed on first read, once per noise model.
    """

    block_sizes: tuple[int, ...]
    r_full: np.ndarray
    base_blocks: tuple[np.ndarray, ...] | None
    base_full: np.ndarray | None
    jammer: JammerSpec | None
    distance_alpha1: float | None

    def __post_init__(self):
        """The one check of a noise covariance: ``r_full`` is finite,
        exactly symmetric and positive definite, or, with a distance term,
        positive semidefinite to ``linalg.PSD_SLACK``.

        When every nonzero of ``r_full`` lies in a sensor's own block, it is
        symmetric and positive definite exactly when each block is, so the
        blocks are checked as one stack per block size instead of the whole
        matrix.
        """
        r = self.r_full
        dim = sum(self.block_sizes)
        if r.shape != (dim, dim):
            raise InvalidMatrix(f"noise covariance shape {r.shape} != ({dim}, {dim})")
        alpha1 = self.distance_alpha1
        if alpha1 is not None:
            _check_alpha1(alpha1)
        if not np.all(np.isfinite(r)):
            raise InvalidMatrix("noise covariance contains non-finite entries")
        stacks = [r[ix] for _, ix in _size_groups(self.block_sizes)]
        parts = stacks if np.count_nonzero(r) == sum(map(np.count_nonzero, stacks)) else [r]
        if not all(np.array_equal(a, np.swapaxes(a, -1, -2)) for a in parts):
            raise InvalidMatrix("noise covariance is not symmetric")
        if alpha1 is None:
            try:
                for a in parts:
                    np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite("noise covariance is not positive definite") from None
        elif linalg.min_eigenvalue(r) < -linalg.PSD_SLACK * (1.0 + np.abs(r).max()):
            raise NotPositiveDefinite("static noise part is not positive semidefinite")

    @staticmethod
    def build(
        block_sizes,
        base_blocks=None,
        base_full=None,
        jammer: JammerSpec | None = None,
        distance_alpha1: float | None = None,
        sensor_positions=None,
    ) -> "NoiseModel":
        """Assemble the static covariance from symmetrized parts;
        construction checks it.

        Exactly one of ``base_blocks`` / ``base_full`` must be given.  The
        blocks are symmetrized and placed as one stack per block size.
        """
        block_sizes = tuple(int(b) for b in block_sizes)
        dim = sum(block_sizes)
        if (base_blocks is None) == (base_full is None):
            raise ScenarioError("noise needs exactly one of blocks or full")
        if base_blocks is not None:
            given = list(base_blocks)
            if len(given) != len(block_sizes):
                raise ScenarioError("noise block sizes do not match sensors")
            static = np.zeros((dim, dim))
            placed = [None] * len(given)
            for which, ix in _size_groups(block_sizes):
                s = ix[0].shape[1]
                try:
                    stack = np.array([given[i] for i in which], dtype=float)
                except ValueError:  # blocks of uneven shapes
                    stack = None
                if stack is None or stack.shape != (len(which), s, s):
                    raise InvalidMatrix(
                        f"every noise block must be square and match its sensor: "
                        f"expected {s}x{s}"
                    )
                stack = _frozen(linalg.symmetrize(stack))
                static[ix] = stack
                for i, b in zip(which, stack):
                    placed[i] = b
            base_blocks = tuple(placed)
        else:
            base_full = _frozen(linalg.symmetrize(base_full, "noise full covariance"))
            if base_full.shape != (dim, dim):
                raise ScenarioError(
                    f"noise full covariance shape {base_full.shape} != ({dim}, {dim})"
                )
            static = base_full
        if jammer is not None and jammer.p0 > 0:
            if sensor_positions is None:
                raise ScenarioError("jammer noise needs sensor positions")
            d0 = jammer.r0.shape[0]
            if any(b != d0 for b in block_sizes):
                raise ScenarioError(
                    "jammer covariance dimension must match every sensor block"
                )
            beta = jammer.betas(np.asarray(sensor_positions, dtype=float))
            # Exactly symmetric: a sum of exactly symmetric terms.
            static = static + np.kron(np.outer(beta, beta), jammer.r0)
        static.setflags(write=False)
        return NoiseModel(
            block_sizes=block_sizes,
            r_full=static,
            base_blocks=base_blocks,
            base_full=base_full,
            jammer=jammer,
            distance_alpha1=None if distance_alpha1 is None else float(distance_alpha1),
        )

    @staticmethod
    def from_full(full, block_sizes) -> "NoiseModel":
        """Wrap a concrete joint covariance (no generator information)."""
        return NoiseModel.build(block_sizes, base_full=full)

    @property
    def dim(self) -> int:
        return self.r_full.shape[0]

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """Row offset of each sensor's block, then the total dimension."""
        return _frozen(np.concatenate([[0], np.cumsum(self.block_sizes)]), dtype=int)

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """Sensor index of each joint row: the one sensor-to-row map that
        masks, gathers and stacks read."""
        return _frozen(np.repeat(np.arange(len(self.block_sizes)), self.block_sizes), dtype=int)

    def block(self, i: int, j: int) -> np.ndarray:
        off = self.offsets
        return self.r_full[off[i] : off[i + 1], off[j] : off[j + 1]]

    @functools.cached_property
    def r_inv(self) -> np.ndarray:
        """Inverse of the joint covariance, read-only; raises
        NotPositiveDefinite when it is singular, which only the PSD static
        part of a distance model can be."""
        return _frozen(linalg.inv_spd(self.r_full))

    @functools.cached_property
    def r_chol(self) -> np.ndarray:
        """Lower Cholesky factor of ``r_full``, read-only: the simulator
        draws every step's joint noise through it, factored once per noise
        model."""
        low = np.linalg.cholesky(self.r_full)
        low.setflags(write=False)
        return low

    @functools.cached_property
    def is_block_diagonal(self) -> bool:
        """True when all cross-sensor covariance blocks vanish (to 1e-12 of
        the largest entry): every larger entry lies in its sensor's block."""
        r = self.r_full
        tol = 1e-12 * max(1.0, float(r.max()), -float(r.min()))
        rows, cols = np.divmod(np.flatnonzero((r > tol) | (r < -tol)), self.dim)
        return bool(np.array_equal(self.labels[rows], self.labels[cols]))

    @functools.cached_property
    def diagonal_only(self) -> "NoiseModel":
        """Copy with all cross-sensor blocks dropped, built from the
        sensors' own blocks of ``r_full``."""
        own = [self.block(i, i) for i in range(len(self.block_sizes))]
        return NoiseModel.build(self.block_sizes, base_blocks=own)


@dataclass(frozen=True, eq=False)
class ConstraintRows:
    """The linear system A gamma (sense) b over the step-major gamma vector.

    ``a`` is the (p, N*L) coefficient matrix, ``b`` the (p,) right side and
    ``sense`` each row's slack sign: +1 for a' gamma <= b, 0 for an
    equality and -1 for a' gamma >= b.  Arrays are read-only copies.
    Equality and hashing go by identity, so a ``ConstraintSet`` holding
    rows is hashable.
    """

    a: np.ndarray
    sense: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "sense", "b"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        a, sense, b = self.a, self.sense, self.b
        if a.ndim != 2 or sense.shape != (a.shape[0],) or b.shape != (a.shape[0],):
            raise ScenarioError(
                f"constraint rows need a (p, n) matrix and two (p,) vectors, got "
                f"{a.shape}, {sense.shape} and {b.shape}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ScenarioError("constraint rows contain non-finite entries")
        if not np.all(np.isin(sense, (-1.0, 0.0, 1.0))):
            raise ScenarioError("constraint sense must be -1, 0 or 1")

    def __len__(self) -> int:
        return self.a.shape[0]

    def meets(self, lhs, tol: float = 1e-9) -> np.ndarray:
        """Whether left sides ``a gamma`` meet their rows, elementwise; the
        rows run along the last axis of ``lhs``."""
        return np.where(
            self.sense > 0,
            lhs <= self.b + tol,
            np.where(self.sense < 0, lhs >= self.b - tol, np.abs(lhs - self.b) <= tol),
        )


@dataclass(frozen=True)
class ConstraintSet:
    """Per-step selection counts, optional per-sensor budgets, extra rows.

    ``per_step[n]`` sensors must be selected at step n.  ``energy[i]``, when
    present, caps how many steps sensor i may be used over the horizon.
    """

    per_step: tuple[int, ...]
    energy: tuple[int, ...] | None = None
    extra: ConstraintRows | None = None

    @staticmethod
    def build(per_step, energy=None, extra=()) -> "ConstraintSet":
        """``extra`` holds (a, relation, b) triples, each relation a key of
        ``_SENSE``."""
        extra = list(extra)
        try:
            sense = [_SENSE[str(relation)] for _, relation, _ in extra]
        except KeyError:
            raise ScenarioError(f"constraint relation must be one of {tuple(_SENSE)}") from None
        return ConstraintSet(
            per_step=tuple(int(m) for m in per_step),
            energy=None if energy is None else tuple(int(m) for m in energy),
            extra=ConstraintRows(
                [a for a, _, _ in extra], sense, [b for _, _, b in extra]
            ) if extra else None,
        )

    @property
    def horizon(self) -> int:
        return len(self.per_step)

    @functools.lru_cache(maxsize=8)
    def rows(self, num_sensors: int) -> ConstraintRows:
        """Every row over the step-major selection vector: one count
        equality per step, one budget inequality per sensor when budgets
        are present, then the extra rows.  Built once per (constraint set,
        sensor count) and shared, read-only, by every caller."""
        a = [np.kron(np.eye(self.horizon), np.ones(num_sensors))]
        sense = [np.zeros(self.horizon)]
        b = [self.per_step]
        if self.energy is not None:
            a.append(np.tile(np.eye(num_sensors), self.horizon))
            sense.append(np.ones(num_sensors))
            b.append(self.energy)
        if self.extra is not None:
            a.append(self.extra.a)
            sense.append(self.extra.sense)
            b.append(self.extra.b)
        return ConstraintRows(np.vstack(a), np.concatenate(sense), np.concatenate(b))

    def validate(self, num_sensors: int) -> None:
        for n, m in enumerate(self.per_step):
            if not 0 < m <= num_sensors:
                raise PerStepCountOutOfRange(
                    f"per_step[{n}]={m} outside 1..{num_sensors}"
                )
        if self.energy is not None:
            if len(self.energy) != num_sensors:
                raise ScenarioError(
                    f"energy budget list has length {len(self.energy)}, "
                    f"expected {num_sensors}"
                )
            if any(m < 0 for m in self.energy):
                raise ScenarioError("energy budgets must be >= 0")
            if sum(self.per_step) > sum(self.energy):
                raise Infeasible(
                    "total per-step counts exceed the total energy budget"
                )
        nl = num_sensors * self.horizon
        if self.extra is not None and self.extra.a.shape[1] != nl:
            raise ScenarioError(
                f"linear constraint rows have length {self.extra.a.shape[1]}, expected {nl}"
            )


@dataclass(frozen=True)
class SelectionSchedule:
    """Boolean sensors-by-steps selection matrix."""

    gamma: np.ndarray  # (L, N) of 0/1

    def __post_init__(self):
        g = np.asarray(self.gamma)
        if g.ndim != 2:
            raise InvalidMatrix("schedule must be a 2-d 0/1 matrix")
        if not np.all((g == 0) | (g == 1)):
            raise InvalidMatrix("schedule entries must be 0 or 1")

    @staticmethod
    def build(gamma) -> "SelectionSchedule":
        return SelectionSchedule(gamma=_frozen(gamma, dtype=np.int8))

    @property
    def num_sensors(self) -> int:
        return self.gamma.shape[0]

    @property
    def horizon(self) -> int:
        return self.gamma.shape[1]

    def column(self, n: int) -> np.ndarray:
        return self.gamma[:, n]

    def gamma_vec(self) -> np.ndarray:
        """Step-major flattening: step-1 block first, then step 2, ..."""
        return self.gamma.T.reshape(-1).astype(float)

    def key(self) -> tuple:
        """Deterministic tie-break key: lexicographic over the step-major vector."""
        return tuple(int(v) for v in self.gamma.T.reshape(-1))

    def satisfies(self, constraints: ConstraintSet, tol: float = 1e-9) -> bool:
        if self.gamma.shape[1] != constraints.horizon:
            return False
        rows = constraints.rows(self.num_sensors)
        return bool(rows.meets(rows.a @ self.gamma_vec(), tol).all())


@dataclass(frozen=True)
class Scenario:
    """Everything one selection/tracking study needs, fixed up front."""

    system: DynamicSystem
    sensors: tuple[SensorModel, ...]
    noise: NoiseModel
    constraints: ConstraintSet
    weights: np.ndarray
    x0: np.ndarray
    p0: np.ndarray
    seed: int
    position_indices: tuple[int, int]

    def __post_init__(self):
        r = self.system.state_dim
        if not self.sensors:
            raise ScenarioError("scenario needs at least one sensor")
        for i, s in enumerate(self.sensors):
            if s.h[0].shape[1] != r:
                raise ScenarioError(
                    f"sensors[{i}].H has {s.h[0].shape[1]} columns, expected {r}"
                )
        if self.noise.block_sizes != tuple(s.meas_dim for s in self.sensors):
            raise ScenarioError("noise block sizes do not match sensor dimensions")
        if np.any(self.weights < 0):
            raise ScenarioError("weights must be >= 0")
        n = self.constraints.horizon
        if self.weights.shape != (n,):
            raise ScenarioError(
                f"weights length {self.weights.shape[0]} != horizon {n}"
            )
        for name, steps in (("F", self.system.f), ("Q", self.system.q)):
            if len(steps) not in (1, n):
                raise ScenarioError(f"{name} must be constant or one matrix per step")
        for i, s in enumerate(self.sensors):
            if len(s.h) not in (1, n):
                raise ScenarioError(
                    f"sensors[{i}].H must be constant or one matrix per step"
                )
        if self.x0.shape != (r,):
            raise ScenarioError(f"x0 length {self.x0.shape} != state dim {r}")
        if self.p0.shape != (r, r):
            raise ScenarioError(f"P0 shape {self.p0.shape} != ({r}, {r})")
        try:
            np.linalg.cholesky(linalg.symmetrize(self.p0))
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("P0 is not positive definite") from None
        if len(self.position_indices) != 2 or any(
            not 0 <= ix < r for ix in self.position_indices
        ):
            raise ScenarioError("position_indices must name two state components")
        self.constraints.validate(len(self.sensors))

    @property
    def num_sensors(self) -> int:
        return len(self.sensors)

    @property
    def horizon(self) -> int:
        return self.constraints.horizon

    @property
    def state_dim(self) -> int:
        return self.system.state_dim

    def sensor_positions(self) -> np.ndarray:
        return np.array([s.position for s in self.sensors])

    @functools.cached_property
    def h_stacks(self) -> tuple[np.ndarray, ...]:
        """Per step, every sensor's H stacked in joint row order (the rows
        ``noise.labels`` names): read-only (noise dim, state dim) arrays,
        built on first use."""
        return tuple(
            _frozen(np.vstack([s.h_at(n) for s in self.sensors]))
            for n in range(self.horizon)
        )

    def noise_sequence(self, predicted_states=None) -> tuple[NoiseModel, ...]:
        """Per-step noise models over the horizon.

        State-dependent scenarios need the predicted states; static
        scenarios return the same model for every step.
        """
        if self.noise.distance_alpha1 is None:
            return (self.noise,) * self.horizon
        if predicted_states is None:
            raise ScenarioError(
                "state-dependent noise needs predicted states for each step"
            )
        return tuple(
            distance_noise(self, predicted_states, self.noise.distance_alpha1)
        )


def make_scenario(
    system: DynamicSystem,
    sensors,
    noise: NoiseModel,
    constraints: ConstraintSet,
    weights,
    x0,
    p0,
    seed: int = 0,
    position_indices=None,
) -> Scenario:
    """Validated Scenario from parts; infers position indices if omitted."""
    sensors = tuple(sensors)
    r = system.state_dim
    if position_indices is None:
        position_indices = (0, 2) if r == 4 else (0, min(1, r - 1))
    return Scenario(
        system=system,
        sensors=sensors,
        noise=noise,
        constraints=constraints,
        weights=_frozen(linalg.check_finite(weights, "weights")),
        x0=_frozen(linalg.check_finite(x0, "x0")),
        p0=_frozen(linalg.symmetrize(linalg.check_finite(p0, "P0"), "P0")),
        seed=int(seed),
        position_indices=tuple(int(i) for i in position_indices),
    )


# ---------------------------------------------------------------------------
# Noise transforms


def apply_jammer(scenario: Scenario, p0, alpha, n_exp, position, r0) -> Scenario:
    """Rebuild the scenario noise with a jammer mixed into every sensor.

    The cross-covariance between sensors i and j gains beta_i*beta_j*R0.
    An existing jammer is replaced, the base noise is kept.
    """
    spec = JammerSpec.build(p0, alpha, n_exp, position, r0)
    old = scenario.noise
    noise = NoiseModel.build(
        old.block_sizes,
        base_blocks=old.base_blocks,
        base_full=old.base_full,
        jammer=spec,
        distance_alpha1=old.distance_alpha1,
        sensor_positions=scenario.sensor_positions(),
    )
    return replace(scenario, noise=noise)


def distance_noise(scenario: Scenario, predicted_states, alpha1: float) -> list[NoiseModel]:
    """Per-step noise models with distance-proportional diagonal blocks.

    Step n adds alpha1 * d_{i,n} on the diagonal of sensor i's block, where
    d_{i,n} is the distance from sensor i to the predicted target position
    at step n.  The static part (base noise plus jammer) is kept.
    """
    _check_alpha1(alpha1)
    predicted_states = [np.asarray(x, dtype=float) for x in predicted_states]
    if len(predicted_states) != scenario.horizon:
        raise ScenarioError(
            f"expected {scenario.horizon} predicted states, got {len(predicted_states)}"
        )
    static = scenario.noise.r_full
    sizes = scenario.noise.block_sizes
    positions = scenario.sensor_positions()
    ix = list(scenario.position_indices)
    out = []
    for n, state in enumerate(predicted_states):
        target = state[ix]
        dists = np.linalg.norm(positions - target[None, :], axis=1)
        bump = np.repeat(alpha1 * dists, sizes)
        full = static + np.diag(bump)
        try:
            out.append(NoiseModel.from_full(full, sizes))
        except NotPositiveDefinite:
            raise NotPositiveDefinite(
                f"step {n} noise covariance is not positive definite"
            ) from None
    return out


# ---------------------------------------------------------------------------
# Common dynamic-system builders


def tracking_system(sampling_interval: float = 1.0) -> DynamicSystem:
    """Planar constant-velocity model with state (x, vx, y, vy)."""
    t = float(sampling_interval)
    f = np.array(
        [
            [1.0, t, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, t],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    q_block = np.array([[t**3 / 3.0, t**2 / 2.0], [t**2 / 2.0, t]])
    q = np.zeros((4, 4))
    q[:2, :2] = q_block
    q[2:, 2:] = q_block
    return DynamicSystem.build(f, q)


def position_h() -> np.ndarray:
    """Measurement matrix observing (x, y) of the 4-state tracking model."""
    return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


def random_walk_system(q_diag=(5.0, 10.0)) -> DynamicSystem:
    """Identity-transition model whose state is observed directly."""
    q_diag = np.asarray(q_diag, dtype=float)
    return DynamicSystem.build(np.eye(q_diag.size), np.diag(q_diag))


# ---------------------------------------------------------------------------
# Scenario generators


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def _default_state(model: str, state_dim: int):
    if model == "tracking":
        return np.zeros(4), np.diag([100.0, 10.0, 100.0, 10.0])
    return np.zeros(state_dim), 10.0 * np.eye(state_dim)


def _build_generated(
    positions: np.ndarray,
    noise_ranges,
    seed: int,
    model: str,
    per_step,
    energy,
    weights,
    x0,
    p0,
    sampling_interval: float,
) -> Scenario:
    num = positions.shape[0]
    if model == "tracking":
        system = tracking_system(sampling_interval)
        h = position_h()
    elif model == "random_walk":
        system = random_walk_system()
        h = np.eye(2)
    else:
        raise ScenarioError(f"unknown generator model {model!r}")
    rng = _rng(seed)
    ranges = [(float(lo), float(hi)) for lo, hi in noise_ranges]
    if len(ranges) != h.shape[0]:
        raise ScenarioError(
            f"need one noise range per measurement component ({h.shape[0]})"
        )
    blocks = [
        np.diag([rng.uniform(lo, hi) for lo, hi in ranges]) for _ in range(num)
    ]
    sensors = SensorModel.build_all([h] * num, positions)
    noise = NoiseModel.build([h.shape[0]] * num, base_blocks=blocks)
    if np.isscalar(per_step):
        per_step = [int(per_step)]
    if energy is not None and np.isscalar(energy):
        energy = [int(energy)] * num
    constraints = ConstraintSet.build(per_step, energy=energy)
    n = constraints.horizon
    if weights is None:
        weights = np.full(n, 1.0 / n)
    if x0 is None or p0 is None:
        dx0, dp0 = _default_state(model, system.state_dim)
        x0 = dx0 if x0 is None else x0
        p0 = dp0 if p0 is None else p0
    return make_scenario(
        system, sensors, noise, constraints, weights, x0, p0, seed=seed
    )


def gen_grid_scenario(
    grid,
    area: float,
    noise_ranges,
    seed: int,
    *,
    model: str = "tracking",
    per_step=1,
    energy=None,
    weights=None,
    x0=None,
    p0=None,
    sampling_interval: float = 1.0,
) -> Scenario:
    """Sensors on a uniform grid over [0, area]^2; noise sampled per seed.

    ``grid`` is an int g (g-by-g grid) or a (gx, gy) pair.  A 1-point axis
    places its sensors at the area midpoint.  Deterministic given ``seed``.
    """
    gx, gy = (int(grid), int(grid)) if np.isscalar(grid) else (int(grid[0]), int(grid[1]))
    if gx < 1 or gy < 1:
        raise ScenarioError("grid must be at least 1x1")
    area = float(area)
    xs = np.linspace(0.0, area, gx) if gx > 1 else np.array([area / 2.0])
    ys = np.linspace(0.0, area, gy) if gy > 1 else np.array([area / 2.0])
    positions = np.array([(x, y) for y in ys for x in xs])
    return _build_generated(
        positions, noise_ranges, seed, model, per_step, energy, weights,
        x0, p0, sampling_interval,
    )


def gen_uniform_scenario(
    num_sensors: int,
    area: float,
    noise_ranges,
    seed: int,
    *,
    model: str = "tracking",
    per_step=1,
    energy=None,
    weights=None,
    x0=None,
    p0=None,
    sampling_interval: float = 1.0,
) -> Scenario:
    """Sensors placed i.i.d. uniformly over [0, area]^2; seeded."""
    if num_sensors < 1:
        raise ScenarioError("need at least one sensor")
    rng = _rng(int(seed) ^ 0x5E25)  # placement stream distinct from noise stream
    positions = rng.uniform(0.0, float(area), size=(int(num_sensors), 2))
    return _build_generated(
        positions, noise_ranges, seed, model, per_step, energy, weights,
        x0, p0, sampling_interval,
    )


# ---------------------------------------------------------------------------
# JSON serialization


def _mat(m: np.ndarray):
    return [[float(v) for v in row] for row in np.atleast_2d(m)]


def _steps_json(steps: tuple[np.ndarray, ...]):
    return _mat(steps[0]) if len(steps) == 1 else [_mat(m) for m in steps]


def _linear_json(rows: ConstraintRows | None) -> list:
    if rows is None:
        return []
    relation = {sense: rel for rel, sense in _SENSE.items()}
    return [
        {"a": [float(v) for v in a], "relation": relation[sense], "b": float(b)}
        for a, sense, b in zip(rows.a, rows.sense.tolist(), rows.b.tolist())
    ]


def scenario_to_dict(scenario: Scenario) -> dict:
    noise = scenario.noise
    noise_json = {
        "blocks": None
        if noise.base_blocks is None
        else [_mat(b) for b in noise.base_blocks],
        "full": None if noise.base_full is None else _mat(noise.base_full),
        "jammer": None
        if noise.jammer is None
        else {
            "p0": noise.jammer.p0,
            "alpha": noise.jammer.alpha,
            "n_exp": noise.jammer.n_exp,
            "position": [float(v) for v in noise.jammer.position],
            "R0": _mat(noise.jammer.r0),
        },
        "distance_alpha1": noise.distance_alpha1,
    }
    return {
        "state_dim": scenario.state_dim,
        "F": _steps_json(scenario.system.f),
        "Q": _steps_json(scenario.system.q),
        "sensors": [
            {"H": _steps_json(s.h), "position": [float(v) for v in s.position]}
            for s in scenario.sensors
        ],
        "noise": noise_json,
        "constraints": {
            "per_step": list(scenario.constraints.per_step),
            "energy": None
            if scenario.constraints.energy is None
            else list(scenario.constraints.energy),
            "linear": _linear_json(scenario.constraints.extra),
        },
        "weights": [float(w) for w in scenario.weights],
        "x0": [float(v) for v in scenario.x0],
        "P0": _mat(scenario.p0),
        "seed": scenario.seed,
        "position_indices": list(scenario.position_indices),
    }


def save_scenario(scenario: Scenario, path=None) -> str:
    """Serialize to the documented JSON format; optionally write to disk."""
    text = json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _get(obj: dict, field: str, where: str = "scenario"):
    if field not in obj or obj[field] is None:
        raise ScenarioError(f"missing field {where}.{field}")
    return obj[field]


def scenario_from_dict(data: dict) -> Scenario:
    try:
        system = DynamicSystem.build(_get(data, "F"), _get(data, "Q"))
        sensors_json = _get(data, "sensors")
        sensors = SensorModel.build_all(
            [_get(s, "H", f"sensors[{i}]") for i, s in enumerate(sensors_json)],
            [_get(s, "position", f"sensors[{i}]") for i, s in enumerate(sensors_json)],
        )
        if int(_get(data, "state_dim")) != system.state_dim:
            raise ScenarioError("state_dim does not match the F matrix")
        noise_json = _get(data, "noise")
        jammer = None
        if noise_json.get("jammer") is not None:
            j = noise_json["jammer"]
            jammer = JammerSpec.build(
                _get(j, "p0", "noise.jammer"),
                _get(j, "alpha", "noise.jammer"),
                _get(j, "n_exp", "noise.jammer"),
                _get(j, "position", "noise.jammer"),
                _get(j, "R0", "noise.jammer"),
            )
        noise = NoiseModel.build(
            [s.meas_dim for s in sensors],
            base_blocks=noise_json.get("blocks"),
            base_full=noise_json.get("full"),
            jammer=jammer,
            distance_alpha1=noise_json.get("distance_alpha1"),
            sensor_positions=np.array([s.position for s in sensors]),
        )
        cons_json = _get(data, "constraints")
        constraints = ConstraintSet.build(
            _get(cons_json, "per_step", "constraints"),
            energy=cons_json.get("energy"),
            extra=[
                tuple(_get(row, key, f"constraints.linear[{p}]") for key in ("a", "relation", "b"))
                for p, row in enumerate(cons_json.get("linear") or [])
            ],
        )
        return make_scenario(
            system,
            sensors,
            noise,
            constraints,
            _get(data, "weights"),
            _get(data, "x0"),
            _get(data, "P0"),
            seed=int(data.get("seed", 0)),
            position_indices=data.get("position_indices"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return scenario_from_dict(data)
