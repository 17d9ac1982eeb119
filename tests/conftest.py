"""Shared helpers for building randomized test instances."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from sensel import model


def rand_spd(n: int, rng: np.random.Generator, ridge: float = 0.5) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T + ridge * np.eye(n)


def rand_correlated_noise(sizes, rng, ridge=1.0) -> model.NoiseModel:
    dim = sum(sizes)
    return model.NoiseModel.from_full(rand_spd(dim, rng, ridge), sizes)


def rand_diagonal_noise(sizes, rng, lo=0.5, hi=5.0) -> model.NoiseModel:
    blocks = [np.diag(rng.uniform(lo, hi, size=n)) for n in sizes]
    return model.NoiseModel.build(sizes, base_blocks=blocks)


def rand_scenario(
    rng: np.random.Generator,
    num_sensors: int,
    horizon: int,
    state_dim: int = 2,
    meas_dims=None,
    correlated: bool = False,
    per_step=None,
    energy=None,
    weights=None,
) -> model.Scenario:
    """Small random scenario with a stable (near-identity) transition."""
    sizes = list(meas_dims) if meas_dims is not None else [
        int(rng.integers(1, 3)) for _ in range(num_sensors)
    ]
    f = np.eye(state_dim) + 0.1 * rng.normal(size=(state_dim, state_dim))
    system = model.DynamicSystem.build(f, rand_spd(state_dim, rng))
    sensors = [
        model.SensorModel.build(
            rng.normal(size=(n, state_dim)), rng.uniform(0.0, 100.0, size=2)
        )
        for n in sizes
    ]
    noise = (
        rand_correlated_noise(sizes, rng)
        if correlated
        else rand_diagonal_noise(sizes, rng)
    )
    if per_step is None:
        per_step = [int(rng.integers(1, num_sensors + 1)) for _ in range(horizon)]
    constraints = model.ConstraintSet.build(per_step, energy=energy)
    if weights is None:
        weights = rng.uniform(0.1, 1.0, size=horizon)
    return model.make_scenario(
        system,
        sensors,
        noise,
        constraints,
        weights,
        x0=rng.normal(size=state_dim),
        p0=rand_spd(state_dim, rng),
        seed=int(rng.integers(0, 2**31)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def loop_round_by_scores(scores, constraints, weights) -> np.ndarray:
    """Reference greedy rounding: the per-candidate Python loop that the
    batched rounder replaced.  Checks counts and budgets only; returns the
    sensors-by-steps 0/1 matrix or raises RoundingInfeasible."""
    from sensel.errors import RoundingInfeasible

    scores = np.asarray(scores, dtype=float)
    num, horizon = scores.shape
    weights = np.asarray(weights, dtype=float)
    order = sorted(range(horizon), key=lambda n: (-weights[n], -n))
    budgets = None if constraints.energy is None else list(constraints.energy)
    gamma = np.zeros((num, horizon), dtype=np.int8)
    for n in order:
        m = constraints.per_step[n]
        candidates = [i for i in range(num) if budgets is None or budgets[i] > 0]
        if len(candidates) < m:
            raise RoundingInfeasible(f"step {n}: out of budgeted sensors")
        chosen = sorted(candidates, key=lambda i: (-scores[i, n], i))[:m]
        gamma[chosen, n] = 1
        if budgets is not None:
            for i in chosen:
                budgets[i] -= 1
    return gamma


def enumerate_feasible(scenario):
    """Every schedule that meets the scenario's constraint set."""
    pools = [
        itertools.combinations(range(scenario.num_sensors), m)
        for m in scenario.constraints.per_step
    ]
    for combo in itertools.product(*pools):
        gamma = np.zeros((scenario.num_sensors, scenario.horizon), dtype=np.int8)
        for n, chosen in enumerate(combo):
            gamma[list(chosen), n] = 1
        schedule = model.SelectionSchedule.build(gamma)
        if schedule.satisfies(scenario.constraints):
            yield schedule


def with_random_extra_row(rng, scenario) -> model.Scenario:
    """The scenario plus one random integer row that a randomly chosen
    feasible schedule meets, so the Boolean problem stays feasible."""
    feasible = list(enumerate_feasible(scenario))
    target = feasible[int(rng.integers(len(feasible)))]
    a = rng.integers(-2, 3, size=scenario.num_sensors * scenario.horizon).astype(float)
    relation = str(rng.choice(["<=", ">="]))
    row = model.LinearConstraint.build(a, relation, float(a @ target.gamma_vec()))
    cons = scenario.constraints
    constraints = model.ConstraintSet.build(cons.per_step, energy=cons.energy, extra=[row])
    return replace(scenario, constraints=constraints)
