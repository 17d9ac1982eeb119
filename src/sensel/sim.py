"""Monte Carlo harness: truth generation, measurement synthesis, closed-loop
selection plus filtering, and RMSE aggregation.

Randomness comes from counter-based Philox streams derived per run from the
master seed, so results are reproducible across platforms and independent
of worker scheduling.  Monte Carlo runs are embarrassingly parallel; the
per-run outputs land in preallocated arrays indexed by run, which makes the
aggregation order-independent.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ScenarioError
from .filter import FilterState, StackedMeasurement, predict, stack_measurement, update_gif
from .measure import objective_f3
from .model import Scenario, SelectionSchedule, apply_jammer
from .plan import ALGORITHMS, Plan, planning_noise, prepare

SWEEP_PARAMS = ("jammer_power", "m_per_step", "s_count")


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    algorithm: str
    runs: int = 1
    seed: int = 0
    s_count: int = 100
    objective: str = "f3"
    threads: int = 1

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ScenarioError(f"algorithm must be one of {tuple(ALGORITHMS)}")
        if self.runs < 1:
            raise ScenarioError("need at least one Monte Carlo run")
        if self.s_count < 1:
            raise ScenarioError("need at least one randomization sample")
        if self.seed < 0:
            raise ScenarioError("the seed must be >= 0")


@dataclass(frozen=True)
class RunResult:
    """Aggregates across runs; all per-step arrays have horizon length.
    ``algorithm`` is the algorithm's results-CSV label."""

    algorithm: str
    seed: int
    runs: int
    rmse: np.ndarray
    mean_trace_p: np.ndarray
    f3: float
    gap: float | None
    solve_seconds: float
    param_value: float | None = None


def _rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def simulate_truth(scenario: Scenario, n_steps: int, seed) -> np.ndarray:
    """True trajectory (n_steps + 1 rows, row 0 is the initial state).

    The initial state is the scenario's, process noise is drawn from the
    model covariance through its cached Cholesky factor
    (``DynamicSystem.q_chol``).
    """
    rng = _rng(seed)
    system = scenario.system
    x = np.asarray(scenario.x0, dtype=float)
    out = [x]
    for n in range(n_steps):
        x = system.f_at(n) @ x + system.q_chol_at(n) @ rng.standard_normal(x.shape[0])
        out.append(x)
    return np.array(out)


def simulate_measurements(
    truth: np.ndarray,
    scenario: Scenario,
    schedule: SelectionSchedule,
    seed,
    noise_seq=None,
) -> list[StackedMeasurement]:
    """Masked measurement stacks for steps 1..N of a truth trajectory.

    The joint noise vector is drawn from the full (possibly correlated)
    covariance first and masked afterwards, so cross-sensor correlation
    survives the selection.
    """
    rng = _rng(seed)
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    out = []
    for n in range(schedule.horizon):
        noise = noise_seq[n]
        z_full = scenario.h_stacks[n] @ truth[n + 1]
        z_full = z_full + noise.r_chol @ rng.standard_normal(noise.dim)
        out.append(stack_measurement(scenario, noise, schedule.column(n), step=n, z=z_full))
    return out


def _run_seed(master_seed: int, run: int, stream: int) -> int:
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(run), int(stream)))
    return int(seq.generate_state(1)[0])


def _single_run(config: RunConfig, plan: Plan, run: int, f3: float | None):
    """One run: squared position errors and trace(P) per step, and the f3
    of its schedule.  ``f3`` is the fixed schedule's value, scored once
    per study; a drawn schedule reuses its rounding's value when the plan
    maximizes f3."""
    scenario = config.scenario
    horizon = scenario.horizon
    noise_seq = plan.noise_seq
    if plan.schedule is None:
        rounding = plan.draw(config.s_count, _run_seed(config.seed, run, 0))
        schedule = rounding.schedule
        if rounding.objective_kind == "f3":
            f3 = rounding.objective
        else:
            f3 = objective_f3(schedule, scenario, noise_seq)
    else:
        schedule = plan.schedule
    truth = simulate_truth(scenario, horizon, _run_seed(config.seed, run, 1))
    measurements = simulate_measurements(
        truth, scenario, schedule, _run_seed(config.seed, run, 2), noise_seq
    )
    pos = list(scenario.position_indices)
    state = FilterState(x=np.asarray(scenario.x0), p=np.asarray(scenario.p0))
    sq_err = np.zeros(horizon)
    trace_p = np.zeros(horizon)
    for n in range(horizon):
        state = predict(state, scenario.system, step=n)
        state = update_gif(state, measurements[n])
        err = state.x[pos] - truth[n + 1][pos]
        sq_err[n] = float(err @ err)
        trace_p[n] = float(np.trace(state.p))
    return sq_err, trace_p, f3


def run_closed_loop(config: RunConfig) -> RunResult:
    """Plan, simulate, and filter ``runs`` times; aggregate per-step RMSE.

    The schedule is planned for the whole horizon up front, using open-loop
    state predictions where the noise depends on the target position; the
    same per-step noise models drive planning, simulation, and filtering.
    Deterministic for a fixed config (timing aside).
    """
    scenario = config.scenario
    horizon = scenario.horizon
    plan = prepare(scenario, config.algorithm, config.objective, planning_noise(scenario))
    fixed_f3 = None if plan.schedule is None else objective_f3(
        plan.schedule, scenario, plan.noise_seq
    )

    sq_err = np.zeros((config.runs, horizon))
    trace_p = np.zeros((config.runs, horizon))
    f3 = np.zeros(config.runs)

    def store(run, result):
        sq_err[run], trace_p[run], f3[run] = result

    if config.threads > 1 and config.runs > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            futures = {
                pool.submit(_single_run, config, plan, run, fixed_f3): run
                for run in range(config.runs)
            }
            for future, run in futures.items():
                store(run, future.result())
    else:
        for run in range(config.runs):
            store(run, _single_run(config, plan, run, fixed_f3))

    return RunResult(
        algorithm=plan.label,
        seed=config.seed,
        runs=config.runs,
        rmse=np.sqrt(sq_err.mean(axis=0)),
        mean_trace_p=trace_p.mean(axis=0),
        f3=float(f3.mean()),
        gap=plan.gap,
        solve_seconds=plan.seconds,
    )


def sweep(config: RunConfig, parameter: str, values) -> list[RunResult]:
    """One closed-loop result per parameter value, sharing the base seed.

    Every value is checked before the first simulation runs."""
    values = list(values)
    if not values:
        raise ScenarioError("sweep needs at least one value")
    if parameter not in SWEEP_PARAMS:
        raise ScenarioError(
            f"unknown sweep parameter {parameter!r}; choose from {SWEEP_PARAMS}"
        )
    configs = [_apply_sweep_value(config, parameter, value) for value in values]
    return [
        replace(run_closed_loop(run_config), param_value=float(value))
        for run_config, value in zip(configs, values)
    ]


def _apply_sweep_value(config: RunConfig, parameter: str, value) -> RunConfig:
    if parameter != "jammer_power" and not float(value).is_integer():
        raise ScenarioError(f"{parameter} takes whole numbers, got {value!r}")
    if parameter == "s_count":
        return replace(config, s_count=int(value))
    scenario = config.scenario
    if parameter == "jammer_power":
        jammer = scenario.noise.jammer
        if jammer is None:
            raise ScenarioError("jammer_power sweep needs a scenario with a jammer")
        scenario = apply_jammer(
            scenario, float(value), jammer.alpha, jammer.n_exp,
            jammer.position, jammer.r0,
        )
    else:  # m_per_step
        constraints = replace(scenario.constraints, per_step=(int(value),) * scenario.horizon)
        scenario = replace(scenario, constraints=constraints)
    return replace(config, scenario=scenario)


def write_results_csv(results, path) -> None:
    """One row per (result, step): the plot-ready boundary of this module."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["step", "trace_p", "rmse", "f3", "gap", "algo", "param_value", "seed"]
        )
        for result in results:
            for n in range(result.rmse.shape[0]):
                writer.writerow(
                    [
                        n + 1,
                        repr(float(result.mean_trace_p[n])),
                        repr(float(result.rmse[n])),
                        repr(float(result.f3)),
                        "" if result.gap is None else repr(float(result.gap)),
                        result.algorithm,
                        "" if result.param_value is None else repr(float(result.param_value)),
                        result.seed,
                    ]
                )


def results_equal(a: RunResult, b: RunResult) -> bool:
    """Bit-exact comparison of the deterministic fields (timing excluded)."""
    return (
        a.algorithm == b.algorithm
        and a.seed == b.seed
        and a.runs == b.runs
        and a.param_value == b.param_value
        and a.gap == b.gap
        and np.array_equal(a.rmse, b.rmse)
        and np.array_equal(a.mean_trace_p, b.mean_trace_p)
        and a.f3 == b.f3
    )
