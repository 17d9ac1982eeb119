"""Monte Carlo harness: truth generation, measurement synthesis, closed-loop
selection plus filtering, and RMSE aggregation.

Each step draws every sensor's raw measurement from the step's noise
model (``Scenario.step_noise``), the one the planner and the filter read;
the filter reads the selected sensors' rows of it.

Randomness comes from counter-based Philox streams derived per run from the
master seed, so results are reproducible across platforms and independent
of worker scheduling.  A study runs array-at-a-time: every run draws its
schedule, truth and measurements on its own streams, then one stacked
``predict`` and one stacked ``update_gif`` per step filter all the runs,
each bit for bit as it would be filtered alone.  Worker processes each
take a contiguous block of runs; the per-run outputs land in preallocated
arrays indexed by run, which makes the aggregation order-independent.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ScenarioError
from .filter import FilterState, predict, update_gif
from .measure import objective_f3
from .model import Scenario, apply_jammer, philox
from .plan import ALGORITHMS, Plan, prepare

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


def simulate_truth(scenario: Scenario, n_steps: int, seed) -> np.ndarray:
    """True trajectory (n_steps + 1 rows, row 0 is the initial state).

    The initial state is the scenario's, process noise is drawn from the
    model covariance through its cached Cholesky factor
    (``DynamicSystem.q_chol``).
    """
    rng = philox(seed)
    system = scenario.system
    x = np.asarray(scenario.x0, dtype=float)
    out = [x]
    for n in range(n_steps):
        x = system.f_at(n) @ x + system.q_chol_at(n) @ rng.standard_normal(x.shape[0])
        out.append(x)
    return np.array(out)


def simulate_measurements(truth: np.ndarray, scenario: Scenario, seed) -> np.ndarray:
    """Raw all-sensor measurements for steps 1..N of a truth trajectory,
    as an (N, dim) array.

    Every step's joint noise vector is drawn from the full (possibly
    correlated) covariance, so cross-sensor correlation survives whatever
    selection the filter reads.
    """
    rng = philox(seed)
    out = np.empty((len(truth) - 1, scenario.noise.dim))
    for n, x in enumerate(truth[1:]):
        noise = scenario.step_noise[n]
        out[n] = scenario.h_stacks[n] @ x + noise.r_chol @ rng.standard_normal(noise.dim)
    return out


def _run_seed(master_seed: int, run: int, stream: int) -> int:
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(run), int(stream)))
    return int(seq.generate_state(1)[0])


def _run_block(config: RunConfig, plan: Plan, runs: range, fixed_f3: float | None):
    """A contiguous block of runs: their squared position errors and
    trace(P) per step, as (R, horizon) arrays, and the f3 of each run's
    schedule.  ``fixed_f3`` is the fixed schedule's value, scored once per
    study; a drawn schedule reuses its rounding's value when the plan
    maximizes f3.

    Every run first draws its schedule, then its truth and measurements,
    each on the run's own Philox seed; then one stacked :func:`predict`
    and one stacked :func:`update_gif` per step filter all the runs."""
    scenario = config.scenario
    horizon = scenario.horizon
    if plan.schedule is None:
        schedules, f3 = [], []
        for run in runs:
            rounding = plan.draw(config.s_count, _run_seed(config.seed, run, 0))
            schedules.append(rounding.schedule)
            if rounding.objective_kind == "f3":
                f3.append(rounding.objective)
            else:
                f3.append(objective_f3(rounding.schedule, scenario))
    else:
        schedules, f3 = [plan.schedule] * len(runs), [fixed_f3] * len(runs)
    truth = np.array(
        [simulate_truth(scenario, horizon, _run_seed(config.seed, run, 1)) for run in runs]
    )
    z = np.array([
        simulate_measurements(path, scenario, _run_seed(config.seed, run, 2))
        for path, run in zip(truth, runs)
    ])
    gammas = np.array([schedule.gamma for schedule in schedules])
    pos = list(scenario.position_indices)
    state = FilterState(
        x=np.tile(np.asarray(scenario.x0, dtype=float), (len(runs), 1)),
        p=np.tile(np.asarray(scenario.p0, dtype=float), (len(runs), 1, 1)),
    )
    sq_err = np.zeros((len(runs), horizon))
    trace_p = np.zeros((len(runs), horizon))
    for n in range(horizon):
        state = predict(state, scenario.system, step=n)
        state = update_gif(state, scenario, gammas[:, :, n], z[:, n], step=n)
        err = state.x[:, pos] - truth[:, n + 1, pos]
        sq_err[:, n] = (err[:, None, :] @ err[:, :, None])[:, 0, 0]
        trace_p[:, n] = np.trace(state.p, axis1=1, axis2=2)
    return sq_err, trace_p, np.array(f3, dtype=float)


def run_closed_loop(config: RunConfig) -> RunResult:
    """Plan, simulate, and filter ``runs`` times; aggregate per-step RMSE.

    The schedule is planned for the whole horizon up front, using open-loop
    state predictions where the noise depends on the target position; the
    scenario's per-step noise models (``Scenario.step_noise``) drive
    planning, simulation, and filtering.  The runs are split into
    ``threads`` contiguous blocks, at most one per run; each block is
    filtered as one stack (:func:`_run_block`), in a worker process when
    there are several blocks.  Results land by run index, so the output is
    the same at any thread count.
    Deterministic for a fixed config (timing aside).
    """
    scenario = config.scenario
    plan = prepare(scenario, config.algorithm, config.objective)
    fixed_f3 = None if plan.schedule is None else objective_f3(plan.schedule, scenario)

    workers = min(config.threads, config.runs)
    bounds = [config.runs * k // workers for k in range(workers + 1)]
    blocks = [range(start, stop) for start, stop in zip(bounds, bounds[1:])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, config, plan, runs, fixed_f3) for runs in blocks]
            results = [future.result() for future in futures]
    else:
        results = [_run_block(config, plan, blocks[0], fixed_f3)]
    # The blocks are in run order, so each run's row lands at its index.
    sq_err, trace_p, f3 = (np.concatenate(parts) for parts in zip(*results))

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

