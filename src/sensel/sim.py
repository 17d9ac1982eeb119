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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import ScenarioError
from .filter import (
    FilterState,
    StackedMeasurement,
    open_loop_predictions,
    predict,
    stack_measurement,
    update_gif,
)
from .measure import objective_f3
from .model import ConstraintSet, Scenario, SelectionSchedule, apply_jammer
from .select_lp import build_lp, round_energy, solve_lp
from .select_sdr import build_bqp, build_sdp, randomize_round, select_ignore_dependence, solve_sdp
from .select_separable import exhaustive_opt, select_topk

ALGORITHMS = ("topk", "lp_round", "sdr", "ignore_dep", "exhaustive")

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
            raise ScenarioError(f"algorithm must be one of {ALGORITHMS}")
        if self.runs < 1:
            raise ScenarioError("need at least one Monte Carlo run")


@dataclass(frozen=True)
class RunResult:
    """Aggregates across runs; all per-step arrays have horizon length."""

    algorithm: str
    seed: int
    runs: int
    rmse: np.ndarray
    mean_trace_p: np.ndarray
    f1_trace: float
    f2_trace: float
    f3: float
    gap: float | None
    solve_seconds: float
    param_value: float | None = None


def _rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def simulate_truth(scenario: Scenario, n_steps: int, seed) -> np.ndarray:
    """True trajectory (n_steps + 1 rows, row 0 is the initial state).

    The initial state is the scenario's, process noise is drawn from the
    model covariance through its Cholesky factor.
    """
    rng = _rng(np.random.SeedSequence(seed)) if not isinstance(seed, np.random.SeedSequence) else _rng(seed)
    x = np.asarray(scenario.x0, dtype=float)
    out = [x]
    for n in range(n_steps):
        low = linalg.cholesky(scenario.system.q_at(n))
        x = scenario.system.f_at(n) @ x + low @ rng.standard_normal(x.shape[0])
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
    rng = _rng(np.random.SeedSequence(seed)) if not isinstance(seed, np.random.SeedSequence) else _rng(seed)
    if noise_seq is None:
        noise_seq = scenario.noise_sequence()
    out = []
    for n in range(schedule.horizon):
        noise = noise_seq[n]
        x_true = truth[n + 1]
        z_full = np.concatenate(
            [s.h_at(n) @ x_true for s in scenario.sensors]
        )
        z_full = z_full + linalg.cholesky(noise.r_full) @ rng.standard_normal(noise.dim)
        out.append(
            stack_measurement(
                scenario.sensors, noise, schedule.column(n), step=n, z=z_full
            )
        )
    return out


def _prepare_plan(config: RunConfig, noise_seq):
    """Everything about planning that is identical across Monte Carlo runs.

    For the randomized algorithm this is the relaxation solution plus one
    memo of f3 gain traces, keyed by (step, packed selection column), that
    the batched randomization of every run reads and fills; the per-run
    randomization stays inside the run.  For the deterministic algorithms
    the schedule itself is fixed here.
    """
    scenario = config.scenario
    started = time.perf_counter()
    schedule = None
    gap = None
    sdp_solution = None
    gain_memo = None
    if config.algorithm == "topk":
        columns = [
            select_topk(scenario, n, noise_seq=noise_seq)
            for n in range(scenario.horizon)
        ]
        schedule = SelectionSchedule.from_columns(columns)
    elif config.algorithm == "lp_round":
        problem = build_lp(scenario, noise_seq)
        rounded = round_energy(solve_lp(problem), scenario, problem, noise_seq)
        schedule = rounded.schedule
        gap = rounded.gap
    elif config.algorithm == "ignore_dep":
        schedule = select_ignore_dependence(scenario, noise_seq)
    elif config.algorithm == "exhaustive":
        objective = {"f1": "f1_trace", "f2": "f2_trace", "f3": "f3"}[config.objective]
        schedule, _ = exhaustive_opt(scenario, objective, noise_seq=noise_seq)
    else:  # sdr
        sdp_solution = solve_sdp(build_sdp(build_bqp(scenario, noise_seq)))
        gain_memo = {}
    return schedule, gap, sdp_solution, gain_memo, time.perf_counter() - started


def _run_seed(master_seed: int, run: int, stream: int) -> int:
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(run), int(stream)))
    return int(seq.generate_state(1)[0])


def _single_run(
    config: RunConfig, noise_seq, fixed_schedule, sdp_solution, gain_memo, run: int
):
    scenario = config.scenario
    horizon = scenario.horizon
    if fixed_schedule is not None:
        schedule = fixed_schedule
    else:
        rounded = randomize_round(
            sdp_solution,
            scenario,
            config.s_count,
            seed=_run_seed(config.seed, run, 0),
            objective=config.objective,
            noise_seq=noise_seq,
            gain_memo=gain_memo,
        )
        schedule = rounded.schedule
    truth = simulate_truth(scenario, horizon, _run_seed(config.seed, run, 1))
    measurements = simulate_measurements(
        truth, scenario, schedule, _run_seed(config.seed, run, 2), noise_seq
    )
    pos = list(scenario.position_indices)
    state = FilterState(x=np.asarray(scenario.x0), p=np.asarray(scenario.p0))
    sq_err = np.zeros(horizon)
    trace_p = np.zeros(horizon)
    covs = []
    for n in range(horizon):
        state = predict(state, scenario.system, step=n)
        state = update_gif(state, measurements[n])
        err = state.x[pos] - truth[n + 1][pos]
        sq_err[n] = float(err @ err)
        trace_p[n] = float(np.trace(state.p))
        covs.append(state.p)
    f1 = float(np.trace(covs[-1]))
    f2 = float(np.trace(sum(covs) / horizon))
    f3 = objective_f3(schedule, scenario, noise_seq)
    return sq_err, trace_p, f1, f2, f3


def run_closed_loop(config: RunConfig) -> RunResult:
    """Plan, simulate, and filter ``runs`` times; aggregate per-step RMSE.

    The schedule is planned for the whole horizon up front, using open-loop
    state predictions where the noise depends on the target position; the
    same per-step noise models drive planning, simulation, and filtering.
    Deterministic for a fixed config (timing aside).
    """
    scenario = config.scenario
    horizon = scenario.horizon
    predictions = open_loop_predictions(scenario.system, scenario.x0, horizon)
    noise_seq = scenario.noise_sequence(predictions)
    schedule, gap, sdp_solution, gain_memo, solve_seconds = _prepare_plan(
        config, noise_seq
    )

    sq_err = np.zeros((config.runs, horizon))
    trace_p = np.zeros((config.runs, horizon))
    f_vals = np.zeros((config.runs, 3))

    def store(run, result):
        sq_err[run], trace_p[run], f_vals[run, 0], f_vals[run, 1], f_vals[run, 2] = result

    if config.threads > 1 and config.runs > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            futures = {
                pool.submit(
                    _single_run, config, noise_seq, schedule, sdp_solution,
                    gain_memo, run,
                ): run
                for run in range(config.runs)
            }
            for future, run in futures.items():
                store(run, future.result())
    else:
        for run in range(config.runs):
            store(
                run,
                _single_run(config, noise_seq, schedule, sdp_solution, gain_memo, run),
            )

    return RunResult(
        algorithm=config.algorithm,
        seed=config.seed,
        runs=config.runs,
        rmse=np.sqrt(sq_err.mean(axis=0)),
        mean_trace_p=trace_p.mean(axis=0),
        f1_trace=float(f_vals[:, 0].mean()),
        f2_trace=float(f_vals[:, 1].mean()),
        f3=float(f_vals[:, 2].mean()),
        gap=gap,
        solve_seconds=solve_seconds,
    )


def sweep(config: RunConfig, parameter: str, values) -> list[RunResult]:
    """One closed-loop result per parameter value, sharing the base seed."""
    values = list(values)
    if not values:
        raise ScenarioError("sweep needs at least one value")
    if parameter not in SWEEP_PARAMS:
        raise ScenarioError(
            f"unknown sweep parameter {parameter!r}; choose from {SWEEP_PARAMS}"
        )
    results = []
    for value in values:
        run_config = _apply_sweep_value(config, parameter, value)
        result = run_closed_loop(run_config)
        results.append(replace(result, param_value=float(value)))
    return results


def _apply_sweep_value(config: RunConfig, parameter: str, value) -> RunConfig:
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
        constraints = ConstraintSet.build(
            [int(value)] * scenario.horizon,
            energy=scenario.constraints.energy,
            extra=scenario.constraints.extra,
        )
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
        and (a.f1_trace, a.f2_trace, a.f3) == (b.f1_trace, b.f2_trace, b.f3)
    )
