"""Command-line interface: plan selections, run simulations, sweep parameters.

Exit codes: 0 success, 1 usage or scenario errors, 2 infeasible or oversized
instances, 3 solver non-convergence.  Summaries go to stdout; schedules,
certificates, and results go to the requested output files as JSON/CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    Infeasible,
    NotConverged,
    NotSeparableNoise,
    RoundingInfeasible,
    ScenarioError,
    SenselError,
    TooLarge,
)
from .measure import objective_f1, objective_f2, objective_f3
from .model import Scenario, load_scenario
from .select_lp import build_lp, certify, round_energy, solve_lp
from .select_sdr import (
    build_bqp,
    build_sdp,
    randomize_round,
    select_ignore_dependence,
    solve_sdp,
)
from .select_separable import exhaustive_opt, select_topk
from .sim import RunConfig, run_closed_loop, sweep, write_results_csv
from .filter import open_loop_predictions
from .model import SelectionSchedule

BUNDLED = tuple(f"example{i}" for i in range(1, 8))

_ALGO_MAP = {
    "topk": "topk",
    "lp": "lp_round",
    "sdr": "sdr",
    "exhaustive": "exhaustive",
    "ignore-dep": "ignore_dep",
}


def _resolve_scenario(arg: str) -> Scenario:
    path = Path(arg)
    if path.exists():
        return load_scenario(path)
    if arg in BUNDLED:
        from importlib import resources

        ref = resources.files("sensel").joinpath("scenarios", f"{arg}.json")
        with resources.as_file(ref) as bundled_path:
            return load_scenario(bundled_path)
    raise ScenarioError(
        f"{arg}: not a file and not one of the bundled names {', '.join(BUNDLED)}"
    )


def _default_threads() -> int:
    env = os.environ.get("SENSEL_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _schedule_json(schedule: SelectionSchedule) -> list[list[int]]:
    return [
        sorted(int(i) for i in np.flatnonzero(schedule.column(n)))
        for n in range(schedule.horizon)
    ]


def _noise_sequence(scenario: Scenario):
    predictions = open_loop_predictions(
        scenario.system, scenario.x0, scenario.horizon
    )
    return scenario.noise_sequence(predictions)


def _objective_value(schedule, scenario, noise_seq, kind: str) -> float:
    if kind == "f1":
        return float(np.trace(objective_f1(schedule, scenario, noise_seq)))
    if kind == "f2":
        return float(np.trace(objective_f2(schedule, scenario, noise_seq)))
    return objective_f3(schedule, scenario, noise_seq)


def cmd_select(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    noise_seq = _noise_sequence(scenario)
    payload: dict
    if args.algo == "lp":
        problem = build_lp(scenario, noise_seq)
        solution = solve_lp(problem)
        rounded = round_energy(solution, scenario, problem, noise_seq)
        report = certify(rounded, problem)
        payload = report.to_dict()
        payload["schedule"] = _schedule_json(rounded.schedule)
        schedule = rounded.schedule
        print(
            f"lp: bound={report.lp_objective:.6g} rounded={report.rounded_objective:.6g} "
            f"gap={report.gap:.3g} feasible={report.feasible}"
        )
    elif args.algo == "sdr":
        sdp = build_sdp(build_bqp(scenario, noise_seq))
        sdp_solution = solve_sdp(sdp)
        rounded = randomize_round(
            sdp_solution, scenario, args.samples, args.seed,
            objective=args.objective, noise_seq=noise_seq,
        )
        schedule = rounded.schedule
        payload = {
            "sdp_objective": sdp_solution.objective,
            "duality_gap": sdp_solution.gap,
            "samples": rounded.samples,
            "best_objective": rounded.objective,
            "schedule": _schedule_json(schedule),
        }
        print(
            f"sdr: samples={rounded.samples} best {args.objective}="
            f"{rounded.objective:.6g} (sdp gap {sdp_solution.gap:.2e})"
        )
    else:
        if args.algo == "topk":
            columns = [
                select_topk(scenario, n, noise_seq=noise_seq)
                for n in range(scenario.horizon)
            ]
            schedule = SelectionSchedule.from_columns(columns)
        elif args.algo == "ignore-dep":
            schedule = select_ignore_dependence(scenario, noise_seq)
        else:  # exhaustive
            kind = {"f1": "f1_trace", "f2": "f2_trace", "f3": "f3"}[args.objective]
            schedule, _ = exhaustive_opt(scenario, kind, noise_seq=noise_seq)
        value = _objective_value(schedule, scenario, noise_seq, args.objective)
        payload = {
            "algo": args.algo,
            "objective": args.objective,
            "value": value,
            "schedule": _schedule_json(schedule),
        }
        print(f"{args.algo}: {args.objective}={value:.6g}")
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    config = RunConfig(
        scenario=scenario,
        algorithm=_ALGO_MAP[args.algo],
        runs=args.runs,
        seed=args.seed,
        s_count=args.samples,
        objective=args.objective,
        threads=args.threads,
    )
    result = run_closed_loop(config)
    print(
        f"{config.algorithm}: runs={config.runs} mean RMSE="
        f"{float(result.rmse.mean()):.4g} mean trace(P)="
        f"{float(result.mean_trace_p.mean()):.4g}"
    )
    if args.out:
        write_results_csv([result], args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"cannot parse sweep values {args.values!r}") from None
    config = RunConfig(
        scenario=scenario,
        algorithm=_ALGO_MAP[args.algo],
        runs=args.runs,
        seed=args.seed,
        s_count=args.samples,
        objective=args.objective,
        threads=args.threads,
    )
    results = sweep(config, args.param, values)
    for result in results:
        print(
            f"{args.param}={result.param_value:g}: mean RMSE="
            f"{float(result.rmse.mean()):.4g} f3={result.f3:.6g}"
        )
    if args.out:
        write_results_csv(results, args.out)
        print(f"wrote {args.out}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensel",
        description="Sensor selection and tracking simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_objective=True):
        p.add_argument("scenario", help="scenario JSON path or bundled name")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=_positive_int, default=100,
                       help="randomization samples for the sdr algorithm")
        if with_objective:
            p.add_argument("--objective", choices=("f1", "f2", "f3"), default="f3")

    p_select = sub.add_parser("select", help="plan a selection schedule")
    common(p_select)
    p_select.add_argument(
        "--algo",
        choices=("topk", "lp", "sdr", "exhaustive", "ignore-dep"),
        required=True,
    )
    p_select.add_argument("--out", help="write schedule/certificate JSON here")
    p_select.set_defaults(func=cmd_select)

    p_sim = sub.add_parser("simulate", help="Monte Carlo closed-loop simulation")
    common(p_sim)
    p_sim.add_argument(
        "--algo",
        choices=("topk", "lp", "sdr", "exhaustive", "ignore-dep"),
        required=True,
    )
    p_sim.add_argument("--runs", type=int, default=1)
    p_sim.add_argument("--threads", type=int, default=_default_threads())
    p_sim.add_argument("--out", help="write results CSV here")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="repeat a simulation over a parameter")
    common(p_sweep)
    p_sweep.add_argument(
        "--algo",
        choices=("topk", "lp", "sdr", "exhaustive", "ignore-dep"),
        required=True,
    )
    p_sweep.add_argument(
        "--param", required=True,
        help="one of: jammer_power, m_per_step, s_count",
    )
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--runs", type=int, default=1)
    p_sweep.add_argument("--threads", type=int, default=_default_threads())
    p_sweep.add_argument("--out", help="write results CSV here")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Infeasible, TooLarge, RoundingInfeasible, NotSeparableNoise) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ScenarioError, SenselError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
