"""Command-line interface: plan selections, run simulations, sweep parameters.

Exit codes: 0 success; 1 scenario and other model errors; 2 usage errors
(argparse exits before any work) and infeasible or oversized instances;
3 solver non-convergence.  Summaries go to stdout; schedules, certificates,
and results go to the requested output files as JSON/CSV.
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
    UnsupportedConstraints,
)
from .measure import OBJECTIVES, objective_value
from .model import Scenario, SelectionSchedule, load_scenario
from .plan import ALGORITHMS, prepare
from .select_sdr import bqp_objective
from .sim import RunConfig, run_closed_loop, sweep, write_results_csv

BUNDLED = tuple(f"example{i}" for i in range(1, 8))


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


def _schedule_json(schedule: SelectionSchedule) -> list[list[int]]:
    return [
        sorted(int(i) for i in np.flatnonzero(schedule.column(n)))
        for n in range(schedule.horizon)
    ]


def cmd_select(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    plan = prepare(scenario, args.algo, args.objective)
    schedule = plan.schedule
    if plan.certificate is not None:
        report = plan.certificate
        payload = report.to_dict()
        print(
            f"lp: bound={report.lp_objective:.6g} rounded={report.rounded_objective:.6g} "
            f"gap={report.gap:.3g} feasible={report.feasible}"
        )
    elif schedule is None:  # sdr: draw the schedule for this seed
        rounded = plan.draw(args.samples, args.seed)
        schedule = rounded.schedule
        payload = {
            "sdp_objective": plan.sdp_solution.objective,
            "duality_gap": plan.sdp_solution.gap,
            "relaxation_bound": plan.bound,
            "bqp_objective": bqp_objective(plan.bqp, schedule),
            "samples": rounded.samples,
            "best_objective": rounded.objective,
        }
        print(
            f"sdr: samples={rounded.samples} best {args.objective}="
            f"{rounded.objective:.6g} (sdp gap {plan.sdp_solution.gap:.2e})"
        )
    else:
        value = objective_value(args.objective, schedule, scenario)
        payload = {"algo": args.algo, "objective": args.objective, "value": value}
        print(f"{args.algo}: {args.objective}={value:.6g}")
    payload["schedule"] = _schedule_json(schedule)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def _run_config(args) -> RunConfig:
    return RunConfig(
        scenario=_resolve_scenario(args.scenario),
        algorithm=args.algo,
        runs=args.runs,
        seed=args.seed,
        s_count=args.samples,
        objective=args.objective,
        threads=args.threads,
    )


def cmd_simulate(args) -> int:
    config = _run_config(args)
    result = run_closed_loop(config)
    print(
        f"{result.algorithm}: runs={config.runs} mean RMSE="
        f"{float(result.rmse.mean()):.4g} mean trace(P)="
        f"{float(result.mean_trace_p.mean()):.4g}"
    )
    if args.out:
        write_results_csv([result], args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    config = _run_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"cannot parse sweep values {args.values!r}") from None
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


def _int_at_least(low: int):
    """Argument type: an int no smaller than ``low``, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _out_path(text: str) -> str:
    """Argument type: a file path in an existing directory, else a usage
    error, so that a bad ``--out`` fails before any solve."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory {str(path.parent)!r} does not exist")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensel",
        description="Sensor selection and tracking simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, help_text, func, out_help):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario JSON path or bundled name")
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--samples", type=_int_at_least(1), default=100,
                       help="randomization samples for the sdr algorithm")
        p.add_argument("--objective", choices=OBJECTIVES, default="f3")
        p.add_argument("--algo", choices=tuple(ALGORITHMS), required=True)
        p.add_argument("--out", type=_out_path, help=out_help)
        p.set_defaults(func=func)
        return p

    common("select", "plan a selection schedule", cmd_select,
           "write schedule/certificate JSON here")
    p_sim = common("simulate", "Monte Carlo closed-loop simulation", cmd_simulate,
                   "write results CSV here")
    p_sweep = common("sweep", "repeat a simulation over a parameter", cmd_sweep,
                     "write results CSV here")
    p_sweep.add_argument(
        "--param", required=True,
        help="one of: jammer_power, m_per_step, s_count",
    )
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    for p in (p_sim, p_sweep):
        p.add_argument("--runs", type=_int_at_least(1), default=1)
        # argparse parses a string default too: a bad SENSEL_THREADS exits 2.
        # One worker by default: on two cores a second one made studies slower.
        p.add_argument("--threads", type=_int_at_least(1),
                       default=os.environ.get("SENSEL_THREADS") or "1")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        Infeasible, TooLarge, RoundingInfeasible, NotSeparableNoise,
        UnsupportedConstraints,
    ) as exc:
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
