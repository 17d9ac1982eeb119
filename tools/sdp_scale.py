#!/usr/bin/env python3
"""Solve the SDP relaxation of a generated jammer network and report it.

The network is ``gen_uniform_scenario`` with ``--sensors`` sensors over
600 m (seed 1), 5 steps of ``--per-step`` and a budget of 2, under
example4's jammer: the ``sdr_plan`` benchmark family at network scale.  The
relaxation is built as ``sensel select --algo sdr`` builds it and solved
once; then the sampling factor is built and one 100-sample f3 rounding
(seed 1) is drawn from it.  One JSON line goes to stdout: the solve's
seconds, iterations, duality gap and objective, the factor's seconds and
rows (the sampling covariance's numerical rank plus the border row, so
each draw's count of normals), the rounding's seconds, the best f3, and
the process's peak RSS.  The exit code is 1 when the solver does not
converge or the gap is above the solver's tolerance.

    PYTHONPATH=src python tools/sdp_scale.py --sensors 120 --per-step 12
"""

import argparse
import json
import resource
import sys
import time
from importlib import resources

import numpy as np

from sensel import model
from sensel.errors import NotConverged
from sensel.select_sdr import _TOL, build_bqp, build_sdp, randomize_round, solve_sdp

ROUND_SAMPLES = 100


def jammer_network(sensors: int, per_step: int) -> model.Scenario:
    scenario = model.gen_uniform_scenario(
        sensors, 600.0, [(10.0, 10.0), (10.0, 10.0)], seed=1,
        model="tracking", per_step=[per_step] * 5, energy=2, weights=[0.2] * 5,
        x0=[600.0, -20.0, 200.0, 0.0], p0=np.diag([100.0, 10.0, 100.0, 10.0]),
    )
    example4 = resources.files("sensel").joinpath("scenarios", "example4.json")
    jam = model.load_scenario(str(example4)).noise.jammer
    return model.apply_jammer(scenario, jam.p0, jam.alpha, jam.n_exp, jam.position, jam.r0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sensors", type=int, default=120)
    parser.add_argument("--per-step", type=int, default=12)
    args = parser.parse_args()
    scenario = jammer_network(args.sensors, args.per_step)
    sdp = build_sdp(build_bqp(scenario))
    started = time.perf_counter()
    try:
        solution = solve_sdp(sdp)
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return 1
    solve_seconds = time.perf_counter() - started
    started = time.perf_counter()
    factor_rows = solution.sampling_factor.shape[0]
    factor_seconds = time.perf_counter() - started
    started = time.perf_counter()
    rounded = randomize_round(solution, scenario, ROUND_SAMPLES, 1)
    round_seconds = time.perf_counter() - started
    record = {
        "sensors": args.sensors,
        "per_step": args.per_step,
        "dim": sdp.dim,
        "rows": len(sdp.rows),
        "seconds": round(solve_seconds, 3),
        "iterations": solution.iterations,
        "gap": solution.gap,
        "objective": solution.objective,
        "factor_seconds": round(factor_seconds, 4),
        "factor_rows": factor_rows,
        "round_seconds": round(round_seconds, 4),
        "best_f3": rounded.objective,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    print(json.dumps(record))
    if not solution.gap <= _TOL:
        print(f"duality gap {solution.gap:.2e} above {_TOL:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
