#!/usr/bin/env python3
"""Plan a generated 2,000-sensor network with the LP route and report it.

The network is ``gen_uniform_scenario`` with 2,000 sensors over 600 m
(seed 1), uncorrelated 2x2 noise with variances drawn from (5, 10), 5 steps
of 10 and a budget of 2: the ``lp_plan`` benchmark family at network scale.
It is planned as ``sensel select --algo lp`` plans it: ``build_lp``,
``solve_lp``, ``round_energy`` and ``certify``, in this process.  One JSON
line goes to stdout: the planning's seconds (not building the network),
the simplex's pivots, the process's peak RSS and the sha256 of the 0/1
schedule, which compares two versions' plans bit for bit.  The exit code is
1 when the certified schedule breaks a constraint row, or when planning
assembled the dense 4,000 x 4,000 noise matrix, which the LP route never
reads: its noise is checked and read through the sensors' own blocks.

    PYTHONPATH=src python tools/lp_scale.py
"""

import hashlib
import json
import resource
import sys
import time

import numpy as np

from sensel import model
from sensel.select_lp import build_lp, certify, round_energy, solve_lp

SENSORS = 2000
PER_STEP = 10


def main() -> int:
    scenario = model.gen_uniform_scenario(
        SENSORS, 600.0, [(5.0, 10.0), (5.0, 10.0)], seed=1,
        model="tracking", per_step=[PER_STEP] * 5, energy=2, weights=[0.2] * 5,
        x0=[600.0, -20.0, 200.0, 0.0], p0=np.diag([100.0, 10.0, 100.0, 10.0]),
    )
    started = time.perf_counter()
    problem = build_lp(scenario)
    solution = solve_lp(problem)
    rounded = round_energy(solution, scenario, problem)
    report = certify(rounded, problem)
    seconds = time.perf_counter() - started
    dense = any("r_full" in vars(noise) for noise in (scenario.noise, *scenario.step_noise))
    gamma = np.ascontiguousarray(rounded.schedule.gamma, dtype=np.int8)
    record = {
        "sensors": SENSORS,
        "per_step": PER_STEP,
        "seconds": round(seconds, 3),
        "pivots": solution.iterations,
        "f_lp": report.lp_objective,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "schedule_sha256": hashlib.sha256(gamma.tobytes()).hexdigest(),
    }
    print(json.dumps(record))
    if not report.feasible:
        print("the rounded schedule breaks a constraint row", file=sys.stderr)
        return 1
    if dense:
        print("planning assembled the dense noise matrix", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
