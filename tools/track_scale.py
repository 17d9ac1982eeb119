#!/usr/bin/env python3
"""Run a closed-loop tracking study on a generated jammer network and report it.

The network is ``sdp_scale.jammer_network(400, 10)``: 400 sensors, 10
picks per step.  The study is what ``sensel simulate --algo
ignore-dep --runs 20 --threads 1 --seed 1`` runs on it: plan once, then
simulate and filter 20 Monte Carlo runs in this process.  One JSON line
goes to stdout: the study's seconds (planning, runs and the results CSV,
not building the network), the process's peak RSS and the sha256 of the
results CSV, which compares two versions' studies bit for bit.

    PYTHONPATH=src python tools/track_scale.py
"""

import hashlib
import json
import os
import resource
import sys
import tempfile
import time

from sdp_scale import jammer_network

from sensel.sim import RunConfig, run_closed_loop, write_results_csv


def main() -> int:
    scenario = jammer_network(400, 10)
    config = RunConfig(scenario=scenario, algorithm="ignore-dep", runs=20, seed=1, threads=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.csv")
        started = time.perf_counter()
        write_results_csv([run_closed_loop(config)], path)
        seconds = time.perf_counter() - started
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    record = {
        "sensors": 400,
        "per_step": 10,
        "runs": config.runs,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "csv_sha256": digest,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
