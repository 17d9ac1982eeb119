#!/usr/bin/env python3
"""Untimed self-check: a short mc_track study writes the same CSV bytes at
``--threads 1`` and ``--threads 2``, as the README promises for any thread
count and a fixed seed.

Usage, from the repository root: python3 perfbench/selfcheck.py [--seed N]
Exits 1 and names the differing files when the outputs differ.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

from run import WORK, import_program

RUNS = 4
SAMPLES = 200


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    cli = import_program()
    from workloads import MC_SCENARIO, derive_seed, digest

    WORK.mkdir(exist_ok=True)
    mc_seed = derive_seed(args.seed, 0)
    status = 0
    for algo in ("sdr", "ignore-dep"):
        digests = {}
        for threads in (1, 2):
            out = WORK / f"selfcheck-{algo}-threads{threads}.csv"
            argv = ["simulate", MC_SCENARIO, "--algo", algo, "--samples", str(SAMPLES),
                    "--runs", str(RUNS), "--seed", str(mc_seed),
                    "--threads", str(threads), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                print(f"{algo} --threads {threads}: exit code {code}")
                return 1
            digests[threads] = digest(out)
        same = digests[1] == digests[2]
        status |= not same
        print(f"{algo}: threads 1 {digests[1]}  threads 2 {digests[2]}  "
              + ("identical" if same else "DIFFERENT"))
    return status


if __name__ == "__main__":
    sys.exit(main())
