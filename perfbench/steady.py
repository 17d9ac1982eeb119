#!/usr/bin/env python3
"""Steadiness check for the benchmark, and the source of ``baseline.json``.

Usage, from the repository root:

    python3 perfbench/steady.py [--seeds 10] [--workloads lp_plan ...]
                                [--out perfbench/baseline.json]

For each workload it makes one untraced run per seed (seeds 1..N) with the
``run_seconds`` of BENCHMARK.json, and reports each end-to-end metric's
median, quartiles and spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
A spread above the metric's bound fails; one above a third of its bound is
flagged.

It then makes two traced runs on the first seed and asserts that the exact
counts repeat exactly, that every traced operation (all on that seed's
first input) wrote the same bytes as the untraced run's first operation (so
the quality figures repeat too), and that the dominant span is the one the
layer map predicts.  Last it runs ``selfcheck.py``.  Any failed operation
also fails the check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import EXACT_COUNTS as EXACT
from run import spawn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DOMINANT = {
    "lp_plan": "select_lp.solve_lp",
    "sdr_plan": "select_sdr.solve_sdp",
    "mc_track": "select_sdr.randomize_round",
}


def bench_run(spec, workload, seed, trace):
    result, detail = spawn(workload, seed, spec["run_seconds"], trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {metric["name"] for metric in declared}
    if set(result["metrics"]) != names:
        raise SystemExit(f"{workload}: metrics {sorted(result['metrics'])} "
                         f"differ from BENCHMARK.json {sorted(names)}")
    return result, detail


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def check_spreads(spec, workload, results):
    ok = True
    summary = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        stats = spread(values)
        summary[name] = {**stats, "values": values, "unit": metric["unit"]}
        flag = ""
        if stats["spread"] > bound:
            flag, ok = "  FAIL: above bound", False
        elif stats["spread"] > bound / 3:
            flag = "  (above a third of the bound)"
        print(f"  {workload:<9} {name:<12} median {stats['median']:.5g} "
              f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} "
              f"spread {stats['spread']:.4f} bound {bound}{flag}")
        print(f"    values {[float(f'{v:.4g}') for v in values]}")
    return ok, summary


def check_repeat(spec, workload, seed, untraced_detail):
    ok = True
    runs = [bench_run(spec, workload, seed, 1) for _ in range(2)]
    first, second = (result["metrics"] for result, _ in runs)
    for name in EXACT:
        a, b = first[name]["value"], second[name]["value"]
        if a != b:
            print(f"  {workload}: count {name} differs between runs: {a} != {b}")
            ok = False
    for _, detail in runs:
        digests = {sha for op in detail["digests"] for sha in op.values()}
        if digests != {sha for sha in untraced_detail["digests"][0].values()}:
            print(f"  {workload}: traced or repeated outputs differ from the untraced run")
            ok = False
        if detail["dominant"] != DOMINANT[workload]:
            print(f"  {workload}: dominant span {detail['dominant']}, "
                  f"expected {DOMINANT[workload]}")
            ok = False
    quality = {k: v for k, v in untraced_detail["report"].items()
               if k in ("lp_rel_gap", "sdr_f3", "rmse_aware", "rmse_blind")}
    counts = {name: first[name]["value"] for name in EXACT}
    print(f"  {workload:<9} exact counts {counts}")
    print(f"  {workload:<9} dominant {runs[0][1]['dominant']}, "
          f"overhead {[r['metrics']['trace.overhead_frac']['value'] for r, _ in runs]}")
    return ok, {
        "counts": counts,
        "quality": {k: v[0] for k, v in quality.items()},
        "dominant": runs[0][1]["dominant"],
        "per_layer": {name: m["value"] for name, m in first.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))

    ok = True
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = [bench_run(spec, workload, seed, 0) for seed in seeds]
        good, summary = check_spreads(spec, workload, [r for r, _ in runs])
        ok &= good
        entry = {"end_to_end": summary,
                 "failed": sum(r["failed"] for r, _ in runs),
                 "attempted": sum(r["attempted"] for r, _ in runs)}
        if entry["failed"]:
            print(f"  {workload}: {entry['failed']} of {entry['attempted']} operations failed")
            ok = False
        good, repeat = check_repeat(spec, workload, seeds[0], runs[0][1])
        ok &= good
        entry.update(repeat)
        record["workloads"][workload] = entry
        sys.stdout.flush()

    done = subprocess.run([sys.executable, str(HERE / "selfcheck.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    print(done.stdout, end="")
    record["threads_selfcheck"] = done.returncode == 0
    ok &= done.returncode == 0
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
