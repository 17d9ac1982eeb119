#!/usr/bin/env python3
"""The sensel benchmark: closed-loop operations through ``sensel.cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload lp_plan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

One client issues one operation at a time, in process, with the Monte Carlo
simulator at ``--threads 1`` and BLAS threads left at their default.  Each
workload runs in its own fresh process.  On the SDP workloads one untimed
warm-up operation comes first (``WARMUP_OPS``); it is checked and counted
as attempted.  Timed operations are then issued until ``--seconds`` have
passed, and at least ``MIN_TIMED_OPS`` of them; the one in flight at the
deadline completes and counts.  Every operation's outputs are checked (see
``workloads.check``).

``--trace 0`` reports the end-to-end metrics.  Its set-up probes are spread
over the run: one before the first timed operation and the rest between
operations, in step with the elapsed time, so that ``setup_s`` samples the
machine over the whole run rather than over its first seconds.  ``--trace 1``
traces every timed operation, all on the run's first input, rebinding the
program's public functions from outside (``tracer.py``), and reports the
per-layer metrics plus the tracing overhead; the spans are written to
``.perfbench/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON detail record: every metric with its unit, per-operation times,
output digests, quality figures and, when traced, the dominant span.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer, wrapper_costs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("lp_plan", "sdr_plan", "mc_track")
SETUP_PROBES = 20
# Untimed operations run first: the first SDP solve of a process pays a
# one-off start-up (about 1.5 s of 11 on mc_track); the simplex does not.
WARMUP_OPS = {"lp_plan": 0, "sdr_plan": 1, "mc_track": 1}
# Timed operations per untraced run however long they take, so that op_s is
# always a median of at least three.
MIN_TIMED_OPS = 3

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Reported beside the gated metrics: they exist on some workloads only, are
# deterministic for a seed, or are usually 0 (see README.md).
EXTRA_UNITS = {
    "plan_s": "s",
    "mc_runs_per_s": "runs/s",
    "fail_frac": "fraction",
    "lp_rel_gap": "fraction",
    "sdr_f3": "1/m2",
    "rmse_aware": "m",
    "rmse_blind": "m",
}

# Per-layer metric -> span whose inclusive time per operation it reports.
SPAN_METRICS = {
    "model.load_s": "model.load_scenario",
    "measure.info_table_s": "measure.info_table",
    "select_lp.build_s": "select_lp.build_lp",
    "select_lp.solve_s": "select_lp.solve_lp",
    "select_lp.round_s": "select_lp.round_energy",
    "select_lp.certify_s": "select_lp.certify",
    "select_sdr.build_bqp_s": "select_sdr.build_bqp",
    "select_sdr.build_sdp_s": "select_sdr.build_sdp",
    "select_sdr.solve_s": "select_sdr.solve_sdp",
    "select_sdr.round_s": "select_sdr.randomize_round",
    "select_sdr.ignore_dep_s": "select_sdr.select_ignore_dependence",
    "filter.predict_s": "filter.predict",
    "filter.update_s": "filter.update_gif",
    "sim.truth_s": "sim.simulate_truth",
    "sim.measurements_s": "sim.simulate_measurements",
    "sim.closed_loop_s": "sim.run_closed_loop",
    "cli.main_s": "cli.main",
}

# Exact per-operation figures read from call results; they repeat exactly
# for a seed (lifted_mb is computed from the SDP size, not measured).
EXACT_COUNTS = {
    "model.load_calls": "count",
    "select_lp.pivots": "count",
    "select_sdr.iterations": "count",
    "select_sdr.samples": "count",
    "select_sdr.lifted_mb": "MB",
    "filter.updates": "count",
    "sim.runs": "count",
}

PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **EXACT_COUNTS,
    "select_sdr.s_per_iter": "s",
    "select_sdr.round_ms_per_sample": "ms",
    "select_sdr.distinct_frac": "fraction",
    "sim.plan_s": "s",
    "trace.overhead_frac": "fraction",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import sensel from this checkout's ``src``, and nothing else."""
    if not (SRC / "sensel" / "__init__.py").is_file():
        raise SystemExit(f"error: no sensel package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sensel
    from sensel import cli

    if Path(sensel.__file__).resolve().parent != (SRC / "sensel").resolve():
        raise SystemExit(f"error: imported sensel from {sensel.__file__}, not {SRC}")
    return cli


def setup_seconds(files) -> float:
    """Set-up time of one fresh process (``setup_probe.py``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *map(str, files)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run_operation(cli, calls, tracer=None) -> dict:
    """Run one operation's CLI calls, timing only the calls, then check."""
    from workloads import check, digest

    seconds = 0.0
    problems: list[str] = []
    quality: dict[str, float] = {}
    digests: dict[str, str] = {}
    for call in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        code = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = cli.main(call.argv)
                else:
                    with tracer.span("cli.main"):
                        code = cli.main(call.argv)
        except Exception as exc:  # a crash is a failed operation, not a stop
            problems.append(f"{call.argv[0]} raised {type(exc).__name__}: {exc}")
        seconds += time.perf_counter() - started
        if code is None:
            continue
        if code != 0:
            problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
            continue
        try:
            found, figures = check(call)
            digests[call.out.name] = digest(call.out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            found, figures = [f"unreadable output {call.out.name}: {exc}"], {}
        problems.extend(found)
        quality.update(figures)
    return {
        "seconds": seconds,
        "ok": not problems,
        "problems": problems,
        "quality": quality,
        "digests": digests,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; 1 MB = 1e6 bytes.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(workload, ops, setup) -> tuple[dict[str, float], dict[str, float]]:
    from workloads import MC_RUNS

    timed = [op for op in ops if not op["warmup"]]
    good = [op["seconds"] for op in timed if op["ok"]] or [op["seconds"] for op in timed]
    metrics = {
        "op_s": statistics.median(good),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"fail_frac": sum(not op["ok"] for op in ops) / len(ops)}
    if workload == "mc_track":
        extra["mc_runs_per_s"] = 2 * MC_RUNS * len(good) / sum(good)
    else:
        extra["plan_s"] = metrics["op_s"]
    extra.update(ops[0]["quality"])  # operation 0 always uses input 0
    return metrics, extra


def per_layer(tracer, ops) -> tuple[dict[str, float], str]:
    """Per-layer metrics per operation, and the span with the most self
    time.  Every operation of a traced run but the warm-up is traced."""
    traced = [k for k, op in enumerate(ops) if not op["warmup"]]
    inclusive, own, layer_own = tracer.op_times(traced)
    totals = {key: value / len(traced) for key, value in tracer.totals.items()}
    metrics = {name: inclusive.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_own.get(layer, 0.0)
    for name in EXACT_COUNTS:
        metrics[name] = totals.get(name, 0.0)
    iterations = totals.get("select_sdr.iterations", 0.0)
    samples = totals.get("select_sdr.samples", 0.0)
    rounded = totals.get("select_sdr.rounded", 0.0)
    metrics["select_sdr.s_per_iter"] = (
        metrics["select_sdr.solve_s"] / iterations if iterations else 0.0
    )
    metrics["select_sdr.round_ms_per_sample"] = (
        1000.0 * metrics["select_sdr.round_s"] / samples if samples else 0.0
    )
    metrics["select_sdr.distinct_frac"] = (
        totals.get("select_sdr.distinct", 0.0) / rounded if rounded else 0.0
    )
    metrics["sim.plan_s"] = totals.get("sim.plan_s", 0.0)
    # Wrapped calls times the cost of one wrapper, against the untraced
    # time that leaves: traced / untraced - 1.
    span_cost, count_cost = wrapper_costs()
    overhead = (len(tracer.spans) / len(traced) * span_cost
                + totals.get("trace.counted_calls", 0.0) * count_cost)
    traced_s = statistics.median(ops[k]["seconds"] for k in traced)
    metrics["trace.overhead_frac"] = overhead / (traced_s - overhead)
    return metrics, max(own, key=own.get)


def run_workload(args) -> int:
    cli = import_program()
    from workloads import Inputs

    WORK.mkdir(exist_ok=True)
    inputs = Inputs(args.workload, args.seed, WORK)
    tracer = Tracer() if args.trace else None

    ops: list[dict] = []
    for _ in range(WARMUP_OPS[args.workload]):
        ops.append({**run_operation(cli, inputs.calls(len(ops), slot=0)), "warmup": True})
    least = len(ops) + (1 if tracer else MIN_TIMED_OPS)
    setup: list[float] = []
    probing = 0.0  # time spent in set-up probes, which the deadline skips
    started = time.perf_counter()
    while len(ops) < least or time.perf_counter() - started - probing < args.seconds:
        if tracer is None:
            # Probes due by now, spread evenly over the run; at least one.
            share = (time.perf_counter() - started - probing) / args.seconds
            while len(setup) < min(SETUP_PROBES, 1 + int(SETUP_PROBES * share)):
                probe_started = time.perf_counter()
                setup.append(setup_seconds(inputs.files))
                probing += time.perf_counter() - probe_started
            ops.append({**run_operation(cli, inputs.calls(len(ops))), "warmup": False})
        else:
            tracer.op = len(ops)
            with tracer.rebound():
                op = run_operation(cli, inputs.calls(len(ops), slot=0), tracer)
            ops.append({**op, "warmup": False})
    while tracer is None and len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(inputs.files))

    failed = sum(not op["ok"] for op in ops)
    if tracer is None:
        metrics, extra = end_to_end(args.workload, ops, setup)
        units = {**END_TO_END, **EXTRA_UNITS}
        report = {**metrics, **extra}
        dominant = None
    else:
        metrics, dominant = per_layer(tracer, ops)
        units = PER_LAYER
        report = dict(metrics)
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed")
    for k, op in enumerate(ops):
        tag = " warm-up" if op["warmup"] else " traced" if tracer else ""
        print(f"  op {k}{tag}: {op['seconds']:.4f} s ok={op['ok']} {op['problems'] or ''}")
        for name, sha in op["digests"].items():
            print(f"    sha256 {sha} {name}")
    for name, value in report.items():
        print(f"  {name:<32} {value:.6g} {units[name]}"
              + (f" (median of {sum(o['ok'] and not o['warmup'] for o in ops)} ops)" if name in ("op_s", "plan_s") else ""))
    if dominant is not None:
        print(f"  dominant span (self time): {dominant}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "report": {name: [value, units[name]] for name, value in report.items()},
        "op_seconds": [op["seconds"] for op in ops],
        "warmup_ops": WARMUP_OPS[args.workload],
        "setup_seconds": setup,
        "digests": [op["digests"] for op in ops],
        "problems": [op["problems"] for op in ops],
        "dominant": dominant,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


class RunFailed(RuntimeError):
    pass


def spawn(workload, seed, seconds, trace, echo=False) -> tuple[dict, dict]:
    """One workload run in a fresh process: its result line and its detail
    record.  Raises ``RunFailed`` when the run exits with another code
    than 0."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if echo:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RunFailed(f"{workload} seed {seed} trace {trace} exited "
                        f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                _, detail = spawn(workload, args.seed, args.seconds, trace, echo=True)
            except RunFailed:
                status = 1
                continue
            rows += [(workload, name, value, unit) for name, (value, unit) in detail["report"].items()]
    print("\nsummary")
    for workload, name, value, unit in rows:
        print(f"  {workload:<9} {name:<32} {value:.6g} {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
