"""The benchmark's workloads: generated inputs, one operation each, and the
checks every operation's outputs must pass.

An operation is one closed-loop request to ``sensel.cli.main``: a ``select``
on the planning workloads, and a paired aware + blind ``simulate`` study on
``mc_track``.  Inputs come from the workload seed only; scenario files are
written with ``model.save_scenario`` before any timing, and the program
reads nothing else.

The checks hold for any correct answer, so a change that alters a schedule
for a stated reason still passes them; SHA-256 digests of the output files
are reported beside them so bit-identity across commits stays visible.
Extra side rows (``ConstraintSet.extra``) appear in no workload, so the
known ``round_by_scores`` defect with such rows is not exercised here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from sensel import model

TRACK_X0 = [600.0, -20.0, 200.0, 0.0]
TRACK_P0 = np.diag([100.0, 10.0, 100.0, 10.0])
JAMMER_POWER = 1.5e6
JAMMER_POS = [550.0, 200.0]

SDR_SAMPLES = 100
MC_SAMPLES = 2000
MC_RUNS = 12
MC_SCENARIO = "example7"

SDR_MAX_GAP = 1e-6
LP_GAP_TOL = 1e-8


def derive_seed(seed: int, *key: int) -> int:
    """Independent 32-bit seed for item ``key`` of a workload seed."""
    return int(np.random.SeedSequence(int(seed), spawn_key=key).generate_state(1)[0])


def lp_instance(seed: int) -> model.Scenario:
    """example3 family: 20x20 grid, 5 steps of 10, budget 2, seeded noise."""
    return model.gen_grid_scenario(
        20, 100.0, [(5.0, 10.0), (5.0, 10.0)], seed=seed,
        model="tracking", per_step=[10] * 5, energy=2,
        weights=[0.2] * 5, x0=[50.0, 0.0, 50.0, 0.0], p0=TRACK_P0,
    )


def sdr_instance(seed: int) -> model.Scenario:
    """20 sensors uniform over 600 m with example4's jammer, 5 steps of 2,
    budget 2: an SDP of dimension 20 * 5 + 1 = 101."""
    scenario = model.gen_uniform_scenario(
        20, 600.0, [(10.0, 10.0), (10.0, 10.0)], seed=seed,
        model="tracking", per_step=[2] * 5, energy=2,
        weights=[0.2] * 5, x0=TRACK_X0, p0=TRACK_P0,
    )
    return model.apply_jammer(scenario, JAMMER_POWER, 1.0, 2.0, JAMMER_POS, np.eye(2))


def bundled_path(name: str) -> Path:
    return Path(str(resources.files("sensel").joinpath("scenarios", f"{name}.json")))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Call:
    """One ``sensel.cli.main`` invocation and how to check what it wrote."""

    argv: list[str]
    out: Path
    kind: str  # "lp", "sdr" or "csv"
    scenario: model.Scenario


POOL = {"lp_plan": 3, "sdr_plan": 24, "mc_track": 3}


class Inputs:
    """One seed's inputs for a workload, saved under ``work``.

    Operation ``k`` uses input ``k`` modulo the pool size, so a run walks
    several inputs; operation 0 always uses input 0.
    """

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.instances = []
        if workload == "mc_track":
            # The bundled scenario; only the Monte Carlo seed varies.
            path = bundled_path(MC_SCENARIO)
            scenario = model.load_scenario(path)
            self.instances = [
                (derive_seed(seed, k), scenario, path) for k in range(POOL[workload])
            ]
            self.files = [path]
            return
        build = lp_instance if workload == "lp_plan" else sdr_instance
        for k in range(POOL[workload]):
            instance_seed = derive_seed(seed, k)
            path = work / f"{workload}-{seed}-{k}.json"
            scenario = build(instance_seed)
            model.save_scenario(scenario, path)
            self.instances.append((instance_seed, scenario, path))
        self.files = [path for _, _, path in self.instances]

    def calls(self, k: int, slot: int | None = None) -> list[Call]:
        """The CLI calls that make up operation ``k``, on input ``slot``
        (default: ``k`` modulo the pool size)."""
        if slot is None:
            slot = k % len(self.instances)
        instance_seed, scenario, path = self.instances[slot]
        stem = self.work / f"{self.workload}-{self.seed}-{k}"
        if self.workload == "mc_track":
            return [
                Call(
                    ["simulate", MC_SCENARIO, "--algo", algo,
                     "--samples", str(MC_SAMPLES), "--runs", str(MC_RUNS),
                     "--seed", str(instance_seed), "--threads", "1",
                     "--out", f"{stem}-{algo}.csv"],
                    Path(f"{stem}-{algo}.csv"), "csv", scenario,
                )
                for algo in ("sdr", "ignore-dep")
            ]
        out = Path(f"{stem}-out.json")
        if self.workload == "lp_plan":
            argv = ["select", str(path), "--algo", "lp", "--out", str(out)]
            return [Call(argv, out, "lp", scenario)]
        argv = ["select", str(path), "--algo", "sdr", "--samples", str(SDR_SAMPLES),
                "--seed", str(instance_seed), "--out", str(out)]
        return [Call(argv, out, "sdr", scenario)]


def _schedule(payload: dict, scenario: model.Scenario) -> model.SelectionSchedule:
    gamma = np.zeros((scenario.num_sensors, scenario.horizon), dtype=np.int8)
    for n, chosen in enumerate(payload["schedule"]):
        gamma[chosen, n] = 1
    return model.SelectionSchedule.build(gamma)


def check(call: Call) -> tuple[list[str], dict[str, float]]:
    """Problems found in a call's output file, and its quality figures."""
    problems: list[str] = []
    quality: dict[str, float] = {}
    if call.kind == "csv":
        with open(call.out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != call.scenario.horizon:
            problems.append(f"{len(rows)} CSV rows, expected one per step")
        rmse = [float(row["rmse"]) for row in rows]
        if not rmse or not all(math.isfinite(v) for v in rmse):
            problems.append("RMSE is missing or not finite")
        else:
            name = "rmse_aware" if "sdr" in call.argv else "rmse_blind"
            quality[name] = sum(rmse) / len(rmse)
        return problems, quality

    payload = json.loads(call.out.read_text())
    if not _schedule(payload, call.scenario).satisfies(call.scenario.constraints):
        problems.append("schedule violates its counts or budgets")
    if call.kind == "lp":
        bound = float(payload["f_lp"])
        if payload["feasible"] is not True:
            problems.append("certificate is not feasible")
        if not payload["gap"] >= -LP_GAP_TOL * (1.0 + abs(bound)):
            problems.append(f"gap {payload['gap']} below the bound tolerance")
        quality["lp_rel_gap"] = float(payload["relative_gap"])
    else:
        if not payload["duality_gap"] <= SDR_MAX_GAP:
            problems.append(f"SDP duality gap {payload['duality_gap']} above {SDR_MAX_GAP}")
        if payload["samples"] != SDR_SAMPLES:
            problems.append(f"{payload['samples']} samples, expected {SDR_SAMPLES}")
        if not math.isfinite(payload["best_objective"]):
            problems.append("best objective is not finite")
        quality["sdr_f3"] = float(payload["best_objective"])
    return problems, quality
