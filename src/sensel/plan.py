"""One planner behind ``sensel select``, ``simulate`` and ``sweep``.

``ALGORITHMS`` is the registry: each selection algorithm under its one
name, with the label the results CSV gives it.  ``prepare`` runs
everything about planning that does not depend on a random seed and
returns a :class:`Plan`: a fixed schedule for the deterministic
algorithms (with the rounding certificate for ``lp``), or for ``sdr`` the
quadratic problem, its relaxation's solution and lower bound, from which
:meth:`Plan.draw` rounds a schedule per seed.  Every selector reads the
per-step noise from the scenario (``Scenario.step_noise``), the models
the simulator draws and filters with, so a plan needs nothing else.

The selectors are looked up in this module's globals at call time, never
kept in a table or a default argument, so rebinding a selector's name
(as a tracer wrapping it from outside does) reaches every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import Scenario, SelectionSchedule
from .select_lp import Certificate, build_lp, certify, round_energy, solve_lp
from .select_sdr import (
    BqpProblem,
    SdpSolution,
    SdrRounding,
    build_bqp,
    build_sdp,
    randomize_round,
    relaxation_bound,
    select_ignore_dependence,
    solve_sdp,
)
from .select_separable import exhaustive_opt, topk_schedule

# Algorithm name -> label of its rows in the results CSV.
ALGORITHMS = {
    "topk": "topk",
    "lp": "lp_round",
    "sdr": "sdr",
    "exhaustive": "exhaustive",
    "ignore-dep": "ignore_dep",
}


@dataclass(frozen=True)
class Plan:
    """A prepared selection: ``schedule`` is set for the deterministic
    algorithms; ``bqp``, ``sdp_solution`` and its ``bound`` for ``sdr``."""

    algorithm: str
    objective: str
    scenario: Scenario
    seconds: float
    schedule: SelectionSchedule | None = None
    certificate: Certificate | None = None
    bqp: BqpProblem | None = None
    sdp_solution: SdpSolution | None = None
    bound: float | None = None

    @property
    def label(self) -> str:
        return ALGORITHMS[self.algorithm]

    @property
    def gap(self) -> float | None:
        return None if self.certificate is None else self.certificate.gap

    def draw(self, samples: int, seed: int) -> SdrRounding:
        """Best of ``samples`` randomized roundings of the relaxation."""
        return randomize_round(
            self.sdp_solution, self.scenario, samples, seed, objective=self.objective
        )


def prepare(scenario: Scenario, algorithm: str, objective: str) -> Plan:
    """Plan ``algorithm`` on ``scenario``.  ``objective`` (f1, f2 or f3)
    steers ``exhaustive`` and ``sdr``.  ``Plan.seconds`` times the
    planning, the scenario's per-step noise included when this plan is the
    first to read it."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {tuple(ALGORITHMS)}")
    started = time.perf_counter()
    schedule = certificate = bqp = solution = bound = None
    if algorithm == "topk":
        schedule = topk_schedule(scenario)
    elif algorithm == "lp":
        problem = build_lp(scenario)
        rounded = round_energy(solve_lp(problem), scenario, problem)
        schedule = rounded.schedule
        certificate = certify(rounded, problem)
    elif algorithm == "ignore-dep":
        schedule = select_ignore_dependence(scenario)
    elif algorithm == "exhaustive":
        schedule, _ = exhaustive_opt(scenario, objective)
    else:  # sdr
        bqp = build_bqp(scenario)
        sdp = build_sdp(bqp)
        solution = solve_sdp(sdp)
        bound = relaxation_bound(solution, sdp)
        # Factor the sampling covariance once, here, so that every draw (and
        # every worker process the plan is shipped to) reuses it.
        _ = solution.sampling_factor
    return Plan(
        algorithm=algorithm, objective=objective, scenario=scenario,
        seconds=time.perf_counter() - started, schedule=schedule,
        certificate=certificate, bqp=bqp, sdp_solution=solution, bound=bound,
    )
