"""One planner behind ``sensel select``, ``simulate`` and ``sweep``.

``ALGORITHMS`` is the registry: each selection algorithm under its one
name, with the label the results CSV gives it.  ``prepare`` runs
everything about planning that does not depend on a random seed and
returns a :class:`Plan`: a fixed schedule for the deterministic
algorithms (with the rounding certificate for ``lp``), or for ``sdr`` the
relaxation solution, from which :meth:`Plan.draw` rounds a schedule per
seed.

The selectors are looked up in this module's globals at call time, never
kept in a table or a default argument, so rebinding a selector's name
(as a tracer wrapping it from outside does) reaches every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .filter import open_loop_predictions
from .model import Scenario, SelectionSchedule
from .select_lp import Certificate, build_lp, certify, round_energy, solve_lp
from .select_sdr import (
    SdpSolution,
    SdrRounding,
    build_bqp,
    build_sdp,
    randomize_round,
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


def planning_noise(scenario: Scenario):
    """Per-step noise models at the open-loop predicted states: the one
    noise sequence that planning, simulation and filtering share."""
    predictions = open_loop_predictions(scenario.system, scenario.x0, scenario.horizon)
    return scenario.noise_sequence(predictions)


@dataclass(frozen=True)
class Plan:
    """A prepared selection: ``schedule`` is set for the deterministic
    algorithms, ``sdp_solution`` for ``sdr``."""

    algorithm: str
    objective: str
    scenario: Scenario
    noise_seq: tuple
    seconds: float
    schedule: SelectionSchedule | None = None
    certificate: Certificate | None = None
    sdp_solution: SdpSolution | None = None

    @property
    def label(self) -> str:
        return ALGORITHMS[self.algorithm]

    @property
    def gap(self) -> float | None:
        return None if self.certificate is None else self.certificate.gap

    def draw(self, samples: int, seed: int) -> SdrRounding:
        """Best of ``samples`` randomized roundings of the relaxation."""
        return randomize_round(
            self.sdp_solution, self.scenario, samples, seed,
            objective=self.objective, noise_seq=self.noise_seq,
        )


def prepare(scenario: Scenario, algorithm: str, objective: str, noise_seq) -> Plan:
    """Plan ``algorithm`` on ``scenario`` under the per-step noise models
    ``noise_seq`` (see :func:`planning_noise`).  ``objective`` (f1, f2 or
    f3) steers ``exhaustive`` and ``sdr``.  ``Plan.seconds`` times the
    planning."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {tuple(ALGORITHMS)}")
    started = time.perf_counter()
    schedule = certificate = solution = None
    if algorithm == "topk":
        schedule = topk_schedule(scenario, noise_seq)
    elif algorithm == "lp":
        problem = build_lp(scenario, noise_seq)
        rounded = round_energy(solve_lp(problem), scenario, problem)
        schedule = rounded.schedule
        certificate = certify(rounded, problem)
    elif algorithm == "ignore-dep":
        schedule = select_ignore_dependence(scenario, noise_seq)
    elif algorithm == "exhaustive":
        schedule, _ = exhaustive_opt(scenario, objective, noise_seq=noise_seq)
    else:  # sdr
        solution = solve_sdp(build_sdp(build_bqp(scenario, noise_seq)))
        # Factor the sampling covariance once, here, so that every draw (and
        # every worker process the plan is shipped to) reuses it.
        _ = solution.sampling_factor
    return Plan(
        algorithm=algorithm, objective=objective, scenario=scenario,
        noise_seq=noise_seq, seconds=time.perf_counter() - started,
        schedule=schedule, certificate=certificate, sdp_solution=solution,
    )
