"""Sensor selection and scheduling for linear-Gaussian target tracking.

Submodules
----------
linalg            pseudoinverse, SPD inverse
model             scenario data model, the constraint-row matrix
                  (ConstraintRows), JSON I/O, generators
filter            prediction, the masked-stack and selected-row updates,
                  selection gains, one posterior step for update and rollout
measure           information measures, the per-sensor measure table and
                  the selection objectives, each scored on a batch
select_separable  top-k selection (greedy rounding of the measure table)
                  and the exhaustive oracle
select_lp         LP relaxation, simplex solver, greedy rounding, certificates
select_sdr        semidefinite relaxation and Gaussian randomization
plan              the algorithm registry and the one planner behind the CLI
                  and the simulator (topk, lp, sdr, exhaustive, ignore-dep)
sim               Monte Carlo simulation harness
cli               command-line entry point
"""

from .errors import (
    Infeasible,
    InvalidMatrix,
    NotConverged,
    NotPSD,
    NotPositiveDefinite,
    NotSeparableNoise,
    PerStepCountOutOfRange,
    RoundingInfeasible,
    ScenarioError,
    SenselError,
    TooLarge,
    UnsupportedConstraints,
)
from .model import (
    ConstraintRows,
    ConstraintSet,
    DynamicSystem,
    JammerSpec,
    NoiseModel,
    Scenario,
    SelectionSchedule,
    SensorModel,
    apply_jammer,
    distance_noise,
    gen_grid_scenario,
    gen_uniform_scenario,
    load_scenario,
    make_scenario,
    save_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintRows",
    "ConstraintSet",
    "DynamicSystem",
    "Infeasible",
    "InvalidMatrix",
    "JammerSpec",
    "NoiseModel",
    "NotConverged",
    "NotPSD",
    "NotPositiveDefinite",
    "NotSeparableNoise",
    "PerStepCountOutOfRange",
    "RoundingInfeasible",
    "Scenario",
    "ScenarioError",
    "SelectionSchedule",
    "SenselError",
    "SensorModel",
    "TooLarge",
    "UnsupportedConstraints",
    "apply_jammer",
    "distance_noise",
    "gen_grid_scenario",
    "gen_uniform_scenario",
    "load_scenario",
    "make_scenario",
    "save_scenario",
]
