"""Exception types shared across the package."""


class SenselError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(SenselError):
    """A matrix argument contains NaN/Inf or has an unusable shape."""


class NotPositiveDefinite(SenselError):
    """A matrix required to be symmetric positive definite is not."""


class NotPSD(SenselError):
    """A matrix required to be positive semidefinite is indefinite."""


class NotSeparableNoise(SenselError):
    """Sensor noises are cross-correlated; a block-diagonal method does not apply."""


class ScenarioError(SenselError):
    """A scenario file failed to parse or violates a documented invariant."""


class PerStepCountOutOfRange(ScenarioError):
    """A per-step selection count is outside 1..L."""


class Infeasible(SenselError):
    """The constraint set admits no solution."""


class UnsupportedConstraints(SenselError):
    """A selector cannot honour the scenario's energy budgets or extra rows."""


class TooLarge(SenselError):
    """The instance exceeds the configured cap for exhaustive enumeration."""


class RoundingInfeasible(SenselError):
    """Greedy rounding ran out of sensors with remaining budget."""


class NotConverged(SenselError):
    """An iterative solver hit its iteration cap.

    The best iterate found is attached as ``solution`` so callers can
    inspect how far the solve got.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution
