"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so
callers can distinguish contract violations (bad inputs) from numerical
failures (non-convergence, estimation blow-ups).
"""


class ObrsError(Exception):
    """Base class for all library errors."""


class DomainError(ObrsError, ValueError):
    """Input outside the mathematical domain of the operation."""


class UnsupportedGeneratorError(ObrsError):
    """The requested quantity is undefined for this generator.

    Examples: the convex conjugate of total variation (not needed by any
    downstream operation), ratio recovery for non-smooth generators.
    """


class SupportMismatchError(ObrsError, ValueError):
    """Two finite distributions do not share the same atom list."""


class AbsoluteContinuityError(ObrsError, ValueError):
    """The second distribution has a zero where the first has mass."""


class EstimationError(ObrsError):
    """A Monte Carlo estimate produced non-finite values.

    Carries the offending ratio value for diagnosis.
    """

    def __init__(self, message: str, offending_value: float | None = None):
        super().__init__(message)
        self.offending_value = offending_value


class ConvergenceError(ObrsError):
    """A calibration missed its target: the rate is out of reach or off 1/K."""


class BudgetExhaustedError(ObrsError):
    """Rejection sampling hit max_draws before filling the quota."""

    def __init__(self, message: str, accepted: int = 0, draws_used: int = 0):
        super().__init__(message)
        self.accepted = accepted
        self.draws_used = draws_used


class OutOfBallError(ObrsError, ValueError):
    """A candidate refined distribution needs acceptance probability > 1.

    Carries the index of the first offending atom.
    """

    def __init__(self, message: str, atom_index: int | None = None):
        super().__init__(message)
        self.atom_index = atom_index
