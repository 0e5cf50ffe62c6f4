"""Exception hierarchy shared across the package."""


class GameError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(GameError, ValueError):
    """Malformed or dimension-mismatched input."""


class SpecError(GameError, ValueError):
    """A game specification violates its construction invariants."""


class EvaluationError(GameError):
    """A user-supplied oracle failed or returned non-finite values."""


class ConvergenceError(GameError):
    """An iterative solver exhausted its budget.

    Carries the best iterate and, when known, the final gap for diagnosis.
    """

    def __init__(self, message, best=None, gap=None):
        super().__init__(message)
        self.best = best
        self.gap = gap


class InconsistencyError(GameError):
    """A cross-check that should hold by construction failed.

    Signals a modeling violation (e.g. the tolled equilibrium does not
    reproduce the system optimum), not a numerical budget issue.
    """
