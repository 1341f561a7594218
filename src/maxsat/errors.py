"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument lies outside the domain an operation is defined on."""


class ShapeError(ValueError):
    """Vector length does not match the coupling layout."""


class ConstructionError(ValueError):
    """System parameters fail a validity check at build time."""


class UnsupportedOperationError(RuntimeError):
    """Operation needs a capability the system was not built with."""


class ThresholdUndefinedError(RuntimeError):
    """The requested threshold does not exist for this system."""


class NonConvergenceError(RuntimeError):
    """Iteration hit its cap before meeting the tolerance.

    Carries the last iterate in ``last`` and the iteration count in
    ``iters`` so callers can report partial results.
    """

    def __init__(self, message, last=None, iters=None):
        super().__init__(message)
        self.last = last
        self.iters = iters


class NumericError(RuntimeError):
    """A numeric kernel failed to reach its requested accuracy."""
