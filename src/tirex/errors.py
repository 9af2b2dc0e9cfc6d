"""Exception types shared across the package.

User-facing errors split into two families: invalid inputs (bad arguments,
malformed files) and numerical failures (rank deficiency, non-convergence).
The CLI maps the first family to exit code 1 and the second to exit code 2.
"""

#: Largest size a flag, a spec or an array's entry count may ask for.  One
#: float per unit is already 2 PiB, so more can only fail; far above it numpy
#: refuses an array with ValueError, not MemoryError.
MAX_SIZE = 2**48


class TirexError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(TirexError, ValueError):
    """An argument or input file violates a documented precondition."""


class NumericalError(TirexError, ArithmeticError):
    """A numerically well-posed answer could not be produced."""


class RankDeficiencyError(NumericalError):
    """A covariance-like matrix has an eigenvalue below the rank floor."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class ConvergenceError(NumericalError):
    """An iterative routine did not converge within its iteration cap."""


def check_size(value, what):
    """Raise InvalidInputError when ``value`` exceeds MAX_SIZE."""
    if value > MAX_SIZE:
        raise InvalidInputError(f"{what} must be at most {MAX_SIZE}, got {value}")
