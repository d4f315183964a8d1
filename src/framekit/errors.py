"""Exception types shared across the library."""


class FramekitError(Exception):
    """Base class for all framekit-specific errors."""


class NotPositiveDefinite(FramekitError):
    """A matrix required to be symmetric positive definite failed its factorization."""


class NoConvergence(FramekitError):
    """Iterative solver hit its iteration cap before reaching the tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(relative residual {residual:.3e})"
        )


class Inconsistent(FramekitError):
    """Right-hand side has a component outside the range of the matrix."""


class DomainError(FramekitError):
    """Parameter lies outside the supported range."""


class DimensionMismatch(FramekitError):
    """Operands have incompatible sizes."""


class IncompatiblePairing(FramekitError, TypeError):
    """A vector or collection from one side of the primal/dual divide was given where the other belongs.

    The pairing is defined between one primal-side and one dual-side
    object; two dual-side collections cannot be paired without a Riesz
    identification, which this library deliberately avoids.  Every entry
    point that takes a vector raises it for a vector of the wrong side
    (``spaces.entries``); it is also a TypeError, since the vector has the
    wrong type.
    """


class NotAFrame(FramekitError):
    """Collection does not span the space.

    The lower frame bound would be zero: the system is at best an upper
    semi-frame, and dual-frame machinery is undefined for it.
    """


class SingularOperator(FramekitError):
    """Operator matrix is singular but an inverse was required."""
