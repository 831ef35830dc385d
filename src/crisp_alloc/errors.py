"""Typed exceptions raised across the allocation library."""

from __future__ import annotations


class AllocationError(Exception):
    """Base class for every error raised by this package."""


class InvalidCovarianceError(AllocationError):
    """Covariance input violates symmetry / positive-diagonal / SPD checks."""


class SingularCovarianceError(AllocationError):
    """A direct symmetric factorization of the covariance failed."""


class ConditioningError(AllocationError):
    """A spectral routine got a matrix that is not positive definite, a
    conditioning figure overflowed a float, a solve's weights overflowed the
    double range, or a sweep count hit its cap."""


class ParameterError(AllocationError):
    """Scalar parameter outside its admissible range (e.g. gamma not in [0, 1])."""


class DegenerateInputError(AllocationError):
    """Zero vector, zero-risk portfolio, or similar degenerate metric input."""


class DegenerateUniverseError(AllocationError):
    """Fewer than two assets; no tree can be built."""


class GenerationError(AllocationError):
    """Synthetic covariance construction could not be made positive definite."""


class InfeasibleConstraintsError(AllocationError):
    """Constraint set admits no feasible point."""


class SchurBreakdownError(AllocationError):
    """A gamma-augmented Schur block lost positive definiteness.

    Carries the tree depth at which the breakdown occurred and the gamma
    in effect, so a Monte Carlo harness can log the trial as unstable.
    """

    def __init__(self, depth: int, gamma: float, message: str | None = None):
        self.depth = depth
        self.gamma = gamma
        super().__init__(
            message
            or f"augmented Schur block not positive definite at depth {depth}, gamma={gamma:g}"
        )
