"""Scale-invariant and sign-sensitive portfolio comparison metrics.

The direction error dir(w, w*) = 1 - cos^2 of the angle between the lines
through w and w* is invariant to rescaling either argument by any nonzero
scalar, including -1. Because that sign blindness can hide a portfolio that
points the wrong way, the signed cosine and the coordinate-wise sign-match
fraction are provided as companions, along with the Sharpe measures used by
the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import CovarianceMatrix, Signal, WeightVector, _paired, _same_length, _scale_exponent, markowitz_direct
from .errors import DegenerateInputError, ParameterError

VectorLike = Union[WeightVector, Signal, np.ndarray, list, tuple]


def _vec(w: VectorLike) -> np.ndarray:
    if isinstance(w, (WeightVector, Signal)):
        return w.values
    v = np.asarray(w, dtype=float).reshape(-1)
    if not np.isfinite(v).all():
        raise ParameterError("vectors must have finite entries")
    return v


def _pow2_scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that brings its largest |entry| into [0.5, 1).

    Power-of-two scaling is exact, so ratios of dot products do not move for
    vectors in the normal range, while tiny or huge vectors no longer
    underflow or overflow when squared.
    """
    return np.ldexp(v, -_scale_exponent(v))


def _nonzero(v: np.ndarray, name: str) -> np.ndarray:
    if not np.any(v):
        raise DegenerateInputError(f"{name} is the zero vector")
    return v


def _pair(w: VectorLike, w_star: VectorLike) -> tuple[np.ndarray, np.ndarray]:
    """w and w_star as nonzero vectors of one length."""
    a, b = _nonzero(_vec(w), "w"), _nonzero(_vec(w_star), "w_star")
    return _same_length(a, b, "w and w_star"), b


@dataclass(frozen=True)
class DirectionReport:
    """Direction error plus its sign-sensitive companions for one pair."""

    dir_error: float
    signed_cosine: float
    sign_match_fraction: float


def dir_error(w: VectorLike, w_star: VectorLike) -> float:
    """1 - (w . w*)^2 / (|w|^2 |w*|^2), the squared sine of the line angle."""
    a, b = map(_pow2_scaled, _pair(w, w_star))
    num = float(a @ b) ** 2
    den = float(a @ a) * float(b @ b)
    return max(0.0, 1.0 - num / den)


def signed_cosine(w: VectorLike, w_star: VectorLike) -> float:
    a, b = map(_pow2_scaled, _pair(w, w_star))
    return float(a @ b) / np.sqrt(float(a @ a) * float(b @ b))


def sign_match_fraction(w: VectorLike, w_star: VectorLike) -> float:
    """Fraction of coordinates whose signs agree, with sign(0) := +1."""
    a, b = _pair(w, w_star)
    sa = np.where(a >= 0.0, 1.0, -1.0)
    sb = np.where(b >= 0.0, 1.0, -1.0)
    return float(np.mean(sa == sb))


def direction_report(w: VectorLike, w_star: VectorLike) -> DirectionReport:
    return DirectionReport(
        dir_error(w, w_star), signed_cosine(w, w_star), sign_match_fraction(w, w_star)
    )


def dir_diag(sigma: CovarianceMatrix, mu: Signal) -> float:
    """Direction error between the diagonal solution mu/diag(Sigma) and Sigma^-1 mu.

    A dimensionless instance-difficulty diagnostic: near 0 means the instance
    is essentially diagonal-solvable, near 1 means the off-diagonal carries
    most of the signal.
    """
    a = _paired(sigma, mu) / np.diag(sigma.entries)
    b = markowitz_direct(sigma, mu).values
    return dir_error(a, b)


def sharpe(w: VectorLike, sigma: CovarianceMatrix, mu: Signal) -> float:
    """w.mu / sqrt(w.Sigma.w); invariant under positive rescaling of w."""
    v = _pow2_scaled(_same_length(_vec(w), sigma.entries, "weights and covariance"))
    var = float(v @ sigma.entries @ v)
    if var <= 0.0:
        raise DegenerateInputError("zero-risk portfolio has no Sharpe ratio")
    return float(v @ _paired(sigma, mu)) / np.sqrt(var)


def gross_leverage(w: VectorLike) -> float:
    """Sum of absolute weights."""
    return float(np.abs(_vec(w)).sum())
