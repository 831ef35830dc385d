"""Core numerical types and spectral utilities.

Containers for covariance, correlation, signal and weight data, plus the
shrunk covariance P_gamma = (1 - gamma) * D + gamma * Sigma (D the diagonal
of Sigma), condition numbers, and the direct Markowitz solve. Everything here
is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Optional, Union

import numpy as np
import scipy.linalg

from .errors import (
    ConditioningError,
    DegenerateInputError,
    InvalidCovarianceError,
    ParameterError,
    SingularCovarianceError,
)

NormTag = Literal["raw", "sum_one", "l1_one"]

_SYMMETRY_RTOL = 1e-12
_NORM_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric covariance matrix with strictly positive diagonal.

    The constructor checks symmetry (1e-12 relative) and the diagonal only;
    the eigenvalue check is deferred to :meth:`validate` so that experiment
    loops building thousands of matrices do not pay an eigendecomposition
    per construction.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InvalidCovarianceError("covariance must be a nonempty square matrix")
        if not np.all(np.isfinite(m)):
            raise InvalidCovarianceError("covariance has non-finite entries")
        scale = float(np.abs(m).max())
        if not np.allclose(m, m.T, rtol=0.0, atol=_SYMMETRY_RTOL * max(scale, 1.0)):
            raise InvalidCovarianceError("covariance is not symmetric to 1e-12 relative")
        if np.any(np.diag(m) <= 0.0):
            raise InvalidCovarianceError("covariance diagonal must be strictly positive")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()

    def min_eigenvalue(self) -> float:
        return float(scipy.linalg.eigvalsh(self.entries)[0])

    def validate(self) -> "CovarianceMatrix":
        """On-demand SPD check; raises unless the smallest eigenvalue is > 0."""
        if self.min_eigenvalue() <= 0.0:
            raise InvalidCovarianceError("covariance is not positive definite")
        return self


@dataclass(frozen=True)
class CorrelationMatrix:
    """Correlation matrix; the diagonal is forced to exactly 1 on construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InvalidCovarianceError("correlation must be a nonempty square matrix")
        if not np.all(np.isfinite(m)):
            raise InvalidCovarianceError("correlation has non-finite entries")
        if not np.allclose(m, m.T, rtol=0.0, atol=_SYMMETRY_RTOL):
            raise InvalidCovarianceError("correlation is not symmetric to 1e-12")
        off = m - np.diag(np.diag(m))
        if np.abs(off).max(initial=0.0) > 1.0 + 1e-9:
            raise InvalidCovarianceError("off-diagonal correlation outside [-1, 1]")
        np.clip(m, -1.0, 1.0, out=m)
        np.fill_diagonal(m, 1.0)
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order (cached; the matrix is immutable)."""
        return _freeze(scipy.linalg.eigvalsh(self.entries))


@dataclass(frozen=True)
class Signal:
    """Expected-return vector (return / period)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float).reshape(-1)
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise ParameterError("signal must be a nonempty finite vector")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class WeightVector:
    """Portfolio weights with an explicit normalization tag.

    ``sum_one`` requires the entries to sum to 1 and ``l1_one`` requires the
    absolute entries to sum to 1, each within 1e-10; ``raw`` is unchecked.
    """

    values: np.ndarray
    norm_tag: NormTag = "raw"

    def __post_init__(self):
        v = np.array(self.values, dtype=float).reshape(-1)
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise InvalidCovarianceError("weights must be a nonempty finite vector")
        if self.norm_tag == "sum_one" and abs(v.sum() - 1.0) > _NORM_TOL:
            raise ParameterError("sum_one weights must sum to 1 within 1e-10")
        if self.norm_tag == "l1_one" and abs(np.abs(v).sum() - 1.0) > _NORM_TOL:
            raise ParameterError("l1_one weights must have unit absolute sum within 1e-10")
        if self.norm_tag not in ("raw", "sum_one", "l1_one"):
            raise ParameterError(f"unknown norm tag {self.norm_tag!r}")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n(self) -> int:
        return self.values.size

    def sum_normalized(self) -> "WeightVector":
        s = float(self.values.sum())
        if s == 0.0:
            raise DegenerateInputError("cannot sum-normalize weights with zero sum")
        return WeightVector(self.values / s, "sum_one")

    def l1_normalized(self) -> "WeightVector":
        s = float(np.abs(self.values).sum())
        if s == 0.0:
            raise DegenerateInputError("cannot l1-normalize an all-zero weight vector")
        return WeightVector(self.values / s, "l1_one")


MatrixLike = Union[CovarianceMatrix, CorrelationMatrix, np.ndarray]


def _as_array(m: MatrixLike) -> np.ndarray:
    if isinstance(m, (CovarianceMatrix, CorrelationMatrix)):
        return m.entries
    return np.asarray(m, dtype=float)


def check_gamma(gamma: float) -> float:
    if not np.isfinite(gamma) or not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma!r}")
    return float(gamma)


def to_correlation(sigma: CovarianceMatrix) -> CorrelationMatrix:
    """Rescale a covariance to its correlation matrix, unit diagonal exact."""
    d = np.diag(sigma.entries)
    inv_vol = 1.0 / np.sqrt(d)
    c = sigma.entries * np.outer(inv_vol, inv_vol)
    return CorrelationMatrix(c)


def kappa(matrix: MatrixLike) -> float:
    """Spectral condition number lambda_max / lambda_min of an SPD matrix."""
    eigs = (
        matrix.eigenvalues
        if isinstance(matrix, CorrelationMatrix)
        else scipy.linalg.eigvalsh(_as_array(matrix))
    )
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0:
        raise ConditioningError(f"matrix is not positive definite (min eigenvalue {lo:g})")
    return hi / lo


def _shrunk(s: np.ndarray, gamma: float, order: Optional[np.ndarray] = None) -> np.ndarray:
    """P_gamma of the entries ``s`` as one new array, rows and columns in ``order``.

    The off-diagonal is scaled by gamma and the diagonal is copied exactly.
    """
    p = s.copy() if order is None else s[np.ix_(order, order)]
    d = np.diag(p).copy()
    p *= gamma
    np.fill_diagonal(p, d)
    return p


def shrink(sigma: CovarianceMatrix, gamma: float) -> CovarianceMatrix:
    """Dense P_gamma: off-diagonal scaled by gamma, diagonal of Sigma kept exact."""
    return CovarianceMatrix(_shrunk(sigma.entries, check_gamma(gamma)))


def markowitz_direct(sigma: CovarianceMatrix, mu: Signal) -> WeightVector:
    """Unconstrained mean-variance direction: solve Sigma w = mu directly.

    Uses a symmetric (Cholesky) factorization; the output is a raw direction,
    defined up to positive scale.
    """
    if mu.n != sigma.n:
        raise ParameterError("signal length does not match covariance size")
    try:
        c, low = scipy.linalg.cho_factor(sigma.entries, lower=True, check_finite=False)
        w = scipy.linalg.cho_solve((c, low), mu.values, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularCovarianceError(f"covariance factorization failed: {exc}") from exc
    return WeightVector(w, "raw")
