"""Core numerical types and spectral utilities.

Containers for covariance, correlation, signal and weight data, plus the
shrunk covariance P_gamma = (1 - gamma) * D + gamma * Sigma (D the diagonal
of Sigma), condition numbers, and the direct Markowitz solve. Everything here
is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal, Union

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
# Bytes of one chunk of rows of an N x N loop (``_row_chunks``, the symmetry check,
# ``to_correlation``, the regimes' scaling) and of the solver's band of sweeps.
_CHUNK_BYTES = 1 << 20


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _row_chunks(n: int) -> Iterator[slice]:
    """Slices of the rows of an n x n array, each chunk of rows within _CHUNK_BYTES."""
    rows = max(1, _CHUNK_BYTES // (8 * n))
    return (slice(a, a + rows) for a in range(0, n, rows))


def _max_abs(a: np.ndarray) -> float:
    """max |a| from two reductions, no absolute copy; NaN if any entry is."""
    return max(a.max(), -a.min())


def _symmetric(m, name: str) -> np.ndarray:
    """The matrix rule: a nonempty square, finite matrix, symmetric to 1e-12 times
    max(max |m|, 1), as the float copy (m + m^T) / 2; else InvalidCovarianceError.

    Holds its float copy of m, which it returns, and row chunks within _CHUNK_BYTES:
    max |m - m^T| is taken a chunk at a time, and only an input that is not exactly
    symmetric is averaged, in place, a chunk of each triangle at a time.
    """
    m = np.array(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InvalidCovarianceError(f"{name} must be a nonempty square matrix")
    top = _max_abs(m)
    if not math.isfinite(top):
        raise InvalidCovarianceError(f"{name} has non-finite entries")
    # each chunk's gap is freed before the next is formed
    worst = max(_max_abs(m[r] - m[:, r].T) for r in _row_chunks(len(m)))
    if not worst <= _SYMMETRY_RTOL * max(top, 1.0):
        raise InvalidCovarianceError(f"{name} is not symmetric to 1e-12 relative")
    # both triangles must hold the same bits: the sweep reads both, a Cholesky one.
    # Rows and columns r from r.start on: later chunks read neither.
    for r in _row_chunks(len(m)) if worst else ():
        mean = (m[r, r.start :] + m[r.start :, r].T) * 0.5
        m[r, r.start :], m[r.start :, r] = mean, mean.T
    return m


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric covariance matrix with strictly positive diagonal.

    The constructor checks symmetry (1e-12 relative, stored as the average of
    the two triangles) and the diagonal only; the eigenvalue check is deferred
    to :meth:`validate` so that experiment loops building thousands of
    matrices do not pay an eigendecomposition per construction.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _symmetric(self.entries, "covariance")
        if np.any(np.diag(m) <= 0.0):
            raise InvalidCovarianceError("covariance diagonal must be strictly positive")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

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
        m = _symmetric(self.entries, "correlation")
        np.fill_diagonal(m, 0.0)  # max |off-diagonal|, no temporary
        if _max_abs(m) > 1.0 + 1e-9:
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
        if self.norm_tag not in ("raw", "sum_one", "l1_one"):
            raise ParameterError(f"unknown norm tag {self.norm_tag!r}")
        if self.norm_tag != "raw" and not _meets(v, self.norm_tag):
            raise ParameterError(f"{self.norm_tag} weights are more than 1e-10 off their unit sum")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n(self) -> int:
        return self.values.size

    def sum_normalized(self) -> "WeightVector":
        s = float(self.values.sum())
        if s == 0.0:
            raise DegenerateInputError("cannot sum-normalize weights with zero sum")
        return WeightVector(self.values / s, "sum_one")


def _raw_weights(w: np.ndarray, mu: np.ndarray) -> WeightVector:
    """A solve's raw weights for ``mu``; ConditioningError when they overflow the
    double range or all underflow it for a nonzero mu (the covariance is valid,
    the answer is not representable)."""
    if not np.isfinite(w).all():
        raise ConditioningError("the weights overflow the double range")
    if not w.any() and mu.any():
        raise ConditioningError("the weights underflow the double range")
    return WeightVector(w, "raw")


def _meets(v: np.ndarray, tag: NormTag) -> bool:
    total = v.sum() if tag == "sum_one" else np.abs(v).sum()
    return abs(total - 1.0) <= _NORM_TOL


def _tagged(v: np.ndarray, tag: NormTag) -> WeightVector:
    """The tag rule for a tree pass's output: ``tag`` if v meets it, else raw."""
    return WeightVector(v, tag if _meets(v, tag) else "raw")


MatrixLike = Union[CovarianceMatrix, CorrelationMatrix, np.ndarray]


def _as_array(m: MatrixLike) -> np.ndarray:
    if isinstance(m, (CovarianceMatrix, CorrelationMatrix)):
        return m.entries
    return _symmetric(m, "matrix")


def check_gamma(gamma: float) -> float:
    if not np.isfinite(gamma) or not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma!r}")
    return float(gamma)


def _count(value, least: int, message: str) -> int:
    """The count rule: an int, not a bool, of at least ``least``; else ParameterError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ParameterError(message)
    return int(value)


def _paired(sigma, mu: Signal) -> np.ndarray:
    """The pairing rule: mu has the N of ``sigma`` (anything with ``.n``); gives mu's values."""
    if mu.n != sigma.n:
        raise ParameterError("signal length does not match covariance size")
    return mu.values


def _same_length(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """The length rule for two vectors, or a vector and an N x N matrix: both
    have one length; gives ``a``. ``what`` names them in the error."""
    if a.shape[0] != b.shape[0]:
        raise ParameterError(f"{what} have different lengths ({a.shape[0]} and {b.shape[0]})")
    return a


def _gathered(s: np.ndarray, order: np.ndarray) -> np.ndarray:
    """s with rows and columns in ``order``, one new array: two ``np.take``
    passes, the same entries as ``s[np.ix_(order, order)]``, gathered faster
    (0.067 -> 0.023 ms at N = 100, 6.8 -> 5.5 ms at N = 1000, 1 BLAS thread)."""
    return np.take(np.take(s, order, axis=0), order, axis=1)


def _original_order(w: np.ndarray, order: np.ndarray) -> np.ndarray:
    """w, given in the visiting ``order`` (a permutation), back in asset order."""
    out = np.empty_like(w)
    out[order] = w
    return out


def _scale_exponent(v) -> int:
    """The e that puts max |v| 2^-e in [0.5, 1) (0 for v = 0). Apply it with ``np.ldexp``,
    which is exact and, unlike a factor 2^+-e (inf past |e| = 1023), cannot overflow."""
    return math.frexp(np.abs(v).max(initial=0.0))[1]


def to_correlation(sigma: CovarianceMatrix) -> CorrelationMatrix:
    """Rescale a covariance to its correlation matrix, unit diagonal exact.

    Holds the product, the correlation's copy of it, and row chunks within
    _CHUNK_BYTES: Sigma times v_i v_j (v the inverse vols) a chunk of rows at a
    time, the same bits as ``sigma * np.outer(v, v)``.
    """
    s = sigma.entries
    inv_vol = 1.0 / np.sqrt(np.diag(s))
    c = np.empty_like(s)
    for r in _row_chunks(len(s)):
        np.multiply(s[r], np.outer(inv_vol[r], inv_vol), out=c[r])
    return CorrelationMatrix(c)


def kappa(matrix: MatrixLike) -> float:
    """Spectral condition number lambda_max / lambda_min of an SPD matrix."""
    eigs = scipy.linalg.eigvalsh(_as_array(matrix))
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0:
        raise ConditioningError(f"matrix is not positive definite (min eigenvalue {lo:g})")
    return hi / lo


def _shrunk(s: np.ndarray, gamma: float) -> np.ndarray:
    """P_gamma of the entries ``s`` as one new array.

    The off-diagonal is scaled by gamma and the diagonal is copied exactly.
    """
    p = s.copy()
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
    m = _paired(sigma, mu)
    try:
        c, low = scipy.linalg.cho_factor(sigma.entries, lower=True, check_finite=False)
        w = scipy.linalg.cho_solve((c, low), m, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularCovarianceError(f"covariance factorization failed: {exc}") from exc
    return _raw_weights(w, m)
