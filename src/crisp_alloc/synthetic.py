"""Synthetic covariance regimes, signal generators, and sampling utilities.

Regime constructors are pure functions of their seed (PCG64 behind
numpy's SeedSequence, so per-trial streams are splittable and order
independent). A sample-covariance estimator with ridge safeguard, eigenvalue
flooring for hand-built correlations, and the adversarial unit-sphere signal
search round out the laboratory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    CorrelationMatrix, CovarianceMatrix, Signal, _count, _paired, _row_chunks, _symmetric, to_correlation,
)
from .errors import GenerationError, ParameterError, SingularCovarianceError
from .metrics import dir_error

SeedLike = Union[int, Sequence[int], np.random.SeedSequence]

DEFAULT_RIDGE = 1e-4
DEFAULT_FLOOR = 1e-4

_REGIMES = (
    "block_sector",
    "factor",
    "equicorr",
    "spiked",
    "hedged_tight_blocks",
    "wide_vol",
)
_SIGNALS = ("ones", "gaussian", "sector_tilt", "worst_case")
_TILTS = (0.04, -0.04, 0.02, -0.02, 0.0)  # sector_tilt's signal of sector id s is _TILTS[s % 5]


def _rng(seed: SeedLike) -> np.random.Generator:
    """A SeedSequence's generator; an int seed, or each entry of a sequence
    seed, must be a count of at least 0."""
    if not isinstance(seed, np.random.SeedSequence):
        message = f"seeds must be whole numbers of at least 0, got {seed!r}"
        if isinstance(seed, Sequence):
            seed = np.random.SeedSequence([_count(s, 0, message) for s in seed])
        else:
            seed = np.random.SeedSequence(_count(seed, 0, message))
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class RegimeSpec:
    """Covariance-regime recipe; deterministic given the seed.

    ``kind`` fixes the constants: volatilities on (0.05, 1.0) for ``wide_vol``, else
    on (0.15, 0.40); block correlation 0.6 within and 0.15 across, 0.8 and 0.0 with
    -0.6 hedges for ``hedged_tight_blocks``; factor share 0.62. ``sectors`` is the
    block count, ``k`` the factor count, ``rho`` the equicorrelation level.
    """

    kind: str
    n: int = 100
    seed: int = 42
    sectors: int = 5
    k: int = 3
    rho: float = 0.6

    def __post_init__(self):
        if self.kind not in _REGIMES:
            raise ParameterError(f"unknown regime kind {self.kind!r}")
        _count(self.n, 2, "regimes need at least two assets")
        _count(self.sectors, 1, "sectors and k must be at least 1")
        _count(self.k, 1, "sectors and k must be at least 1")


@dataclass(frozen=True)
class SignalSpec:
    """Signal recipe: flat ones, gaussian draws, the tilts 0.04, -0.04, 0.02,
    -0.02, 0.0 tiled over the sector ids, or the adversarial worst-case search
    (which needs the covariance)."""

    kind: str
    sigma_mu: float = 0.02
    seed: int = 0
    restarts: int = 32

    def __post_init__(self):
        if self.kind not in _SIGNALS:
            raise ParameterError(f"unknown signal kind {self.kind!r}")


def sector_labels(n: int, sectors: int) -> np.ndarray:
    """Contiguous equal-size sector ids (remainder spread over the first ones)."""
    n = _count(n, 1, "sector labels need n and sectors of at least 1")
    sectors = _count(sectors, 1, "sector labels need n and sectors of at least 1")
    base = n // sectors
    counts = [base + (1 if i < n % sectors else 0) for i in range(sectors)]
    return np.repeat(np.arange(sectors), counts)


def _vols(spec: RegimeSpec, rng: np.random.Generator) -> np.ndarray:
    lo, hi = (0.05, 1.0) if spec.kind == "wide_vol" else (0.15, 0.40)
    return rng.uniform(lo, hi, size=spec.n)


def _block_corr(n: int, sectors: int, rho_w: float, rho_c: float) -> np.ndarray:
    labels = sector_labels(n, sectors)
    same = labels[:, None] == labels[None, :]
    c = np.where(same, rho_w, rho_c)
    np.fill_diagonal(c, 1.0)
    return c


def _corr_to_cov(corr: np.ndarray, vols: np.ndarray) -> CovarianceMatrix:
    """The covariance with correlation ``corr`` and ``vols``: scales ``corr``, which
    the caller hands over, in place by v_i v_j a chunk of rows at a time (the bits
    of ``corr * np.outer(vols, vols)``), so it holds that array, the covariance's
    copy of it, and row chunks within ``_CHUNK_BYTES``."""
    for r in _row_chunks(len(corr)):
        corr[r] *= np.outer(vols[r], vols)
    return CovarianceMatrix(corr)


def psd_floor(sym: np.ndarray, floor: float = DEFAULT_FLOOR) -> CorrelationMatrix:
    """Eigenvalue flooring: clip the spectrum below ``floor``, renormalize diag.

    Leaves an already positive-definite correlation essentially unchanged.
    """
    m = _symmetric(sym, "psd_floor input")
    eigs, vecs = np.linalg.eigh(m)
    eigs = np.maximum(eigs, floor)
    rebuilt = (vecs * eigs) @ vecs.T
    rebuilt = 0.5 * (rebuilt + rebuilt.T)
    d = np.sqrt(np.diag(rebuilt))
    rebuilt = rebuilt / np.outer(d, d)
    return CorrelationMatrix(rebuilt)


def gen_regime(spec: RegimeSpec) -> CovarianceMatrix:
    """Build the regime's covariance; deterministic for a fixed seed."""
    rng = _rng(spec.seed)
    n = spec.n

    if spec.kind in ("block_sector", "wide_vol"):
        corr = _block_corr(n, spec.sectors, 0.6, 0.15)
        return _corr_to_cov(corr, _vols(spec, rng))

    if spec.kind == "equicorr":
        if not -1.0 / (n - 1) < spec.rho < 1.0:
            raise GenerationError("equicorrelation level makes the matrix indefinite")
        corr = np.full((n, n), spec.rho)
        np.fill_diagonal(corr, 1.0)
        return _corr_to_cov(corr, _vols(spec, rng))

    if spec.kind == "factor":
        # latent loadings with a fixed factor share of variance, then unit-diag
        share = 0.62
        b = rng.standard_normal((n, spec.k))
        fac_var = (b**2).sum(axis=1) / spec.k * share
        idio = fac_var * (1.0 - share) / share
        sigma = CovarianceMatrix((share / spec.k) * (b @ b.T) + np.diag(idio))
        return _corr_to_cov(to_correlation(sigma).entries.copy(), _vols(spec, rng))

    if spec.kind == "spiked":
        eigs = np.ones(n)
        eigs[0] = 0.3 * n
        eigs *= n / eigs.sum()
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        raw = (q * eigs) @ q.T
        d = np.sqrt(np.diag(raw))
        corr = raw / np.outer(d, d)
        corr = 0.5 * (corr + corr.T)
        return _corr_to_cov(np.clip(corr, -1.0, 1.0), _vols(spec, rng))

    # hedged_tight_blocks, the last kind RegimeSpec admits
    if n < spec.sectors:
        raise ParameterError("hedged_tight_blocks needs at least one asset per sector")
    corr = _block_corr(n, spec.sectors, 0.8, 0.0)
    labels = sector_labels(n, spec.sectors)
    for p in range(spec.sectors):
        for q in range(p + 1, spec.sectors):
            i = int(rng.choice(np.flatnonzero(labels == p)))
            j = int(rng.choice(np.flatnonzero(labels == q)))
            corr[i, j] = corr[j, i] = -0.6
    floored = psd_floor(corr, DEFAULT_FLOOR)
    cov = _corr_to_cov(floored.entries.copy(), _vols(spec, rng))
    if np.linalg.eigvalsh(cov.entries)[0] <= 0.0:
        raise GenerationError("flooring failed to restore positive definiteness")
    return cov


def gen_signal(
    spec: SignalSpec,
    n: int,
    sectors: Optional[np.ndarray] = None,
    sigma: Optional[CovarianceMatrix] = None,
) -> Signal:
    """Build the signal; sector tilts need the sector map, the worst-case
    search needs the covariance. A ``sigma`` given to any kind must have
    ``n`` assets."""
    n = _count(n, 1, "signals need at least one asset")
    if sigma is not None:  # the pairing rule, before any draw
        _paired(sigma, Signal(np.ones(n)))
    if spec.kind == "ones":
        return Signal(np.ones(n))
    if spec.kind == "gaussian":
        rng = _rng(spec.seed)
        return Signal(spec.sigma_mu * rng.standard_normal(n))
    if spec.kind == "sector_tilt":
        if sectors is None:
            raise ParameterError("sector_tilt needs the sector map")
        if len(sectors) != n:
            raise ParameterError(f"sector_tilt needs a sector map of {n} entries, got {len(sectors)}")
        return Signal(np.take(_TILTS, np.asarray(sectors) % len(_TILTS)))
    # worst_case, the last kind SignalSpec admits
    if sigma is None:
        raise ParameterError("worst_case needs the covariance")
    return worst_case_mu(sigma, restarts=spec.restarts, seed=spec.seed)[0]


def _dir_diag_objective(sigma_inv: np.ndarray, inv_diag: np.ndarray):
    """Value and gradient of cos^2(mu/diag, Sigma^-1 mu) on the unit sphere."""

    def f(x: np.ndarray):
        nx = np.linalg.norm(x)
        mu = x / nx
        a = inv_diag * mu
        b = sigma_inv @ mu
        s = float(a @ b)
        p = float(a @ a)
        q = float(b @ b)
        cos2 = s * s / (p * q)
        # gradients of s, p, q with respect to mu
        gs = inv_diag * b + sigma_inv @ a
        gp = 2.0 * inv_diag**2 * mu
        gq = 2.0 * sigma_inv @ b
        gcos2 = (2.0 * s * gs) / (p * q) - (s * s) * (gq * p + gp * q) / (p * q) ** 2
        # chain through the normalization; objective is cos^2 (minimized)
        grad = (gcos2 - float(gcos2 @ mu) * mu) / nx
        return cos2, grad

    return f


def worst_case_mu(
    sigma: CovarianceMatrix, restarts: int = 32, seed: SeedLike = 0
) -> tuple[Signal, float]:
    """Multi-start search for the unit signal maximizing dir_diag.

    L-BFGS-B with an analytic gradient on the sphere (the objective is
    scale-invariant). Returns the best signal found and its dir_diag value;
    never worse than the best random starting point. A Sigma that
    ``np.linalg.inv`` finds singular raises ``SingularCovarianceError``.
    """
    import scipy.optimize  # here, its only user: every package import would pay it

    _count(restarts, 1, "needs at least one restart")
    rng = _rng(seed)
    n = sigma.n
    try:
        sigma_inv = np.linalg.inv(sigma.entries)
    except np.linalg.LinAlgError as exc:  # typed, as markowitz_direct's factor failure is
        raise SingularCovarianceError(f"covariance inversion failed: {exc}") from exc
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
    inv_diag = 1.0 / np.diag(sigma.entries)
    f = _dir_diag_objective(sigma_inv, inv_diag)

    best_x = None
    best_val = -np.inf
    for _ in range(restarts):
        x0 = rng.standard_normal(n)
        x0 /= np.linalg.norm(x0)
        start_val = 1.0 - f(x0)[0]
        if start_val > best_val:
            best_val, best_x = start_val, x0
        res = scipy.optimize.minimize(
            f, x0, jac=True, method="L-BFGS-B", options={"maxiter": 500}
        )
        xs = res.x / np.linalg.norm(res.x)
        val = 1.0 - f(xs)[0]
        if val > best_val:
            best_val, best_x = val, xs
    mu = Signal(best_x / np.linalg.norm(best_x))
    return mu, float(dir_error(mu.values * inv_diag, sigma_inv @ mu.values))


def sample_returns(sigma: CovarianceMatrix, mu: Signal, t: int, seed: SeedLike) -> np.ndarray:
    """T x N Gaussian draws from N(mu, Sigma); bit-identical per seed.

    Holds the draws, the Cholesky factor and the result: mu is added into
    ``z @ chol.T`` in place, the bits of ``mu + z @ chol.T``.
    """
    _count(t, 2, "need at least two observations")
    m = _paired(sigma, mu)
    rng = _rng(seed)
    try:
        chol = np.linalg.cholesky(sigma.entries)
    except np.linalg.LinAlgError as exc:
        raise GenerationError("sampling needs a positive definite covariance") from exc
    x = rng.standard_normal((t, sigma.n)) @ chol.T
    x += m
    return x


def sample_cov(samples: np.ndarray, ridge: float = DEFAULT_RIDGE) -> CovarianceMatrix:
    """Sample covariance (ddof = 1) plus a ridge lambda * I on the diagonal."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ParameterError("samples must be a T x N array with T >= 2")
    if not 0.0 <= ridge < np.inf:
        raise ParameterError("ridge must be nonnegative and finite")
    n = x.shape[1]
    c = np.cov(x, rowvar=False, ddof=1).reshape(n, n)  # a scalar for N = 1
    c.flat[:: n + 1] += ridge  # the diagonal only: no N x N identity
    return CovarianceMatrix(c)


def sample_mean(samples: np.ndarray) -> Signal:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ParameterError("samples must be a T x N array")
    return Signal(x.mean(axis=0))
