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
import scipy.optimize

from .core import CorrelationMatrix, CovarianceMatrix, Signal, to_correlation
from .errors import GenerationError, ParameterError
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


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed))


@dataclass(frozen=True)
class RegimeSpec:
    """Covariance-regime recipe; deterministic given the seed.

    ``sectors`` controls the block count for the block/hedged kinds, ``k``
    the factor count, ``rho`` the equicorrelation level.
    """

    kind: str
    n: int = 100
    vol_range: tuple[float, float] = (0.15, 0.40)
    seed: int = 42
    sectors: int = 5
    k: int = 3
    rho: float = 0.6
    rho_within: float = 0.6
    rho_cross: float = 0.15

    def __post_init__(self):
        if self.kind not in _REGIMES:
            raise ParameterError(f"unknown regime kind {self.kind!r}")
        if self.n < 2:
            raise ParameterError("regimes need at least two assets")
        lo, hi = self.vol_range
        if not 0.0 < lo <= hi:
            raise ParameterError("vol_range must be 0 < lo <= hi")


@dataclass(frozen=True)
class SignalSpec:
    """Signal recipe: flat ones, gaussian draws, tiled sector tilts, or the
    adversarial worst-case search (which needs the covariance)."""

    kind: str
    sigma_mu: float = 0.02
    seed: int = 0
    tilts: tuple[float, ...] = (0.04, -0.04, 0.02, -0.02, 0.0)
    restarts: int = 32

    def __post_init__(self):
        if self.kind not in _SIGNALS:
            raise ParameterError(f"unknown signal kind {self.kind!r}")


def sector_labels(n: int, sectors: int) -> np.ndarray:
    """Contiguous equal-size sector ids (remainder spread over the first ones)."""
    base = n // sectors
    counts = [base + (1 if i < n % sectors else 0) for i in range(sectors)]
    return np.repeat(np.arange(sectors), counts)


def _vols(spec: RegimeSpec, rng: np.random.Generator) -> np.ndarray:
    lo, hi = spec.vol_range
    return rng.uniform(lo, hi, size=spec.n)


def _block_corr(n: int, sectors: int, rho_w: float, rho_c: float) -> np.ndarray:
    labels = sector_labels(n, sectors)
    same = labels[:, None] == labels[None, :]
    c = np.where(same, rho_w, rho_c)
    np.fill_diagonal(c, 1.0)
    return c


def _corr_to_cov(corr: np.ndarray, vols: np.ndarray) -> CovarianceMatrix:
    cov = corr * np.outer(vols, vols)
    return CovarianceMatrix(0.5 * (cov + cov.T))


def psd_floor(sym: np.ndarray, floor: float = DEFAULT_FLOOR) -> CorrelationMatrix:
    """Eigenvalue flooring: clip the spectrum below ``floor``, renormalize diag.

    Leaves an already positive-definite correlation essentially unchanged.
    """
    m = np.asarray(sym, dtype=float)
    if not np.allclose(m, m.T, atol=1e-10):
        raise ParameterError("psd_floor expects a symmetric matrix")
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
        corr = _block_corr(n, spec.sectors, spec.rho_within, spec.rho_cross)
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
        raw = (share / spec.k) * (b @ b.T) + np.diag(idio)
        corr = to_correlation(CovarianceMatrix(0.5 * (raw + raw.T)))
        return _corr_to_cov(corr.entries, _vols(spec, rng))

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

    if spec.kind == "hedged_tight_blocks":
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
        cov = _corr_to_cov(floored.entries, _vols(spec, rng))
        if np.linalg.eigvalsh(cov.entries)[0] <= 0.0:
            raise GenerationError("flooring failed to restore positive definiteness")
        return cov

    raise ParameterError(f"unknown regime kind {spec.kind!r}")


def gen_signal(
    spec: SignalSpec,
    n: int,
    sectors: Optional[np.ndarray] = None,
    sigma: Optional[CovarianceMatrix] = None,
) -> Signal:
    """Build the signal; sector tilts need the sector map, the worst-case
    search needs the covariance."""
    if spec.kind == "ones":
        return Signal(np.ones(n))
    if spec.kind == "gaussian":
        rng = _rng(spec.seed)
        return Signal(spec.sigma_mu * rng.standard_normal(n))
    if spec.kind == "sector_tilt":
        if sectors is None:
            raise ParameterError("sector_tilt needs the sector map")
        tilts = np.asarray(spec.tilts, dtype=float)
        return Signal(tilts[np.asarray(sectors) % tilts.size])
    if spec.kind == "worst_case":
        if sigma is None:
            raise ParameterError("worst_case needs the covariance")
        mu, _ = worst_case_mu(sigma, restarts=spec.restarts, seed=spec.seed)
        return mu
    raise ParameterError(f"unknown signal kind {spec.kind!r}")


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
    never worse than the best random starting point.
    """
    if restarts < 1:
        raise ParameterError("needs at least one restart")
    rng = _rng(seed)
    n = sigma.n
    sigma_inv = np.linalg.inv(sigma.entries)
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
    """T x N Gaussian draws from N(mu, Sigma); bit-identical per seed."""
    if t < 2:
        raise ParameterError("need at least two observations")
    if mu.n != sigma.n:
        raise ParameterError("signal length does not match covariance size")
    rng = _rng(seed)
    try:
        chol = np.linalg.cholesky(sigma.entries)
    except np.linalg.LinAlgError as exc:
        raise GenerationError("sampling needs a positive definite covariance") from exc
    z = rng.standard_normal((t, sigma.n))
    return mu.values + z @ chol.T


def sample_cov(samples: np.ndarray, ridge: float = DEFAULT_RIDGE) -> CovarianceMatrix:
    """Sample covariance (ddof = 1) plus a ridge lambda * I on the diagonal."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ParameterError("samples must be a T x N array with T >= 2")
    if ridge < 0.0:
        raise ParameterError("ridge must be nonnegative")
    cov = np.cov(x, rowvar=False, ddof=1) + ridge * np.eye(x.shape[1])
    return CovarianceMatrix(0.5 * (cov + cov.T))


def sample_mean(samples: np.ndarray) -> Signal:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ParameterError("samples must be a T x N array")
    return Signal(x.mean(axis=0))
