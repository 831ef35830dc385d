"""Shrinkage-trajectory and perturbation analysis.

Tools for studying the curve gamma -> P_gamma^-1 mu against the target
Sigma^-1 mu: the exact error identity w* - w(gamma) = -(1-gamma) P_gamma^-1 E w*,
its direction-error bound, finite-sweep trajectories, the closed-form adaptive
shrinkage rule gamma* = 1 / (1 + c * NSR), the preconditioned condition number
along gamma, and the KL information cost of shrinking correlations away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import solver  # its kernels are read as attributes, so a wrapper of one sees every call
from .core import CovarianceMatrix, Signal, _count, _scale_exponent, _shrunk, check_gamma, markowitz_direct
from .errors import ParameterError
from .metrics import dir_error


@dataclass(frozen=True)
class TrajectoryPoint:
    """Direction errors at one gamma: exact solve, finite-sweep iterate, slack."""

    gamma: float
    dir_exact: float
    dir_finite_sweep: float
    dir_slack: float


@dataclass(frozen=True)
class AdaptiveInputs:
    """Inputs of the adaptive shrinkage rule.

    kappa_c is the correlation condition number, ic the information
    coefficient in (0, 1], n/t the universe and sample sizes, and c the
    composite calibration constant (>= 0; it vanishes when kappa_c = 1, where
    no shrinkage is needed).
    """

    kappa_c: float
    ic: float
    n: int
    t: int
    c: float

    def __post_init__(self):
        if self.kappa_c < 1.0:
            raise ParameterError("kappa_c must be at least 1")
        if not 0.0 < self.ic <= 1.0:
            raise ParameterError("ic must lie in (0, 1]")
        for count in (self.n, self.t):
            _count(count, 1, "n and t must be positive whole numbers")
        if self.c < 0.0:
            raise ParameterError("calibration constant must be nonnegative")

    @property
    def nsr(self) -> float:
        return self.kappa_c**2 * self.n / (self.t * self.ic**2)


def _exact_shrunk_solve(sigma: CovarianceMatrix, mu: Signal, gamma: float, factor) -> np.ndarray:
    """P_gamma^-1 mu from P_gamma's ``factor`` (not read at gamma = 0)."""
    if gamma == 0.0:
        # P_0 is the diagonal; match the solver's expression bit for bit
        return mu.values / np.diag(sigma.entries)
    return scipy.linalg.cho_solve(factor, mu.values, check_finite=False)


def _identity_terms(sigma: CovarianceMatrix, mu: Signal, g: float):
    """w*, P_g's factor (made once for all its solves), w(g) and E = Sigma - D,
    in canonical units (``_scale_exponent``, of Sigma's diagonal and of mu):
    the identities are ratios these exact factors leave as they are, so 2^a
    Sigma and 2^b mu give the same bits, and no solve under- or overflows."""
    sigma = CovarianceMatrix(np.ldexp(sigma.entries, -_scale_exponent(np.diag(sigma.entries))))
    mu = Signal(np.ldexp(mu.values, -_scale_exponent(mu.values)))
    w_star = markowitz_direct(sigma, mu).values
    factor = scipy.linalg.cho_factor(_shrunk(sigma.entries, g), lower=True, check_finite=False)
    w_hat = _exact_shrunk_solve(sigma, mu, g, factor)
    return w_star, factor, w_hat, sigma.entries - np.diag(np.diag(sigma.entries))


def perturbation_residual(sigma: CovarianceMatrix, mu: Signal, gamma: float) -> float:
    """Residual of the exact error identity; ~0 for every instance and gamma.

    Computes ||(w* - w(gamma)) + (1-gamma) P_gamma^-1 E w*|| / ||w*|| from two
    independent direct solves, with Sigma and with P_gamma; P_gamma is factored
    once for both of its solves.
    """
    g = check_gamma(gamma)
    w_star, factor, w_hat, e = _identity_terms(sigma, mu, g)
    correction = scipy.linalg.cho_solve(factor, e @ w_star, check_finite=False)
    resid = (w_star - w_hat) + (1.0 - g) * correction
    return float(np.linalg.norm(resid) / np.linalg.norm(w_star))


def dir_bound_factors(sigma: CovarianceMatrix, mu: Signal, gamma: float) -> tuple[float, float]:
    """Direction-error bound and its geometric factor G at one gamma < 1.

    bound = (1-g)^2 ||P_g^-1 E||_op^2 (||w*||^2 / ||w(g)||^2) * G, where G is
    the squared sine of the angle between w* and P_g^-1 E w*. G vanishes
    exactly on the invariant rays, i.e. when w* is an eigenvector of
    D^-1 P_gamma (a 1/sqrt(diag)-scaled eigenvector of the correlation). The
    true direction error never exceeds the bound.
    """
    g = check_gamma(gamma)
    if g >= 1.0:
        raise ParameterError("the bound is defined for gamma in [0, 1)")
    w_star, factor, w_hat, e = _identity_terms(sigma, mu, g)
    p_inv_e = scipy.linalg.cho_solve(factor, e, check_finite=False)
    op_norm = float(np.linalg.norm(p_inv_e, ord=2))
    u = p_inv_e @ w_star
    if not np.any(u):
        return 0.0, 0.0
    g_factor = dir_error(u, w_star)
    bound = (
        (1.0 - g) ** 2
        * op_norm**2
        * (float(w_star @ w_star) / float(w_hat @ w_hat))
        * g_factor
    )
    return bound, g_factor


def default_gamma_grid(points: int = 21) -> np.ndarray:
    """Evenly spaced shrinkage grid including both endpoints."""
    _count(points, 2, "grid needs at least the two endpoints")
    return np.linspace(0.0, 1.0, points)


def trajectory(
    sigma: CovarianceMatrix,
    mu: Signal,
    gammas: np.ndarray | None = None,
    p: int = 200,
) -> list[TrajectoryPoint]:
    """Exact and finite-sweep (``p`` Gauss-Seidel sweeps) direction errors
    along the shrinkage grid ``gammas``, a 1-D array (the default grid when
    None).

    One call holds two N x N working arrays, whatever the grid's length: one
    buffer that each P_gamma is formed and factored in, and one band of
    stacked sweeps (``solver._band``) refilled at every gamma > 0. gamma = 0
    is the diagonal solve, exact and swept alike: P_0's sweeps leave it as it
    is, so none is run and no band is built.
    """
    _count(p, 1, "p must be at least 1")
    grid = default_gamma_grid() if gammas is None else np.asarray(gammas, dtype=float)
    if grid.ndim != 1:
        raise ParameterError(f"gammas must be a 1-D grid, got {grid.ndim} dimensions")
    grid = [check_gamma(gamma) for gamma in grid]
    w_star = markowitz_direct(sigma, mu).values
    s, m, d = sigma.entries, mu.values, np.diag(sigma.entries)
    p_gamma = band = factor = None
    out = []
    for g in grid:
        if g:
            # P_gamma is exactly symmetric, so its transpose, a Fortran-ordered
            # view, is the same matrix: dpotrf factors it in place, no copy
            p_gamma = _shrunk(s, g, p_gamma)
            factor = scipy.linalg.cho_factor(p_gamma.T, lower=True, overwrite_a=True, check_finite=False)
            band = solver._band(s, g, None, p, band)
        exact = _exact_shrunk_solve(sigma, mu, g, factor)
        iterate = solver._drive(solver._band_sweeps(m, d, lambda: band), m, p if g else 0).weights.values
        out.append(
            TrajectoryPoint(
                gamma=g,
                dir_exact=dir_error(exact, w_star),
                dir_finite_sweep=dir_error(iterate, w_star),
                dir_slack=dir_error(iterate, exact),
            )
        )
    return out


def gamma_star(inputs: AdaptiveInputs) -> float:
    """Adaptive shrinkage intensity 1 / (1 + c * NSR).

    Rises with sample length and signal strength, falls with correlation
    conditioning and universe size; equals 1 when kappa_c = 1 (where the
    calibration constant is 0 by construction).
    """
    return 1.0 / (1.0 + inputs.c * inputs.nsr)


def _eig_bounds(corr_eigs) -> tuple[np.ndarray, float, float]:
    eigs = np.asarray(corr_eigs, dtype=float).reshape(-1)
    if np.any(eigs <= 0.0):
        raise ParameterError("correlation eigenvalues must be strictly positive")
    return eigs, float(eigs.min()), float(eigs.max())


def kappa_eff(corr_eigs, gamma: float) -> float:
    """Exact preconditioned condition number ((1-g)+g l_max)/((1-g)+g l_min)."""
    g = check_gamma(gamma)
    _, lo, hi = _eig_bounds(corr_eigs)
    return ((1.0 - g) + g * hi) / ((1.0 - g) + g * lo)


def kappa_eff_linearized(corr_eigs, gamma: float) -> float:
    """Small-gamma linearization 1 + 2 g l_min (kappa - 1) of kappa_eff^2."""
    g = check_gamma(gamma)
    _, lo, hi = _eig_bounds(corr_eigs)
    kappa_c = hi / lo
    return 1.0 + 2.0 * g * lo * (kappa_c - 1.0)


def shrinkage_kl(corr_eigs, gamma: float) -> float:
    """Gaussian KL cost of replacing the correlation spectrum by its shrunk one.

    0.5 * sum_k [ l_k / p_k - 1 + ln p_k - ln l_k ] with p_k = (1-g) + g l_k;
    zero at gamma = 1, and 0.5 * ln det(C^-1) at gamma = 0.
    """
    g = check_gamma(gamma)
    eigs, _, _ = _eig_bounds(corr_eigs)
    p = (1.0 - g) + g * eigs
    return float(0.5 * np.sum(eigs / p - 1.0 + np.log(p) - np.log(eigs)))
