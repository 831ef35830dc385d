"""Iterative shrinkage solver: Gauss-Seidel on P_gamma w = mu.

P_gamma = (1 - gamma) * diag(Sigma) + gamma * Sigma = D + gamma (L + U) keeps
every variance and attenuates only the off-diagonal. One sweep is the
triangular splitting (D + gamma L) w+ = mu - gamma U w, with the residual
P_gamma w+ - mu = gamma U (w+ - w) for free; started from the diagonal solve
w = mu / diag(Sigma) it converges for every SPD covariance and every gamma in
[0, 1] at O(N^2) per sweep. A factor-streaming variant runs the identical
iteration without materializing the dense covariance, and a projected variant
handles box, budget, and linear inequality constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrmv

from .core import CovarianceMatrix, Signal, WeightVector, _shrunk, check_gamma
from .errors import (
    InfeasibleConstraintsError,
    InvalidCovarianceError,
    ParameterError,
)

# Recommended operating point: gamma = 0.5, 100 sweeps, 1e-8 relative change.
DEFAULT_GAMMA = 0.5
DEFAULT_SWEEPS = 100
DEFAULT_EPS = 1e-8


@dataclass(frozen=True)
class SolveReport:
    """Solver output: raw weights plus convergence bookkeeping."""

    weights: WeightVector
    sweeps_used: int
    final_rel_change: float
    converged: bool


class SweepDiagnostic(NamedTuple):
    """Residual-based sweep count; ``converged`` False when the cap was hit."""

    sweeps: int
    converged: bool


def _check_solver_args(gamma: float, p_max: int, eps: float) -> float:
    g = check_gamma(gamma)
    if p_max < 1:
        raise ParameterError("the sweep cap must be at least 1")
    if not eps > 0.0:
        raise ParameterError("the tolerance must be strictly positive")
    return g


def _rel_change(w: np.ndarray, w_prev: np.ndarray) -> float:
    ref = float(np.linalg.norm(w_prev))
    change = float(np.linalg.norm(w - w_prev))
    if ref == 0.0:
        return 0.0 if change == 0.0 else np.inf
    return change / ref


def _visiting_order(sigma: CovarianceMatrix, mu: Signal, ordering) -> Optional[np.ndarray]:
    """Checked sweep order of the dense kernel (None for the natural order)."""
    if mu.n != sigma.n:
        raise ParameterError("signal length does not match covariance size")
    if ordering is None:
        return None
    perm = np.asarray(ordering, dtype=int)
    if sorted(perm.tolist()) != list(range(sigma.n)):
        raise ParameterError("ordering must be a permutation of 0..N-1")
    return perm


def _gauss_seidel(
    sigma: CovarianceMatrix, mu: Signal, g: float, perm: Optional[np.ndarray] = None
) -> Iterator[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Gauss-Seidel iterates on P_g w = mu, in visiting order ``perm``.

    Yields (w, residual) pairs: first the diagonal solve (residual None), then
    one pair per sweep with the residual P_g w - mu. P_g is formed, in visiting
    order, only when the first sweep is asked for: one N x N array whose lower
    triangle holds D + g L and whose strict upper triangle holds g U.
    """
    m, d = mu.values, np.diag(sigma.entries)
    if perm is not None:
        m, d = m[perm], d[perm]
    w = m / d
    yield w, None
    # P_g^T is Fortran-ordered, so LAPACK/BLAS read the C-ordered P_g in place:
    # the lower triangle of P_g is the transposed upper triangle of P_g^T.
    pt = _shrunk(sigma.entries, g, perm).T
    upper = dtrmv(pt, w, lower=1, trans=1, diag=1) - w  # g U w
    while True:
        w = scipy.linalg.solve_triangular(pt, m - upper, trans=1, check_finite=False)
        new_upper = dtrmv(pt, w, lower=1, trans=1, diag=1) - w
        yield w, new_upper - upper
        upper = new_upper


def crisp_solve(
    sigma: CovarianceMatrix,
    mu: Signal,
    gamma: float = DEFAULT_GAMMA,
    p_max: int = DEFAULT_SWEEPS,
    eps: float = DEFAULT_EPS,
    ordering: Optional[Sequence[int]] = None,
) -> SolveReport:
    """Gauss-Seidel sweeps on the shrunk system, diagonal-solve initial guess.

    ``ordering`` optionally gives the asset visiting order of the sweep (for
    instance a dendrogram's quasi-diagonal leaf order); the limit is the same
    for any ordering, only the sweep count may differ. gamma below eps
    short-circuits to the diagonal solve. Stops early when
    ||w - w_prev||_2 <= eps * ||w_prev||_2.
    """
    g = _check_solver_args(gamma, p_max, eps)
    perm = _visiting_order(sigma, mu, ordering)
    iterates = _gauss_seidel(sigma, mu, g, perm)
    w, _ = next(iterates)
    sweeps, rel, converged = 0, 0.0, g < eps
    if not converged:
        for sweeps, (w_next, _) in enumerate(islice(iterates, p_max), 1):
            rel, w = _rel_change(w_next, w), w_next
            if rel <= eps:
                converged = True
                break
    if perm is not None:
        w = w[np.argsort(perm)]
    return SolveReport(WeightVector(w, "raw"), sweeps, rel, converged)


@dataclass(frozen=True)
class FactorModel:
    """K-factor covariance Sigma = B Lambda B^T + diag(idio_var)."""

    loadings: np.ndarray
    factor_cov: np.ndarray
    idio_var: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.loadings, dtype=float))
        lam = np.asarray(self.factor_cov, dtype=float)
        dv = np.asarray(self.idio_var, dtype=float).reshape(-1)
        if b.shape[0] != dv.size:
            raise ParameterError("loadings rows must match idio_var length")
        k = b.shape[1]
        if lam.shape != (k, k):
            raise ParameterError("factor_cov must be K x K")
        if k and not np.allclose(lam, lam.T, atol=1e-12):
            raise ParameterError("factor_cov must be symmetric")
        if np.any(self.implied_diagonal(b, lam, dv) <= 0.0):
            raise InvalidCovarianceError("implied variances must be strictly positive")
        object.__setattr__(self, "loadings", b)
        object.__setattr__(self, "factor_cov", lam)
        object.__setattr__(self, "idio_var", dv)

    @staticmethod
    def implied_diagonal(b, lam, dv) -> np.ndarray:
        if b.shape[1] == 0:
            return dv.copy()
        return np.einsum("ik,kl,il->i", b, lam, b) + dv

    @property
    def n(self) -> int:
        return self.loadings.shape[0]

    @property
    def k(self) -> int:
        return self.loadings.shape[1]

    def diagonal(self) -> np.ndarray:
        return self.implied_diagonal(self.loadings, self.factor_cov, self.idio_var)

    def materialize(self) -> CovarianceMatrix:
        full = self.loadings @ self.factor_cov @ self.loadings.T + np.diag(self.idio_var)
        return CovarianceMatrix(0.5 * (full + full.T))


def crisp_solve_stream(
    fm: FactorModel,
    mu: Signal,
    gamma: float = DEFAULT_GAMMA,
    p_max: int = DEFAULT_SWEEPS,
    eps: float = DEFAULT_EPS,
) -> SolveReport:
    """Factor-streaming Gauss-Seidel: same iterates, O(N K) working memory.

    Maintains the K-vector aggregate z = B^T w, removing and re-adding each
    asset's contribution per update; never materializes an N x N array.
    """
    g = _check_solver_args(gamma, p_max, eps)
    if mu.n != fm.n:
        raise ParameterError("signal length does not match factor model size")
    b = fm.loadings
    lam = fm.factor_cov
    sig2 = fm.diagonal()
    m = mu.values

    w = m / sig2
    if g < eps:
        return SolveReport(WeightVector(w, "raw"), 0, 0.0, True)

    z = b.T @ w
    n = fm.n
    sweeps = 0
    rel = np.inf
    for sweeps in range(1, p_max + 1):
        w_prev = w.copy()
        for i in range(n):
            bi = b[i]
            z -= bi * w[i]
            off = bi @ (lam @ z)
            w_new = (m[i] - g * off) / sig2[i]
            z += bi * w_new
            w[i] = w_new
        rel = _rel_change(w, w_prev)
        if rel <= eps:
            return SolveReport(WeightVector(w, "raw"), sweeps, rel, True)
    return SolveReport(WeightVector(w, "raw"), sweeps, rel, False)


# ---------------------------------------------------------------------------
# Constrained variant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSet:
    """Box bounds, optional budget, and linear inequality rows a.w <= b."""

    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    budget: Optional[float] = None
    linear_ineq: tuple = field(default_factory=tuple)

    def resolved(self, n: int):
        lo = np.full(n, -np.inf) if self.lower is None else np.asarray(self.lower, float)
        hi = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, float)
        if lo.shape != (n,) or hi.shape != (n,):
            raise ParameterError("bounds must be length-N vectors")
        if np.any(lo > hi):
            raise ParameterError("lower bounds must not exceed upper bounds")
        rows = []
        for a, bb in self.linear_ineq:
            a = np.asarray(a, float).reshape(-1)
            if a.shape != (n,):
                raise ParameterError("inequality rows must be length-N vectors")
            rows.append((a, float(bb)))
        return lo, hi, self.budget, rows

    @property
    def is_trivial(self) -> bool:
        return (
            self.lower is None
            and self.upper is None
            and self.budget is None
            and not self.linear_ineq
        )


def long_only_budget(n: int, caps: Optional[Sequence[tuple[np.ndarray, float]]] = None) -> ConstraintSet:
    """Convenience: w >= 0, sum w = 1, plus optional group-cap rows."""
    return ConstraintSet(
        lower=np.zeros(n),
        upper=None,
        budget=1.0,
        linear_ineq=tuple(caps or ()),
    )


def _project(y, lo, hi, budget, a_mat, c_vec, max_iter=100):
    """Certified Euclidean projection onto {lo <= x <= hi, 1.x = budget, A x <= c}.

    Semismooth Newton (Qi and Sun, Math. Programming 58, 1993) on the dual. With
    E the budget row stacked over A and z = (lambda, nu) its multipliers, the
    Lagrangian's minimiser over the box is x(z) = clip(y - E^T z, lo, hi); the
    dual q(z) is concave with gradient E x(z) - (budget, c), and z solves the
    natural residual F(z) = [budget - 1.x; min(nu, c - A x)] = 0. A Jacobian
    row is a row of E_F E_F^T (F the free coordinates) where F reads the
    constraint and a unit row where it reads nu; a ridge keeps it invertible
    when a row has no free coordinate.

    The step length (halved from 1, nu kept >= 0) must raise q by an Armijo
    fraction, or certify. Backtracking on ||F||^2 instead can accept a far
    point across a flat stretch of the dual where ||F|| merely happens to be
    smaller, and stall there; q is concave along the step, so its acceptable
    lengths form an interval from 0. The rise of q is summed from
    per-coordinate differences, exact to rounding where q itself is not, and
    the inputs are rescaled by a power of two so that those products neither
    underflow nor overflow. When no length raises q, a projected gradient
    step of length 1/L (L >= ||E||^2) does.

    Returns x, inside the box exactly, and ``met``: whether nu >= 0 and each
    |F_k| is within 8 eps N times the size of row k's terms, |d_k| +
    |E_k| (|x| + (|y| + |E|^T |z|) on free coordinates), the last term being
    what rounding in y - E^T z can leave. That certifies primal feasibility
    and complementary slackness; x(z) is stationary by construction. False
    when ``max_iter`` steps ran out.
    """
    if budget is None and not c_vec.size:
        return np.clip(y, lo, hi), True
    eq = int(budget is not None)
    e = np.vstack([np.ones((eq, y.size)), a_mat])
    d = np.r_[[budget] * eq, c_vec]
    finite = np.r_[y, d, lo[np.isfinite(lo)], hi[np.isfinite(hi)]]
    unit = np.ldexp(1.0, -np.frexp(np.abs(finite).max())[1])
    y, lo, hi, d = y * unit, lo * unit, hi * unit, d * unit
    abs_e, abs_y = np.abs(e), np.abs(y)
    tol = 8.0 * np.finfo(float).eps * y.size
    norms = (e * e).sum(axis=1)
    ridge, lip = 1e-12 * max(1.0, float(norms.max())), max(1.0, float(norms.sum()))

    def dual(z):
        v = y - z @ e
        x = np.clip(v, lo, hi)
        free = (v >= lo) & (v <= hi)
        grad = e @ x - d
        f = -grad
        f[eq:] = np.minimum(z[eq:], f[eq:])
        size = np.abs(d) + abs_e @ (np.abs(x) + np.where(free, abs_y + np.abs(z) @ abs_e, 0.0))
        return v, x, free, grad, f, bool(np.all(np.abs(f) <= tol * size))

    z = np.zeros(d.size)
    v, x, free, grad, f, met = dual(z)
    for _ in range(max_iter):
        if met:
            break
        ef = e[:, free]
        reads_row = np.r_[np.full(eq, True), f[eq:] < z[eq:]]
        jac = np.where(reads_row[:, None], ef @ ef.T + ridge * np.eye(d.size), np.eye(d.size))
        step = np.linalg.solve(jac, -f)
        t = 1.0 if grad @ step > 0.0 else 0.0
        while t > 1e-18:
            z_t = z + t * step
            z_t[eq:] = np.maximum(z_t[eq:], 0.0)
            trial = dual(z_t)
            _, x_t, _, grad_t, _, met_t = trial
            rise = float((x_t - x) @ (0.5 * (x_t + x) - v) + (z_t - z) @ grad_t)
            if met_t or rise >= 1e-4 * float(grad @ (z_t - z)) > 0.0:
                break
            t *= 0.5
        else:
            z_t = z + grad / lip
            z_t[eq:] = np.maximum(z_t[eq:], 0.0)
            trial = dual(z_t)
        z, (v, x, free, grad, f, met) = z_t, trial
    return x / unit, met


def _violation(w, lo, hi, budget, a_mat, c_vec) -> float:
    v = max(float(np.max(lo - w, initial=0.0)), float(np.max(w - hi, initial=0.0)))
    if budget is not None:
        v = max(v, abs(float(w.sum()) - budget))
    return max(v, float(np.max(a_mat @ w - c_vec, initial=0.0)))


def _feasible(lo, hi, budget, a_mat, c_vec) -> bool:
    """Whether {lo <= x <= hi, 1.x = budget, A x <= c} is nonempty to rounding.

    Projects the origin, then that point again. The second projection's
    multipliers stay small on a nonempty set and grow without bound on an
    empty one, where only they let its certificate hold; so every row must
    hold to twice the certificate without them, 16 eps N (|d_k| + 2 |E_k||x|).
    The box holds exactly, x being a clip.
    """
    x, _ = _project(np.zeros(lo.size), lo, hi, budget, a_mat, c_vec)
    x, _ = _project(x, lo, hi, budget, a_mat, c_vec)
    eq = int(budget is not None)
    e = np.vstack([np.ones((eq, x.size)), a_mat])
    d = np.r_[[budget] * eq, c_vec]
    resid = e @ x - d
    resid[eq:] = np.maximum(resid[eq:], 0.0)
    size = np.abs(d) + 2.0 * np.abs(e) @ np.abs(x)
    return bool(np.all(np.abs(resid) <= 16.0 * np.finfo(float).eps * x.size * size))


def crisp_projected(
    sigma: CovarianceMatrix,
    mu: Signal,
    gamma: float = DEFAULT_GAMMA,
    p: int = DEFAULT_SWEEPS,
    constraints: ConstraintSet = ConstraintSet(),
    eps: float = DEFAULT_EPS,
) -> SolveReport:
    """Constrained sweep: box clamp per coordinate, end-of-sweep projection.

    Budget and linear-inequality multipliers are carried explicitly: each
    sweep updates coordinates against the dual-shifted signal
    mu - lambda * 1 - A^T nu and clamps to the box, then refreshes the duals
    from the constraint residuals (diagonally scaled ascent) and projects the
    iterate onto the whole constraint set (``_project``, an exact dual
    Newton solve) so that the reported weights are feasible to rounding and
    inside the box exactly. The last projection is projected once more, which
    keeps the weights feasible when the dual ascent diverges. Without the
    shift the sweep cannot see the budget's shadow price and stalls off the
    constrained optimum. ``converged`` needs the stop rule and the last
    projection's KKT certificate; it is False when that projection is
    uncertified (its iteration cap), and the weights of an uncertified
    projection are tagged ``raw``. With no constraints at all this is exactly
    ``crisp_solve``.
    """
    if constraints.is_trivial:
        return crisp_solve(sigma, mu, gamma, p_max=p, eps=eps)
    g = _check_solver_args(gamma, p, eps)
    n = sigma.n
    if mu.n != n:
        raise ParameterError("signal length does not match covariance size")
    lo, hi, budget, rows = constraints.resolved(n)
    a_mat = np.stack([a for a, _ in rows]) if rows else np.zeros((0, n))
    b_vec = np.array([bb for _, bb in rows]) if rows else np.zeros(0)

    if not _feasible(lo, hi, budget, a_mat, b_vec):
        raise InfeasibleConstraintsError("the constraint set has no feasible point")

    s = sigma.entries
    d = np.diag(s).copy()
    m = mu.values
    inv_d = 1.0 / d
    lam = 0.0
    nu = np.zeros(len(rows))

    w = np.clip(m / d, lo, hi)
    y, projected = _project(w, lo, hi, budget, a_mat, b_vec)

    sweeps = 0
    rel = np.inf
    viol = np.inf
    for sweeps in range(1, p + 1):
        y_prev = y
        m_eff = m - lam - (a_mat.T @ nu if len(rows) else 0.0)
        for i in range(n):
            off = s[i] @ w - d[i] * w[i]
            wi = (m_eff[i] - g * off) / d[i]
            w[i] = min(max(wi, lo[i]), hi[i])
        free = (w > lo + 1e-14) & (w < hi - 1e-14)
        if budget is not None:
            h = max(float(inv_d[free].sum()), 1e-12)
            lam += (float(w.sum()) - budget) / h
        for k in range(len(rows)):
            h_k = max(float((a_mat[k] ** 2 * inv_d)[free].sum()), 1e-12)
            nu[k] = max(0.0, nu[k] + (float(a_mat[k] @ w) - b_vec[k]) / h_k)
        y, projected = _project(w, lo, hi, budget, a_mat, b_vec)
        rel = _rel_change(y, y_prev)
        viol = _violation(w, lo, hi, budget, a_mat, b_vec)
        if rel <= eps and viol <= max(eps, 1e-9):
            break
    # a projection is idempotent, and projecting a feasible point needs only
    # small multipliers; projecting a diverged iterate (say 1e13) may not, and
    # its certificate, which scales with its input, then admits a violation
    y, projected = _project(y, lo, hi, budget, a_mat, b_vec)
    converged = rel <= eps and viol <= max(eps, 1e-9) and projected
    tag = "sum_one" if projected and budget is not None and abs(budget - 1.0) < 1e-15 else "raw"
    return SolveReport(WeightVector(y, tag), sweeps, rel, converged)


def sweeps_to_tolerance(
    sigma: CovarianceMatrix,
    mu: Signal,
    gamma: float,
    tol: float,
    cap: int = 50000,
    ordering: Optional[Sequence[int]] = None,
) -> SweepDiagnostic:
    """Sweeps until the residual norm ||P_gamma w - mu||_2 falls below tol.

    Residual-based, unlike the solver's relative-change rule; the first sweep
    is always performed and counted. Returns a non-convergence report (not an
    exception) when the cap is exceeded.
    """
    g = _check_solver_args(gamma, cap, tol)
    iterates = _gauss_seidel(sigma, mu, g, _visiting_order(sigma, mu, ordering))
    next(iterates)
    for sweeps, (_, resid) in enumerate(islice(iterates, cap), 1):
        if float(np.linalg.norm(resid)) < tol:
            return SweepDiagnostic(sweeps, True)
    return SweepDiagnostic(cap, False)
