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


def _project_box_budget(w, lo, hi, budget):
    """Exact projection onto {l <= x <= u, 1.x = budget}.

    The projection is clip(w + tau, lo, hi) for the shift tau solving
    sum clip(w + tau) = budget; that sum is a nondecreasing piecewise-linear
    function of tau whose breakpoints are the finite lo - w and hi - w, so a
    single sorted sweep finds the right segment in O(N log N).
    """
    n = w.size
    events = []  # (tau, d_const, d_w, d_free)
    s_const = 0.0
    s_w = 0.0
    n_free = 0
    for i in range(n):
        if np.isfinite(lo[i]):
            s_const += lo[i]
            events.append((lo[i] - w[i], -lo[i], w[i], 1))
        else:
            s_w += w[i]
            n_free += 1
        if np.isfinite(hi[i]):
            events.append((hi[i] - w[i], hi[i], -w[i], -1))
    events.sort(key=lambda e: e[0])

    prev = -np.inf
    for tau_e, d_const, d_w, d_free in events:
        if n_free > 0:
            tau = (budget - s_const - s_w) / n_free
            if prev <= tau <= tau_e:
                return np.clip(w + tau, lo, hi)
        elif budget == s_const:
            return np.clip(w + prev if np.isfinite(prev) else w, lo, hi)
        s_const += d_const
        s_w += d_w
        n_free += d_free
        prev = tau_e
    if n_free > 0:
        tau = (budget - s_const - s_w) / n_free
        if tau >= prev:
            return np.clip(w + tau, lo, hi)
    raise InfeasibleConstraintsError("budget is unreachable within the box")


def _project_general(w, lo, hi, budget, rows, tol=1e-10, max_iter=20000):
    """Dykstra alternating projection onto box, budget hyperplane, half-spaces.

    Returns the point and whether the last iteration moved it by less than
    ``tol`` (False when ``max_iter`` iterations ran out first).
    """
    n = w.size
    sets = []
    if np.any(np.isfinite(lo)) or np.any(np.isfinite(hi)):
        sets.append(("box", None))
    for a, bb in rows:
        sets.append(("half", (a, float(a @ a), bb)))
    if budget is not None:
        sets.append(("budget", None))  # last, so the returned point meets it exactly

    x = w.copy()
    incr = [np.zeros(n) for _ in sets]
    for _ in range(max_iter):
        x_old = x.copy()
        for idx, (kind, data) in enumerate(sets):
            y = x + incr[idx]
            if kind == "box":
                x = np.clip(y, lo, hi)
            elif kind == "budget":
                x = y + (budget - y.sum()) / n
            else:
                a, aa, bb = data
                viol = float(a @ y) - bb
                x = y - (viol / aa) * a if viol > 0.0 else y.copy()
            incr[idx] = y - x
        if float(np.max(np.abs(x - x_old))) < tol:
            return x, True
    return x, False


def _violation(w, lo, hi, budget, rows) -> float:
    v = max(float(np.max(lo - w, initial=0.0)), float(np.max(w - hi, initial=0.0)))
    if budget is not None:
        v = max(v, abs(float(w.sum()) - budget))
    for a, bb in rows:
        v = max(v, float(a @ w) - bb)
    return v


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
    iterate onto {A w <= b, 1.w = budget} so that the reported weights are
    always feasible. Without the shift the sweep cannot see the budget's
    shadow price and stalls off the constrained optimum. ``converged`` is
    False when the last projection stopped at its iteration cap. With no
    constraints at all this is exactly ``crisp_solve``.
    """
    if constraints.is_trivial:
        return crisp_solve(sigma, mu, gamma, p_max=p, eps=eps)
    g = _check_solver_args(gamma, p, eps)
    n = sigma.n
    if mu.n != n:
        raise ParameterError("signal length does not match covariance size")
    lo, hi, budget, rows = constraints.resolved(n)

    # feasibility probe: project the origin and check residual violation
    if budget is not None and not rows:
        lo_sum = np.where(np.isfinite(lo), lo, -np.inf).sum()
        hi_sum = np.where(np.isfinite(hi), hi, np.inf).sum()
        if budget < lo_sum or budget > hi_sum:
            raise InfeasibleConstraintsError("budget outside the box's reachable sums")
    probe, _ = _project(np.zeros(n), lo, hi, budget, rows)
    if _violation(probe, lo, hi, budget, rows) > 1e-8:
        raise InfeasibleConstraintsError("feasibility probe failed to satisfy constraints")

    s = sigma.entries
    d = np.diag(s).copy()
    m = mu.values
    inv_d = 1.0 / d
    a_mat = np.stack([a for a, _ in rows]) if rows else np.zeros((0, n))
    b_vec = np.array([bb for _, bb in rows]) if rows else np.zeros(0)
    lam = 0.0
    nu = np.zeros(len(rows))

    w = np.clip(m / d, lo, hi)
    y, projected = _project(w, lo, hi, budget, rows)

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
        y, projected = _project(w, lo, hi, budget, rows)
        rel = _rel_change(y, y_prev)
        viol = _violation(w, lo, hi, budget, rows)
        if rel <= eps and viol <= max(eps, 1e-9):
            break
    converged = rel <= eps and viol <= max(eps, 1e-9) and projected
    tag = "sum_one" if budget is not None and abs(budget - 1.0) < 1e-15 else "raw"
    return SolveReport(WeightVector(y, tag), sweeps, rel, converged)


def _project(w, lo, hi, budget, rows):
    """Projection onto the constraints, and whether it met its tolerance."""
    if rows:
        return _project_general(w, lo, hi, budget, rows)
    if budget is not None:
        return _project_box_budget(w, lo, hi, budget), True
    return np.clip(w, lo, hi), True


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
