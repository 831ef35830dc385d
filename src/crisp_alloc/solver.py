"""Iterative shrinkage solver: Gauss-Seidel on P_gamma w = mu.

P_gamma = (1 - gamma) * diag(Sigma) + gamma * Sigma = D + gamma (L + U) keeps
every variance and attenuates only the off-diagonal. One sweep is the
triangular splitting (D + gamma L) w+ = mu - gamma U w, with the residual
P_gamma w+ - mu = gamma U (w+ - w); started from the diagonal solve
w = mu / diag(Sigma) it converges for every SPD covariance and every gamma in
[0, 1] at O(N^2) per sweep. On a dense Sigma, K sweeps stacked are one lower
triangular system of bandwidth N - 1, diagonal blocks D + gamma L and
subdiagonal blocks gamma U, which one BLAS band solve takes at once
(``_band_sweeps``; K and the band's memory budget in ``_band``). The blocked
kernel (``_gauss_seidel``) takes one sweep at a time, a diagonal block of
coordinates at a time: a factor model streams blocks of sqrt(N K) assets
formed from its loadings, coupled through B^T w, in O(N K) memory, and a
projected variant for box, budget, and linear inequality constraints sweeps
a dense Sigma in blocks of 64 assets, each a clamped triangular solve,
against a dual-shifted signal. Both kernels take gamma U w as one product on
a strict triangle they hold, so Sigma 2^a and mu 2^b give exactly 2^(b - a)
the iterates. One reader (``_drive``) takes either kernel's blocks, each at
once, to a sweep cap or a stop rule whose ratios are formed in canonical
units, so the sweeps it stops at do not depend on scale either. The residual
counter (``sweeps_to_tolerance``) runs one sweep and no kernel: it advances
the residual by its recurrence r+ = G r, G = -gamma U (D + gamma L)^-1, one
product a sweep and then K sweeps a product with G^K, K doubled by squaring.
Counts on one Sigma and gamma may share one recurrence (``_Recurrence``): one
P_gamma, G and set of squares, with the switch to squaring pooled over the
sweeps they run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dtbmv, dtbsv, dtrmv
from scipy.linalg.lapack import dtrtrs

from .core import (
    _CHUNK_BYTES, CovarianceMatrix, Signal, WeightVector, _count, _original_order, _paired,
    _raw_weights, _scale_exponent, _shrunk, _symmetric, check_gamma,
)
from .errors import (
    InfeasibleConstraintsError,
    InvalidCovarianceError,
    ParameterError,
)

# Recommended operating point: gamma = 0.5, 100 sweeps, 1e-8 relative change.
DEFAULT_GAMMA = 0.5
DEFAULT_SWEEPS = 100
DEFAULT_EPS = 1e-8
# Diagonal block of a dense Sigma swept under a box: on an N = 1000 book 64
# was as fast as 128 and faster than 32.
_BOX_BLOCK = 64
# The band of a dense Sigma: its bytes (core's row-chunk budget) and most sweeps, K =
# min(_BAND_SWEEPS, max(1, _CHUNK_BYTES // (8 N^2))) sweeps per band solve, and no more than the
# caller can use. On a 2-vCPU Xeon with 1 BLAS thread, microseconds per sweep
# over K = 1, 2, 4, ... were least at K = 128 for N = 30 (0.42, against 4.7
# at K = 1), K = 64 for N = 40 (0.64), K = 8-16 for N = 100 (3.3) and K = 4
# for N = 200 (10.3): a band of 0.6-1.3 MiB each time, and twice that, or
# more than 128 sweeps, was slower at every N (BENCH_23.json). The residual
# counter's blocks take at most as many sweeps, K residuals of N doubles each
# within the same bytes: per sweep, K = 128 came within 1.15x of K = 256 from
# N = 30 to N = 1000, and 4.1-33x faster than K = 1 (two scans, BENCH_36.json).
_BAND_SWEEPS = 128


@dataclass(frozen=True)
class SolveReport:
    """Solver output: raw weights plus convergence bookkeeping."""

    weights: WeightVector
    sweeps_used: int
    final_rel_change: float
    converged: bool


class SweepDiagnostic(NamedTuple):
    """The sweeps until the exact residual sequence fell below tol
    (``sweeps_to_tolerance``); ``converged`` False when the cap was hit."""

    sweeps: int
    converged: bool


def _check_solver_args(gamma: float, p_max: int, eps: float) -> float:
    g = check_gamma(gamma)
    _count(p_max, 1, "the sweep cap must be at least 1")
    if not eps > 0.0:
        raise ParameterError("the tolerance must be strictly positive")
    return g


def _dots(a: np.ndarray) -> np.ndarray:
    """a_k . a_k for every row: one matmul whose vector products are BLAS
    ``ddot`` calls, so each row's bits are ``a_k.dot(a_k)``'s."""
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def _rel_changes(w: np.ndarray, last: np.ndarray) -> np.ndarray:
    """||w_k - w_{k-1}|| / ||w_{k-1}|| for each row w_k of a block, w_{-1} =
    ``last``, computed as ``np.linalg.norm`` does at ordinary scale. Where a
    ||w_{k-1}||^2 lies outside [N 1e-200, 1e200] the squares may under- or
    overflow, so both vectors of every row are first put in w_{k-1}'s
    canonical units (``_scale_exponent``): an exact power of two, so a row at
    ordinary scale keeps its bits and a ratio is the same at any scale."""
    prev = last[None] if len(w) == 1 else np.concatenate([last[None], w[:-1]])
    d = w - prev
    with np.errstate(over="ignore"):  # an overflow fails the range check, or is an infinite change
        ref2, change2 = _dots(prev), _dots(d)
        squares = ref2.tolist()
        if not (2e-200 * w.shape[1] <= min(squares) and max(squares) <= 0.5e200):
            shift = np.array([[-_scale_exponent(row)] for row in prev])
            ref2, change2 = _dots(np.ldexp(prev, shift)), _dots(np.ldexp(d, shift))
            if not ref2.all():  # a zero reference: no change is 0, any change is infinite
                out = np.where(change2 == 0.0, 0.0, math.inf)
                return np.divide(np.sqrt(change2), np.sqrt(ref2), out=out, where=ref2 != 0.0)
    return np.sqrt(change2) / np.sqrt(ref2)


def _band(
    s: np.ndarray, g: float, order: Optional[np.ndarray], sweeps: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The band of K stacked sweeps of P_g on the entries ``s``, rows and
    columns in ``order`` (as they are when None), K at most ``sweeps``: a new
    array, or ``out``, a band this function returned for the same N and
    ``sweeps``, written over in place and returned.

    Sweeps k = 1..K are the lower triangular system whose diagonal blocks are
    D + g L and whose subdiagonal blocks are g U, of bandwidth N - 1. In
    LAPACK's lower band storage its column j of block k is column j of P_g
    rolled up by j, the same for every k: the band is K copies of one N x N
    block, N x KN and Fortran-ordered so that BLAS reads it in place. K =
    min(sweeps, _BAND_SWEEPS, max(1, _CHUNK_BYTES // (8 N^2))). Each chunk of
    rows is gathered with the columns it wraps round to and rolled through a
    sliding window, so no N x N index array or second N x N array is made.
    Off-diagonal entries are g s_ij and the diagonal is copied exactly, as
    ``_shrunk`` forms them.
    """
    n = s.shape[0]
    order = np.arange(n) if order is None else order
    k = min(sweeps, _BAND_SWEEPS, max(1, _CHUNK_BYTES // (8 * n * n)))
    twice = np.concatenate([order, order])
    # blocks[0][j] is the block's column j; out.T is C-ordered, so this is a view
    blocks = np.empty((k, n, n)) if out is None else out.T.reshape(k, n, n)
    rows = max(1, _CHUNK_BYTES // (16 * n))  # a chunk's gather stays in the budget
    for a in range(0, n, rows):
        b = min(a + rows, n)
        t = np.take(np.take(s, order[a:b], axis=0), twice[a : b + n - 1], axis=1)
        np.multiply(np.diagonal(sliding_window_view(t, n, axis=1)).T, g, out=blocks[0, a:b])
    blocks[0, :, 0] = s.diagonal()[order]
    blocks[1:] = blocks[0]
    return blocks.reshape(k * n, n).T


def _band_sweeps(m: np.ndarray, d: np.ndarray, band: Callable) -> Iterator[np.ndarray]:
    """Gauss-Seidel iterates on P_g w = m for a dense P_g, d its diagonal, in
    blocks of K sweeps.

    ``band()`` gives the band of K stacked sweeps (``_band``); it is formed
    when the first sweep asks for it. One ``dtbsv`` takes the band's K sweeps
    at once, the first against m less g U w of the last iterate (``dtbmv``,
    transposed, on g L: the band's head one row down, read in place as a
    band of width N - 2) and the rest coupled inside the band.

    Yields arrays whose rows are consecutive iterates: first the diagonal
    solve, one row, then K rows per band solve. Every yielded array is new
    and never written again, so a caller may keep a block across later ones
    without copying it.
    """
    n = m.size
    w = (m / d)[None]
    yield w
    b = band()
    k = b.shape[1] // n
    # entry (i, j) is P_g[i + j + 1, j]: g L, whose transpose is g U
    strict = b.T.ravel()[1 : n * n - n + 1].reshape(n - 1, n).T
    rhs = np.tile(m, k)
    while True:
        x = rhs.copy()
        if n > 1:  # g U of one asset is empty
            x[: n - 1] -= dtbmv(n - 2, strict, w[-1][1:], lower=1, trans=1)
        w = dtbsv(n - 1, b, x, lower=1, overwrite_x=1).reshape(k, n)
        yield w


def _gauss_seidel(
    m: np.ndarray, d: np.ndarray, block: Callable, size: int, couple: Callable, box=None
) -> Iterator[np.ndarray]:
    """Gauss-Seidel iterates on P_g w = m, d the diagonal of P_g, one diagonal
    block of ``size`` coordinates at a time.

    A sweep is the triangular splitting (D + g L) w+ = m - g U w: each
    block's lower triangle is solved against m less g U w of the previous
    sweep inside the block, and less its coupling to the rest of w.
    ``block(s, e)`` gives the strict block P_g[s:e, s:e]^T, diagonal zero,
    Fortran-ordered for a C-ordered block, so BLAS reads g U w off it in
    place. Only a solve writes d onto a diagonal: without a box this kernel
    writes it onto the block, which ``block`` must form afresh each call, and
    with one ``_clamped_solve`` onto its own copy, so a cached block stays strict.
    ``couple(s, e, x, y)`` gives P_g[s:e, :s] x[:s] + P_g[s:e, e:] y[e:], the
    block's rows outside the block.

    With a ``box`` (lo, hi) every coordinate is clamped to it as it is
    updated, the projected Gauss-Seidel of C. W. Cryer (SIAM J. Control 9,
    1971): each block is a ``_clamped_solve``. m is read afresh each sweep,
    so a caller may shift it in place between sweeps.

    Yields one-row arrays, the diagonal solve and then each sweep's iterate,
    in ``_band_sweeps``' form. Every yielded array is new and never written
    again.
    """
    n = m.size
    w = (m / d if box is None else np.clip(m / d, *box))[None]
    yield w
    starts = list(range(0, n, size))
    # views: a caller's in-place shift of m is read at the next sweep
    parts = [(s, e, m[s:e]) for s, e in zip(starts, starts[1:] + [n])]
    while True:
        w_prev, w = w[0], np.empty((1, n))
        for s, e, m_i in parts:
            pt = block(s, e)
            rhs = m_i - dtrmv(pt, w_prev[s:e], lower=1, trans=1)  # g U w inside the block
            rhs -= couple(s, e, w[0], w_prev)  # the blocks solved this sweep, the old values after
            if box is None:  # solved in the new rhs; info is 0: the diagonal d is > 0
                pt.T.ravel()[:: e - s + 1] = d[s:e]  # a view: pt.T is C-ordered
                x = dtrtrs(pt, rhs, trans=1, overwrite_b=1)[0]
            else:
                x = _clamped_solve(pt, rhs, d[s:e], box[0][s:e], box[1][s:e], w_prev[s:e])
            w[0, s:e] = x
        yield w


def _clamped_solve(pt, rhs, d, lo, hi, prev) -> np.ndarray:
    """x_i = clip((rhs_i - sum_{j<i} P_ij x_j) / d_i, lo_i, hi_i) in turn over
    one diagonal block, ``pt`` = P^T strict as in ``_gauss_seidel``.

    Each coordinate ``prev`` left at a bound is held there and the block's
    lower triangle solved for the rest; one matvec then gives every
    coordinate's unclamped value u from the solved values before it. At the
    first coordinate whose clamp disagrees (held with u inside the box, or
    solved outside it), its value is pinned to clip(u), the coordinates up to
    it are held at their values, and the block is solved again. In exact
    arithmetic that is the rule above, and as the agreed prefix only grows a
    block of c coordinates takes at most c solves. Pinning the value, not
    flipping the coordinate's status, is what ends a rounding tie, where the
    solve and u put it on different sides of a bound.
    """
    held = (prev == lo) | (prev == hi)
    x, k = prev, 0
    while k < x.size:
        t = np.array(pt, order="F")
        t[:, held] = 0.0  # a held row of P becomes the identity's
        t.T.ravel()[:: x.size + 1] = np.where(held, 1.0, d)  # a view, as in ``_gauss_seidel``
        x = dtrtrs(t, np.where(held, x, rhs), trans=1)[0]
        u = (rhs - dtrmv(pt, x, lower=0, trans=1)) / d  # strict L x
        clamped = np.clip(u, lo, hi)
        bad = np.where(held, clamped != x, np.clip(x, lo, hi) != x)
        bad = np.flatnonzero(bad[k:])
        if not bad.size:
            break
        k += bad[0] + 1
        x[k - 1], held[:k] = clamped[k - 1], True
    return x


def _dense_sweeps(sigma: CovarianceMatrix, mu: Signal, g: float, ordering, sweeps: int):
    """Band iterates on a dense Sigma in visiting order, in blocks of at most
    ``sweeps`` (those the caller can use), and that order."""
    m, d, perm = _paired(sigma, mu), np.diag(sigma.entries), None
    if ordering is not None:
        perm = np.asarray(ordering)
        if perm.dtype.kind not in "iu" or sorted(perm.tolist()) != list(range(sigma.n)):
            raise ParameterError("ordering must be a permutation of 0..N-1")
        m, d = m[perm], d[perm]
    return _band_sweeps(m, d, lambda: _band(sigma.entries, g, perm, sweeps)), perm


def _drive(iterates, m, cap: int, measure=None, bound: float = 0.0, perm=None) -> SolveReport:
    """The one reader of kernel ``iterates`` for the signal ``m``: the first
    sweep whose ``measure`` (of a block and the iterate before it, one value a
    row; NaN when None) is at most ``bound``, or sweep ``cap``. A block is
    measured at once and its rows after the stop dropped; the last value is
    ``final_rel_change`` (0.0 at cap 0, the diagonal solve), and the weights
    are in original order and in the double range (``_raw_weights``)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the kernels run inside next()
        w, sweeps, last = next(iterates)[0], 0, 0.0
        while sweeps < cap:
            block = next(iterates)[: cap - sweeps]
            values = [math.nan] * len(block) if measure is None else measure(block, w).tolist()
            k = next((i for i, v in enumerate(values, 1) if v <= bound), len(values))
            sweeps, last, w = sweeps + k, values[k - 1], block[k - 1]
            if last <= bound:
                break
    if perm is not None:
        w = _original_order(w, perm)
    return SolveReport(_raw_weights(w, m), sweeps, last, last <= bound)


def _drive_rel(iterates, perm, m, g: float, p_max: int, eps: float) -> SolveReport:
    """``_drive`` to ``crisp_solve``'s stop rule; gamma below eps is cap 0, the diagonal solve."""
    return _drive(iterates, m, p_max if g >= eps else 0, _rel_changes, eps, perm)


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
    return _drive_rel(*_dense_sweeps(sigma, mu, g, ordering, p_max), mu.values, g, p_max, eps)


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
        if k:  # K = 0 is a diagonal Sigma, with an empty factor_cov
            lam = _symmetric(lam, "factor_cov")
        if not (np.isfinite(b).all() and np.isfinite(dv).all()):
            raise InvalidCovarianceError("loadings and idio_var must be finite")
        object.__setattr__(self, "loadings", b)
        object.__setattr__(self, "factor_cov", lam)
        object.__setattr__(self, "idio_var", dv)
        if np.any(self.diagonal() <= 0.0):
            raise InvalidCovarianceError("implied variances must be strictly positive")

    @property
    def n(self) -> int:
        return self.loadings.shape[0]

    @property
    def k(self) -> int:
        return self.loadings.shape[1]

    def diagonal(self) -> np.ndarray:
        b = self.loadings
        return np.einsum("ik,kl,il->i", b, self.factor_cov, b) + self.idio_var

    def materialize(self) -> CovarianceMatrix:
        b = self.loadings
        return CovarianceMatrix(b @ self.factor_cov @ b.T + np.diag(self.idio_var))


def crisp_solve_stream(
    fm: FactorModel,
    mu: Signal,
    gamma: float = DEFAULT_GAMMA,
    p_max: int = DEFAULT_SWEEPS,
    eps: float = DEFAULT_EPS,
) -> SolveReport:
    """Factor-streaming Gauss-Seidel: same iterates, O(N K) working memory.

    ``crisp_solve``'s kernel and stop rule, on diagonal blocks of
    c = ceil(sqrt(N max(K, 1))) assets: each sweep forms every c x c block of
    P_gamma from the loadings in turn, and the blocks meet through the
    K-vector z = B^T w, so no N x N array is ever formed.
    """
    g = _check_solver_args(gamma, p_max, eps)
    m = _paired(fm, mu)
    b, d = fm.loadings, fm.diagonal()
    gbl = g * (b @ fm.factor_cov)

    def block(s, e):
        p = gbl[s:e] @ b[s:e].T
        p.ravel()[:: e - s + 1] = 0.0  # strict, through a view of the diagonal
        return p.T

    def couple(s, e, x, y):  # through the K-vectors B^T x and B^T y
        return gbl[s:e] @ (b[:s].T @ x[:s] + b[e:].T @ y[e:])

    size = math.isqrt(fm.n * max(fm.k, 1) - 1) + 1
    return _drive_rel(_gauss_seidel(m, d, block, size, couple), None, m, g, p_max, eps)


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
        """(lo, hi, budget, rows), rows the (a, b) pairs; bounds and caps may
        be infinite, a budget or row entry may not, and nothing may be NaN."""
        lo = np.full(n, -np.inf) if self.lower is None else np.asarray(self.lower, float)
        hi = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, float)
        if lo.shape != (n,) or hi.shape != (n,):
            raise ParameterError("bounds must be length-N vectors")
        if not np.all(lo <= hi):  # False for a NaN bound too
            raise ParameterError("lower bounds must not exceed upper bounds, nor be NaN")
        if self.budget is not None and not np.isfinite(self.budget):
            raise ParameterError("the budget must be finite")
        rows = []
        for a, bb in self.linear_ineq:
            a, bb = np.asarray(a, float).reshape(-1), float(bb)
            if a.shape != (n,):
                raise ParameterError("inequality rows must be length-N vectors")
            if not np.isfinite(a).all() or math.isnan(bb):
                raise ParameterError("inequality rows must be finite and their caps not NaN")
            rows.append((a, bb))
        return lo, hi, self.budget, rows


def long_only_budget(n: int, caps: Optional[Sequence[tuple[np.ndarray, float]]] = None) -> ConstraintSet:
    """Convenience: w >= 0, sum w = 1, plus optional group-cap rows."""
    return ConstraintSet(
        lower=np.zeros(n),
        upper=None,
        budget=1.0,
        linear_ineq=tuple(caps or ()),
    )


def _row_system(constraints: ConstraintSet, n: int):
    """lo, hi and the stacked rows (E, d, eq): E is the budget row of ones (eq
    = 1, or no row, eq = 0) over the cap rows A, d = (budget, c). A cap of
    +inf holds everywhere and is left out."""
    lo, hi, budget, rows = constraints.resolved(n)
    rows = [(a, b) for a, b in rows if b < np.inf]
    eq = int(budget is not None)
    e = np.vstack([np.ones((eq, n))] + [a for a, _ in rows])
    d = np.array([budget] * eq + [b for _, b in rows], dtype=float)
    return lo, hi, e, d, eq


def _row_miss(x, e, d, eq) -> np.ndarray:
    """How far x misses each row: |E_k x - d_k| on the budget row and
    (E_k x - d_k)^+ on the cap rows."""
    resid = e @ x - d
    return np.r_[np.abs(resid[:eq]), np.maximum(resid[eq:], 0.0)]


def _project(y, lo, hi, e, d, eq, max_iter=100):
    """Certified Euclidean projection onto {lo <= x <= hi, E x = d on the first
    ``eq`` rows, E x <= d on the rest} (``_row_system``'s stacked rows).

    Semismooth Newton (Qi and Sun, Math. Programming 58, 1993) on the dual.
    With z the rows' multipliers (z_k >= 0 on an inequality row), the
    Lagrangian's minimiser over the box is x(z) = clip(y - E^T z, lo, hi); the
    dual q(z) is concave with gradient E x(z) - d, and z solves the natural
    residual F(z) = 0, F_k = d_k - E_k x on an equality row and
    min(z_k, d_k - E_k x) on an inequality row. A Jacobian row is a row of
    E_F E_F^T (F the free coordinates) where F_k reads the row and a unit row
    where it reads z_k; a ridge keeps it invertible when a row has no free
    coordinate.

    The step length (halved from 1, z kept >= 0 on the inequality rows) must
    raise q by an Armijo fraction, or certify. Backtracking on ||F||^2
    instead can accept a far point across a flat stretch of the dual where
    ||F|| merely happens to be smaller, and stall there; q is concave along
    the step, so its acceptable lengths form an interval from 0. The rise of
    q is summed from per-coordinate differences, exact to rounding where q
    itself is not, and the inputs are rescaled by a power of two so that
    those products neither underflow nor overflow. When no length raises q,
    a projected gradient step of length 1/L (L >= ||E||^2) does.

    Returns x, inside the box exactly, and ``met``: whether z >= 0 on the
    inequality rows and each |F_k| is within 8 eps N times the size of row
    k's terms, |d_k| + |E_k| (|x| + (|y| + |E|^T |z|) on free coordinates),
    the last term being what rounding in y - E^T z can leave. That certifies
    primal feasibility and complementary slackness; x(z) is stationary by
    construction. False when ``max_iter`` steps ran out.
    """
    if not d.size:
        return np.clip(y, lo, hi), True
    shift = _scale_exponent(np.r_[y, d, lo[np.isfinite(lo)], hi[np.isfinite(hi)]])
    y, lo, hi, d = (np.ldexp(v, -shift) for v in (y, lo, hi, d))
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

    def newton(z, free, f):
        ef = e[:, free]
        reads_row = np.r_[np.full(eq, True), f[eq:] < z[eq:]]
        jac = np.where(reads_row[:, None], ef @ ef.T + ridge * np.eye(d.size), np.eye(d.size))
        return np.linalg.solve(jac, -f)

    z = np.zeros(d.size)
    v, x, free, grad, f, met = dual(z)
    for _ in range(max_iter):
        if met:
            break
        step = newton(z, free, f)
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
    if met:
        # the certificate lets a row miss by rounding that grows with N and |z|;
        # one more full Newton step, on the certified free set the exact solve
        # of the rows that bind, leaves only the rounding of E x
        z_t = z + newton(z, free, f)
        z_t[eq:] = np.maximum(z_t[eq:], 0.0)
        _, x_t, _, _, _, met_t = dual(z_t)
        if met_t and _row_miss(x_t, e, d, eq).max() < _row_miss(x, e, d, eq).max():
            x = x_t
    return np.ldexp(x, shift), met


def _feasible(lo, hi, e, d, eq) -> bool:
    """Whether the box and the stacked rows (E, d, eq) of ``_project`` have a
    common point, to rounding.

    Projects the origin, then that point again. The second projection's
    multipliers stay small on a nonempty set and grow without bound on an
    empty one, where only they let its certificate hold; so every row must
    hold to twice the certificate without them, 16 eps N (|d_k| + 2 |E_k||x|).
    The box holds exactly, x being a clip. A bound of lo = +inf or hi = -inf,
    or a cap of -inf, has no finite point.
    """
    if np.isposinf(lo).any() or np.isneginf(hi).any() or np.isneginf(d).any():
        return False
    x, _ = _project(np.zeros(lo.size), lo, hi, e, d, eq)
    x, _ = _project(x, lo, hi, e, d, eq)
    size = np.abs(d) + 2.0 * np.abs(e) @ np.abs(x)
    return bool(np.all(_row_miss(x, e, d, eq) <= 16.0 * np.finfo(float).eps * x.size * size))


def crisp_projected(
    sigma: CovarianceMatrix,
    mu: Signal,
    gamma: float = DEFAULT_GAMMA,
    p: int = DEFAULT_SWEEPS,
    constraints: ConstraintSet = ConstraintSet(),
    eps: float = DEFAULT_EPS,
) -> SolveReport:
    """Box-clamped block sweeps, then one projection of the last iterate.

    The budget row and the cap rows are one stacked system E x (=, <=) d
    (``_row_system``) whose multipliers z are carried explicitly, in
    ``_project``'s convention. Each sweep is the kernel's projected
    Gauss-Seidel on P_gamma, every coordinate updated against the
    dual-shifted signal mu - E^T z and clamped to the box (blocks of 64
    assets, each a clamped triangular solve with the same iterate as clamping
    one coordinate at a time). It then steps z by the row residuals E w - d,
    each over its row's curvature on the free coordinates, sum E_ki^2 / P_ii
    (diagonally scaled ascent), and keeps the inequality multipliers >= 0;
    without the shift the sweep cannot see the budget's shadow price and
    stalls off the constrained optimum. The stop rule reads the kernel
    iterate w, its relative change (``final_rel_change``) and row miss. The
    last w is projected onto the whole constraint set (``_project``, an exact
    dual Newton solve) and the result once more, which keeps it feasible
    when the ascent diverges: the weights are feasible to rounding and
    inside the box exactly. ``converged`` needs the stop rule and the last
    projection's KKT certificate; it is False when that projection is
    uncertified (its iteration cap), and the weights of an uncertified
    projection are tagged ``raw``. With no budget, no finite cap and an
    infinite box this is exactly ``crisp_solve``.
    """
    g = _check_solver_args(gamma, p, eps)
    m = _paired(sigma, mu)
    lo, hi, e, d, eq = _row_system(constraints, sigma.n)
    if not d.size and np.isneginf(lo).all() and np.isposinf(hi).all():
        return crisp_solve(sigma, mu, gamma, p_max=p, eps=eps)
    if not _feasible(lo, hi, e, d, eq):
        raise InfeasibleConstraintsError("the constraint set has no feasible point")

    diag, p_g = np.diag(sigma.entries), sigma.entries * g
    np.fill_diagonal(p_g, 0.0)  # P_gamma off the diagonal: the kernel's blocks are strict
    e2, inv_d, z = e * e, 1.0 / diag, np.zeros(d.size)

    def couple(s, t, x, y):
        return p_g[s:t, :s] @ x[:s] + p_g[s:t, t:] @ y[t:]

    block = functools.cache(lambda s, t: np.ascontiguousarray(p_g[s:t, s:t]).T)
    m_eff = m.copy()
    iterates = _gauss_seidel(m_eff, diag, block, _BOX_BLOCK, couple, (lo, hi))
    (w,) = next(iterates)
    for sweeps in range(1, p + 1):
        w_prev = w
        # in place: the kernel reads the shifted signal afresh each sweep
        m_eff[:] = m - z @ e
        (w,) = next(iterates)
        free = (w > lo + 1e-14) & (w < hi - 1e-14)
        # numpy's pairwise row sums, as w.sum() is, not a BLAS product: a lone
        # budget row then steps exactly as a scalar multiplier does
        h = np.maximum((e2[:, free] * inv_d[free]).sum(axis=1), 1e-12)
        z += ((e * w).sum(axis=1) - d) / h
        z[eq:] = np.maximum(z[eq:], 0.0)
        rel = float(_rel_changes(w[None], w_prev)[0])
        viol = _row_miss(w, e, d, eq).max(initial=0.0)  # w is inside the box
        if rel <= eps and viol <= max(eps, 1e-9):
            break
    # a projection is idempotent, and projecting a feasible point needs only
    # small multipliers; projecting a diverged iterate (say 1e13) may not, and
    # its certificate, which scales with its input, then admits a violation
    y, _ = _project(w, lo, hi, e, d, eq)
    y, projected = _project(y, lo, hi, e, d, eq)
    converged = rel <= eps and viol <= max(eps, 1e-9) and projected
    tag = "sum_one" if projected and eq and abs(d[0] - 1.0) < 1e-15 else "raw"
    return SolveReport(WeightVector(y, tag), sweeps, rel, converged)


class _Recurrence:
    """The residual recurrence of one (Sigma, gamma), shared by the counts
    given it (``sweeps_to_tolerance``'s ``recurrence``, whose rule they pool):
    P_gamma and gamma U, which each count's first sweep reads, G^T, formed the
    first time a count needs it, the squares (G^(2^j))^T formed so far, and
    the sweeps run on it one product a sweep. Not ``shared``, it serves one
    count: G^T is formed over gamma U, P_gamma is dropped, and each square
    replaces the one before it, so at most two N x N arrays are held at once.
    """

    def __init__(self, sigma: CovarianceMatrix, gamma: float, shared: bool = True):
        self.sigma, self.gamma, self.shared = sigma, check_gamma(gamma), shared
        self.p = _shrunk(sigma.entries, self.gamma)
        self.g_u = np.triu(self.p, 1)
        self.powers: list = []  # (G^(2^j))^T at index j; None once replaced when not shared
        self.swept = 0  # the sweeps run here one product a sweep, first sweeps included

    def first(self, m: np.ndarray) -> np.ndarray:
        """r_1 = gamma U (w_1 - w_0) for the signal ``m``, w_0 = m / diag."""
        p, g_u = self.p, self.g_u
        with np.errstate(over="ignore", invalid="ignore"):  # weights past the double range raise
            w = m / np.diag(p)
            # (D + g L) w_1 = m - g U w_0, on the upper triangle of P_g^T read in place
            w1 = dtrtrs(p.T, m - g_u @ w, trans=1)[0]
        _raw_weights(w1, m)
        self.swept += 1
        return g_u @ (w1 - w)

    def power(self, j: int) -> np.ndarray:
        """(G^(2^j))^T, j at most one past the last formed."""
        if not self.powers:  # (D + g L)^T G^T = -(g U)^T, over -g U
            g_u = np.negative(self.g_u, out=None if self.shared else self.g_u)
            self.powers.append(dtrtrs(self.p.T, g_u.T, overwrite_b=1)[0])
            if not self.shared:
                self.p = self.g_u = None
        if j == len(self.powers):
            last = self.powers[-1]
            self.powers.append(last @ last)
            if not self.shared:
                self.powers[-2] = None
        return self.powers[j]

    def count(self, m: np.ndarray, bound: float, cap: int) -> SweepDiagnostic:
        """The first sweep whose residual norm is at most ``bound``, or ``cap``."""
        n, sweeps = m.size, 1
        r = self.first(m)
        if math.sqrt(r.dot(r)) <= bound:
            return SweepDiagnostic(1, True)
        power = self.power(0)
        while sweeps < cap and self.swept < n:
            r = r @ power
            sweeps += 1
            self.swept += 1
            if math.sqrt(r.dot(r)) <= bound:
                return SweepDiagnostic(sweeps, True)
        k_max = min(_BAND_SWEEPS, max(1, _CHUNK_BYTES // (8 * n)))
        block, k, j = r[None], 1, 0  # power is G^k, k = 2^j
        while sweeps < cap:
            nxt = block[: cap - sweeps] @ power
            met = np.flatnonzero(np.sqrt(_dots(nxt)) <= bound)
            if met.size:
                return SweepDiagnostic(sweeps + int(met[0]) + 1, True)
            sweeps += len(nxt)
            if 2 * k <= k_max and cap - sweeps > 2 * k:
                block, k, j = np.concatenate([block, nxt]), 2 * k, j + 1
                power = self.power(j)
            else:
                block = nxt
        return SweepDiagnostic(cap, False)


def sweeps_to_tolerance(
    sigma: CovarianceMatrix,
    mu: Signal,
    gamma: float,
    tol: float,
    cap: int = 50000,
    *,
    recurrence: Optional[_Recurrence] = None,
) -> SweepDiagnostic:
    """Sweeps, in asset order, until the residual norm ||P_gamma w - mu||_2
    falls below tol.

    Residual-based, unlike the solver's relative-change rule; the first sweep
    is always performed and counted. Returns a non-convergence report (not an
    exception) when the cap is exceeded. Each ||r_k|| is formed in
    ``np.linalg.norm``'s arithmetic and bounded by the double below tol: "<
    tol", both in mu's canonical units, mu and tol times 2^-e
    (``_scale_exponent``).

    Only the first sweep is run: r_1 = gamma U (w_1 - w_0), and after it
    r_{k+1} = G r_k, G = -gamma U (D + gamma L)^-1 (R. S. Varga, Matrix
    Iterative Analysis, 1962), G^T formed by one triangular solve on N
    right-hand sides. One matrix-vector product a sweep advances r up to
    sweep N, whose sweeps cost the flops of one squaring of G; after it each
    block of K residuals is the last times G^K, and K doubles by squaring
    while a doubled block fits under the cap, up to min(_BAND_SWEEPS, max(1,
    _CHUNK_BYTES // (8 N))). Alone, a count forms G^T in the array that held
    gamma U and holds at most two N x N arrays at once. A first iterate past
    the double range raises ``ConditioningError``, as the solve does.

    So the count is that of the exact residual sequence. Residuals read off
    computed iterates, gamma U (w_k - w_{k-1}), carry an absolute rounding
    noise of about eps ||gamma U|| ||w||: for a tol above it the two counts
    agree, and below it this count still reaches tol where theirs stalls.

    ``recurrence``, a ``_Recurrence`` of this sigma (the same object) and
    gamma, is shared with the other counts on it: they read one P_gamma, G^T
    and set of squares, and pool the rule, so once the sweeps run on it one
    product a sweep reach N, a count takes blocks from its first sweep on,
    with the squares formed before it. Its products differ, not the sequence
    counted. A recurrence of another sigma or gamma raises ``ParameterError``.
    """
    g = _check_solver_args(gamma, cap, tol)
    if recurrence is not None and (recurrence.sigma is not sigma or recurrence.gamma != g):
        raise ParameterError("the recurrence is of another covariance or gamma")
    e = _scale_exponent(_paired(sigma, mu))
    try:
        bound = math.nextafter(math.ldexp(tol, -e), 0.0)
    except OverflowError:  # past the largest double: met at once
        bound = math.inf
    rec = _Recurrence(sigma, g, shared=False) if recurrence is None else recurrence
    return rec.count(np.ldexp(mu.values, -e), bound, cap)
