"""Signal-blind baseline allocators, the two tree-pass kernels, and the two
diagnostic tree variants.

Contents: hierarchical risk parity (HRP), the Schur-complement allocator with
its gamma continuum and its condition-number product diagnostic, equal weight,
direct minimum variance, and two negative-result tree passes kept for
reproducibility: the flat-representative pass (``a2_flat_ivp_tree``) and the
sum-normalised recursive mean-variance pass (``a1_sum_norm_mvo``).

The six tree passes (these three and ``signal_trees``' ``hrp_mu``, ``hsp`` and
``hrp_sigma_mu``) wrap two post-order kernels sharing a set-up and a node
step: ``_fixed_pass`` (``hrp``, ``hsp``, ``hrp_mu``, ``a2``) and
``_stacked_pass`` (``a1``, ``hrp_sigma_mu``). A node's budget never depends on
its parent's, so one children-first pass serves each, and each leaf pair of
the covariance enters one cross term, at its lowest common ancestor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .core import (
    CovarianceMatrix, Signal, WeightVector, _count, _gathered, _original_order, _paired,
    _scale_exponent, _tagged, check_gamma, markowitz_direct,
)
from .dendrogram import Dendrogram
from .errors import ConditioningError, DegenerateInputError, ParameterError, SchurBreakdownError

# |delta| below this multiple of v_l * v_r counts as a degenerate determinant
# and triggers the decoupled diagonal fallback in every tree pass.
DELTA_DEGENERACY = 1e-10


@dataclass(frozen=True)
class ClusterStats:
    """Scalar statistics of one internal node's two children.

    v_l, v_r are cluster variances (return^2), s_l, s_r aggregate signals
    (return), and c the cross-branch covariance scalar.
    """

    v_l: float
    v_r: float
    s_l: float
    s_r: float
    c: float


def raw_budgets(v_l: float, v_r: float, s_l: float, s_r: float, c: float, gamma: float):
    """Cramer solve of the node-level 2x2 system with diagonal fallback.

    Returns (alpha_l_raw, alpha_r_raw, delta). When |delta| falls below
    DELTA_DEGENERACY * v_l * v_r the decoupled budgets s_k / v_k are used.
    """
    gc = gamma * c
    delta = v_l * v_r - gc * gc  # a product, exact under power-of-two units
    if abs(delta) < DELTA_DEGENERACY * v_l * v_r:
        return s_l / v_l, s_r / v_r, delta
    a_l = (v_r * s_l - gc * s_r) / delta
    a_r = (v_l * s_r - gc * s_l) / delta
    return a_l, a_r, delta


@dataclass(frozen=True)
class NodeRecord(ClusterStats):
    """One internal node as a tree pass saw it, recorded by ``trace=``.

    Adds the node system's Cramer determinant delta = v_l v_r - (gamma c)^2, its
    raw budgets (raw_l, raw_r) and the normalised ones (alpha_l, alpha_r).
    """

    delta: float
    raw_l: float
    raw_r: float
    alpha_l: float
    alpha_r: float

    @property
    def flipped(self) -> bool:
        """Raw pair sums below zero: sum normalisation flips both signs."""
        return self.raw_l + self.raw_r < 0.0


def _permuted(sigma: CovarianceMatrix, tree: Dendrogram) -> tuple[np.ndarray, np.ndarray]:
    """Sigma in the tree's leaf order, and that order as an index array."""
    if sigma.n != tree.n:
        raise ParameterError("tree and covariance cover different asset counts")
    order = np.asarray(tree.leaf_order, dtype=int)
    return _gathered(sigma.entries, order), order


def _setup(sigma: CovarianceMatrix, mu: Signal, tree: Dendrogram, gamma: float):
    """Both passes' start: gamma, Sigma in leaf order, that order, mu, and Sigma's
    diagonal in canonical units, times the 2^-e that puts the largest variance
    in [0.5, 1), with e. These units keep the 2x2 solve from under- or
    overflowing and give Sigma and 2^k Sigma the same bits."""
    g = check_gamma(gamma)
    sp, order = _permuted(sigma, tree)
    d = np.diag(sigma.entries)
    e = _scale_exponent(d)
    return g, sp, order, _paired(sigma, mu), np.ldexp(d, -e), e


def _split(k, v_l, v_r, s_l, s_r, c, g, l1, e, trace) -> tuple[float, float]:
    """Node k's raw Cramer pair over its ``l1`` norm |a_l| + |a_r| or else its sum
    (equal split when that is zero); ``trace`` gets its NodeRecord in input units."""
    raw_l, raw_r, delta = raw_budgets(v_l, v_r, s_l, s_r, c, g)
    z = abs(raw_l) + abs(raw_r) if l1 else raw_l + raw_r
    b_l, b_r = (0.5, 0.5) if z == 0.0 else (raw_l / z, raw_r / z)
    if trace is not None:
        with np.errstate(over="ignore"):  # a record past the largest double reads inf
            rec = np.ldexp([v_l, v_r, c, delta, raw_l, raw_r], [e, e, e, 2 * e, -e, -e]).tolist()
        trace[k] = NodeRecord(*rec[:2], s_l, s_r, *rec[2:], b_l, b_r)
    return b_l, b_r


def _fixed_pass(
    sigma: CovarianceMatrix, mu: Signal, tree: Dendrogram, gamma: float, signed: bool, trace=None
) -> WeightVector:
    """Post-order pass with fixed child representatives, sum-normalised budgets.

    A child's representative is the inverse-variance portfolio on its leaves,
    times sign(mu) (sign(0) := +1) when ``signed``; a leaf weight is its sign
    times the product of the budgets on its path, taken top-down. Node ids carry
    Q = x'Sigma x, S = x'mu and A = sum |x_i| of x_i = +-1/sigma_ii, so v =
    Q/A^2, s = S/A and c = x_l'Sigma_lr x_r/(A_l A_r), every cross term from
    one reduction over ``tree.row_segments``, scaled after the sums.
    """
    g, sp, order, m, d, e = _setup(sigma, mu, tree, gamma)
    n, pairs = tree.n, tree.pairs
    sign = np.where(m >= 0.0, 1.0, -1.0) if signed else np.ones(n)
    x = sign / d
    buf = np.empty((3, 2 * n - 1))
    buf[:, :n] = x * x * d, x * m, np.abs(x)
    q, s, a = buf.tolist()
    # sp[i, j] x_j in place, summed per row segment, times x_i; the 2^-e of
    # canonical units split over the two factors, so no sum over- or underflows
    starts, merges = tree.row_segments
    x, half = x[order], e // 2
    sp *= np.ldexp(x, -half)
    cross_sums = np.add.reduceat(sp.ravel(), starts) * np.ldexp(x[starts // n], half - e)
    crosses = np.bincount(merges, cross_sums, n).tolist()
    path = [1.0] * (2 * n - 1)  # budget per node id; the root's is 1
    for k, (i, j) in enumerate(pairs, n):
        al, ar, cross = a[i], a[j], crosses[k - n]
        v_l, v_r, c = q[i] / (al * al), q[j] / (ar * ar), cross / (al * ar)
        path[i], path[j] = _split(k, v_l, v_r, s[i] / al, s[j] / ar, c, g, False, e, trace)
        q[k], s[k], a[k] = q[i] + q[j] + 2.0 * cross, s[i] + s[j], al + ar
    for k in range(2 * n - 2, n - 1, -1):  # parents first: path products
        i, j = pairs[k - n]
        path[i] *= path[k]
        path[j] *= path[k]
    return _tagged(np.array(path[:n]) * sign, "l1_one" if signed else "sum_one")


def _stacked_pass(
    sigma: CovarianceMatrix, mu: Signal, tree: Dendrogram, gamma: float, l1: bool, trace=None
) -> WeightVector:
    """Post-order pass whose child representatives x_l, x_r are the children's
    own normalised local optima, stacked by the budget pair in each node's
    slice of one leaf-ordered array; the root's is the output. A node reads
    Sigma only in its cross block x_l'Sigma_lr x_r, summed with the array
    held in units 2^-(e // 2), half the canonical scale in each factor, so no
    sum over- or underflows, and scaled the rest of the way after the sum."""
    g, sp, order, m, d, e = _setup(sigma, mu, tree, gamma)
    half = e // 2
    n, spans, x = tree.n, tree.spans, np.full(tree.n, math.ldexp(1.0, -half))
    q, s = (v.tolist() + [0.0] * (n - 1) for v in (d, m))
    for k, (i, j) in enumerate(tree.pairs, n):
        (l0, l_end), (r0, r_end) = spans[i], spans[j]
        cross = math.ldexp(float(x[l0:l_end] @ sp[l0:l_end, r0:r_end] @ x[r0:r_end]), 2 * half - e)
        b_l, b_r = _split(k, q[i], q[j], s[i], s[j], cross, g, l1, e, trace)
        x[l0:l_end] *= b_l
        x[r0:r_end] *= b_r
        q[k] = b_l * b_l * q[i] + b_r * b_r * q[j] + 2.0 * b_l * b_r * cross
        s[k] = b_l * s[i] + b_r * s[j]
    return _tagged(_original_order(np.ldexp(x, half), order), "l1_one" if l1 else "sum_one")


def hrp(sigma: CovarianceMatrix, tree: Dendrogram) -> WeightVector:
    """Hierarchical risk parity: long-only, fully invested, signal-blind.

    At each internal node the flat inverse-variance portfolio on each child
    scores the cluster variance; the budget split is inverse cluster variance
    and the leaf weight is the product of the split factors on its path. This
    is the flat-representative pass at gamma = 0 on a unit signal.
    """
    return _fixed_pass(sigma, Signal(np.ones(sigma.n)), tree, 0.0, False)


def equal_weight(n: int) -> WeightVector:
    n = _count(n, 1, "need at least one asset")
    return WeightVector(np.full(n, 1.0 / n), "sum_one")


def direct_minvar(sigma: CovarianceMatrix) -> WeightVector:
    """Raw Sigma^-1 1 by symmetric factorization."""
    return markowitz_direct(sigma, Signal(np.ones(sigma.n)))


# ---------------------------------------------------------------------------
# Schur-complement allocator
# ---------------------------------------------------------------------------


def _chol(m: np.ndarray, depth: int, gamma: float) -> np.ndarray:
    """Lower Cholesky factor of m; a failure is a Schur breakdown at depth."""
    low, info = dpotrf(m, 1, 0)  # f2py (a, lower, clean): positions parse faster than keywords
    if info:
        raise SchurBreakdownError(depth, gamma)
    return low


def _schur_pass(sp: np.ndarray, tree: Dendrogram, gamma: float, w: np.ndarray):
    """Top-down Schur pass: fills w (leaf order, unnormalised) and yields each
    augmented child block it forms.

    Only lower triangles are read (of sp, of every block, of every factor),
    and a child block holds only its lower triangle. A node holds
    Q = [[A, B], [B^T, D]] and the lower factor of Q its parent made, whose
    leading block is L_A and whose panel below L_A is X_B^T, X_B = L_A^-1 B;
    only the root, whose factor covers just A, solves for X_B. L_D is the
    node's one new factor and Y = L_D^-1 [B^T | b_r] its one matrix solve.
    The children get A - gamma Y_B^T Y_B and D - gamma X_B^T X_B (``dsyrk``,
    into the lower triangle) with right-hand sides b_l - gamma Y_B^T y and
    b_r - gamma X_B^T x, x = L_A^-1 b_l. Each child block is factored once,
    as the breakdown check and as the child's factor; a node of one or two
    leaves solves with the factor it was handed.
    """
    n, pairs, spans = tree.n, tree.pairs, tree.spans
    m = spans[pairs[-1][0]][1] if n > 2 else n  # the root's left block
    stack = [(2 * n - 2, sp, _chol(sp[:m, :m], 0, gamma), np.ones(n), 0)]
    pop, push = stack.pop, stack.append
    while stack:
        node, q, low, b, depth = pop()
        lo, hi = spans[node]
        if hi - lo <= 2:
            w[lo:hi] = dpotrs(low, b, 1)[0]  # (c, b, lower)
            continue
        left, right = pairs[node - n]
        k = spans[left][1] - lo
        a, d, b_l, b_r = q[:k, :k], q[k:, k:], b[:k], b[k:]
        low_a, low_d = low[:k, :k], _chol(d, depth, gamma)
        if gamma == 0.0:
            kids = ((a, low_a, b_l), (d, low_d, b_r))
        else:
            if depth:  # X_B^T is the panel of the factor the parent made
                x_bt, x = low[k:, :k], dtrtrs(low_a, b_l, 1)[0]
            else:
                x = dtrtrs(low_a, np.column_stack([q[k:, :k].T, b_l]), 1)[0]
                x_bt, x = x[:, :-1].T, x[:, -1]
            y = np.empty((hi - lo - k, k + 1), order="F")
            y[:, :k], y[:, k] = q[k:, :k], b_r
            # f2py (a, b, lower, trans, unitdiag, lda, overwrite_b), as in every dtrtrs call
            y = dtrtrs(low_d, y, 1, 0, 0, low_d.shape[0], 1)[0]
            a_c = dsyrk(-gamma, y[:, :k], 1.0, a, 1, 1)  # (alpha, a, beta, c, trans, lower)
            d_c = dsyrk(-gamma, x_bt, 1.0, d, 0, 1)
            kids = (
                (a_c, _chol(a_c, depth, gamma), b_l - gamma * (y[:, k] @ y[:, :k])),
                (d_c, _chol(d_c, depth, gamma), b_r - gamma * (x_bt @ x)),
            )
        for child, (blk, low_c, rhs) in zip((left, right), kids):
            yield blk
            push((child, blk, low_c, rhs, depth + 1))


def cotton(sigma: CovarianceMatrix, tree: Dendrogram, gamma: float) -> WeightVector:
    """Schur-complement minimum-variance allocator with cross-block gamma.

    Each internal node hands its children the gamma-augmented Schur block
    A - gamma * B D^-1 B^T and the corrected right-hand side; stacking the
    child solutions reproduces Sigma^-1 1 exactly at gamma = 1. Raises
    SchurBreakdownError when a block's Cholesky factorization fails. For
    gamma in [0, 1] every block of a positive definite Sigma is positive
    definite, so that needs a Sigma that is not, to rounding (an unridged
    sample covariance with T <= N, say).
    """
    g = check_gamma(gamma)
    sp, order = _permuted(sigma, tree)
    w_perm = np.empty(tree.n)
    for _ in _schur_pass(sp, tree, g, w_perm):
        pass
    total = float(w_perm.sum())
    if total == 0.0:
        raise DegenerateInputError("Schur allocation sums to zero; cannot normalize")
    return _tagged(_original_order(w_perm / total, order), "sum_one")


def cotton_kappa_product(sigma: CovarianceMatrix, tree: Dendrogram, gamma: float) -> float:
    """Product of condition numbers of every augmented child block.

    Diagnostic only: bounds the error amplification the nested block solves
    can accumulate. A block holds only its lower triangle, which is all that
    ``eigvalsh`` reads. Returns inf when a block breaks down (its factorization
    fails or its smallest eigenvalue is not positive), and raises
    ConditioningError when every block is positive definite but the product
    overflows a float. At gamma = 0 this is the product of the
    principal-block condition numbers.
    """
    g = check_gamma(gamma)
    log_k = 0.0
    try:
        for blk in _schur_pass(_permuted(sigma, tree)[0], tree, g, np.empty(tree.n)):
            eigs = scipy.linalg.eigvalsh(blk)
            if eigs[0] <= 0.0:
                return np.inf
            log_k += math.log(eigs[-1]) - math.log(eigs[0])
    except SchurBreakdownError:
        return np.inf
    try:
        return math.exp(log_k)
    except OverflowError:
        raise ConditioningError(
            f"condition-number product 10^{log_k / math.log(10.0):.1f} overflows a float"
        ) from None


# ---------------------------------------------------------------------------
# Diagnostic tree passes (documented negative results)
# ---------------------------------------------------------------------------


def a2_flat_ivp_tree(
    sigma: CovarianceMatrix, mu: Signal, tree: Dendrogram, gamma: float
) -> WeightVector:
    """Flat-representative signal pass: unstable under mixed-sign signals.

    Identical to the signed pass except the representatives are the unsigned
    inverse-variance portfolios, so the aggregate branch signal can cancel to
    zero and the budgets become noise-driven. Kept as a reproducible
    diagnostic; matches ``hrp`` at gamma = 0 with a flat unit signal.
    """
    return _fixed_pass(sigma, mu, tree, gamma, False)


def a1_sum_norm_mvo(
    sigma: CovarianceMatrix,
    mu: Signal,
    tree: Dendrogram,
    gamma: float,
    trace: dict | None = None,
) -> WeightVector:
    """Sum-normalised recursive mean-variance tree pass (sign-flip pathology).

    Normalising each node's raw budget pair by its algebraic sum flips both
    signs whenever that sum is negative; the flips compound along root-to-leaf
    paths and the output direction ends up uncorrelated with the target. Not a
    recommended method; retained as the counterexample the L1-normalised pass
    repairs. ``trace``, when given, collects node id -> NodeRecord, whose
    ``flipped`` marks a negative denominator for parity analysis.
    """
    return _stacked_pass(sigma, mu, tree, gamma, False, trace)
