"""Signal-blind baseline allocators, the shared tree-pass kernel, and the two
diagnostic tree variants.

Contents: hierarchical risk parity (HRP), the Schur-complement allocator with
its gamma continuum and its condition-number product diagnostic, equal weight,
direct minimum variance, and two negative-result tree passes kept for
reproducibility: the flat-representative pass (``a2_flat_ivp_tree``) and the
sum-normalised recursive mean-variance pass (``a1_sum_norm_mvo``).

All six tree passes (these three and ``signal_trees``' ``hrp_mu``, ``hsp`` and
``hrp_sigma_mu``) are thin wrappers over one post-order kernel,
``_tree_pass``, set up by the child representative and the budget
normalisation. A node's budget never depends on its parent's, so one
children-first pass serves every member of the family, and each leaf pair of
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
    CovarianceMatrix, Signal, WeightVector, _count, _gathered, _original_order, _paired, _tagged,
    check_gamma, markowitz_direct,
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
    delta = v_l * v_r - (gamma * c) ** 2
    if abs(delta) < DELTA_DEGENERACY * v_l * v_r:
        return s_l / v_l, s_r / v_r, delta
    a_l = (v_r * s_l - gamma * c * s_r) / delta
    a_r = (v_l * s_r - gamma * c * s_l) / delta
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


def _tree_pass(
    sigma: CovarianceMatrix,
    mu: Signal,
    tree: Dendrogram,
    gamma: float,
    rep: str,
    norm: str,
    trace: dict | None = None,
) -> WeightVector:
    """Post-order pass shared by the six tree allocators; returns leaf weights.

    ``rep`` is the child representative scored at each node: ``"flat"``
    (inverse variance), ``"signed"`` (inverse variance times sign(mu), with
    sign(0) := +1), or ``"stacked"`` (the children's own normalised local
    optima). ``norm`` divides each raw Cramer pair by ``"sum"`` a_l + a_r or
    ``"l1"`` |a_l| + |a_r| (equal split when that is zero). A leaf weight is
    its starting sign times the product of the budgets on its path. The fixed
    representatives take all cross terms from one reduction over the tree's
    ``row_segments`` and multiply budgets out top-down; ``stacked``, whose
    representative is the output, forms and scales them node by node.

    Each node id carries Q = x'Sigma x and S = x'mu of its representative x,
    unnormalised (x_i = +-1/sigma_ii for the fixed ones, the output itself
    for stacked), and its normaliser A = sum |x_i| (1 for stacked), so the
    child statistics are v = Q/A^2, s = S/A and c = x_l'Sigma_lr x_r/(A_l A_r).
    The pass works in canonical units: Sigma is scaled by the power of two
    that brings its largest variance into [0.5, 1), so no input scale under-
    or overflows the 2x2 solve and the weights are the same bits for Sigma
    and 2^k Sigma. ``trace`` collects node id -> NodeRecord in the input's
    units.
    """
    g = check_gamma(gamma)
    sp, order = _permuted(sigma, tree)
    n, m = tree.n, _paired(sigma, mu)
    d = np.diag(sigma.entries)[order]
    sc = 2.0 ** -int(np.frexp(d.max())[1])  # exact: the canonical units
    d = d * sc
    stacked = rep == "stacked"
    sign = np.where(m >= 0.0, 1.0, -1.0) if rep == "signed" else np.ones(n)
    w = sign[order]
    x = w if stacked else w / d
    buf = np.empty((3, 2 * n - 1))
    buf[:, order] = x * x * d, x * m[order], np.abs(x)
    q, s, a = buf.tolist()
    path = [1.0] * (2 * n - 1)  # budget per node id; the root's is 1
    spans, pairs = tree.spans, tree.pairs
    if not stacked:  # sp[i, j] x_j in place, summed per row segment, times x_i
        starts, merges = tree.row_segments
        sp *= x
        cross_sums = np.add.reduceat(sp.ravel(), starts) * x[starts // n]
        crosses = (np.bincount(merges, cross_sums, n) * sc).tolist()
    for k, (i, j) in enumerate(pairs, n):
        if stacked:
            (l0, l1), (r0, r1) = spans[i], spans[j]
        cross = float(x[l0:l1] @ sp[l0:l1, r0:r1] @ x[r0:r1]) * sc if stacked else crosses[k - n]
        al, ar = a[i], a[j]
        v_l, v_r = q[i] / (al * al), q[j] / (ar * ar)
        s_l, s_r, c = s[i] / al, s[j] / ar, cross / (al * ar)
        raw_l, raw_r, delta = raw_budgets(v_l, v_r, s_l, s_r, c, g)
        z = raw_l + raw_r if norm == "sum" else abs(raw_l) + abs(raw_r)
        b_l, b_r = (0.5, 0.5) if z == 0.0 else (raw_l / z, raw_r / z)
        if trace is not None:
            u = 1.0 / sc
            trace[k] = NodeRecord(
                v_l * u, v_r * u, s_l, s_r, c * u, delta * u * u, raw_l * sc, raw_r * sc, b_l, b_r
            )
        if stacked:  # the representative is the rescaled output itself
            w[l0:l1] *= b_l
            w[r0:r1] *= b_r
            kl, kr, a[k] = b_l, b_r, 1.0
        else:
            path[i], path[j] = b_l, b_r
            kl, kr, a[k] = 1.0, 1.0, al + ar
        q[k] = kl * kl * q[i] + kr * kr * q[j] + 2.0 * kl * kr * cross
        s[k] = kl * s[i] + kr * s[j]
    tag = "l1_one" if rep == "signed" or norm == "l1" else "sum_one"
    if stacked:
        return _tagged(_original_order(w, order), tag)
    for k in range(2 * n - 2, n - 1, -1):  # parents first: path products
        i, j = pairs[k - n]
        path[i] *= path[k]
        path[j] *= path[k]
    return _tagged(np.array(path[:n]) * sign, tag)


def hrp(sigma: CovarianceMatrix, tree: Dendrogram) -> WeightVector:
    """Hierarchical risk parity: long-only, fully invested, signal-blind.

    At each internal node the flat inverse-variance portfolio on each child
    scores the cluster variance; the budget split is inverse cluster variance
    and the leaf weight is the product of the split factors on its path. This
    is the flat-representative pass at gamma = 0 on a unit signal.
    """
    return _tree_pass(sigma, Signal(np.ones(sigma.n)), tree, 0.0, "flat", "sum")


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
    return _tree_pass(sigma, mu, tree, gamma, "flat", "sum")


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
    return _tree_pass(sigma, mu, tree, gamma, "stacked", "sum", trace)
