"""Signal-aware tree allocators.

Two recommended constructions on the same dendrogram and the same node-level
2x2 mean-variance system, differing in the branch representative:

* ``hrp_mu`` scores each branch with a signed inverse-variance portfolio
  (magnitudes from 1/variance, signs from the signal), splits budgets
  sum-to-one, and applies the signal sign at the leaves. Its aggregate branch
  signal is a weighted mean of |mu_i| and cannot cancel to zero.
* ``hrp_sigma_mu`` propagates the recursive local mean-variance optimum as
  the representative and re-normalises each node's raw budget pair by
  |a_l| + |a_r|, which is strictly positive and therefore sign-preserving.

``hsp`` is the closed-form gamma = 0 endpoint of ``hrp_mu``. Both wrap
``baselines._fixed_pass``, and ``hrp_sigma_mu`` wraps ``_stacked_pass``.
"""

from __future__ import annotations

import math

from .baselines import ClusterStats, _fixed_pass, _stacked_pass, raw_budgets
from .core import CovarianceMatrix, Signal, WeightVector, check_gamma
from .dendrogram import Dendrogram
from .errors import ParameterError


def solve_2x2(stats: ClusterStats, gamma: float) -> tuple[float, float]:
    """Raw Cramer budgets of the node system; diagonal fallback on degeneracy.

    alpha_l_raw = (v_r s_l - g c s_r) / delta, alpha_r_raw symmetric, with
    delta = v_l v_r - (g c)^2.
    """
    g = check_gamma(gamma)
    if not (min(stats.v_l, stats.v_r) > 0.0 and all(map(math.isfinite, vars(stats).values()))):
        raise ParameterError("cluster variances must be strictly positive and all statistics finite")
    a_l, a_r, delta = raw_budgets(stats.v_l, stats.v_r, stats.s_l, stats.s_r, stats.c, g)
    if not math.isfinite(delta):
        raise ParameterError("the node determinant v_l v_r - (gamma c)^2 is not finite")
    return a_l, a_r


def hrp_mu(
    sigma: CovarianceMatrix,
    mu: Signal,
    tree: Dendrogram,
    gamma: float,
    trace: dict | None = None,
) -> WeightVector:
    """Signed inverse-variance tree pass; magnitude from the tree, sign from mu.

    Budgets are non-negative and sum to one at every node, the leaf weight is
    the budget product times sign(mu_i) with sign(0) := +1, and the output has
    unit gross leverage. ``trace``, when given, collects node id ->
    NodeRecord for inspection.
    """
    return _fixed_pass(sigma, mu, tree, gamma, True, trace)


def hsp(sigma: CovarianceMatrix, mu: Signal, tree: Dendrogram) -> WeightVector:
    """Signed hierarchical signal parity: the decoupled endpoint of hrp_mu.

    Splits every node by alpha_l proportional to s_l / v_l using the signed
    inverse-variance statistics; no cross term enters. Coincides with hrp_mu
    at gamma = 0 and with plain HRP on a flat unit signal.
    """
    return _fixed_pass(sigma, mu, tree, 0.0, True)


def hrp_sigma_mu(
    sigma: CovarianceMatrix,
    mu: Signal,
    tree: Dendrogram,
    gamma: float,
    trace: dict | None = None,
) -> WeightVector:
    """Recursive mean-variance tree pass with L1 budget normalization.

    Bottom-up: each node solves the 2x2 system on its children's stacked
    representatives and rescales the raw pair by |a_l| + |a_r|, preserving
    both signs; the stacked root representative (unit gross leverage) is the
    output. Exact for diagonal covariances at any gamma and any tree.
    ``trace`` collects node id -> NodeRecord.
    """
    return _stacked_pass(sigma, mu, tree, gamma, True, trace)
