"""All six tree passes against a test-only oracle built from their definitions.

The oracle recurses over the tree and, at every internal node, builds each
child's representative as an explicit length-N vector (zero off the child's
leaves) and scores it with full quadratic forms on the unpermuted covariance.
It shares nothing with the post-order kernel but the node-level 2x2 solve.
"""

import numpy as np
import pytest

from crisp_alloc import (
    CovarianceMatrix,
    ParameterError,
    RegimeSpec,
    Signal,
    SignalSpec,
    build_tree,
    gen_regime,
    gen_signal,
    hrp_mu,
    sample_cov,
    sample_returns,
    to_correlation,
)
from crisp_alloc.baselines import raw_budgets
from tests.conftest import TREE_PASSES, chain_tree, random_spd

# pass -> (representative, normalisation, gamma fixed by the pass or None)
_SETUP = {
    "hrp": ("flat", "sum", 0.0),
    "hsp": ("signed", "sum", 0.0),
    "hrp_mu": ("signed", "sum", None),
    "a2": ("flat", "sum", None),
    "a1": ("stacked", "sum", None),
    "hrp_sigma_mu": ("stacked", "l1", None),
}

_REGIMES = ("block_sector", "wide_vol", "equicorr", "factor", "spiked", "hedged_tight_blocks")


def oracle(sigma, mu, tree, gamma, rep, norm):
    s, n = sigma.entries, sigma.n
    signs = np.where(mu >= 0.0, 1.0, -1.0)

    def budgets(x_l, x_r):
        raw = raw_budgets(x_l @ s @ x_l, x_r @ s @ x_r, x_l @ mu, x_r @ mu, x_l @ s @ x_r, gamma)
        z = raw[0] + raw[1] if norm == "sum" else abs(raw[0]) + abs(raw[1])
        return (0.5, 0.5) if z == 0.0 else (raw[0] / z, raw[1] / z)

    def leaves(node):
        lo, hi = tree.spans[node]
        return list(tree.leaf_order[lo:hi])

    def children(node):
        return tree.pairs[node - n]

    def ivp(node):
        # inverse-variance portfolio on the node's leaves, signed if asked
        x = np.zeros(n)
        idx = leaves(node)
        x[idx] = 1.0 / np.diag(s)[idx]
        x /= x.sum()
        return x * signs if rep == "signed" else x

    def stacked(node):
        # the node's own normalised local optimum, its children stacked
        if node < n:  # a leaf
            return np.eye(n)[node]
        left, right = children(node)
        x_l, x_r = stacked(left), stacked(right)
        b_l, b_r = budgets(x_l, x_r)
        return b_l * x_l + b_r * x_r

    def products(node, budget, w):
        # leaf weight: product of the budgets on the root-to-leaf path
        if node < n:  # a leaf
            w[node] = budget
            return
        left, right = children(node)
        b_l, b_r = budgets(ivp(left), ivp(right))
        products(left, budget * b_l, w)
        products(right, budget * b_r, w)

    root = 2 * n - 2
    if rep == "stacked":
        return stacked(root)
    w = np.zeros(n)
    products(root, 1.0, w)
    return w * signs if rep == "signed" else w


def _cases(regime):
    # N = 2 is a root of two leaves; the chain, each merge adding one leaf,
    # is the deepest merge table (up to N = 20: at 100 it doubles the time)
    for seed in range(4):
        for n in (2, 3, 20, 100):
            pop = gen_regime(RegimeSpec(regime, n=n, seed=seed, sectors=min(5, n)))
            returns = sample_returns(pop, Signal(np.ones(n)), 2 * n + 5, seed)
            for sigma in (pop, sample_cov(returns)):
                ward = build_tree(to_correlation(sigma), "ward")
                gauss = gen_signal(SignalSpec("gaussian", seed=seed), n)
                for tree in (ward, chain_tree(n)) if 2 < n < 100 else (ward,):
                    for mu in (Signal(np.ones(n)), gauss):
                        yield sigma, mu, tree


@pytest.mark.parametrize("regime", _REGIMES)
def test_passes_match_oracle(regime):
    seen = set()
    for sigma, mu, tree in _cases(regime):
        flat_mu = np.all(mu.values == 1.0)
        for name, run in TREE_PASSES.items():
            rep, norm, fixed_gamma = _SETUP[name]
            if name == "hrp" and not flat_mu:
                continue  # signal-blind: the unit-signal case covers it
            gammas = (fixed_gamma,) if fixed_gamma is not None else (0.0, 0.5, 1.0)
            m = np.ones(sigma.n) if name == "hrp" else mu.values
            for g in gammas:
                got = run(sigma, mu, tree, g).values
                want = oracle(sigma, m, tree, g, rep, norm)
                rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                # flat representatives can cancel under mixed signs (noise-driven)
                tol = 1e-10 if name == "a2" and not flat_mu else 1e-12
                assert rel <= tol, f"{name} n={sigma.n} gamma={g}: rel {rel:.2e}"
                seen.add(name)
    assert seen == set(TREE_PASSES)


def _scale_inputs():
    """(sigma, mu, gamma): a small random draw, and a pinned case whose
    hrp_mu and a2 weights move by about 1e-17 relative under Sigma -> 2 Sigma
    unless the pass works in canonical units."""
    small = random_spd(12, 4), Signal(np.random.default_rng(4).normal(0.0, 0.02, 12)), 0.5
    sigma = gen_regime(RegimeSpec("hedged_tight_blocks", n=100, seed=3))
    return small, (sigma, gen_signal(SignalSpec("gaussian", seed=3), 100), 1.0)


@pytest.mark.parametrize("name", TREE_PASSES)
def test_any_covariance_scale(name):
    # every pass works in the units that put Sigma's largest variance in
    # [0.5, 1), an exact power of two away, so tiny or huge covariances, where
    # the 2x2 solve's v_l * v_r would under- or overflow, and in-range ones
    # alike give the same bits as the unscaled input
    run = TREE_PASSES[name]
    for sigma, mu, gamma in _scale_inputs():
        tree = build_tree(to_correlation(sigma), "ward")
        base = run(sigma, mu, tree, gamma)
        # up to 2^1022, where a sum of Sigma's entries in input units overflowed
        for e in (-1000, -700, -600, -3, 1, 5, 600, 700, 1000, 1019, 1020, 1021, 1022):
            w = run(CovarianceMatrix(np.ldexp(sigma.entries, e)), mu, tree, gamma).values
            assert np.array_equal(w, base.values), (sigma.n, e)
        # at 2^-1030 every entry is subnormal, rounded to fewer bits, and 2^1030
        # itself is past the largest double
        w = run(CovarianceMatrix(np.ldexp(sigma.entries, -1030)), mu, tree, gamma)
        assert w.norm_tag == base.norm_tag
        assert np.abs(w.values - base.values).max() <= 1e-9 * np.abs(base.values).max()


@pytest.mark.parametrize("name", sorted(set(TREE_PASSES) - {"hrp"}))
@pytest.mark.parametrize("delta", (-2, 2))
def test_signal_length_must_match(name, delta):
    # a longer signal lost its tail entries, a shorter one raised IndexError
    sigma = random_spd(10, 3)
    tree = build_tree(to_correlation(sigma), "ward")
    mu = Signal(np.random.default_rng(3).normal(0.0, 0.02, 10 + delta))
    with pytest.raises(ParameterError, match="signal length does not match covariance size"):
        TREE_PASSES[name](sigma, mu, tree, 0.5)


@pytest.mark.parametrize("n", (2, 3, 20, 100))
def test_hrp_mu_cross_terms_from_slices(n):
    # every traced c is x_L' Sigma_LR x_R / (a_l a_r) of the signed
    # inverse-variance representatives, summed here block by block; relative
    # to the same sum of absolute values, the scale of its rounding
    sigma = random_spd(n, n)
    mu = np.random.default_rng(n).normal(0.0, 0.02, n)
    for tree in (build_tree(to_correlation(sigma), "ward"), chain_tree(n)):
        order = list(tree.leaf_order)
        sp = sigma.entries[np.ix_(order, order)]
        x = np.where(mu[order] >= 0.0, 1.0, -1.0) / np.diag(sp)
        trace = {}
        hrp_mu(sigma, Signal(mu), tree, 0.5, trace=trace)
        assert sorted(trace) == list(range(n, 2 * n - 1))
        for k, (i, j) in enumerate(tree.pairs, n):
            (l0, l1), (r0, r1) = tree.spans[i], tree.spans[j]
            block, x_l, x_r = sp[l0:l1, r0:r1], x[l0:l1], x[r0:r1]
            scale = np.abs(x_l).sum() * np.abs(x_r).sum()
            want = x_l @ block @ x_r / scale
            bound = np.abs(x_l) @ np.abs(block) @ np.abs(x_r) / scale
            assert abs(trace[k].c - want) <= 1e-13 * bound, f"node {k}"
