import numpy as np
import pytest
import scipy.linalg

from crisp_alloc import (
    ConditioningError,
    CovarianceMatrix,
    RegimeSpec,
    SchurBreakdownError,
    Signal,
    SignalSpec,
    a1_sum_norm_mvo,
    a2_flat_ivp_tree,
    balanced_tree,
    build_tree,
    cotton,
    cotton_kappa_product,
    dir_error,
    direct_minvar,
    equal_weight,
    gen_regime,
    gen_signal,
    hrp,
    hrp_sigma_mu,
    markowitz_direct,
    sample_cov,
    sample_returns,
    sector_labels,
    signed_cosine,
    to_correlation,
)
from tests.conftest import random_spd


# The recursive Schur allocator that ``cotton`` replaced, kept as its oracle:
# LU solves per node, a Cramer 2x2 bottom-out, and a Cholesky check of each
# child block in strict mode; ``kappas`` collects the child condition numbers.


def _oracle_solve_2x2(q, b, depth, gamma, strict):
    det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
    if strict and (q[0, 0] <= 0.0 or det <= 0.0):
        raise SchurBreakdownError(depth, gamma, "2x2 block not positive definite")
    if det == 0.0:
        if strict:
            raise SchurBreakdownError(depth, gamma, "singular 2x2 block")
        return np.zeros(2)
    return np.array(
        [(q[1, 1] * b[0] - q[0, 1] * b[1]) / det, (q[0, 0] * b[1] - q[0, 1] * b[0]) / det]
    )


def _oracle_kappa(m):
    eigs = scipy.linalg.eigvalsh(m)
    return np.inf if eigs[0] <= 0.0 else float(eigs[-1] / eigs[0])


def _oracle_recurse(q, b, node, depth, gamma, strict, kappas):
    if node.is_leaf:
        if q[0, 0] == 0.0:
            raise SchurBreakdownError(depth, gamma, "zero variance at leaf")
        return b[:1] / q[0, 0]
    if node.size == 2:
        return _oracle_solve_2x2(q, b, depth, gamma, strict)
    n_l = node.left.size
    a, d, off = q[:n_l, :n_l], q[n_l:, n_l:], q[:n_l, n_l:]
    b_l, b_r = b[:n_l], b[n_l:]
    if gamma == 0.0:
        a_c, b_a, d_c, b_d = a, b_l, d, b_r
    else:
        try:
            xd = np.linalg.solve(d, np.concatenate([off.T, b_r[:, None]], axis=1))
            xa = np.linalg.solve(a, np.concatenate([off, b_l[:, None]], axis=1))
        except np.linalg.LinAlgError as exc:
            if strict:
                raise SchurBreakdownError(depth, gamma, "singular child block") from exc
            if kappas is not None:
                kappas.append(np.inf)
            return np.zeros(node.size)
        a_c = a - gamma * off @ xd[:, :-1]
        b_a = b_l - gamma * off @ xd[:, -1]
        d_c = d - gamma * off.T @ xa[:, :-1]
        b_d = b_r - gamma * off.T @ xa[:, -1]
        a_c = 0.5 * (a_c + a_c.T)
        d_c = 0.5 * (d_c + d_c.T)
    if kappas is not None:
        kappas.append(_oracle_kappa(a_c))
        kappas.append(_oracle_kappa(d_c))
    if strict:
        for blk in (a_c, d_c):
            try:
                np.linalg.cholesky(blk)
            except np.linalg.LinAlgError as exc:
                raise SchurBreakdownError(depth, gamma) from exc
    w_l = _oracle_recurse(a_c, b_a, node.left, depth + 1, gamma, strict, kappas)
    w_r = _oracle_recurse(d_c, b_d, node.right, depth + 1, gamma, strict, kappas)
    return np.concatenate([w_l, w_r])


def _oracle_sp(sigma, tree):
    order = np.asarray(tree.leaf_order)
    return sigma.entries[np.ix_(order, order)], order


def _oracle_cotton(sigma, tree, gamma):
    sp, order = _oracle_sp(sigma, tree)
    w_perm = _oracle_recurse(sp, np.ones(tree.n), tree.root, 0, gamma, True, None)
    w = np.empty(tree.n)
    w[order] = w_perm / w_perm.sum()
    return w


def _oracle_kappa_product(sigma, tree, gamma):
    kappas = []
    _oracle_recurse(_oracle_sp(sigma, tree)[0], np.ones(tree.n), tree.root, 0, gamma, False, kappas)
    return float(np.prod(kappas)) if kappas else 1.0


class TestHrp:
    def test_four_asset_weights(self, four_asset):
        sigma, _, tree = four_asset
        w = hrp(sigma, tree)
        assert np.allclose(w.values, [0.247, 0.158, 0.119, 0.476], atol=1e-3)
        assert w.norm_tag == "sum_one"

    def test_four_asset_root_split(self, four_asset):
        sigma, _, tree = four_asset
        # budget of the left pair = sum of first two weights
        w = hrp(sigma, tree).values
        assert w[0] + w[1] == pytest.approx(0.405, abs=1e-3)

    def test_diagonal_inverse_variance(self):
        d = np.array([0.04, 0.09, 0.01, 0.16, 0.25])
        sigma = CovarianceMatrix(np.diag(d))
        tree = build_tree(to_correlation(sigma), "ward")
        w = hrp(sigma, tree)
        expect = (1.0 / d) / (1.0 / d).sum()
        assert np.allclose(w.values, expect, atol=1e-12)

    def test_positive_and_sum_one(self):
        for seed in range(5):
            sigma = random_spd(12, seed)
            tree = build_tree(to_correlation(sigma), "ward")
            w = hrp(sigma, tree).values
            assert np.all(w > 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        sigma = random_spd(10, 3)
        tree = build_tree(to_correlation(sigma), "ward")
        w1 = hrp(sigma, tree).values
        w2 = hrp(CovarianceMatrix(4.0 * sigma.entries), tree).values
        assert np.allclose(w1, w2, atol=1e-13)


class TestEqualWeightAndMinvar:
    def test_equal_weight(self):
        assert np.array_equal(equal_weight(4).values, [0.25, 0.25, 0.25, 0.25])

    def test_direct_minvar_identity(self):
        w = direct_minvar(CovarianceMatrix(np.eye(3)))
        assert np.allclose(w.values, np.ones(3), atol=1e-14)
        assert w.norm_tag == "raw"


class TestCotton:
    def test_gamma_one_exact(self):
        for seed in range(50):
            sigma = random_spd(10, seed)
            tree = build_tree(to_correlation(sigma), "ward")
            w = cotton(sigma, tree, 1.0)
            target = np.linalg.solve(sigma.entries, np.ones(10))
            assert dir_error(w.values, target) < 1e-12

    def test_gamma_zero_differs_from_hrp(self, four_asset):
        sigma, _, tree = four_asset
        w = cotton(sigma, tree, 0.0)
        assert dir_error(w.values, hrp(sigma, tree).values) > 0.01

    def test_diagonal_blocks_match_hrp(self):
        d = np.array([0.04, 0.09, 0.01, 0.16])
        sigma = CovarianceMatrix(np.diag(d))
        tree = build_tree(to_correlation(sigma), "ward")
        assert np.allclose(
            cotton(sigma, tree, 0.0).values, hrp(sigma, tree).values, atol=1e-12
        )

    def test_population_blocks_stay_spd(self):
        # no breakdown on population covariances at any gamma
        for seed in range(50):
            sigma = random_spd(12, seed)
            tree = build_tree(to_correlation(sigma), "ward")
            for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                cotton(sigma, tree, gamma)

    def test_breakdown_carries_depth_and_gamma(self):
        # an indefinite 2x2 block inside the root's right half: breakdown
        # needs a Sigma that is not positive definite, since for gamma in
        # [0, 1] A - gamma B D^-1 B^T dominates the gamma = 1 Schur complement
        m = np.eye(8)
        m[4, 5] = m[5, 4] = 1.5
        sigma, tree = CovarianceMatrix(m), balanced_tree(8)
        for gamma in (0.0, 0.5, 1.0):
            with pytest.raises(SchurBreakdownError) as new:
                cotton(sigma, tree, gamma)
            with pytest.raises(SchurBreakdownError) as old:
                _oracle_cotton(sigma, tree, gamma)
            assert (new.value.depth, new.value.gamma) == (0, gamma)
            assert (old.value.depth, old.value.gamma) == (0, gamma)
            assert cotton_kappa_product(sigma, tree, gamma) == np.inf

    def test_matches_the_recursive_oracle(self):
        cases = []
        for n in (3, 10, 33):
            for seed in range(20):
                s = random_spd(n, seed)
                cases.append((s, build_tree(to_correlation(s), "ward")))
        for seed in range(5):
            cases.append((random_spd(16, seed), balanced_tree(16)))
        sigma = gen_regime(RegimeSpec("block_sector", n=100, seed=42))
        for t in (60, 120):
            rets = sample_returns(sigma, Signal(np.zeros(100)), t, seed=(7, t))
            hat = sample_cov(rets, ridge=1e-4)
            cases.append((hat, build_tree(to_correlation(hat), "ward")))
        for s, tree in cases:
            for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                got, want = cotton(s, tree, gamma).values, _oracle_cotton(s, tree, gamma)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                k_got = cotton_kappa_product(s, tree, gamma)
                k_want = _oracle_kappa_product(s, tree, gamma)
                assert np.isfinite(k_want) and k_got == pytest.approx(k_want, rel=1e-8)

    def test_exact_under_power_of_two_scaling(self):
        # an even power of two passes exactly through every product, quotient
        # and square root of a Cholesky pass, and no quantity squares the scale
        for n, seed in ((10, 3), (60, 3)):
            sigma = random_spd(n, seed)
            tree = build_tree(to_correlation(sigma), "ward")
            for gamma in (0.5, 1.0):
                ref = cotton(sigma, tree, gamma).values
                for e in (300, -300, 600, -600, 900, -900):
                    scaled = CovarianceMatrix(sigma.entries * 2.0**e)
                    assert np.array_equal(cotton(scaled, tree, gamma).values, ref)


class TestKappaProduct:
    def test_gamma_zero_equals_principal_blocks(self):
        sigma = random_spd(12, 2)
        tree = build_tree(to_correlation(sigma), "ward")
        got = cotton_kappa_product(sigma, tree, 0.0)
        order = np.array(tree.leaf_order)
        sp = sigma.entries[np.ix_(order, order)]

        expect = 1.0
        for node in tree.post_order:
            if node.is_leaf or node.size == 2:
                continue
            for child in (node.left, node.right):
                lo, hi = child.span
                block = sp[lo:hi, lo:hi]
                eigs = np.linalg.eigvalsh(block)
                expect *= eigs[-1] / eigs[0]
        assert got == pytest.approx(expect, rel=1e-8)

    def test_diagonal_blocks(self):
        d = np.array([0.04, 0.09, 0.01, 0.16, 0.25, 0.36, 0.02, 0.08])
        sigma = CovarianceMatrix(np.diag(d))
        tree = balanced_tree(8)
        got = cotton_kappa_product(sigma, tree, 0.7)
        # with a diagonal covariance every augmented block is the principal block
        expect = 1.0
        for node in tree.post_order:
            if node.is_leaf or node.size == 2:
                continue
            for child in (node.left, node.right):
                lo, hi = child.span
                dd = d[np.array(tree.leaf_order[lo:hi])]
                expect *= dd.max() / dd.min()
        assert got == pytest.approx(expect, rel=1e-10)

    def test_sample_blowup(self):
        sigma = gen_regime(RegimeSpec("block_sector", n=100, seed=42))
        sect = sector_labels(100, 5)
        mu = gen_signal(SignalSpec("sector_tilt"), 100, sectors=sect)
        rets = sample_returns(sigma, mu, 60, seed=(42, 60, 0))
        hat = sample_cov(rets, 1e-4)
        tree = build_tree(to_correlation(hat), "ward")
        prod = cotton_kappa_product(hat, tree, 0.5)
        from crisp_alloc import kappa

        assert prod >= 1e10
        assert prod / kappa(hat.entries) >= 1e6


    def test_overflow_is_not_a_breakdown(self):
        # every block is positive definite, but the product is 1e1800
        d = np.where(np.arange(8) % 2 == 0, 1e-150, 1e150)
        with pytest.raises(ConditioningError, match="10\\^"):
            cotton_kappa_product(CovarianceMatrix(np.diag(d)), balanced_tree(8), 0.5)


class TestA2FlatIvpTree:
    def test_recovers_hrp_on_flat_signal(self, base100):
        tree = build_tree(to_correlation(base100), "ward")
        ones = Signal(np.ones(100))
        w = a2_flat_ivp_tree(base100, ones, tree, 0.0).values
        w_hrp = hrp(base100, tree).values
        assert np.linalg.norm(w - w_hrp) / np.linalg.norm(w_hrp) < 1e-12

    def test_aggregate_signal_can_cancel(self):
        # mu_j = -a_i / a_j makes the flat aggregate signal vanish on the pair
        d = np.array([0.04, 0.09])
        a = 1.0 / d
        mu = np.array([1.0, -a[0] / a[1]])
        s_flat = (a * mu).sum() / a.sum()
        assert abs(s_flat) < 1e-12

    def test_far_from_target_on_mixed_sign_signals(self):
        # documented-unstable: essentially orthogonal output at coupled gammas
        for kind, kw in [("block_sector", {}), ("factor", {"k": 3})]:
            sigma = gen_regime(RegimeSpec(kind, n=100, seed=42, **kw))
            tree = build_tree(to_correlation(sigma), "ward")
            mu = gen_signal(SignalSpec("gaussian", seed=7), 100)
            target = markowitz_direct(sigma, mu).values
            for gamma in (0.5, 1.0):
                w = a2_flat_ivp_tree(sigma, mu, tree, gamma).values
                assert dir_error(w, target) > 0.84


class TestA1SumNormMvo:
    def test_cosine_with_hrp_on_flat_signal(self, base200):
        tree = build_tree(to_correlation(base200), "ward")
        ones = Signal(np.ones(200))
        w = a1_sum_norm_mvo(base200, ones, tree, 0.0).values
        c = signed_cosine(w, hrp(base200, tree).values)
        assert c == pytest.approx(0.992, abs=0.006)

    def test_exact_antiparallel_on_odd_parity(self):
        # two assets: the single root node flips, so a1 = -hrp_sigma_mu exactly
        sigma = CovarianceMatrix(np.array([[0.04, 0.01], [0.01, 0.01]]))
        mu = Signal(np.array([0.01, -0.05]))
        tree = build_tree(to_correlation(sigma), "ward")
        trace = {}
        w_a1 = a1_sum_norm_mvo(sigma, mu, tree, 0.0, trace=trace)
        assert trace[tree.root.id].flipped
        w_l1 = hrp_sigma_mu(sigma, mu, tree, 0.0)
        a = w_a1.values / np.abs(w_a1.values).sum()
        assert np.allclose(a, -w_l1.values, atol=1e-12)

    def test_globally_collinear_with_l1_twin(self):
        # a flipped child is compensated in its parent's raw budgets, so the
        # two normalizations differ by one global scalar, never leaf by leaf
        rng = np.random.default_rng(3)
        for seed in range(8):
            sigma = random_spd(8, seed)
            tree = build_tree(to_correlation(sigma), "ward")
            mu = Signal(rng.normal(0, 0.02, 8))
            for gamma in (0.0, 0.8):
                w_a1 = a1_sum_norm_mvo(sigma, mu, tree, gamma).values
                w_l1 = hrp_sigma_mu(sigma, mu, tree, gamma).values
                assert dir_error(w_a1, w_l1) < 1e-12

    def test_same_sign_flip_gives_exact_negation(self):
        # when the raw pair shares a negative sign the denominators have equal
        # magnitude and opposite sign, so the outputs are exact negatives
        sigma = CovarianceMatrix(np.array([[0.04, 0.01], [0.01, 0.01]]))
        mu = Signal(np.array([-0.01, -0.05]))
        tree = build_tree(to_correlation(sigma), "ward")
        trace = {}
        w_a1 = a1_sum_norm_mvo(sigma, mu, tree, 0.0, trace=trace).values
        assert trace[tree.root.id].flipped
        w_l1 = hrp_sigma_mu(sigma, mu, tree, 0.0).values
        assert np.abs(w_a1 + w_l1).max() < 1e-14

    def test_structural_instance_negative_cosine(self):
        # sign-flip pathology on a noiseless block instance with sector tilts
        sigma = gen_regime(RegimeSpec("block_sector", n=100, seed=1))
        sect = sector_labels(100, 5)
        mu = gen_signal(SignalSpec("sector_tilt"), 100, sectors=sect)
        tree = build_tree(to_correlation(sigma), "ward")
        target = markowitz_direct(sigma, mu).values
        c = signed_cosine(a1_sum_norm_mvo(sigma, mu, tree, 1.0).values, target)
        assert c < -0.5

    def test_sign_is_a_coin_flip_across_instances(self):
        sect = sector_labels(100, 5)
        mu_spec = SignalSpec("sector_tilt")
        signs = []
        for seed in range(1, 11):
            sigma = gen_regime(RegimeSpec("block_sector", n=100, seed=seed))
            mu = gen_signal(mu_spec, 100, sectors=sect)
            tree = build_tree(to_correlation(sigma), "ward")
            target = markowitz_direct(sigma, mu).values
            signs.append(signed_cosine(a1_sum_norm_mvo(sigma, mu, tree, 1.0).values, target) < 0)
        assert 2 <= sum(signs) <= 8
