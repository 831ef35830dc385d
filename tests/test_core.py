import re

import numpy as np
import pytest

from crisp_alloc import (
    ConditioningError,
    CorrelationMatrix,
    CovarianceMatrix,
    DegenerateInputError,
    FactorModel,
    InvalidCovarianceError,
    ParameterError,
    Signal,
    WeightVector,
    kappa,
    kappa_eff,
    markowitz_direct,
    psd_floor,
    shrink,
    to_correlation,
)
from crisp_alloc.core import _count, _gathered, _shrunk, _tagged
from tests.conftest import random_spd


def _check_asymmetry_bound(accept, scale):
    # the tolerance is 1e-12 times max(max |entry|, 1); a difference of
    # exactly that is symmetric, the next float above it is not
    atol = 1e-12 * scale
    m = np.array([[scale, 0.0], [atol, scale]])
    accept(m)
    m[1, 0] = np.nextafter(atol, 1.0)
    with pytest.raises(InvalidCovarianceError):
        accept(m)


class TestConstructors:
    def test_asymmetric_raises(self):
        with pytest.raises(InvalidCovarianceError):
            CovarianceMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_nonpositive_diagonal_raises(self):
        with pytest.raises(InvalidCovarianceError):
            CovarianceMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_validate_rejects_indefinite(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # symmetric, positive diag, not PD
        cov = CovarianceMatrix(m)
        with pytest.raises(InvalidCovarianceError):
            cov.validate()

    def test_validate_accepts_spd(self):
        cov = random_spd(6, 0)
        assert cov.validate() is cov

    def test_entries_immutable(self):
        cov = random_spd(4, 1)
        with pytest.raises(ValueError):
            cov.entries[0, 0] = 9.9

    def test_correlation_forces_unit_diagonal(self):
        c = np.array([[1.0 + 1e-13, 0.3], [0.3, 1.0 - 1e-13]])
        corr = CorrelationMatrix(c)
        assert np.all(np.diag(corr.entries) == 1.0)
        assert corr.entries.trace() == corr.n

    def test_correlation_rejects_large_offdiag(self):
        with pytest.raises(InvalidCovarianceError):
            CorrelationMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))

    @pytest.mark.parametrize("scale", (1.0, 4.0))
    def test_asymmetry_at_the_tolerance(self, scale):
        _check_asymmetry_bound(CovarianceMatrix, scale)

    @pytest.mark.parametrize(
        "accept",
        (lambda m: FactorModel(np.eye(2), m, np.ones(2)), psd_floor, kappa),
        ids=("factor_cov", "psd_floor", "kappa"),
    )
    @pytest.mark.parametrize("scale", (1.0, 4.0))
    def test_every_matrix_reader_at_the_tolerance(self, scale, accept):
        # one rule: a factor covariance, a matrix to floor and one whose
        # condition number is asked hold the covariance's bound
        _check_asymmetry_bound(accept, scale)

    @pytest.mark.parametrize(
        "stored",
        (
            lambda m: CovarianceMatrix(m).entries,
            lambda m: CorrelationMatrix(m).entries,
            lambda m: FactorModel(np.eye(3), m, np.ones(3)).factor_cov,
        ),
        ids=("covariance", "correlation", "factor_cov"),
    )
    def test_stored_exactly_symmetric(self, stored):
        # within the bound the two triangles are averaged, so every reader
        # of either triangle sees the same matrix; a symmetric input is kept
        sym = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, -0.1], [0.2, -0.1, 1.0]])
        assert np.array_equal(stored(sym), sym)
        m = sym.copy()
        m[0, 1] += 9e-13
        m[1, 2] -= 7e-13
        got = stored(m)
        assert np.array_equal(got, got.T)
        assert np.array_equal(got, 0.5 * (m + m.T))

    def test_correlation_asymmetry_at_the_tolerance(self):
        m = np.array([[1.0, 0.0], [1e-12, 1.0]])
        CorrelationMatrix(m)
        m[1, 0] = np.nextafter(1e-12, 1.0)
        with pytest.raises(InvalidCovarianceError):
            CorrelationMatrix(m)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_offdiagonal_at_the_bound(self, sign):
        # |c| up to 1 + 1e-9 is rounding and clipped to 1; above it is an error,
        # whatever the diagonal holds before it is set to 1
        edge = sign * (1.0 + 1e-9)
        corr = CorrelationMatrix(np.array([[3.0, edge], [edge, 1.0]]))
        assert np.array_equal(corr.entries, np.array([[1.0, sign], [sign, 1.0]]))
        over = np.nextafter(edge, 2.0 * edge)
        with pytest.raises(InvalidCovarianceError):
            CorrelationMatrix(np.array([[1.0, over], [over, 1.0]]))

    def test_signal_rejects_nan(self):
        with pytest.raises(ParameterError):
            Signal([1.0, np.nan])

    def test_weight_tags(self):
        WeightVector([0.5, 0.5], "sum_one")
        WeightVector([0.5, -0.5], "l1_one")
        with pytest.raises(ParameterError):
            WeightVector([0.5, 0.6], "sum_one")
        with pytest.raises(ParameterError):
            WeightVector([0.5, 0.6], "l1_one")

    def test_tree_pass_tag_rule(self):
        # a tree pass's output keeps its tag within 1e-10 and is raw past it
        for tag, v in (("sum_one", np.array([1.5, -0.5])), ("l1_one", np.array([0.5, -0.5]))):
            assert _tagged(v * (1.0 + 1e-11), tag).norm_tag == tag
            assert _tagged(v * (1.0 + 2e-10), tag).norm_tag == "raw"


class TestToCorrelation:
    def test_diagonal_covariance(self):
        corr = to_correlation(CovarianceMatrix(np.diag([4.0, 9.0])))
        assert np.array_equal(corr.entries, np.eye(2))

    def test_four_asset_entries(self, four_asset):
        sigma, _, _ = four_asset
        corr = to_correlation(sigma)
        assert corr.entries[0, 1] == pytest.approx(0.80, abs=1e-12)
        assert corr.entries[0, 2] == pytest.approx(0.20, abs=1e-12)

    def test_round_trip(self):
        sigma = random_spd(5, 3)
        corr = to_correlation(sigma)
        vols = np.sqrt(np.diag(sigma.entries))
        back = corr.entries * np.outer(vols, vols)
        assert np.allclose(back, sigma.entries, rtol=0, atol=1e-12)


class TestKappa:
    def test_identity(self):
        assert kappa(CorrelationMatrix(np.eye(3))) == 1.0

    def test_base_universe_100(self, base100):
        assert kappa(to_correlation(base100)) == pytest.approx(61.0, abs=0.5)

    def test_base_universe_200(self, base200):
        assert kappa(to_correlation(base200)) == pytest.approx(121.0, abs=0.5)

    def test_non_pd_raises(self):
        with pytest.raises(ConditioningError):
            kappa(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_similarity_invariance_under_rescaling(self):
        # rescaling rows/columns by positive diagonals leaves kappa(C) unchanged
        rng = np.random.default_rng(7)
        for seed in range(5):
            sigma = random_spd(8, seed)
            k1 = kappa(to_correlation(sigma))
            s = rng.uniform(0.2, 5.0, 8)
            scaled = CovarianceMatrix(sigma.entries * np.outer(s, s))
            k2 = kappa(to_correlation(scaled))
            assert k2 == pytest.approx(k1, rel=1e-8)

    def test_jacobi_similarity(self):
        # kappa(D^-1 Sigma) equals kappa(C)
        sigma = random_spd(9, 11)
        d_inv_sigma = sigma.entries / np.diag(sigma.entries)[:, None]
        eigs = np.sort(np.real(np.linalg.eigvals(d_inv_sigma)))
        assert eigs[-1] / eigs[0] == pytest.approx(kappa(to_correlation(sigma)), rel=1e-8)

    def test_reads_a_typed_or_a_bare_matrix(self):
        m = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert kappa(m) == kappa(CovarianceMatrix(m)) == 2.0


class TestShrink:
    def test_gamma_zero_is_diagonal(self, four_asset):
        sigma, _, _ = four_asset
        p0 = shrink(sigma, 0.0)
        assert np.array_equal(p0.entries, np.diag(np.diag(sigma.entries)))

    def test_gamma_one_is_sigma(self, four_asset):
        sigma, _, _ = four_asset
        p1 = shrink(sigma, 1.0)
        assert np.allclose(p1.entries, sigma.entries, atol=0, rtol=0)

    def test_half_gamma_four_asset(self, four_asset):
        sigma, _, _ = four_asset
        p = shrink(sigma, 0.5)
        assert p.entries[0, 1] == pytest.approx(0.0200, abs=1e-12)
        assert np.array_equal(np.diag(p.entries), np.diag(sigma.entries))

    def test_gamma_out_of_range(self, four_asset):
        sigma, _, _ = four_asset
        with pytest.raises(ParameterError):
            shrink(sigma, 1.5)
        with pytest.raises(ParameterError):
            shrink(sigma, -0.1)

    def test_spd_for_all_gamma(self):
        for seed in range(10):
            sigma = random_spd(7, seed)
            for gamma in np.linspace(0.0, 1.0, 5):
                p = shrink(sigma, gamma)
                assert p.min_eigenvalue() > 0.0


class TestMarkowitzDirect:
    def test_diagonal(self):
        sigma = CovarianceMatrix(np.diag([4.0, 2.0, 0.5]))
        mu = Signal([0.02, -0.01, 0.03])
        w = markowitz_direct(sigma, mu)
        assert np.allclose(w.values, mu.values / np.array([4.0, 2.0, 0.5]), atol=1e-15)
        assert w.norm_tag == "raw"

    def test_residual(self):
        sigma = random_spd(6, 5)
        mu = Signal(np.random.default_rng(5).normal(0, 0.02, 6))
        w = markowitz_direct(sigma, mu)
        res = np.linalg.norm(sigma.entries @ w.values - mu.values) / np.linalg.norm(mu.values)
        assert res < 1e-10

    def test_scale_covariance(self):
        sigma = random_spd(5, 9)
        mu = np.random.default_rng(9).normal(0, 0.02, 5)
        w1 = markowitz_direct(sigma, Signal(mu)).values
        w2 = markowitz_direct(sigma, Signal(2.0 * mu)).values
        assert np.array_equal(w2, 2.0 * w1)

    def test_four_asset_sum_normalized(self, four_asset):
        sigma, mu, _ = four_asset
        w = markowitz_direct(sigma, mu).sum_normalized()
        assert np.allclose(w.values, [-1.019, 0.674, -1.003, 2.348], atol=1e-3)

    def test_length_mismatch(self, four_asset):
        sigma, _, _ = four_asset
        with pytest.raises(ParameterError):
            markowitz_direct(sigma, Signal([1.0, 2.0]))

    def test_singular_covariance(self):
        from crisp_alloc import SingularCovarianceError

        rank_one = CovarianceMatrix(np.ones((3, 3)))
        with pytest.raises(SingularCovarianceError):
            markowitz_direct(rank_one, Signal([1.0, 2.0, 3.0]))


class TestPreconditionedKappa:
    def test_endpoints(self, base100):
        assert kappa_eff(to_correlation(base100).eigenvalues, 0.0) == 1.0
        assert kappa_eff(to_correlation(base100).eigenvalues, 1.0) == pytest.approx(
            kappa(to_correlation(base100)), rel=1e-12
        )

    def test_half_gamma_base_universe(self, base100):
        # analytic spectrum 24.4 / 0.4: (0.5 + 0.5*24.4) / (0.5 + 0.5*0.4)
        assert kappa_eff(to_correlation(base100).eigenvalues, 0.5) == pytest.approx(
            12.7 / 0.7, rel=1e-6
        )

    def test_matches_eigendecomposition_oracle(self):
        sigma = random_spd(8, 21)
        for gamma in (0.25, 0.6, 0.9):
            p = shrink(sigma, gamma)
            m = p.entries / np.diag(sigma.entries)[:, None]
            eigs = np.sort(np.real(np.linalg.eigvals(m)))
            assert kappa_eff(to_correlation(sigma).eigenvalues, gamma) == pytest.approx(
                eigs[-1] / eigs[0], rel=1e-8
            )


class TestParallelDirection:
    def test_eigenvector_signal_stays_on_ray(self):
        from crisp_alloc import dir_error

        for seed in (0, 1):
            sigma = random_spd(7, seed)
            corr = to_correlation(sigma)
            eigs, vecs = np.linalg.eigh(corr.entries)
            d_half = np.sqrt(np.diag(sigma.entries))
            for k in (0, 3, 6):
                mu = Signal(d_half * vecs[:, k])
                ray = mu.values / np.diag(sigma.entries)
                for gamma in np.linspace(0.0, 1.0, 21):
                    p = shrink(sigma, gamma)
                    w = np.linalg.solve(p.entries, mu.values)
                    assert dir_error(w, ray) < 1e-10


class TestCountRule:
    """One rule for every count the library takes: sweep caps, trials, T, N."""

    @pytest.mark.parametrize(
        "value", (0, 1.0, 2.5, True, np.bool_(True), np.float64(3.0), "3", None)
    )
    def test_count_rejects_non_integers_and_small_values(self, value):
        with pytest.raises(ParameterError, match="^the message$"):
            _count(value, 1, "the message")

    @pytest.mark.parametrize("value", (1, 7, np.int64(7), np.uint8(7), np.int32(1)))
    def test_count_accepts_integers_from_the_least(self, value):
        out = _count(value, 1, "unused")
        assert out == value and type(out) is int


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: CovarianceMatrix(np.ones(3)), InvalidCovarianceError,
                     "covariance must be a nonempty square matrix", id="vector"),
        pytest.param(lambda: CovarianceMatrix(np.zeros((0, 0))), InvalidCovarianceError,
                     "covariance must be a nonempty square matrix", id="empty"),
        pytest.param(lambda: CovarianceMatrix([[1.0, np.nan], [np.nan, 1.0]]),
                     InvalidCovarianceError, "covariance has non-finite entries", id="nan"),
        pytest.param(lambda: CovarianceMatrix([[1.0, 0.0], [0.0, np.inf]]),
                     InvalidCovarianceError, "covariance has non-finite entries", id="inf"),
        pytest.param(lambda: CorrelationMatrix([[1.0, -np.inf], [-np.inf, 1.0]]),
                     InvalidCovarianceError, "correlation has non-finite entries", id="minus-inf"),
        pytest.param(lambda: WeightVector([]), InvalidCovarianceError,
                     "weights must be a nonempty finite vector", id="no-weights"),
        pytest.param(lambda: WeightVector([1.0, np.nan]), InvalidCovarianceError,
                     "weights must be a nonempty finite vector", id="nan-weight"),
        pytest.param(lambda: WeightVector([1.0], "l2_one"), ParameterError,
                     "unknown norm tag 'l2_one'", id="norm-tag"),
        pytest.param(lambda: WeightVector([0.5, 0.6], "sum_one"), ParameterError,
                     "sum_one weights are more than 1e-10 off their unit sum", id="sum-one"),
        pytest.param(lambda: WeightVector([1.0, -1.0]).sum_normalized(), DegenerateInputError,
                     "cannot sum-normalize weights with zero sum", id="zero-sum"),
    ],
)
def test_rejected_input(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


class TestGathered:
    """The two-``np.take`` permutation gather is the ``np.ix_`` gather it
    replaced, bit for bit, in ``_shrunk`` and in the tree passes' ``_permuted``."""

    @pytest.mark.parametrize("n", (1, 2, 7, 100, 301))
    def test_same_array_as_the_ix_gather(self, n):
        rng = np.random.default_rng(n)
        s = random_spd(n, n).entries
        for _ in range(5):
            order = rng.permutation(n)
            got = _gathered(s, order)
            assert got.flags.c_contiguous
            assert np.array_equal(got, s[np.ix_(order, order)])
            want = s[np.ix_(order, order)] * 0.3
            np.fill_diagonal(want, np.diag(s)[order])
            assert np.array_equal(_shrunk(s, 0.3, order), want)

    def test_permuted_is_the_leaf_order_gather(self):
        from crisp_alloc import baselines, build_tree, to_correlation

        sigma = random_spd(40, 2)
        tree = build_tree(to_correlation(sigma), "ward")
        sp, order = baselines._permuted(sigma, tree)
        assert np.array_equal(sp, sigma.entries[np.ix_(order, order)])
