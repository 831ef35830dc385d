import numpy as np
import pytest

from crisp_alloc import (
    CovarianceMatrix,
    GenerationError,
    ParameterError,
    RegimeSpec,
    SignalSpec,
    dir_diag,
    gen_regime,
    gen_signal,
    kappa,
    psd_floor,
    sample_cov,
    sample_mean,
    sample_returns,
    sector_labels,
    to_correlation,
    worst_case_mu,
)


class TestRegimes:
    def test_deterministic_per_seed(self):
        spec = RegimeSpec("block_sector", n=40, seed=9)
        a = gen_regime(spec).entries
        b = gen_regime(spec).entries
        assert np.array_equal(a, b)
        c = gen_regime(RegimeSpec("block_sector", n=40, seed=10)).entries
        assert not np.array_equal(a, c)

    def test_block_kappa_targets(self):
        k100 = kappa(to_correlation(gen_regime(RegimeSpec("block_sector", n=100, seed=42))))
        k200 = kappa(to_correlation(gen_regime(RegimeSpec("block_sector", n=200, seed=42))))
        assert k100 == pytest.approx(61.0, abs=0.5)
        assert k200 == pytest.approx(121.0, abs=0.5)

    def test_block_spectrum_closed_form(self):
        n, m, k, rho_w, rho_c = 100, 20, 5, 0.6, 0.15
        corr = to_correlation(gen_regime(RegimeSpec("block_sector", n=n, seed=1)))
        eigs = np.sort(np.linalg.eigvalsh(corr.entries))
        expect = np.sort(
            np.array(
                [1 + (m - 1) * rho_w + m * (k - 1) * rho_c]
                + [1 + (m - 1) * rho_w - m * rho_c] * (k - 1)
                + [1 - rho_w] * (n - k)
            )
        )
        assert np.allclose(eigs, expect, atol=1e-8)

    def test_equicorr_zero_is_identity(self):
        corr = to_correlation(gen_regime(RegimeSpec("equicorr", n=10, rho=0.0, seed=0)))
        assert np.allclose(corr.entries, np.eye(10), atol=1e-12)

    def test_equicorr_indefinite_raises(self):
        with pytest.raises(GenerationError):
            gen_regime(RegimeSpec("equicorr", n=10, rho=-0.5, seed=0))

    def test_factor_kappa_scale(self):
        k = kappa(to_correlation(gen_regime(RegimeSpec("factor", n=200, k=3, seed=42))))
        assert 111 / 3 <= k <= 111 * 3

    def test_spiked_is_valid(self):
        cov = gen_regime(RegimeSpec("spiked", n=60, seed=5))
        corr = to_correlation(cov)
        eigs = np.linalg.eigvalsh(corr.entries)
        assert eigs[0] > 0
        assert eigs[-1] > 5.0  # dominant spike

    def test_hedged_is_pd_with_negative_pairs(self):
        cov = gen_regime(RegimeSpec("hedged_tight_blocks", n=60, seed=3))
        corr = to_correlation(cov)
        assert np.linalg.eigvalsh(corr.entries)[0] > 0
        assert corr.entries.min() < -0.3

    def test_hedged_needs_one_asset_per_sector(self):
        for n, sectors in ((3, 5), (6, 7)):
            with pytest.raises(ParameterError):
                gen_regime(RegimeSpec("hedged_tight_blocks", n=n, sectors=sectors))
        assert gen_regime(RegimeSpec("hedged_tight_blocks", n=2, sectors=2)).n == 2

    def test_vol_range_respected(self):
        cov = gen_regime(RegimeSpec("block_sector", n=50, vol_range=(0.05, 1.0), seed=7))
        vols = np.sqrt(np.diag(cov.entries))
        assert vols.min() >= 0.05 and vols.max() <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            RegimeSpec("garch", n=10)


class TestPsdFloor:
    def test_pd_input_unchanged(self):
        c = np.eye(5) * 1.0
        c[0, 1] = c[1, 0] = 0.4
        out = psd_floor(c, 1e-4)
        assert np.allclose(out.entries, c, atol=1e-12)

    def test_rank_deficient_floored(self):
        c = np.ones((6, 6))  # equicorrelation rho = 1: rank one
        out = psd_floor(c, 1e-4)
        eigs = np.linalg.eigvalsh(out.entries)
        assert 0.9e-4 <= eigs[0] <= 1.1e-4
        assert np.all(np.diag(out.entries) == 1.0)


class TestSignals:
    def test_ones(self):
        assert np.array_equal(gen_signal(SignalSpec("ones"), 5).values, np.ones(5))

    def test_sector_tilt(self):
        sect = sector_labels(100, 5)
        mu = gen_signal(SignalSpec("sector_tilt"), 100, sectors=sect)
        assert np.all(mu.values[:20] == 0.04)
        assert np.all(mu.values[20:40] == -0.04)
        assert np.all(mu.values[80:] == 0.0)

    def test_sector_tilt_requires_map(self):
        with pytest.raises(ParameterError):
            gen_signal(SignalSpec("sector_tilt"), 10)

    def test_gaussian_scale(self):
        mu = gen_signal(SignalSpec("gaussian", sigma_mu=0.02, seed=3), 100)
        assert np.std(mu.values) == pytest.approx(0.02, rel=0.2)

    def test_sector_labels_remainder(self):
        labels = sector_labels(11, 3)
        assert len(labels) == 11
        assert np.array_equal(np.unique(labels), [0, 1, 2])


class TestSampling:
    def test_bit_identical_per_seed(self, base100):
        mu = gen_signal(SignalSpec("gaussian", seed=0), 100)
        a = sample_returns(base100, mu, 30, seed=(1, 2))
        b = sample_returns(base100, mu, 30, seed=(1, 2))
        assert np.array_equal(a, b)
        c = sample_returns(base100, mu, 30, seed=(1, 3))
        assert not np.array_equal(a, c)

    def test_ridge_added_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 6))
        bare = sample_cov(x, ridge=0.0).entries
        ridged = sample_cov(x, ridge=1e-3).entries
        assert np.allclose(np.diag(ridged) - np.diag(bare), 1e-3, atol=1e-15)
        assert np.allclose(ridged - np.diag(np.diag(ridged)), bare - np.diag(np.diag(bare)))

    def test_consistency_at_large_t(self):
        spec = RegimeSpec("block_sector", n=8, seed=2)
        sigma = gen_regime(spec)
        mu = gen_signal(SignalSpec("gaussian", seed=2), 8)
        t = 100_000
        x = sample_returns(sigma, mu, t, seed=5)
        hat = sample_cov(x, ridge=0.0).entries
        s = sigma.entries
        se = np.sqrt((np.outer(np.diag(s), np.diag(s)) + s**2) / t)
        assert np.all(np.abs(hat - s) < 3.0 * se + 1e-12)
        assert np.allclose(sample_mean(x).values, mu.values, atol=4 * np.sqrt(np.diag(s).max() / t))

    def test_t_too_small(self, base100):
        mu = gen_signal(SignalSpec("ones"), 100)
        with pytest.raises(ParameterError):
            sample_returns(base100, mu, 1, seed=0)


class TestWorstCase:
    def test_diagonal_covariance_has_no_worst_case(self):
        sigma = CovarianceMatrix(np.diag([0.04, 0.09, 0.01, 0.16]))
        mu, val = worst_case_mu(sigma, restarts=4, seed=0)
        assert val < 1e-12
        assert np.linalg.norm(mu.values) == pytest.approx(1.0, abs=1e-12)

    def test_never_below_best_start(self):
        sigma = gen_regime(RegimeSpec("hedged_tight_blocks", n=30, seed=1))
        rng = np.random.default_rng(7)
        starts = rng.standard_normal((16, 30))
        best_start = max(
            dir_diag(sigma, _unit_signal(x)) for x in starts
        )
        _, val = worst_case_mu(sigma, restarts=16, seed=7)
        assert val >= best_start - 1e-12

    def test_hedged_regime_is_hard(self):
        sigma = gen_regime(RegimeSpec("hedged_tight_blocks", n=60, seed=42))
        mu, val = worst_case_mu(sigma, restarts=8, seed=0)
        assert val >= 0.95


def _unit_signal(x):
    from crisp_alloc import Signal

    return Signal(x / np.linalg.norm(x))
