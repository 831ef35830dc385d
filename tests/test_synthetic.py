import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crisp_alloc
from crisp_alloc import (
    CorrelationMatrix,
    CovarianceMatrix,
    GenerationError,
    InvalidCovarianceError,
    ParameterError,
    RegimeSpec,
    Signal,
    SignalSpec,
    corr_distance,
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
from crisp_alloc import synthetic
from tests.conftest import peak_matrices


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
        cov = gen_regime(RegimeSpec("wide_vol", n=50, seed=7))
        vols = np.sqrt(np.diag(cov.entries))
        assert vols.min() >= 0.05 and vols.max() <= 1.0

    def test_wide_vol_is_not_block_sector(self):
        wide = gen_regime(RegimeSpec("wide_vol", n=50, seed=3)).entries
        block = gen_regime(RegimeSpec("block_sector", n=50, seed=3)).entries
        assert not np.array_equal(wide, block)
        vols = np.sqrt(np.diag(wide))
        assert vols.min() < 0.15 and vols.max() > 0.40
        assert vols.min() >= 0.05 and vols.max() <= 1.0

    @pytest.mark.parametrize(
        "kind", ("block_sector", "factor", "equicorr", "spiked", "hedged_tight_blocks")
    )
    def test_default_vol_range_is_pinned(self, kind):
        assert repr(RegimeSpec(kind)) == f"RegimeSpec(kind='{kind}', n=100, seed=42, sectors=5, k=3, rho=0.6)"
        # every kind but wide_vol draws its volatilities on (0.15, 0.40)
        vols = np.sqrt(np.diag(gen_regime(RegimeSpec(kind, n=200, seed=5)).entries))
        assert 0.15 <= vols.min() < 0.17 and 0.38 < vols.max() <= 0.40

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            RegimeSpec("garch", n=10)

    @pytest.mark.parametrize(
        "kind, field", (("block_sector", "sectors"), ("hedged_tight_blocks", "sectors"), ("factor", "k"))
    )
    @pytest.mark.parametrize("value", (0, -1))
    def test_sectors_and_factors_at_least_one(self, kind, field, value):
        with pytest.raises(ParameterError):
            RegimeSpec(kind, n=10, **{field: value})


class TestPsdFloor:
    def test_pd_input_unchanged(self):
        c = np.eye(5) * 1.0
        c[0, 1] = c[1, 0] = 0.4
        out = psd_floor(c, 1e-4)
        assert np.allclose(out.entries, c, atol=1e-12)

    def test_rejects_an_asymmetric_input(self):
        # eigh reads one triangle: 1e-7 of asymmetry came back as 0.5000001 both sides
        c = np.array([[1.0, 0.5], [0.5 + 1e-7, 1.0]])
        with pytest.raises(InvalidCovarianceError):
            psd_floor(c)

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

    def test_non_positive_definite_covariance(self):
        # symmetric with a positive diagonal, so constructible, but indefinite
        sigma = CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(GenerationError):
            sample_returns(sigma, Signal(np.zeros(2)), 10, seed=0)

    def test_a_seed_sequence_passes_through(self):
        seed = np.random.SeedSequence([7, 8])
        a = sample_returns(_SIGMA4, _MU4, 10, seed)
        assert np.array_equal(a, sample_returns(_SIGMA4, _MU4, 10, [7, 8]))
        assert np.array_equal(a, sample_returns(_SIGMA4, _MU4, 10, (np.int64(7), 8)))

    def test_t_too_small(self, base100):
        mu = gen_signal(SignalSpec("ones"), 100)
        with pytest.raises(ParameterError):
            sample_returns(base100, mu, 1, seed=0)


_KINDS = ("block_sector", "factor", "equicorr", "spiked", "hedged_tight_blocks", "wide_vol")


def _old_corr_to_cov(corr, vols):
    return CovarianceMatrix(corr * np.outer(vols, vols))


class TestFullMatrixBits:
    """The row-chunked and in-place forms against the full-matrix expressions
    they replace: the same bits at every N, one chunk (N <= 300) or several (700)."""

    @pytest.mark.parametrize(
        "kind, n", [(k, n) for k in _KINDS for n in (7, 60, 300)] + [("block_sector", 700)]
    )
    def test_set_up_chain(self, kind, n, monkeypatch):
        spec = RegimeSpec(kind, n=n, seed=n, sectors=min(5, n))
        sigma = gen_regime(spec)
        with monkeypatch.context() as patched:
            patched.setattr(synthetic, "_corr_to_cov", _old_corr_to_cov)
            assert _same_bits(sigma.entries, gen_regime(spec).entries)

        mu = gen_signal(SignalSpec("gaussian", seed=n), n)
        x = sample_returns(sigma, mu, 2 * n, seed=n)
        z = np.random.default_rng(np.random.SeedSequence(n)).standard_normal((2 * n, n))
        assert _same_bits(x, mu.values + z @ np.linalg.cholesky(sigma.entries).T)

        ridge = 1e-4 * n
        cov = sample_cov(x, ridge)
        assert _same_bits(cov.entries, np.cov(x, rowvar=False, ddof=1) + ridge * np.eye(n))

        corr = to_correlation(cov)
        inv_vol = 1.0 / np.sqrt(np.diag(cov.entries))
        want = CorrelationMatrix(cov.entries * np.outer(inv_vol, inv_vol)).entries
        assert _same_bits(corr.entries, want)

        d = np.sqrt(0.5 * (1.0 - corr.entries))
        np.fill_diagonal(d, 0.0)
        assert _same_bits(corr_distance(corr), d)

    @pytest.mark.parametrize("n", (7, 700))
    def test_a_near_symmetric_input_is_averaged(self, n):
        rng = np.random.default_rng(n)
        m = gen_regime(RegimeSpec("block_sector", n=n, seed=n)).entries.copy()
        m += np.triu(rng.uniform(-1e-14, 1e-14, (n, n)), 1) * m.max()
        assert not np.array_equal(m, m.T)
        assert _same_bits(CovarianceMatrix(m).entries, (m + m.T) * 0.5)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWorkingMatrices:
    """Each N x N constructor, generator and sampler holds its result and at
    most one other full-size array (row chunks aside), at N = 1000, in N x N
    double matrices."""

    N = 1000

    @pytest.fixture(scope="class")
    def book(self):
        sigma = gen_regime(RegimeSpec("block_sector", n=self.N, seed=0))
        returns = sample_returns(sigma, Signal(np.zeros(self.N)), 2 * self.N, seed=1)
        return sigma, returns

    @pytest.mark.parametrize(
        "kind, bound",
        [("block_sector", 2.5), ("equicorr", 2.5), ("wide_vol", 2.5),
         ("factor", 3.5), ("spiked", 6.5), ("hedged_tight_blocks", 6.1)],
    )
    def test_gen_regime(self, kind, bound):
        spec = RegimeSpec(kind, n=self.N, seed=0)
        assert peak_matrices(lambda: gen_regime(spec), self.N) < bound

    def test_covariance_matrix(self, book):
        entries = book[0].entries
        assert peak_matrices(lambda: CovarianceMatrix(entries), self.N) < 1.5

    def test_to_correlation(self, book):
        assert peak_matrices(lambda: to_correlation(book[0]), self.N) < 2.5

    def test_corr_distance(self, book):
        corr = to_correlation(book[0])
        assert peak_matrices(lambda: corr_distance(corr), self.N) < 1.5

    def test_sample_returns(self, book):
        sigma, zero = book[0], Signal(np.zeros(self.N))
        assert peak_matrices(lambda: sample_returns(sigma, zero, 2 * self.N, seed=1), self.N) < 5.5

    def test_sample_cov(self, book):
        # np.cov's centred copy of the T = 2N returns and its product
        assert peak_matrices(lambda: sample_cov(book[1]), self.N) < 3.5


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

    def test_package_import_leaves_scipy_optimize_out(self):
        # worst_case_mu imports scipy.optimize when called, and build_tree's
        # first tie-free tree scipy.cluster (which imports scipy.spatial)
        code = (
            "import sys, crisp_alloc; "
            "print([m for m in ('scipy.optimize', 'scipy.spatial', 'scipy.cluster') "
            "if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(crisp_alloc.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "[]\n"


def _unit_signal(x):
    from crisp_alloc import Signal

    return Signal(x / np.linalg.norm(x))


_SIGMA4 = CovarianceMatrix(np.diag([0.04, 0.09, 0.01, 0.16]))
_MU4 = Signal([0.01, -0.02, 0.03, 0.0])


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: RegimeSpec("block_sector", n=1), ParameterError,
                     "regimes need at least two assets", id="n-1"),
        pytest.param(lambda: RegimeSpec("block_sector", n=10.5), ParameterError,
                     "regimes need at least two assets", id="n-float"),
        pytest.param(lambda: RegimeSpec("block_sector", sectors=2.5), ParameterError,
                     "sectors and k must be at least 1", id="sectors-float"),
        pytest.param(lambda: RegimeSpec("factor", k=True), ParameterError,
                     "sectors and k must be at least 1", id="k-bool"),
        pytest.param(lambda: SignalSpec("uniform"), ParameterError,
                     "unknown signal kind 'uniform'", id="signal-kind"),
        pytest.param(lambda: gen_signal(SignalSpec("worst_case"), 4), ParameterError,
                     "worst_case needs the covariance", id="worst-case-without-sigma"),
        # counts take the count rule: sector maps need n and sectors of at least 1,
        # signals at least one asset, and a sector tilt one tilt per sector id
        *(
            pytest.param(lambda n=n, k=k: sector_labels(n, k), ParameterError,
                         "sector labels need n and sectors of at least 1", id=label)
            for label, n, k in (
                ("labels-sectors-0", 10, 0),
                ("labels-sectors-negative", 10, -2),
                ("labels-n-0", 0, 3),
                ("labels-n-float", 10.0, 2),
                ("labels-n-bool", True, 1),
            )
        ),
        pytest.param(lambda: gen_signal(SignalSpec("ones"), -3), ParameterError,
                     "signals need at least one asset", id="signal-n-negative"),
        pytest.param(lambda: gen_signal(SignalSpec("gaussian"), 2.5), ParameterError,
                     "signals need at least one asset", id="signal-n-float"),
        pytest.param(lambda: gen_signal(SignalSpec("sector_tilt"), 10, sectors=sector_labels(3, 3)),
                     ParameterError, "sector_tilt needs a sector map of 10 entries, got 3",
                     id="tilt-map-length"),
        # a covariance given to any kind takes the pairing rule: it has n assets
        *(
            pytest.param(lambda kind=kind: gen_signal(SignalSpec(kind, restarts=1), 10, sigma=_SIGMA4),
                         ParameterError, "signal length does not match covariance size",
                         id=f"{kind}-sigma-size")
            for kind in ("worst_case", "gaussian")
        ),
        pytest.param(lambda: worst_case_mu(_SIGMA4, restarts=0), ParameterError,
                     "needs at least one restart", id="restarts-0"),
        pytest.param(lambda: worst_case_mu(_SIGMA4, restarts=2.5), ParameterError,
                     "needs at least one restart", id="restarts-float"),
        pytest.param(lambda: sample_returns(_SIGMA4, _MU4, 2.5, 0), ParameterError,
                     "need at least two observations", id="t-float"),
        pytest.param(lambda: sample_returns(_SIGMA4, Signal([0.01, 0.02]), 10, 0), ParameterError,
                     "signal length does not match covariance size", id="pairing"),
        pytest.param(lambda: sample_cov(np.ones(5)), ParameterError,
                     "samples must be a T x N array with T >= 2", id="cov-vector"),
        pytest.param(lambda: sample_cov(np.eye(3), ridge=-1e-4), ParameterError,
                     "ridge must be nonnegative", id="ridge"),
        # a ridge that is not a finite number is a bad ridge, not a bad covariance
        *(
            pytest.param(lambda bad=bad: sample_cov(np.eye(3), ridge=bad), ParameterError,
                         "ridge must be nonnegative and finite", id=f"ridge-{bad}")
            for bad in (np.nan, np.inf)
        ),
        pytest.param(lambda: sample_mean(np.ones(5)), ParameterError,
                     "samples must be a T x N array", id="mean-vector"),
        # seeds take the count rule: an int, or each entry of a sequence, at least 0
        *(
            pytest.param(call, ParameterError, f"seeds must be whole numbers of at least 0, got {bad!r}",
                         id=label)
            for label, bad, call in (
                ("seed-negative", -1, lambda: gen_regime(RegimeSpec("block_sector", n=4, seed=-1))),
                ("seed-float", 1.0, lambda: gen_signal(SignalSpec("gaussian", seed=1.0), 4)),
                ("seed-bool", True, lambda: worst_case_mu(_SIGMA4, restarts=1, seed=True)),
                ("seed-sequence", [3, -2], lambda: sample_returns(_SIGMA4, _MU4, 10, [3, -2])),
            )
        ),
    ],
)
def test_rejected_input(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
