import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from crisp_alloc import (
    AdaptiveInputs,
    CovarianceMatrix,
    ParameterError,
    RegimeSpec,
    Signal,
    SignalSpec,
    dir_bound_factors,
    dir_error,
    gamma_star,
    gen_regime,
    gen_signal,
    kappa_eff,
    kappa_eff_linearized,
    markowitz_direct,
    nonmonotone_instance,
    perturbation_residual,
    shrink,
    shrinkage_kl,
    to_correlation,
    trajectory,
)
from crisp_alloc import analysis, solver
from tests.conftest import peak_matrices, random_spd


def _rand_mu(n, seed):
    return Signal(np.random.default_rng(seed).normal(0.0, 0.02, n))


class TestPerturbationIdentity:
    def test_residual_vanishes(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            sigma = random_spd(8, seed)
            mu = _rand_mu(8, seed)
            gamma = float(rng.uniform(0.0, 1.0))
            assert perturbation_residual(sigma, mu, gamma) < 1e-10

    def test_gamma_one_zero_error(self):
        sigma = random_spd(8, 3)
        mu = _rand_mu(8, 3)
        assert perturbation_residual(sigma, mu, 1.0) < 1e-12


class TestDirBound:
    def test_eigenvector_target_zeroes_geometry(self):
        # w* on an invariant ray (eigenvector of D^-1 P_gamma) gives G = 0
        sigma = random_spd(7, 5)
        corr = to_correlation(sigma)
        _, vecs = np.linalg.eigh(corr.entries)
        w_star = vecs[:, 2] / np.sqrt(np.diag(sigma.entries))
        mu = Signal(sigma.entries @ w_star)
        for gamma in (0.2, 0.6):
            bound, g_factor = dir_bound_factors(sigma, mu, gamma)
            assert g_factor < 1e-12
            assert bound < 1e-12

    def test_invariant_ray_inside_bound(self):
        sigma = random_spd(6, 8)
        corr = to_correlation(sigma)
        _, vecs = np.linalg.eigh(corr.entries)
        mu = Signal(np.sqrt(np.diag(sigma.entries)) * vecs[:, 1])
        for gamma in (0.0, 0.5, 0.9):
            w_hat = np.linalg.solve(shrink(sigma, gamma).entries, mu.values)
            d = dir_error(w_hat, markowitz_direct(sigma, mu).values)
            bound, _ = dir_bound_factors(sigma, mu, gamma)
            assert d <= bound + 1e-15

    def test_bound_dominates_direction_error(self):
        rng = np.random.default_rng(1)
        for seed in range(50):
            sigma = random_spd(6, seed)
            mu = _rand_mu(6, seed + 500)
            gamma = float(rng.uniform(0.0, 0.99))
            w_hat = np.linalg.solve(shrink(sigma, gamma).entries, mu.values)
            d = dir_error(w_hat, markowitz_direct(sigma, mu).values)
            bound, g_factor = dir_bound_factors(sigma, mu, gamma)
            assert 0.0 <= g_factor <= 1.0
            assert d <= bound * (1 + 1e-9) + 1e-15

    def test_gamma_one_rejected(self):
        sigma = random_spd(4, 2)
        with pytest.raises(ParameterError):
            dir_bound_factors(sigma, _rand_mu(4, 2), 1.0)


class TestOneFactorization:
    @pytest.fixture
    def factored(self, monkeypatch):
        """The arrays handed to cho_factor; a dense solve fails the test."""
        factored = []
        real = scipy.linalg.cho_factor

        def counting(a, *args, **kwargs):
            factored.append(a)
            return real(a, *args, **kwargs)

        def no_dense_solve(*args, **kwargs):
            raise AssertionError("dense solve")

        monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
        monkeypatch.setattr(scipy.linalg, "solve", no_dense_solve)
        return factored

    @pytest.mark.parametrize("gamma", (0.0, 0.5))
    @pytest.mark.parametrize("fn", (perturbation_residual, dir_bound_factors))
    def test_p_gamma_factored_once(self, factored, fn, gamma):
        # Sigma's own factorization (markowitz_direct) plus one of P_gamma,
        # shared by w(gamma) and the P_gamma^-1 E solve; both in canonical
        # units, Sigma times the power of two that puts its largest variance
        # in [0.5, 1)
        sigma, mu = random_spd(50, 4), _rand_mu(50, 4)
        fn(sigma, mu, gamma)
        e = int(np.frexp(np.diag(sigma.entries).max())[1])
        canonical = CovarianceMatrix(np.ldexp(sigma.entries, -e))
        assert len(factored) == 2
        assert sum(np.array_equal(a, shrink(canonical, gamma).entries) for a in factored) == 1

    def test_trajectory_factors_p_gamma_once_per_point(self, factored, monkeypatch):
        # Sigma's factorization plus one of P_gamma per gamma > 0 (P_0 is the
        # diagonal), and the sweep reads a band whose first block is that
        # P_gamma, column j rolled up by j
        swept = []
        real = solver._band_sweeps

        def recording(m, d, band):
            b = band()
            head = b[:, : m.size]
            swept.append(np.stack([np.roll(col, j) for j, col in enumerate(head.T)], 1))
            return real(m, d, lambda: b)

        monkeypatch.setattr(solver, "_band_sweeps", recording)
        sigma, mu = random_spd(30, 6), _rand_mu(30, 6)
        gammas = np.array([0.0, 0.25, 0.5, 1.0])
        trajectory(sigma, mu, gammas, p=3)
        assert len(factored) == 1 + 3
        assert np.array_equal(factored[0], sigma.entries)
        for g, a in zip(gammas[1:], factored[1:]):
            assert np.array_equal(a, shrink(sigma, g).entries)
        assert all(np.array_equal(a, shrink(sigma, g).entries) for g, a in zip(gammas, swept))

    def test_a_trajectory_point_holds_two_working_matrices(self):
        # P_gamma's factor and the band the sweep reads (one sweep a band at
        # this N) are the only N x N arrays: P_gamma is not formed twice over
        n = 1000
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=5))
        mu = _rand_mu(n, 5)
        assert peak_matrices(lambda: trajectory(sigma, mu, np.array([0.5]), p=3), n) < 2.5


class TestTrajectory:
    def test_nonmonotone_reference_instance(self):
        sigma, mu = nonmonotone_instance()
        pts = trajectory(sigma, mu, np.array([0.0, 0.3, 0.5, 1.0]), p=200)
        d0 = pts[0].dir_exact
        assert d0 == pytest.approx(0.242, abs=0.02)
        assert max(p.dir_exact for p in pts) > d0  # interior bump
        assert pts[-1].dir_exact < 1e-10
        assert pts[0].dir_slack == 0.0

    def test_invariant_ray_is_flat_zero(self):
        sigma = random_spd(6, 4)
        corr = to_correlation(sigma)
        _, vecs = np.linalg.eigh(corr.entries)
        mu = Signal(np.sqrt(np.diag(sigma.entries)) * vecs[:, 3])
        pts = trajectory(sigma, mu, p=50)
        assert len(pts) == 21  # default grid
        for p in pts:
            assert p.dir_exact < 1e-10

    @pytest.mark.slow
    def test_finite_sweep_minimum_shifts_right(self):
        sigma = gen_regime(RegimeSpec("equicorr", n=150, rho=0.9, seed=42))
        mu = gen_signal(SignalSpec("gaussian", seed=3), 150)
        grid = np.linspace(0.0, 1.0, 11)
        argmin = {}
        for p in (200, 2000):
            pts = trajectory(sigma, mu, grid, p=p)
            dirs = [t.dir_finite_sweep for t in pts]
            argmin[p] = grid[int(np.argmin(dirs))]
        assert argmin[2000] > argmin[200]


class TestGammaStar:
    def test_no_conditioning_difficulty(self):
        inp = AdaptiveInputs(kappa_c=1.0, ic=0.05, n=100, t=120, c=0.0)
        assert gamma_star(inp) == 1.0

    def test_limits(self):
        weak = AdaptiveInputs(kappa_c=10.0, ic=1e-6, n=100, t=120, c=1.0)
        assert gamma_star(weak) < 1e-6
        long_history = AdaptiveInputs(kappa_c=10.0, ic=0.05, n=100, t=10**9, c=1.0)
        assert gamma_star(long_history) > 0.99

    @settings(deadline=None, max_examples=80)
    @given(
        st.floats(1.0, 500.0),
        st.floats(0.01, 1.0),
        st.integers(2, 2000),
        st.integers(2, 5000),
        st.floats(1e-6, 10.0),
    )
    def test_monotonicity(self, kappa_c, ic, n, t, c):
        base = gamma_star(AdaptiveInputs(kappa_c, ic, n, t, c))
        assert gamma_star(AdaptiveInputs(kappa_c, ic, n, 2 * t, c)) > base
        assert gamma_star(AdaptiveInputs(kappa_c, min(1.0, 2 * ic), n, t, c)) >= base
        assert gamma_star(AdaptiveInputs(2 * kappa_c, ic, n, t, c)) < base
        assert gamma_star(AdaptiveInputs(kappa_c, ic, 2 * n, t, c)) < base

    def test_validation(self):
        with pytest.raises(ParameterError):
            AdaptiveInputs(kappa_c=0.5, ic=0.05, n=10, t=10, c=1.0)
        with pytest.raises(ParameterError):
            AdaptiveInputs(kappa_c=2.0, ic=0.0, n=10, t=10, c=1.0)


class TestKappaEff:
    def test_gamma_zero(self):
        eigs = [0.4, 1.0, 24.4]
        assert kappa_eff(eigs, 0.0) == 1.0
        assert kappa_eff_linearized(eigs, 0.0) == 1.0

    def test_equicorrelation_slope_factor(self):
        n, rho = 50, 0.6
        eigs = np.array([1 - rho] * (n - 1) + [1 + (n - 1) * rho])
        kc = eigs.max() / eigs.min()
        lin = kappa_eff_linearized(eigs, 0.01)
        assert lin == pytest.approx(1.0 + 2 * 0.01 * (1 - rho) * (kc - 1.0), rel=1e-12)

    def test_linearization_error_is_quadratic(self):
        eigs = [0.4, 0.9, 1.4, 24.4]

        def err(g):
            return abs(kappa_eff(eigs, g) ** 2 - kappa_eff_linearized(eigs, g))

        # Richardson: halving gamma cuts the error by about four
        ratio = err(0.02) / err(0.01)
        assert ratio == pytest.approx(4.0, abs=0.8)


class TestShrinkageKl:
    def test_gamma_one_is_zero(self):
        assert shrinkage_kl([0.4, 1.0, 24.4], 1.0) == 0.0

    def test_gamma_zero_is_log_det(self):
        eigs = np.exp(np.random.default_rng(2).uniform(-1.0, 1.0, 12))
        eigs *= eigs.size / eigs.sum()  # unit trace average, like a correlation
        got = shrinkage_kl(eigs, 0.0)
        expect = 0.5 * (eigs.sum() - eigs.size - np.log(eigs).sum())
        assert got == pytest.approx(expect, rel=1e-12)

    def test_base_universe_information(self):
        eigs = [24.4] + [9.4] * 4 + [0.4] * 95
        assert shrinkage_kl(eigs, 0.0) == pytest.approx(37.4, abs=0.1)

    def test_monotone_nonincreasing(self):
        eigs = [24.4] + [9.4] * 4 + [0.4] * 95
        vals = [shrinkage_kl(eigs, g) for g in np.linspace(0, 1, 21)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestPreconditionedMonotonicity:
    def test_kappa_eff_monotone_in_gamma(self):
        sigma = random_spd(10, 12)
        eigs = to_correlation(sigma).eigenvalues
        vals = [kappa_eff(eigs, g) for g in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_dir_bound_is_zero_when_the_off_diagonal_is():
    # E = 0 makes P_gamma^-1 E w* the zero vector: no angle, no bound
    sigma = CovarianceMatrix(np.diag([0.04, 0.09, 0.01]))
    assert dir_bound_factors(sigma, Signal([0.01, -0.02, 0.03]), 0.5) == (0.0, 0.0)


@pytest.mark.parametrize("kind", ("equicorr", "block_sector", "hedged_tight_blocks", "spiked"))
def test_identities_at_any_scale(kind):
    # both are ratios that rescaling Sigma or mu leaves as they are; in
    # canonical units 2^a Sigma and 2^b mu give the same bits, also where
    # the input-unit solves under- or overflowed
    sigma = gen_regime(RegimeSpec(kind, n=30, seed=2))
    mu = gen_signal(SignalSpec("gaussian", seed=2), 30)
    for gamma in (0.0, 0.5, 0.9):
        base = perturbation_residual(sigma, mu, gamma), dir_bound_factors(sigma, mu, gamma)
        for a, b in ((0, -600), (0, 600), (-600, 0), (600, 0), (-300, 300), (600, -600), (-1000, 0)):
            s, m = CovarianceMatrix(np.ldexp(sigma.entries, a)), Signal(np.ldexp(mu.values, b))
            got = perturbation_residual(s, m, gamma), dir_bound_factors(s, m, gamma)
            assert got == base, (gamma, a, b)


_SIGMA4, _MU4 = nonmonotone_instance()


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: AdaptiveInputs(1.0, 0.05, 0, 10, 0.0), ParameterError,
                     "n and t must be positive", id="adaptive-n"),
        *(
            pytest.param(lambda n=n, t=t: AdaptiveInputs(1.0, 0.05, n, t, 0.0), ParameterError,
                         "n and t must be positive whole numbers", id=f"adaptive-n{n}-t{t}")
            for n, t in ((-3, 10), (2.5, 10), (True, 10), (10, 0), (10, -3), (10, 2.5), (10, True),
                         (10.5, True))
        ),
        pytest.param(lambda: AdaptiveInputs(1.0, 0.05, 10, 10, -1.0), ParameterError,
                     "calibration constant must be nonnegative", id="adaptive-c"),
        pytest.param(lambda: analysis.default_gamma_grid(1), ParameterError,
                     "grid needs at least the two endpoints", id="grid-1"),
        pytest.param(lambda: analysis.default_gamma_grid(2.5), ParameterError,
                     "grid needs at least the two endpoints", id="grid-float"),
        pytest.param(lambda: trajectory(_SIGMA4, _MU4, p=0), ParameterError,
                     "p must be at least 1", id="sweeps-0"),
        pytest.param(lambda: trajectory(_SIGMA4, _MU4, p=2.5), ParameterError,
                     "p must be at least 1", id="sweeps-float"),
        pytest.param(lambda: trajectory(_SIGMA4, _MU4, p=True), ParameterError,
                     "p must be at least 1", id="sweeps-bool"),
        pytest.param(lambda: kappa_eff([1.0, 0.0, 3.0], 0.5), ParameterError,
                     "correlation eigenvalues must be strictly positive", id="eigenvalue"),
    ],
)
def test_rejected_input(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
