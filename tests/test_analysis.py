import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from crisp_alloc import (
    AdaptiveInputs,
    CovarianceMatrix,
    DegenerateInputError,
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
        """Copies of the arrays handed to cho_factor, made as they are handed
        over (a factor made in place writes over its input); a dense solve
        fails the test."""
        factored = []
        real = scipy.linalg.cho_factor

        def counting(a, *args, **kwargs):
            factored.append(np.array(a))
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
        # P_gamma, column j rolled up by j; gamma = 0 builds no band
        swept = []
        real = solver._band_sweeps

        def recording(m, d, band):
            def recorded():
                b = band()
                head = b[:, : m.size]
                swept.append(np.stack([np.roll(col, j) for j, col in enumerate(head.T)], 1))
                return b

            return real(m, d, recorded)

        monkeypatch.setattr(solver, "_band_sweeps", recording)
        sigma, mu = random_spd(30, 6), _rand_mu(30, 6)
        gammas = np.array([0.0, 0.25, 0.5, 1.0])
        trajectory(sigma, mu, gammas, p=3)
        assert len(factored) == 1 + 3
        assert np.array_equal(factored[0], sigma.entries)
        for g, a in zip(gammas[1:], factored[1:]):
            assert np.array_equal(a, shrink(sigma, g).entries)
        assert len(swept) == 3
        assert all(np.array_equal(a, shrink(sigma, g).entries) for g, a in zip(gammas[1:], swept))

    def test_trajectory_reuses_one_buffer_and_one_band(self, monkeypatch):
        # every P_gamma is factored in one buffer, and every band the sweep
        # reads is the first one refilled; gamma = 0 builds none
        factored, bands, built = [], [], []
        real_factor, real_sweeps, real_band = scipy.linalg.cho_factor, solver._band_sweeps, solver._band

        def factoring(a, *args, **kwargs):
            factored.append(a)
            return real_factor(a, *args, **kwargs)

        def recording(m, d, band):
            def recorded():
                bands.append(band())
                return bands[-1]

            return real_sweeps(m, d, recorded)

        def building(*args):
            built.append(args[1])
            return real_band(*args)

        monkeypatch.setattr(scipy.linalg, "cho_factor", factoring)
        monkeypatch.setattr(solver, "_band_sweeps", recording)
        monkeypatch.setattr(solver, "_band", building)
        sigma, mu = random_spd(30, 7), _rand_mu(30, 7)
        gammas = [0.5, 0.0, 1.0, 0.25, 0.0, 0.5]
        trajectory(sigma, mu, np.array(gammas), p=3)
        assert built == [g for g in gammas if g]
        assert len(bands) == 4
        assert all(np.shares_memory(b, bands[0]) for b in bands[1:])
        assert len(factored) == 1 + 4  # Sigma's own, then P_gamma's
        assert all(np.shares_memory(a, factored[1]) for a in factored[2:])
        assert not np.shares_memory(factored[0], factored[1])

    def test_a_trajectory_point_holds_two_working_matrices(self):
        # one P_gamma buffer, factored in place, and one band the sweep reads
        # (one sweep a band at this N) are the only N x N arrays, however
        # many points the grid has: neither is formed twice over
        n = 1000
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=5))
        mu = _rand_mu(n, 5)
        grid = np.array([0.0, 0.5, 1.0])
        assert peak_matrices(lambda: trajectory(sigma, mu, grid, p=3), n) < 2.5


def per_point_trajectory(sigma, mu, gammas, p):
    """``trajectory`` as a loop of independent points: at every gamma a fresh
    P_gamma and its own factor (P_0 is the diagonal), and the dense solver's
    sweeps on a fresh band read to sweep p, gamma = 0 included. Kept as the
    bit-level oracle; gives each point's fields as a row."""
    w_star = markowitz_direct(sigma, mu).values
    rows = []
    for g in np.asarray(gammas, dtype=float).tolist():
        if g:
            p_gamma = sigma.entries.copy()
            d = np.diag(p_gamma).copy()
            p_gamma *= g
            np.fill_diagonal(p_gamma, d)
            factor = scipy.linalg.cho_factor(p_gamma, lower=True, check_finite=False)
            exact = scipy.linalg.cho_solve(factor, mu.values, check_finite=False)
        else:
            exact = mu.values / np.diag(sigma.entries)
        iterates = solver._dense_sweeps(sigma, mu, g, None, p)[0]
        iterate = solver._drive(iterates, mu.values, p).weights.values
        rows.append((g, dir_error(exact, w_star), dir_error(iterate, w_star), dir_error(iterate, exact)))
    return np.array(rows)


class TestTrajectory:
    @pytest.mark.parametrize("n", (1, 2, 30, 200, 363, 400))
    @pytest.mark.parametrize("kind", ("equicorr", "block_sector", "hedged_tight_blocks", "spiked"))
    def test_the_per_point_loop_bit_for_bit(self, kind, n):
        # one buffer and one band for the call give each point's bits, sign
        # bits included, on grids with gamma = 0 first, last, repeated and
        # out of order, and a signal with zero entries of either sign; p on
        # either side of K, the sweeps one band takes
        try:
            sigma = gen_regime(RegimeSpec(kind, n=n, seed=n))
        except ParameterError:  # fewer assets than the regime takes
            sigma = random_spd(n, n)
        values = _rand_mu(n, n).values.copy()
        values[1::3], values[2::3] = 0.0, -0.0
        mu = Signal(values)
        k = min(solver._BAND_SWEEPS, max(1, solver._CHUNK_BYTES // (8 * n * n)))
        grids = ([0.0, 0.4, 1.0], [1.0, 0.6, 0.0], [0.5, 0.0, 0.5, 0.0], [0.9, 0.0, 0.2, 1.0, 0.2])
        for i, p in enumerate(sorted({1, k - 1, k, k + 1, 200} - {0})):
            grid = grids[i % len(grids)]
            points = trajectory(sigma, mu, np.array(grid), p=p)
            got = np.array([(t.gamma, t.dir_exact, t.dir_finite_sweep, t.dir_slack) for t in points])
            assert got.tobytes() == per_point_trajectory(sigma, mu, grid, p).tobytes(), (p, grid)

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
        *(
            pytest.param(lambda k=k: AdaptiveInputs(k, 0.05, 10, 10, 0.0), ParameterError,
                         "kappa_c must be at least 1 and finite", id=f"adaptive-kappa-{k}")
            for k in (0.5, np.nan, np.inf)
        ),
        *(
            pytest.param(lambda c=c: AdaptiveInputs(2.0, 0.05, 10, 10, c), ParameterError,
                         "calibration constant must be nonnegative and finite", id=f"adaptive-c-{c}")
            for c in (np.nan, np.inf)
        ),
        pytest.param(lambda: perturbation_residual(_SIGMA4, Signal(np.zeros(4)), 0.5),
                     DegenerateInputError, "mu is the zero vector", id="residual-zero-mu"),
        pytest.param(lambda: dir_bound_factors(_SIGMA4, Signal(np.zeros(4)), 0.5),
                     DegenerateInputError, "mu is the zero vector", id="bound-zero-mu"),
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
        pytest.param(lambda: trajectory(_SIGMA4, _MU4, np.array([[0.1, 0.2]])), ParameterError,
                     "gammas must be a 1-D grid, got 2 dimensions", id="grid-2d"),
        pytest.param(lambda: trajectory(_SIGMA4, _MU4, np.array(0.5)), ParameterError,
                     "gammas must be a 1-D grid, got 0 dimensions", id="grid-0d"),
        pytest.param(lambda: kappa_eff([1.0, 0.0, 3.0], 0.5), ParameterError,
                     "correlation eigenvalues must be strictly positive", id="eigenvalue"),
        *(
            pytest.param(lambda fn=fn, eigs=eigs: fn(eigs, 0.5), ParameterError,
                         "correlation eigenvalues must be strictly positive and finite (at least one)",
                         id=f"eigenvalue-{fn.__name__}-{name}")
            for fn in (kappa_eff, kappa_eff_linearized, shrinkage_kl)
            for name, eigs in (("nan", [1.0, np.nan, 3.0]), ("inf", [1.0, np.inf]), ("empty", []))
        ),
    ],
)
def test_rejected_input(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
