import tracemalloc

import numpy as np
import pytest

from crisp_alloc import (
    ConstraintSet,
    CovarianceMatrix,
    FactorModel,
    InfeasibleConstraintsError,
    ParameterError,
    RegimeSpec,
    Signal,
    SignalSpec,
    build_tree,
    crisp_projected,
    crisp_solve,
    crisp_solve_stream,
    dir_error,
    gen_regime,
    gen_signal,
    kappa_eff,
    long_only_budget,
    markowitz_direct,
    sector_labels,
    shrink,
    sweeps_to_tolerance,
    to_correlation,
)
from crisp_alloc.solver import _project_general
from tests.conftest import random_spd


def _rand_mu(n, seed):
    return Signal(np.random.default_rng(seed).normal(0.0, 0.02, n))


def reference_sweeps(sigma, mu, gamma, ordering=None):
    """The per-coordinate Gauss-Seidel loop the triangular-splitting kernel
    replaced: each w_i is updated in turn from its row of Sigma, in visiting
    order. Kept as the oracle; yields the iterate (original order) and the
    dense residual P_gamma w - mu after every sweep."""
    s = sigma.entries
    d = np.diag(s).copy()
    m = mu.values
    perm = np.arange(sigma.n) if ordering is None else np.asarray(ordering)
    s, d, m = s[np.ix_(perm, perm)], d[perm], m[perm]
    w = m / d
    while True:
        for i in range(sigma.n):
            off = s[i] @ w - d[i] * w[i]
            w[i] = (m[i] - gamma * off) / d[i]
        out = np.empty_like(w)
        out[perm] = w
        yield out, gamma * (s @ w) + (1.0 - gamma) * d * w - m


def reference_sweep_count(sigma, mu, gamma, tol, cap=50000):
    for sweeps, (_, resid) in enumerate(reference_sweeps(sigma, mu, gamma), 1):
        if float(np.linalg.norm(resid)) < tol or sweeps == cap:
            return sweeps


class TestCrispSolve:
    def test_gamma_zero_shortcut(self):
        sigma = random_spd(6, 0)
        mu = _rand_mu(6, 0)
        rep = crisp_solve(sigma, mu, 0.0)
        assert rep.sweeps_used == 0
        assert rep.converged
        assert np.array_equal(rep.weights.values, mu.values / np.diag(sigma.entries))

    def test_diagonal_one_sweep(self):
        sigma = CovarianceMatrix(np.diag([0.1, 0.2, 0.4]))
        mu = Signal([0.01, -0.02, 0.03])
        rep = crisp_solve(sigma, mu, 0.9)
        assert rep.sweeps_used == 1
        assert np.allclose(rep.weights.values, mu.values / np.diag(sigma.entries), atol=1e-15)

    def test_converges_to_direct_solution(self):
        for seed in range(5):
            sigma = random_spd(20, seed)
            mu = _rand_mu(20, seed)
            rep = crisp_solve(sigma, mu, 1.0, p_max=20000, eps=1e-13)
            target = markowitz_direct(sigma, mu).values
            assert rep.converged
            assert dir_error(rep.weights.values, target) < 1e-8

    def test_unconditional_convergence(self):
        # residual driven below 1e-8 within a cap scaled by the conditioning
        for seed in range(100):
            sigma = random_spd(8, seed)
            mu = _rand_mu(8, seed + 1000)
            for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                cap = int(200 + 40 * kappa_eff(to_correlation(sigma).eigenvalues, gamma))
                diag = sweeps_to_tolerance(sigma, mu, gamma, 1e-8, cap=cap)
                assert diag.converged

    def test_fixed_point_residual(self):
        sigma = random_spd(15, 3)
        mu = _rand_mu(15, 3)
        eps = 1e-10
        rep = crisp_solve(sigma, mu, 0.6, p_max=10000, eps=eps)
        p = shrink(sigma, 0.6).entries
        resid = np.linalg.norm(p @ rep.weights.values - mu.values) / np.linalg.norm(mu.values)
        assert rep.converged
        assert resid <= 10 * eps

    def test_jacobi_spectral_radius(self):
        sigma = random_spd(12, 9)
        corr_eigs = to_correlation(sigma).eigenvalues
        d = np.diag(sigma.entries)
        e = sigma.entries - np.diag(d)
        for gamma in (0.3, 0.7, 1.0):
            m = -gamma * (e / d[:, None])
            rho = np.abs(np.linalg.eigvals(m)).max()
            expect = gamma * max(corr_eigs[-1] - 1.0, 1.0 - corr_eigs[0])
            assert rho == pytest.approx(expect, rel=1e-8)

    def test_ordering_independence_of_limit(self):
        sigma = random_spd(18, 4)
        mu = _rand_mu(18, 4)
        tree = build_tree(to_correlation(sigma), "ward")
        r1 = crisp_solve(sigma, mu, 0.8, p_max=20000, eps=1e-13)
        r2 = crisp_solve(sigma, mu, 0.8, p_max=20000, eps=1e-13, ordering=tree.leaf_order)
        assert dir_error(r1.weights.values, r2.weights.values) < 1e-10

    def test_report_invariants(self):
        sigma = random_spd(10, 7)
        mu = _rand_mu(10, 7)
        rep = crisp_solve(sigma, mu, 1.0, p_max=3, eps=1e-14)
        assert rep.sweeps_used <= 3
        assert rep.converged == (rep.final_rel_change <= 1e-14)

    def test_parameter_errors(self):
        sigma = random_spd(4, 1)
        mu = _rand_mu(4, 1)
        with pytest.raises(ParameterError):
            crisp_solve(sigma, mu, 1.2)
        with pytest.raises(ParameterError):
            crisp_solve(sigma, mu, 0.5, p_max=0)
        with pytest.raises(ParameterError):
            crisp_solve(sigma, mu, 0.5, eps=0.0)
        with pytest.raises(ParameterError):
            crisp_solve(sigma, mu, 0.5, ordering=[0, 0, 1, 2])


class TestAgainstScalarLoop:
    @pytest.mark.parametrize("n", (2, 3, 50, 200))
    @pytest.mark.parametrize("regime", ("block_sector", "equicorr", "hedged_tight_blocks"))
    def test_same_iterates(self, regime, n):
        sigma = gen_regime(RegimeSpec(regime, n=n, sectors=min(n, 5), seed=n))
        mu = _rand_mu(n, n)
        leaf_order = build_tree(to_correlation(sigma), "ward").leaf_order
        for gamma in (0.3, 0.5, 1.0):
            for ordering in (None, leaf_order):
                ref = reference_sweeps(sigma, mu, gamma, ordering)
                want = {p: next(ref)[0] for p in range(1, 101)}
                for p in (1, 5, 100):
                    rep = crisp_solve(sigma, mu, gamma, p_max=p, eps=1e-300, ordering=ordering)
                    got = rep.weights.values
                    dev = np.abs(got - want[p]).max() / np.abs(want[p]).max()
                    assert dev < 1e-12, (gamma, ordering is not None, p)

    @pytest.mark.parametrize(
        "spec",
        (RegimeSpec("block_sector", n=100, seed=1), RegimeSpec("equicorr", n=30, rho=0.6, seed=1)),
        ids=("block_sector", "equicorr"),
    )
    def test_same_sweep_counts_on_the_sweep_rate_grid(self, spec):
        sigma = gen_regime(spec)
        for gamma in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0):
            for k in range(5):
                mu = gen_signal(SignalSpec("gaussian", seed=100 + k), spec.n)
                diag = sweeps_to_tolerance(sigma, mu, gamma, 1e-10)
                assert diag.converged
                assert diag.sweeps == reference_sweep_count(sigma, mu, gamma, 1e-10), (gamma, k)

    def test_one_working_matrix(self):
        # the permuted P_gamma is the only N x N array: no triangle copies
        n = 1000
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=5))
        mu = _rand_mu(n, 5)
        order = build_tree(to_correlation(sigma), "ward").leaf_order
        tracemalloc.start()
        crisp_solve(sigma, mu, 0.5, p_max=3, eps=1e-300, ordering=order)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n


class TestFactorStream:
    def _model(self, n, k, seed):
        rng = np.random.default_rng(seed)
        b = 0.2 * rng.standard_normal((n, k))
        lam = np.diag(rng.uniform(0.01, 0.05, k)) if k else np.zeros((0, 0))
        dv = rng.uniform(0.01, 0.09, n)
        return FactorModel(b, lam, dv)

    def test_pure_idiosyncratic(self):
        fm = FactorModel(np.zeros((5, 0)), np.zeros((0, 0)), np.array([0.1] * 5))
        mu = _rand_mu(5, 2)
        rep = crisp_solve_stream(fm, mu, 0.8, p_max=10, eps=1e-300)
        assert np.allclose(rep.weights.values, mu.values / 0.1, atol=1e-14)

    def test_matches_dense_path(self):
        fm = self._model(50, 3, 11)
        mu = _rand_mu(50, 11)
        dense = fm.materialize()
        for p in (1, 5, 40):
            r_stream = crisp_solve_stream(fm, mu, 0.7, p_max=p, eps=1e-300)
            r_dense = crisp_solve(dense, mu, 0.7, p_max=p, eps=1e-300)
            dev = np.abs(r_stream.weights.values - r_dense.weights.values).max()
            assert dev < 1e-10

    def test_memory_stays_linear(self):
        n, k = 3000, 2
        fm = self._model(n, k, 0)
        mu = _rand_mu(n, 0)
        crisp_solve_stream(fm, mu, 0.5, p_max=1, eps=1e-300)  # warm caches
        tracemalloc.start()
        crisp_solve_stream(fm, mu, 0.5, p_max=3, eps=1e-300)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        dense_bytes = n * n * 8
        assert peak < dense_bytes / 10  # far below any N x N materialization


class TestProjected:
    def test_no_constraints_identical(self):
        sigma = random_spd(12, 5)
        mu = _rand_mu(12, 5)
        r1 = crisp_projected(sigma, mu, 0.5, p=50, constraints=ConstraintSet())
        r2 = crisp_solve(sigma, mu, 0.5, p_max=50)
        assert np.array_equal(r1.weights.values, r2.weights.values)

    def test_box_only_interior_optimum(self):
        sigma = random_spd(10, 6)
        mu = _rand_mu(10, 6)
        wide = ConstraintSet(lower=np.full(10, -100.0), upper=np.full(10, 100.0))
        r1 = crisp_projected(sigma, mu, 0.4, p=5000, constraints=wide, eps=1e-12)
        r2 = crisp_solve(sigma, mu, 0.4, p_max=5000, eps=1e-12)
        assert np.all(np.abs(r1.weights.values) < 100.0)
        assert np.abs(r1.weights.values - r2.weights.values).max() < 1e-8

    def test_long_only_budget_feasible(self):
        sigma = gen_regime(RegimeSpec("block_sector", n=30, seed=3))
        mu = _rand_mu(30, 3)
        cs = long_only_budget(30)
        rep = crisp_projected(sigma, mu, 0.5, p=400, constraints=cs)
        w = rep.weights.values
        assert w.min() >= -1e-8
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        assert rep.weights.norm_tag == "sum_one"

    def test_group_caps_respected(self):
        sigma = gen_regime(RegimeSpec("block_sector", n=40, seed=4))
        sect = sector_labels(40, 4)
        mu = gen_signal(SignalSpec("sector_tilt", tilts=(0.04, -0.04, 0.02, -0.02)), 40, sectors=sect)
        caps = [((sect == k).astype(float), 0.40) for k in range(4)]
        rep = crisp_projected(sigma, mu, 0.5, p=500, constraints=long_only_budget(40, caps))
        w = rep.weights.values
        for k in range(4):
            assert w[sect == k].sum() <= 0.40 + 1e-8
        assert w.min() >= -1e-8
        assert w.sum() == pytest.approx(1.0, abs=1e-8)

    def test_infeasible_raises(self):
        sigma = random_spd(5, 8)
        mu = _rand_mu(5, 8)
        bad = ConstraintSet(lower=np.zeros(5), upper=np.full(5, 0.1), budget=1.0)
        with pytest.raises(InfeasibleConstraintsError):
            crisp_projected(sigma, mu, 0.5, constraints=bad)

    def test_projection_reports_its_iteration_cap(self):
        # box w >= 0, budget 1 and a 30 % cap on the first five assets
        n = 10
        w = np.linspace(0.5, -0.3, n)
        lo, hi = np.zeros(n), np.full(n, np.inf)
        rows = [(np.r_[np.ones(5), np.zeros(5)], 0.3)]
        _, met = _project_general(w, lo, hi, 1.0, rows, max_iter=1)
        assert not met
        x, met = _project_general(w, lo, hi, 1.0, rows)
        assert met
        assert x[:5].sum() <= 0.3 + 1e-8 and x.min() >= -1e-8
        assert x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_capped_projection_is_not_converged(self, monkeypatch):
        sigma = gen_regime(RegimeSpec("block_sector", n=20, seed=4))
        sect = sector_labels(20, 4)
        caps = [((sect == k).astype(float), 0.40) for k in range(4)]
        cs = long_only_budget(20, caps)
        assert crisp_projected(sigma, _rand_mu(20, 4), 0.5, p=500, constraints=cs).converged
        monkeypatch.setattr(
            "crisp_alloc.solver._project_general",
            lambda *args: _project_general(*args, max_iter=1),
        )
        rep = crisp_projected(sigma, _rand_mu(20, 4), 0.5, p=500, constraints=cs)
        assert not rep.converged

    def test_bounds_validation(self):
        sigma = random_spd(3, 9)
        mu = _rand_mu(3, 9)
        with pytest.raises(ParameterError):
            crisp_projected(
                sigma, mu, constraints=ConstraintSet(lower=np.ones(3), upper=np.zeros(3))
            )


class TestSweepsToTolerance:
    def test_gamma_zero_is_one(self, base100):
        mu = _rand_mu(100, 1)
        assert sweeps_to_tolerance(base100, mu, 0.0, 1e-10).sweeps == 1

    def test_cap_reports_nonconvergence(self):
        sigma = gen_regime(RegimeSpec("equicorr", n=40, rho=0.9, seed=0))
        mu = _rand_mu(40, 2)
        diag = sweeps_to_tolerance(sigma, mu, 1.0, 1e-12, cap=5)
        assert diag.sweeps == 5
        assert not diag.converged

    def test_monotone_in_gamma(self, base100):
        mu = _rand_mu(100, 5)
        counts = [
            sweeps_to_tolerance(base100, mu, g, 1e-10).sweeps
            for g in (0.0, 0.2, 0.5, 0.8, 1.0)
        ]
        assert counts == sorted(counts)

    def test_signal_length_mismatch(self, base100):
        with pytest.raises(ParameterError):
            sweeps_to_tolerance(base100, _rand_mu(99, 1), 0.5, 1e-10)

    def test_ordering_must_be_a_permutation(self):
        sigma = random_spd(4, 1)
        with pytest.raises(ParameterError):
            sweeps_to_tolerance(sigma, _rand_mu(4, 1), 0.5, 1e-10, ordering=[0, 0, 1, 2])

    def test_cap_must_be_positive(self):
        sigma = random_spd(4, 1)
        with pytest.raises(ParameterError):
            sweeps_to_tolerance(sigma, _rand_mu(4, 1), 0.5, 1e-10, cap=0)
