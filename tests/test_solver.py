import math
import re
import tracemalloc
from itertools import chain, islice

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtbmv, dtbsv, dtrmv
from scipy.linalg.lapack import dtrtrs
from scipy.optimize import minimize

from crisp_alloc import (
    ConditioningError,
    ConstraintSet,
    CovarianceMatrix,
    FactorModel,
    InfeasibleConstraintsError,
    InvalidCovarianceError,
    ParameterError,
    RegimeSpec,
    Signal,
    SignalSpec,
    SweepDiagnostic,
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
    trajectory,
)
from crisp_alloc import solver
from crisp_alloc.solver import _feasible, _project, _row_system
from tests.conftest import peak_matrices, random_spd


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


def triangular_sweeps(sigma, mu, gamma, ordering=None):
    """The kernel's arithmetic on one dense block, one array at a time: the same
    LAPACK solve on P_gamma^T in visiting order, and g U w as the BLAS product
    on the strict triangle, with the state g U w as one vector. Kept as the
    bit-level oracle of the sweep counts; yields (iterate in visiting order,
    residual) pairs."""
    perm = np.arange(sigma.n) if ordering is None else np.asarray(ordering)
    s = sigma.entries[np.ix_(perm, perm)]
    d = np.diag(s).copy()
    p = s * gamma
    np.fill_diagonal(p, d)
    pt, m = p.T, mu.values[perm]
    strict = np.tril(pt, -1)  # (g U)^T
    w = m / d
    yield w, None
    g_uw = dtrmv(strict, w, lower=1, trans=1)
    while True:
        w = dtrtrs(pt, m - g_uw, trans=1)[0]
        new = dtrmv(strict, w, lower=1, trans=1)
        yield w, new - g_uw
        g_uw = new


def triangular_sweep_count(sigma, mu, gamma, tol, cap=50000):
    sweeps = islice(triangular_sweeps(sigma, mu, gamma), 1, cap + 1)
    for count, (_, resid) in enumerate(sweeps, 1):
        if float(np.linalg.norm(resid)) < tol:
            return count
    return cap


def _sweeps_per_band(n):
    return min(solver._BAND_SWEEPS, max(1, solver._CHUNK_BYTES // (8 * n * n)))


def band_sweeps(sigma, mu, gamma, ordering=None):
    """The kernel's arithmetic on a dense Sigma, one block of K sweeps at a
    time: the band is K copies of P_gamma's columns, column j rolled up by j
    (built here with np.roll), one dtbmv forms g U w of a block's last
    iterate from the strict lower triangle of the first block, a band of
    width N - 2 one row down, and one dtbsv takes the next K sweeps. Kept as
    the bit-level oracle; yields blocks of iterates in visiting order as
    ``solver._band_sweeps`` does, the first the diagonal solve."""
    n = sigma.n
    perm = np.arange(n) if ordering is None else np.asarray(ordering)
    s = sigma.entries[np.ix_(perm, perm)]
    d = np.diag(s).copy()
    p = s * gamma
    np.fill_diagonal(p, d)
    k = _sweeps_per_band(n)
    band = np.asfortranarray(np.tile(np.stack([np.roll(p[:, j], -j) for j in range(n)], 1), k))
    m = mu.values[perm]
    w = m / d
    yield w[None]
    while True:
        rhs = np.tile(m, k)
        if n > 1:
            rhs[: n - 1] -= dtbmv(n - 2, band[1:, : n - 1], w[1:], lower=1, trans=1)
        block = dtbsv(n - 1, band, rhs, lower=1).reshape(k, n)
        yield block
        w = block[-1]


def recurrence_residual_norms(sigma, mu, gamma, sweeps):
    """||r_k|| for sweeps k = 1..``sweeps`` in asset order, one product a
    sweep: r_1 = g U (w_1 - w_0) from the diagonal solve w_0, then r_{k+1} =
    G r_k, G = -g U (D + g L)^-1, both formed here with scipy's triangular
    solve. The exact residual sequence that ``sweeps_to_tolerance`` counts."""
    p = shrink(sigma, gamma).entries
    low, g_u, m = np.tril(p), np.triu(p, 1), mu.values
    w = m / np.diag(p)
    r = g_u @ (solve_triangular(low, m - g_u @ w, lower=True) - w)
    g_t = -solve_triangular(low, g_u.T, lower=True, trans="T")  # G^T
    norms = []
    for _ in range(sweeps):
        norms.append(math.sqrt(r.dot(r)))
        r = r @ g_t
    return norms


def reference_rel_change(w, w_prev):
    """The per-sweep relative change the block reduction replaced: ||w -
    w_prev|| / ||w_prev||, both first put in w_prev's canonical units, times
    the power of two that puts max|w_prev| in [0.5, 1), always: an exact
    factor, so where the kernel does not rescale the bits are the same. Kept
    as the oracle."""
    e = math.frexp(float(np.abs(w_prev).max()))[1]
    with np.errstate(over="ignore"):
        d, w_prev = np.ldexp(w - w_prev, -e), np.ldexp(w_prev, -e)
    ref, change = math.sqrt(w_prev.dot(w_prev)), math.sqrt(d.dot(d))
    if ref == 0.0:
        return 0.0 if change == 0.0 else math.inf
    return change / ref


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

    @pytest.mark.slow
    def test_agrees_with_direct_solve_on_a_near_symmetric_input(self):
        # kappa = 4.4e5 and the upper triangle off by up to 9e-13 relative:
        # the sweep reads both triangles and the Cholesky solve the lower one,
        # so they agree to rounding only if the two triangles are one matrix
        entries = gen_regime(RegimeSpec("hedged_tight_blocks", n=100, seed=3)).entries.copy()
        upper = np.triu_indices(100, 1)
        entries[upper] *= 1.0 + np.random.default_rng(0).uniform(-9e-13, 9e-13, upper[0].size)
        sigma = CovarianceMatrix(entries)
        mu = _rand_mu(100, 1)
        rep = crisp_solve(sigma, mu, 1.0, p_max=300000, eps=1e-15)
        target = markowitz_direct(sigma, mu).values
        assert rep.converged
        assert np.abs(rep.weights.values - target).max() <= 1e-10 * np.abs(target).max()

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
                assert diag.sweeps == triangular_sweep_count(sigma, mu, gamma, 1e-10), (gamma, k)

    def test_one_working_matrix(self):
        # the permuted P_gamma is the only N x N array: no triangle copies
        n = 1000
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=5))
        mu = _rand_mu(n, 5)
        order = build_tree(to_correlation(sigma), "ward").leaf_order
        peak = peak_matrices(lambda: crisp_solve(sigma, mu, 0.5, p_max=3, eps=1e-300, ordering=order), n)
        assert peak < 1.5


class TestKernelBits:
    """The dense kernel against ``band_sweeps``, which makes the same BLAS
    calls: every block of iterates is equal bit for bit, and so is the
    weight vector ``crisp_solve`` returns after p sweeps."""

    @pytest.mark.parametrize("n", (1, 2, 40, 100))
    def test_same_iterates(self, n):
        if n == 1:  # no regime and no tree below two assets
            sigma, leaf_order = random_spd(1, 1), (0,)
        else:
            sigma = gen_regime(RegimeSpec("hedged_tight_blocks", n=n, sectors=min(n, 5), seed=n))
            leaf_order = build_tree(to_correlation(sigma), "ward").leaf_order
        mu = _rand_mu(n, n)
        blocks = 1 + 101 // _sweeps_per_band(n) + 1
        for gamma in (0.5, 1.0):
            for ordering in (None, leaf_order):
                want = list(islice(band_sweeps(sigma, mu, gamma, ordering), blocks))
                got = solver._dense_sweeps(sigma, mu, gamma, ordering, 50000)[0]
                got = list(islice(got, blocks))
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (gamma, ordering)
                rows = np.concatenate(want)
                back = np.argsort(np.arange(n) if ordering is None else ordering)
                for p in (1, 2, 5, 100):
                    rep = crisp_solve(sigma, mu, gamma, p_max=p, eps=1e-300, ordering=ordering)
                    assert np.array_equal(rep.weights.values, rows[p][back]), (gamma, p)

    def test_first_2000_sweeps_of_the_capped_hedged_solve(self):
        # gamma = 1, kappa ~ 1.6e5: still far from its fixed point at 50,000 sweeps
        sigma = gen_regime(RegimeSpec("hedged_tight_blocks", n=40, seed=1))
        mu = gen_signal(SignalSpec("gaussian", seed=2), 40)
        got = solver._dense_sweeps(sigma, mu, 1.0, None, 50000)[0]
        pairs = zip(got, band_sweeps(sigma, mu, 1.0))
        rows = 0
        for block, want in pairs:
            assert np.array_equal(block, want), rows
            rows += len(block)
            if rows > 2000:
                break


class TestBandWidth:
    """K, the sweeps one band solve takes, is the budget's and at most 128,
    and never more than the caller can use: a solve capped at a few sweeps
    at a small N computes only those. The residual counter builds no band."""

    @staticmethod
    def _widths(monkeypatch, call):
        real, widths = solver._band, []

        def recording(s, g, order, sweeps, out=None):
            band = real(s, g, order, sweeps, out)
            widths.append(band.shape[1] // band.shape[0])
            return band

        monkeypatch.setattr(solver, "_band", recording)
        call()
        return widths

    @pytest.mark.parametrize(
        "n, cap, k", ((1, 1, 1), (2, 3, 3), (2, 100, 100), (2, 129, 128), (5, 7, 7),
                      (30, 129, 128), (40, 82, 81), (100, 5, 5), (100, 14, 13), (400, 2, 1)),
    )
    def test_the_sweeps_a_band_takes(self, n, cap, k, monkeypatch):
        sigma = random_spd(n, n)
        mu = _rand_mu(n, n)
        calls = (
            lambda: crisp_solve(sigma, mu, 0.5, p_max=cap, eps=1e-300),
            lambda: trajectory(sigma, mu, np.array([0.5]), p=cap),
        )
        for call in calls:
            assert self._widths(monkeypatch, call) == [k]
        assert self._widths(monkeypatch, lambda: sweeps_to_tolerance(sigma, mu, 0.5, 1e-300, cap=cap)) == []


class TestYieldedIterates:
    """A yielded block of iterates is never written again by the kernel: kept
    across the later blocks, it still holds what was yielded."""

    @staticmethod
    def _kept(monkeypatch, kernel, solve):
        real, kept = getattr(solver, kernel), []

        def keeping(*args):
            for block in real(*args):
                kept.append((block, block.copy()))
                yield block

        monkeypatch.setattr(solver, kernel, keeping)
        solve()
        return kept

    @pytest.mark.parametrize("path", ("dense", "stream", "box"))
    def test_a_block_survives_the_later_ones(self, path, monkeypatch):
        n = 150
        # dense: three bands of K = 5 sweeps, the last cut short by p
        p = 3 * _sweeps_per_band(n) - 1 if path == "dense" else 7
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=3))
        mu = _rand_mu(n, 3)
        solve = {
            "dense": lambda: crisp_solve(sigma, mu, 1.0, p_max=p, eps=1e-300),
            # blocks of 22 assets, coupled through B^T w
            "stream": lambda: crisp_solve_stream(
                FactorModel(np.random.default_rng(3).normal(size=(n, 3)), np.eye(3), np.ones(n)),
                mu, 1.0, p_max=p, eps=1e-300,
            ),
            # three clamped blocks of at most 64 assets
            "box": lambda: crisp_projected(
                sigma, mu, 1.0, p=p, constraints=long_only_budget(n), eps=1e-300
            ),
        }[path]
        kernel = "_band_sweeps" if path == "dense" else "_gauss_seidel"
        kept = self._kept(monkeypatch, kernel, solve)
        assert len(kept) == (4 if path == "dense" else p + 1)
        rows = _sweeps_per_band(n) if path == "dense" else 1
        assert [len(block) for block, _ in kept[1:]] == [rows] * (len(kept) - 1)
        for i, (block, then) in enumerate(kept):
            assert np.array_equal(block, then), i


class TestBlockBoundaries:
    """The stop rules read a block of K sweeps at once and drop the sweeps
    after the stop; what they return is what the per-sweep rule returns."""

    @staticmethod
    def _case(n):
        if n == 1:
            return random_spd(1, 1), _rand_mu(1, 1)
        sigma = gen_regime(RegimeSpec("equicorr", n=n, rho=0.6, seed=n))
        return sigma, _rand_mu(n, n)

    @pytest.mark.parametrize("n", (1, 2, 30, 100))
    def test_the_pth_iterate_and_the_stop_there(self, n):
        sigma, mu = self._case(n)
        k, gamma = _sweeps_per_band(n), 0.5
        ps = sorted({1, k - 1, k, k + 1, 2 * k + 3} - {0})
        blocks = 2 + (ps[-1] + k + 1) // k
        rows = np.concatenate(list(islice(band_sweeps(sigma, mu, gamma), blocks)))
        norms = recurrence_residual_norms(sigma, mu, gamma, ps[-1])
        # at N = 1 the first sweep is the solution, and a change of 0 stops
        same = (q for q, (a, b) in enumerate(zip(rows, rows[1:]), 1) if np.array_equal(a, b))
        exact = next(same, None)
        for p in ps:
            for p_max in (p, p + k + 1):
                rep = crisp_solve(sigma, mu, gamma, p_max=p_max, eps=1e-300)
                assert rep.sweeps_used == min(p_max, exact or p_max)
                assert np.array_equal(rep.weights.values, rows[rep.sweeps_used]), (p, p_max)
            # a tolerance just above sweep p's residual stops at the first
            # sweep below it, and crisp_solve for that count is that iterate
            if norms[p - 1] == 0.0:
                continue  # N = 1 solves exactly at the first sweep, N = 2 underflows
            tol = norms[p - 1] * (1.0 + 1e-9)
            stop = next(q for q, r in enumerate(norms, 1) if r < tol)
            diag = sweeps_to_tolerance(sigma, mu, gamma, tol)
            assert diag == (stop, True), p
            w = crisp_solve(sigma, mu, gamma, p_max=stop, eps=1e-300).weights.values
            assert np.array_equal(w, rows[stop])

    @pytest.mark.parametrize("scale", (1e-200, 1.0, 1e200))
    @pytest.mark.parametrize("n", (2, 30, 100))
    def test_the_stop_sweep_and_its_change_are_the_per_sweep_rules(self, n, scale):
        sigma, mu = self._case(n)
        mu = Signal(mu.values * scale)
        # up to ~7,000 sweeps (N = 100, eps = 1e-12)
        blocks = 2 + 8000 // _sweeps_per_band(n)
        rows = np.concatenate(list(islice(band_sweeps(sigma, mu, 0.9), blocks)))
        rels = [reference_rel_change(w, w_prev) for w_prev, w in zip(rows, rows[1:])]
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            stop = next(q for q, r in enumerate(rels, 1) if r <= eps)
            rep = crisp_solve(sigma, mu, 0.9, p_max=8000, eps=eps)
            assert (rep.sweeps_used, rep.converged) == (stop, True), eps
            assert rep.final_rel_change == rels[stop - 1]
            assert np.array_equal(rep.weights.values, rows[stop])

    @pytest.mark.parametrize("scale", (1e-200, 1e200))
    def test_the_block_reduction_is_the_per_sweep_rule_bit_for_bit(self, scale):
        rng = np.random.default_rng(5)
        last = rng.normal(size=50) * scale
        block = last + rng.normal(size=(9, 50)) * scale * np.logspace(-1, -15, 9)[:, None]
        block[4] = block[3]  # no change
        # and a block whose rows alternate between a rescaled and an ordinary
        # scale, so that rows with and without rescaling meet in one reduction
        far, near = (1e-150, 1e-90) if scale < 1.0 else (1e150, 1e90)
        mixed = rng.normal(size=(8, 50)) * np.where(np.arange(8) % 2, near, far)[:, None]
        for rows in (block, mixed):
            got = solver._rel_changes(rows, last)
            prev = np.vstack([last, rows])
            want = [reference_rel_change(w, w_prev) for w_prev, w in zip(prev, rows)]
            assert got.tolist() == want
        assert solver._rel_changes(np.ones((1, 3)), np.zeros(3)).tolist() == [math.inf]
        assert solver._rel_changes(np.zeros((1, 3)), np.zeros(3)).tolist() == [0.0]


def block_drive(iterates, g, p_max, eps, perm=None):
    """The relative-change stop rule as a block loop of its own, with the
    gamma-below-eps shortcut in the loop: (weights, sweeps, final change,
    converged). The reference for ``_drive`` measured by ``_rel_changes``."""
    w, sweeps, rel = next(iterates)[0], 0, 0.0
    while g >= eps and sweeps < p_max:
        block = next(iterates)[: p_max - sweeps]
        rels = solver._rel_changes(block, w).tolist()
        k = next((i for i, r in enumerate(rels, 1) if r <= eps), len(rels))
        sweeps, rel, w = sweeps + k, rels[k - 1], block[k - 1]
        if rel <= eps:
            break
    if perm is not None:
        w = w[np.argsort(perm)]
    return w, sweeps, rel, rel <= eps


def block_sweeps_to_tolerance(sigma, mu, g, tol, cap):
    """The residual stop "< tol" as a block loop of its own: (sweeps,
    converged). The reference for ``sweeps_to_tolerance``."""
    iterates = solver._dense_sweeps(sigma, mu, g, None, cap)[0]
    g_l = np.tril(shrink(sigma, g).entries, -1)
    w, sweeps = next(iterates)[0], 0
    while sweeps < cap:
        block = next(iterates)[: cap - sweeps]
        resid = np.diff(block, axis=0, prepend=w[None]) @ g_l
        norms = np.sqrt(solver._dots(resid)).tolist()
        k = next((i for i, r in enumerate(norms, 1) if r < tol), len(norms))
        sweeps, w = sweeps + k, block[-1]
        if norms[k - 1] < tol:
            return (sweeps, True)
    return (cap, False)


class TestOneReader:
    """``_drive`` is the one reader of the kernels' blocks: what it returns
    for ``crisp_solve`` and ``trajectory`` is, bit for bit, what each one's
    own block loop returned (the relative-change loop and an ``islice`` over
    the rows). ``sweeps_to_tolerance`` reads no block of iterates; its count
    is still the residual loop's on these inputs."""

    @pytest.mark.parametrize("n", (5, 30, 100))
    @pytest.mark.parametrize("kind", ("equicorr", "block_sector", "hedged_tight_blocks", "spiked"))
    def test_the_reader_is_each_loop_bit_for_bit(self, kind, n):
        sigma = gen_regime(RegimeSpec(kind, n=n, seed=n))
        mu = _rand_mu(n, n)
        w_star = markowitz_direct(sigma, mu).values
        k = _sweeps_per_band(n)
        seen = set()
        # gamma = eps is the smallest that sweeps
        for gamma in (0.0, 1e-9, solver.DEFAULT_EPS, 0.5, 1.0):
            for cap in sorted({1, k - 1, k, k + 1, 100} - {0}):
                # sweeps_to_tolerance sweeps in asset order
                diags = [sweeps_to_tolerance(sigma, mu, gamma, t, cap) for t in (1e-6, 1e-10)]
                want_diags = [block_sweeps_to_tolerance(sigma, mu, gamma, t, cap) for t in (1e-6, 1e-10)]
                assert [tuple(d) for d in diags] == want_diags, (gamma, cap)
                seen |= {("tol", d.converged) for d in diags}
                if gamma == 0.0:
                    assert diags == [(1, True)] * 2
                for ordering in (None, np.random.default_rng(n).permutation(n)):
                    rep = crisp_solve(sigma, mu, gamma, p_max=cap, ordering=ordering)
                    iterates, perm = solver._dense_sweeps(sigma, mu, gamma, ordering, cap)
                    want = block_drive(iterates, gamma, cap, solver.DEFAULT_EPS, perm)
                    got = (rep.weights.values, rep.sweeps_used, rep.final_rel_change, rep.converged)
                    assert got[0].tobytes() == want[0].tobytes(), (gamma, cap)
                    assert got[1:] == want[1:], (gamma, cap)
                    seen.add(("solve", rep.converged))
                    # a measure that is NaN on every row never stops
                    iterates, perm = solver._dense_sweeps(sigma, mu, gamma, ordering, cap)
                    never = solver._drive(iterates, mu.values, cap, lambda b, w: np.full(len(b), np.nan),
                                          solver.DEFAULT_EPS, perm)
                    rows = np.concatenate(list(islice(band_sweeps(sigma, mu, gamma, ordering),
                                                      2 + cap // k)))
                    back = np.argsort(np.arange(n) if ordering is None else ordering)
                    assert never.weights.values.tobytes() == rows[cap][back].tobytes()
                    assert (never.sweeps_used, never.converged) == (cap, False)
                    assert math.isnan(never.final_rel_change)
                # trajectory's p-th row, read with islice over the rows
                sweeps = solver._dense_sweeps(sigma, mu, gamma, None, cap)[0]
                row = next(islice(chain.from_iterable(sweeps), cap, None))
                sweeps = solver._dense_sweeps(sigma, mu, gamma, None, cap)[0]
                read = solver._drive(sweeps, mu.values, cap)
                assert read.weights.values.tobytes() == row.tobytes()
                assert (read.sweeps_used, read.converged) == (cap, False)
                (point,) = trajectory(sigma, mu, np.array([gamma]), p=cap)
                assert point.dir_finite_sweep == dir_error(row, w_star)
        # each stop rule both stopped early and hit its cap somewhere
        assert seen == {("solve", True), ("solve", False), ("tol", True), ("tol", False)}


def reference_stream_sweeps(fm, mu, gamma):
    """The per-coordinate factor-streaming loop the block sweep replaced: each
    w_i is updated in turn against the K-vector z = B^T w, from which its own
    contribution is removed first and re-added after. Kept as the oracle;
    yields the iterate after every sweep."""
    b, lam, sig2, m = fm.loadings, fm.factor_cov, fm.diagonal(), mu.values
    w = m / sig2
    z = b.T @ w
    while True:
        for i in range(fm.n):
            bi = b[i]
            z -= bi * w[i]
            off = bi @ (lam @ z)
            w_new = (m[i] - gamma * off) / sig2[i]
            z += bi * w_new
            w[i] = w_new
        yield w.copy()


class TestFactorStream:
    def _model(self, n, k, seed, full_lam=False):
        rng = np.random.default_rng(seed)
        b = 0.2 * rng.standard_normal((n, k))
        lam = np.diag(rng.uniform(0.01, 0.05, k)) if k else np.zeros((0, 0))
        if full_lam:
            a = rng.standard_normal((k, k))
            lam = 0.01 * (a @ a.T / k + 0.5 * np.eye(k))
        dv = rng.uniform(0.01, 0.09, n)
        return FactorModel(b, lam, dv)

    @pytest.mark.parametrize(
        "field, bad",
        (
            # the stream reads Lambda as given, materialize its symmetric part
            ("factor_cov", np.array([[1.0, 0.5], [0.5 + 3e-6, 1.0]])),
            ("loadings", np.array([[0.1, np.nan]] + [[0.1, 0.2]] * 4)),
            ("idio_var", np.array([0.1, np.inf, 0.1, 0.1, 0.1])),  # its asset got weight 0
        ),
    )
    def test_rejects_what_a_covariance_would(self, field, bad):
        parts = {
            "loadings": np.full((5, 2), 0.1),
            "factor_cov": np.diag([0.03, 0.02]),
            "idio_var": np.full(5, 0.1),
            field: bad,
        }
        with pytest.raises(InvalidCovarianceError):
            FactorModel(**parts)

    def test_pure_idiosyncratic(self):
        fm = FactorModel(np.zeros((5, 0)), np.zeros((0, 0)), np.array([0.1] * 5))
        mu = _rand_mu(5, 2)
        rep = crisp_solve_stream(fm, mu, 0.8, p_max=10, eps=1e-300)
        assert np.allclose(rep.weights.values, mu.values / 0.1, atol=1e-14)

    @pytest.mark.parametrize(
        "n, k, full_lam",
        (
            (30, 0, False),  # no factors: blocks of ceil(sqrt(N)) = 6, no coupling
            (1, 2, True),  # one asset
            (3, 5, True),  # N < c = 4: one block
            (4, 4, True),  # N = c = 4: one block
            (50, 3, False),  # c = 13 does not divide N: a last block of 11
            (200, 3, True),  # 8 blocks of 25, non-diagonal Lambda
        ),
    )
    def test_same_iterates_as_the_scalar_loop(self, n, k, full_lam):
        fm = self._model(n, k, n + k, full_lam)
        mu = _rand_mu(n, n)
        for gamma in (0.3, 0.7, 1.0):
            ref = reference_stream_sweeps(fm, mu, gamma)
            want = {p: next(ref) for p in range(1, 101)}
            for p in (1, 5, 100):
                got = crisp_solve_stream(fm, mu, gamma, p_max=p, eps=1e-300).weights.values
                dev = np.abs(got - want[p]).max() / np.abs(want[p]).max()
                assert dev < 1e-12, (gamma, p)

    def test_same_stop_as_the_scalar_loop(self):
        fm = self._model(50, 3, 2, True)
        mu = _rand_mu(50, 2)
        rep = crisp_solve_stream(fm, mu, 0.9, p_max=10000, eps=1e-10)
        w = mu.values / fm.diagonal()
        for sweeps, w_next in enumerate(reference_stream_sweeps(fm, mu, 0.9), 1):
            done = np.linalg.norm(w_next - w) <= 1e-10 * np.linalg.norm(w)
            w = w_next
            if done:
                break
        assert rep.converged
        assert rep.sweeps_used == sweeps

    def test_matches_dense_path(self):
        fm = self._model(50, 3, 11)
        mu = _rand_mu(50, 11)
        dense = fm.materialize()
        for p in (1, 5, 40):
            r_stream = crisp_solve_stream(fm, mu, 0.7, p_max=p, eps=1e-300)
            r_dense = crisp_solve(dense, mu, 0.7, p_max=p, eps=1e-300)
            dev = np.abs(r_stream.weights.values - r_dense.weights.values).max()
            assert dev < 1e-10

    @staticmethod
    def _peak(fm, mu):
        crisp_solve_stream(fm, mu, 0.5, p_max=1, eps=1e-300)  # warm caches
        tracemalloc.start()
        crisp_solve_stream(fm, mu, 0.5, p_max=3, eps=1e-300)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_memory_stays_linear(self):
        n, k = 3000, 2
        fm = self._model(n, k, 0)
        mu = _rand_mu(n, 0)
        peak = self._peak(fm, mu)
        dense_bytes = n * n * 8
        assert peak < dense_bytes / 10  # far below any N x N materialization

    def test_memory_grows_linearly(self):
        # a block of c x c = N K entries keeps the peak linear in N; a block
        # size growing faster than sqrt(N) would make 4x the assets cost
        # 8x the memory (c ~ N^(3/4)) or more
        small, large = (self._peak(self._model(n, 2, 0), _rand_mu(n, 0)) for n in (3000, 12000))
        assert large < 5 * small


class TestStopRuleScale:
    """The stop rule is a ratio of norms, so scaling mu scales the weights and
    leaves the sweep count and the verdict as they are, also at scales where
    the squares of the entries under- or overflow; so does scaling mu and the
    residual tolerance together."""

    @pytest.mark.parametrize("scale", (1e-200, 1e200))
    @pytest.mark.parametrize("method", ("dense", "stream"))
    def test_same_stop_at_any_scale(self, method, scale):
        mu = np.random.default_rng(0).standard_normal(100)
        if method == "dense":
            sigma = gen_regime(RegimeSpec("block_sector", n=100, seed=0))
            solve = lambda m: crisp_solve(sigma, Signal(m), 0.5)  # noqa: E731
        else:
            fm = TestFactorStream()._model(100, 3, 7)
            solve = lambda m: crisp_solve_stream(fm, Signal(m), 0.5)  # noqa: E731
        base, scaled = solve(mu), solve(mu * scale)
        assert base.converged and base.sweeps_used > 1
        assert (scaled.sweeps_used, scaled.converged) == (base.sweeps_used, base.converged)
        w, w0 = scaled.weights.values / scale, base.weights.values
        assert np.linalg.norm(w - w0) <= 1e-12 * np.linalg.norm(w0)

    @pytest.mark.parametrize("k", (-660, 660))
    @pytest.mark.parametrize(
        "kind, n, seed", (("equicorr", 30, 0), ("block_sector", 100, 0), ("hedged_tight_blocks", 40, 1))
    )
    def test_same_stop_bits_at_power_of_two_scales(self, kind, n, seed, k):
        # mu times 2^k is exact, and so are the sweeps and the change in
        # canonical units: the same count and change bit for bit, 2^k the
        # weights. Dividing by max|w| moved the equicorr change at both signs
        sigma = gen_regime(RegimeSpec(kind, n=n, seed=seed))
        mu = np.random.default_rng(0).standard_normal(n)
        base = crisp_solve(sigma, Signal(mu), 0.5)
        scaled = crisp_solve(sigma, Signal(np.ldexp(mu, k)), 0.5)
        assert (scaled.sweeps_used, scaled.converged) == (base.sweeps_used, base.converged)
        assert scaled.final_rel_change == base.final_rel_change
        assert np.array_equal(scaled.weights.values, np.ldexp(base.weights.values, k))

    @pytest.mark.parametrize("k", (-660, 660))
    def test_residual_count_at_any_scale(self, k):
        # the squared residual underflowed at 2^-660 (one sweep, "converged")
        # and overflowed at 2^660 (the count ran to the cap)
        sigma = gen_regime(RegimeSpec("block_sector", n=40, seed=3))
        mu = gen_signal(SignalSpec("gaussian", seed=3), 40).values
        base = sweeps_to_tolerance(sigma, Signal(mu), 0.5, 1e-10)
        scaled = sweeps_to_tolerance(sigma, Signal(np.ldexp(mu, k)), 0.5, float(np.ldexp(1e-10, k)))
        assert base == scaled == SweepDiagnostic(31, True)
        # a tolerance past the largest double in mu's units is met at once
        huge = sweeps_to_tolerance(sigma, Signal(np.ldexp(mu, -1000)), 0.5, 1e10)
        assert huge == SweepDiagnostic(1, True)


def _project_box_budget(w, lo, hi, budget):
    """Exact projection onto {l <= x <= u, 1.x = budget}: the breakpoint search
    ``crisp_projected`` used before the dual Newton solve, kept as the oracle.
    It is wrong where the budget is an extreme sum of the box (the only
    feasible point is a corner): it returns the unshifted clip or raises, so
    the oracle grid below keeps the budget strictly inside.

    The projection is clip(w + tau, lo, hi) for the shift tau solving
    sum clip(w + tau) = budget; that sum is a nondecreasing piecewise-linear
    function of tau whose breakpoints are the finite lo - w and hi - w, so a
    single sorted sweep finds the right segment in O(N log N).
    """
    n = w.size
    events = []  # (tau, d_const, d_w, d_free)
    s_const = 0.0
    s_w = 0.0
    n_free = 0
    for i in range(n):
        if np.isfinite(lo[i]):
            s_const += lo[i]
            events.append((lo[i] - w[i], -lo[i], w[i], 1))
        else:
            s_w += w[i]
            n_free += 1
        if np.isfinite(hi[i]):
            events.append((hi[i] - w[i], hi[i], -w[i], -1))
    events.sort(key=lambda e: e[0])

    prev = -np.inf
    for tau_e, d_const, d_w, d_free in events:
        if n_free > 0:
            tau = (budget - s_const - s_w) / n_free
            if prev <= tau <= tau_e:
                return np.clip(w + tau, lo, hi)
        elif budget == s_const:
            return np.clip(w + prev if np.isfinite(prev) else w, lo, hi)
        s_const += d_const
        s_w += d_w
        n_free += d_free
        prev = tau_e
    if n_free > 0:
        tau = (budget - s_const - s_w) / n_free
        if tau >= prev:
            return np.clip(w + tau, lo, hi)
    raise InfeasibleConstraintsError("budget is unreachable within the box")


def _project_general(w, lo, hi, budget, rows, tol=1e-10, max_iter=20000):
    """Dykstra alternating projection onto box, budget hyperplane, half-spaces:
    the projection ``crisp_projected`` used before the dual Newton solve, kept
    as an oracle and as the source of the false-certificate reproducer.

    Returns the point and whether the last iteration moved it by less than
    ``tol`` (False when ``max_iter`` iterations ran out first).
    """
    n = w.size
    sets = []
    if np.any(np.isfinite(lo)) or np.any(np.isfinite(hi)):
        sets.append(("box", None))
    for a, bb in rows:
        sets.append(("half", (a, float(a @ a), bb)))
    if budget is not None:
        sets.append(("budget", None))  # last, so the returned point meets it exactly

    x = w.copy()
    incr = [np.zeros(n) for _ in sets]
    for _ in range(max_iter):
        x_old = x.copy()
        for idx, (kind, data) in enumerate(sets):
            y = x + incr[idx]
            if kind == "box":
                x = np.clip(y, lo, hi)
            elif kind == "budget":
                x = y + (budget - y.sum()) / n
            else:
                a, aa, bb = data
                viol = float(a @ y) - bb
                x = y - (viol / aa) * a if viol > 0.0 else y.copy()
            incr[idx] = y - x
        if float(np.max(np.abs(x - x_old))) < tol:
            return x, True
    return x, False


def assert_kkt(x, y, lo, hi, budget, a, c, tol):
    """The projection's KKT conditions at x. Rows that do not bind have a zero
    multiplier (complementary slackness); those of the budget and the binding
    rows are recovered by least squares from the free coordinates, where
    x = y - E^T z holds exactly."""
    binding = c - a @ x <= tol
    e = a[binding] if budget is None else np.vstack([np.ones(x.size), a[binding]])
    free = (x > lo) & (x < hi)
    z = np.linalg.lstsq(e[:, free].T, (y - x)[free], rcond=None)[0]
    u = y - e.T @ z  # the unclipped point: x must be its clip onto the box
    assert np.abs(u - x)[free].max() <= tol
    assert np.all(u[x == lo] <= lo[x == lo] + tol) and np.all(u[x == hi] >= hi[x == hi] - tol)
    assert np.all((x >= lo) & (x <= hi))
    assert z[e.shape[0] - int(binding.sum()) :].min(initial=0.0) >= -tol
    assert (a @ x - c).max(initial=0.0) <= tol
    if budget is not None:
        assert abs(x.sum() - budget) <= tol


def _rows(n, budget, a=(), c=()):
    """The stacked rows (E, d, eq) of ``_project`` for the budget and the
    caps a x <= c."""
    return _row_system(ConstraintSet(budget=budget, linear_ineq=tuple(zip(a, c))), n)[2:]


def _violation(w, lo, hi, budget, a, c):
    """Worst miss of w on the box, the budget and the caps a x <= c."""
    v = max(float(np.max(lo - w, initial=0.0)), float(np.max(w - hi, initial=0.0)))
    if budget is not None:
        v = max(v, abs(float(w.sum()) - budget))
    return max(v, float(np.max(a @ w - c, initial=0.0)))


def _projection_case(case, seed):
    """A small feasible projection problem: y, lo, hi, budget, A, c."""
    rng = np.random.default_rng(seed)
    n = 12 + seed
    y = rng.normal(0.0, 1.0, n)
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    if case == "mixed_sign_rows":
        lo = np.full(n, -0.5)
        a = rng.normal(0.0, 1.0, (3, n))
    elif case == "finite_upper":
        lo, hi = np.zeros(n), rng.uniform(0.1, 0.3, n)
        a = (rng.integers(0, 3, n) == np.arange(3)[:, None]).astype(float)
    elif case == "rows_no_budget":
        lo[: n // 2], hi[n // 2 :] = -0.2, 0.4
        a = rng.normal(0.0, 1.0, (4, n)) * (rng.random((4, n)) < 0.6)
    else:  # budget_only
        lo = np.where(rng.random(n) < 0.7, 0.0, -np.inf)
        hi = np.where(rng.random(n) < 0.5, 0.3, np.inf)
        a = np.zeros((0, n))
    x0 = np.clip(rng.normal(0.0, 0.2, n), lo, hi)
    c = a @ x0 + rng.uniform(0.0, 0.2, a.shape[0]) * (rng.random(a.shape[0]) < 0.6)
    budget = None if case == "rows_no_budget" else float(x0.sum())
    return y, lo, hi, budget, a, c, x0


class TestProjection:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize(
        "case", ("mixed_sign_rows", "finite_upper", "rows_no_budget", "budget_only")
    )
    def test_matches_slsqp(self, case, seed):
        y, lo, hi, budget, a, c, x0 = _projection_case(case, seed)
        x, met = _project(y, lo, hi, *_rows(y.size, budget, a, c))
        assert met
        assert _violation(x, lo, hi, budget, a, c) <= 1e-12
        cons = [{"type": "ineq", "fun": lambda v: c - a @ v, "jac": lambda v: -a}] if len(c) else []
        if budget is not None:
            cons.append(
                {"type": "eq", "fun": lambda v: v.sum() - budget, "jac": lambda v: np.ones_like(v)}
            )
        bounds = [(b if np.isfinite(b) else None, t if np.isfinite(t) else None) for b, t in zip(lo, hi)]
        # a finer ftol is below what SLSQP's line search resolves: it then
        # stops next to the answer with status 8, on seeds that vary with the
        # BLAS thread count
        ref = minimize(
            lambda v: 0.5 * (v - y) @ (v - y), x0, jac=lambda v: v - y, bounds=bounds,
            constraints=cons, method="SLSQP", options={"ftol": 1e-12, "maxiter": 1000},
        )
        assert ref.success
        assert np.abs(x - ref.x).max() < 1e-7
        assert 0.5 * (x - y) @ (x - y) <= 0.5 * (ref.x - y) @ (ref.x - y) + 1e-12

    def test_budget_only_matches_breakpoint_search(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 40, 300):
            for scale in (1e-200, 1e-3, 1.0, 1e4):
                y = rng.normal(0.0, 1.0, n) * scale
                lo = np.where(rng.random(n) < 0.8, rng.normal(-0.3, 0.2, n) * scale, -np.inf)
                base = np.where(np.isfinite(lo), lo, 0.0)
                hi = np.where(rng.random(n) < 0.5, base + scale, np.inf)
                budget = float(np.clip(rng.normal(0.0, 0.3, n) * scale, lo, hi).sum())
                x, met = _project(y, lo, hi, *_rows(n, budget))
                want = _project_box_budget(y, lo, hi, budget)
                assert met
                assert np.abs(x - want).max() <= 1e-12 * np.abs(y).max(), (n, scale)

    @pytest.mark.parametrize("scale", (1.0, 1e-200, 1e200))
    def test_flat_dual_stretch(self, scale):
        # every coordinate clamps at the start, so the first Newton step is the
        # ridge's long jump; backtracking on ||F||^2 accepts a far point where
        # ||F|| is smaller and stalls there, backtracking on the dual does not
        y = scale * np.array([-0.7, 3.2, 0.5, -2.7])
        lo, hi = scale * np.array([-0.2, 0.0, -0.1, -0.4]), scale * np.array([0.0, 0.4, 0.5, -0.1])
        x, met = _project(y, lo, hi, *_rows(4, -0.6 * scale))
        assert met
        assert np.abs(x - _project_box_budget(y, lo, hi, -0.6 * scale)).max() <= 1e-15 * scale
        assert np.allclose(x / scale, [-0.2, 0.1, -0.1, -0.4], rtol=0.0, atol=1e-15)

    def test_subnormal_inputs(self):
        # 2^-e for inputs near 1e-310 is past the largest double, so the scale
        # is applied to the arrays, not formed as a factor
        y, lo, hi = np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, -np.inf), np.full(4, np.inf)
        want, _ = _project(y, lo, hi, *_rows(4, 5.0))
        x, met = _project(y * 1e-310, lo, hi, *_rows(4, 5e-310))
        assert met
        assert np.abs(x / 1e-310 - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("scale", (1.0, 1e-200, 1e200))
    def test_newton_stall_falls_back_to_a_gradient_step(self, scale):
        # a Newton direction here does not raise the dual at any step length;
        # the projected gradient step gets past it
        y = scale * np.array([-2.9, 1.5, -2.6])
        lo, hi = scale * np.array([0.3, -np.inf, -np.inf]), scale * np.array([0.8, 0.4, np.inf])
        a = np.array([[-2.0, 2.0, 0.0], [1.0, 0.0, 1.0], [1.0, 2.0, 1.0]])
        c = scale * np.array([-0.2, 1.0, 1.3])
        x, met = _project(y, lo, hi, *_rows(3, scale, a, c))
        assert met
        assert np.allclose(x / scale, [0.4, 0.3, 0.3], rtol=0.0, atol=1e-14)
        assert_kkt(x / scale, y / scale, lo / scale, hi / scale, 1.0, a, c / scale, 1e-12)

    def test_budget_at_a_corner_of_the_box(self):
        # the only feasible point is a corner; the breakpoint search returned
        # (1, 1), (1, 0) and raised on these
        lo, hi = np.zeros(2), np.ones(2)
        for y, budget, want in (((1.0, 2.0), 0.0, (0.0, 0.0)), ((5.0, -2.0), 0.0, (0.0, 0.0)),
                                ((-3.0, 0.5), 2.0, (1.0, 1.0))):
            x, met = _project(np.array(y), lo, hi, *_rows(2, budget))
            assert met and np.array_equal(x, want)

    def test_cancelling_multipliers_certify(self):
        # a nearly degenerate set: the two multipliers are ~4e3 times the
        # weights and cancel on the one free coordinate, so |F| cannot fall
        # below the rounding of y - E^T z, which the certificate's size counts
        y = np.array([8.096874233347314e-07, -4.953778275980728e-07])
        lo = np.array([-2.8941512583747127e-07, -5.766511718817745e-07])
        hi = np.array([np.inf, -2.0182930959769015e-07])
        a = np.array([[-0.9278425039727966, 0.0], [-0.6926934127927644, -0.9807510034951831]])
        c = np.array([-2.1379878204800837e-07, 3.8329915790302045e-08])
        x, met = _project(y, lo, hi, *_rows(2, 2.859641581645487e-08, a, c))
        assert met
        assert _violation(x, lo, hi, 2.859641581645487e-08, a, c) <= 1e-17  # 1e-10 of the weights

    def test_box_only_is_a_clip(self):
        y = np.array([-2.0, 0.5, 3.0])
        lo, hi = np.zeros(3), np.ones(3)
        x, met = _project(y, lo, hi, *_rows(3, None))
        assert met and np.array_equal(x, np.clip(y, lo, hi))

    def test_dykstra_false_certificate(self):
        # Dykstra's cycle stops moving while its increments have not settled,
        # so its stop rule reports a point that breaks the first cap by 0.27
        y = np.array([-0.43, -0.74, 0.25])
        lo, hi = np.zeros(3), np.full(3, np.inf)
        a, c = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), np.array([0.6, 0.6])
        x_dykstra, met_dykstra = _project_general(y, lo, hi, 1.0, list(zip(a, c)), tol=1e-15)
        assert met_dykstra and (a @ x_dykstra - c).max() > 1e-8
        x, met = _project(y, lo, hi, *_rows(y.size, 1.0, a, c))
        assert met and _violation(x, lo, hi, 1.0, a, c) <= 1e-15
        assert np.allclose(x, [0.0, 0.4, 0.6], rtol=0.0, atol=1e-15)
        assert_kkt(x, y, lo, hi, 1.0, a, c, 1e-14)

    def test_agrees_with_dykstra_where_it_converges(self):
        n = 60
        sect = sector_labels(n, 5)
        a = np.stack([(sect == k).astype(float) for k in range(5)])
        c = np.full(5, 0.3)
        lo, hi = np.zeros(n), np.full(n, np.inf)
        y = np.random.default_rng(3).normal(0.02, 0.02, n) + 0.03 * (sect < 2)
        x_dykstra, met_dykstra = _project_general(
            y, lo, hi, 1.0, list(zip(a, c)), tol=1e-15, max_iter=200000
        )
        x, met = _project(y, lo, hi, *_rows(y.size, 1.0, a, c))
        assert met_dykstra and met
        assert (a @ x - c).max() > -1e-12  # a cap binds
        assert np.abs(x - x_dykstra).max() < 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("scale", (1e-3, 10.0))
    def test_kkt_certificate_on_the_desk_book(self, scale):
        # long-only, budget one, five 30 % sector caps at N = 1000; the large
        # scale stands for the early sweeps, whose iterates reach tens
        n = 1000
        sect = sector_labels(n, 5)
        a = np.stack([(sect == k).astype(float) for k in range(5)])
        c = np.full(5, 0.3)
        lo, hi = np.zeros(n), np.full(n, np.inf)
        rng = np.random.default_rng(11)
        y = scale * (rng.normal(0.5, 1.0, n) + 2.0 * (sect == 0) + 1.0 * (sect == 1))
        x, met = _project(y, lo, hi, *_rows(y.size, 1.0, a, c))
        assert met
        assert x.min() >= 0.0 and _violation(x, lo, hi, 1.0, a, c) <= 1e-12
        assert (a @ x - c).max() > -1e-12  # a cap binds
        assert_kkt(x, y, lo, hi, 1.0, a, c, 1e-10 * max(1.0, scale))


def reference_clamp_sweeps(sigma, gamma, lo, hi, signals):
    """The per-coordinate clamp loop ``crisp_projected`` swept with before the
    kernel's clamped block solve: each w_i in turn is updated from its row of
    Sigma against the sweep's signal and clamped to [lo_i, hi_i]. Kept as the
    oracle; starts from the clamped diagonal solve of the first of
    ``signals`` and yields the iterate after a sweep against each later one."""
    s = sigma.entries
    d = np.diag(s).copy()
    signals = iter(signals)
    w = np.clip(next(signals) / d, lo, hi)
    for m in signals:
        for i in range(sigma.n):
            off = s[i] @ w - d[i] * w[i]
            wi = (m[i] - gamma * off) / d[i]
            w[i] = min(max(wi, lo[i]), hi[i])
        yield w.copy()


def _kernel_iterates(monkeypatch, sigma, mu, gamma, p, cs):
    """``crisp_projected``'s kernel iterates under its box, each with the
    dual-shifted signal it was swept against (the first: the clamped
    diagonal solve of mu)."""
    real, seen = solver._gauss_seidel, []

    def recording(m, *args):
        for (w,) in real(m, *args):
            seen.append((m.copy(), w.copy()))
            yield w[None]

    monkeypatch.setattr(solver, "_gauss_seidel", recording)
    crisp_projected(sigma, mu, gamma, p=p, constraints=cs, eps=1e-300)
    return seen


def _caps(n, cap, sectors=5):
    sect = sector_labels(n, sectors)
    return [((sect == k).astype(float), cap) for k in range(sectors)]


class TestClampedSweep:
    @pytest.mark.parametrize(
        "n, cs",
        (
            (150, long_only_budget(150, _caps(150, 0.3))),  # long-only, sector caps
            (200, ConstraintSet(lower=np.full(200, -0.01), upper=np.full(200, 0.02), budget=1.0)),
            (1, ConstraintSet(lower=np.zeros(1), upper=np.ones(1), budget=1.0)),  # N = 1
            (40, long_only_budget(40, _caps(40, 0.25, 4))),  # N < c = 64: one block
            (64, ConstraintSet(lower=np.zeros(64), upper=np.full(64, 0.03), budget=1.0)),
            (130, ConstraintSet(lower=np.full(130, -np.inf), upper=np.full(130, 0.01))),
        ),
        ids=("long_only_caps", "finite_upper", "n1", "n40", "n64", "upper_only_n130"),
    )
    @pytest.mark.parametrize("gamma", (0.5, 1.0))
    def test_same_iterates_as_the_clamp_loop(self, n, cs, gamma, monkeypatch):
        sigma = random_spd(1, 1) if n == 1 else gen_regime(RegimeSpec("block_sector", n=n, seed=n))
        lo, hi, _, _ = cs.resolved(n)
        seen = _kernel_iterates(monkeypatch, sigma, _rand_mu(n, n), gamma, 60, cs)
        signals, got = zip(*seen)
        assert np.array_equal(got[0], np.clip(signals[0] / np.diag(sigma.entries), lo, hi))
        ref = reference_clamp_sweeps(sigma, gamma, lo, hi, signals)
        for sweep, (want, w) in enumerate(zip(ref, got[1:]), 1):
            assert np.all((lo <= w) & (w <= hi))
            assert np.abs(w - want).max() <= 1e-12 * np.abs(want).max(), sweep
        assert any(np.any((w == lo) | (w == hi)) for w in got[1:])  # the box clamps
        if np.isfinite(hi).all():
            assert any(np.any(w == hi) for w in got[1:])  # and its upper bounds bind

    @pytest.mark.parametrize("n", (150, 64, 7))
    def test_wide_box_is_the_unclamped_solve(self, n):
        # the kernel's blocks of 64 sum in another order than crisp_solve's one block
        sigma = gen_regime(RegimeSpec("block_sector", n=n, sectors=min(n, 5), seed=n))
        mu = _rand_mu(n, n)
        wide = ConstraintSet(lower=np.full(n, -1e3), upper=np.full(n, 1e3))
        for gamma in (0.5, 1.0):
            for p in (1, 5, 100):
                got = crisp_projected(sigma, mu, gamma, p=p, constraints=wide, eps=1e-300)
                want = crisp_solve(sigma, mu, gamma, p_max=p, eps=1e-300).weights.values
                dev = np.abs(got.weights.values - want).max() / np.abs(want).max()
                assert dev <= 1e-12, (gamma, p)

    def test_same_iterates_while_the_duals_diverge(self, monkeypatch):
        # the one-point set of test_diverging_duals_return_a_feasible_point
        a = np.array([[-0.38, -0.38], [-0.37975, -0.37945], [-0.65, -1.91]])
        x0 = np.array([11.0, 4.0]) / 15.0
        cs = long_only_budget(2, list(zip(a, a @ x0)))
        sigma = random_spd(2, 3)
        seen = _kernel_iterates(monkeypatch, sigma, _rand_mu(2, 3), 0.5, 50, cs)
        signals, got = zip(*seen)
        assert np.abs(got[-1]).max() > 1e13
        ref = reference_clamp_sweeps(sigma, 0.5, np.zeros(2), np.full(2, np.inf), signals)
        for want, w in zip(ref, got[1:]):
            assert np.abs(w - want).max() <= 1e-12 * np.abs(want).max()

    def test_a_block_takes_at_most_c_plus_one_solves(self, monkeypatch):
        # mu = P_gamma w* for a w* with exact zeros: the sweep converges to w*,
        # and each zero sits at w >= 0's bound in a rounding tie, its solved
        # and recomputed values on either side of 0
        n, gamma = 150, 0.5
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=8))
        w_star = np.where(np.arange(n) % 3 == 0, 0.0, np.random.default_rng(8).uniform(1, 2, n))
        mu = Signal(shrink(sigma, gamma).entries @ w_star)
        cs = ConstraintSet(lower=np.zeros(n))
        solves, real_solve, real_dtrtrs = [], solver._clamped_solve, solver.dtrtrs

        def counting(*args, **kwargs):
            solves[-1] += 1
            return real_dtrtrs(*args, **kwargs)

        def per_block(*args):
            solves.append(0)
            return real_solve(*args)

        monkeypatch.setattr(solver, "dtrtrs", counting)
        monkeypatch.setattr(solver, "_clamped_solve", per_block)
        seen = _kernel_iterates(monkeypatch, sigma, mu, gamma, 200, cs)
        assert len(solves) == 200 * 3
        assert 1 < max(solves) <= solver._BOX_BLOCK + 1  # ties were repaired
        signals, got = zip(*seen)
        ref = reference_clamp_sweeps(sigma, gamma, cs.resolved(n)[0], np.full(n, np.inf), signals)
        for want, w in zip(ref, got[1:]):
            assert np.abs(w - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(got[-1] - w_star).max() < 1e-12

    def test_every_coordinate_leaving_its_bound(self, monkeypatch):
        # all held at 0 from the previous sweep, all free now: c solves
        c = solver._BOX_BLOCK
        p_g = shrink(random_spd(c, 4), 0.5).entries
        want = np.random.default_rng(4).uniform(1.0, 2.0, c)
        rhs, d = np.tril(p_g) @ want, np.diag(p_g).copy()
        # the strict block, as the kernel hands it over
        pt, lo, hi = (p_g - np.diag(d)).T.copy(order="F"), np.zeros(c), np.full(c, np.inf)
        calls = []
        real = solver.dtrtrs
        monkeypatch.setattr(solver, "dtrtrs", lambda *a, **k: calls.append(1) or real(*a, **k))
        x = solver._clamped_solve(pt, rhs, d, lo, hi, np.zeros(c))
        assert len(calls) == c
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def reference_projected(sigma, mu, gamma, p, cs, eps=solver.DEFAULT_EPS):
    """The dual ascent ``crisp_projected`` ran before its rows were one stacked
    system: a budget multiplier lambda and one cap multiplier nu_k per row,
    stepped row by row, the sweep reading mu - lambda 1 - A^T nu, and the box
    half of the stop rule's violation checked too. Kept as the oracle; the
    kernel and the projection are the package's. The stop rule reads the
    kernel iterate, and the last one is projected twice. Returns the weights."""
    n = sigma.n
    lo, hi, budget, rows = cs.resolved(n)
    a_mat = np.stack([a for a, _ in rows]) if rows else np.zeros((0, n))
    b_vec = np.array([bb for _, bb in rows]) if rows else np.zeros(0)
    eq = int(budget is not None)
    e, d_vec = np.vstack([np.ones((eq, n)), a_mat]), np.r_[[budget] * eq, b_vec]
    p_g = solver._shrunk(sigma.entries, gamma)
    d = np.diag(p_g).copy()
    np.fill_diagonal(p_g, 0.0)  # the kernel's blocks are strict; couple reads no diagonal
    m, inv_d, lam, nu = mu.values, 1.0 / d, 0.0, np.zeros(len(rows))

    def couple(s, t, x, y):
        return p_g[s:t, :s] @ x[:s] + p_g[s:t, t:] @ y[t:]

    m_eff = m.copy()
    block = lambda s, t: np.ascontiguousarray(p_g[s:t, s:t]).T  # noqa: E731
    iterates = solver._gauss_seidel(m_eff, d, block, solver._BOX_BLOCK, couple, (lo, hi))
    (w,) = next(iterates)
    for _ in range(p):
        w_prev = w
        m_eff[:] = m - lam - (a_mat.T @ nu if len(rows) else 0.0)
        (w,) = next(iterates)
        free = (w > lo + 1e-14) & (w < hi - 1e-14)
        if budget is not None:
            lam += (float(w.sum()) - budget) / max(float(inv_d[free].sum()), 1e-12)
        for k in range(len(rows)):
            h_k = max(float((a_mat[k] ** 2 * inv_d)[free].sum()), 1e-12)
            nu[k] = max(0.0, nu[k] + (float(a_mat[k] @ w) - b_vec[k]) / h_k)
        rel = reference_rel_change(w, w_prev)
        if rel <= eps and _violation(w, lo, hi, budget, a_mat, b_vec) <= max(eps, 1e-9):
            break
    y, _ = _project(w, lo, hi, e, d_vec, eq)
    return _project(y, lo, hi, e, d_vec, eq)[0]


class TestStackedRows:
    @pytest.mark.parametrize(
        "n, cs, ones",
        (
            (60, ConstraintSet(lower=np.zeros(60), budget=1.0), False),  # budget only
            (60, ConstraintSet(lower=np.full(60, -0.05), linear_ineq=tuple(_caps(60, 0.1, 4))), False),
            (80, ConstraintSet(lower=np.zeros(80), upper=np.full(80, 0.03), budget=1.0), False),
            (200, long_only_budget(200, _caps(200, 0.3)), True),  # a desk-like min-var book
            (50, ConstraintSet(lower=np.full(50, -0.5), upper=np.full(50, 0.5)), False),
        ),
        ids=("budget_only", "caps_no_budget", "finite_upper", "desk_like_n200", "box_only"),
    )
    @pytest.mark.parametrize("gamma", (0.5, 1.0))
    def test_same_weights_as_the_row_by_row_ascent(self, n, cs, ones, gamma):
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=n))
        mu = Signal(np.ones(n)) if ones else _rand_mu(n, n)
        got = crisp_projected(sigma, mu, gamma, p=300, constraints=cs).weights.values
        want = reference_projected(sigma, mu, gamma, 300, cs)
        if not cs.linear_ineq:  # without cap rows the ascent steps bit for bit as before
            assert np.array_equal(got, want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if n == 80:
            assert np.any(got == 0.03)  # the upper bounds bind

    def test_resolved_is_the_four_tuple_the_benchmark_reads(self):
        a = np.array([1.0, 0.0, 1.0])
        cs = ConstraintSet(lower=np.zeros(3), budget=1, linear_ineq=((a, 0.6), ([0, 1, 0], 1)))
        lo, hi, budget, rows = cs.resolved(3)
        assert np.array_equal(lo, np.zeros(3)) and np.array_equal(hi, np.full(3, np.inf))
        assert budget == 1 and isinstance(rows, list) and len(rows) == 2
        assert all(isinstance(r, tuple) and len(r) == 2 for r in rows)
        assert np.array_equal(rows[0][0], a) and rows[0][1] == 0.6
        assert np.array_equal(rows[1][0], [0.0, 1.0, 0.0]) and type(rows[1][1]) is float
        lo, hi, budget, rows = ConstraintSet().resolved(2)
        assert np.isneginf(lo).all() and np.isposinf(hi).all() and budget is None and rows == []

    def test_one_stacked_system(self):
        cs = long_only_budget(4, [(np.array([1.0, 1.0, 0.0, 0.0]), 0.5)])
        lo, hi, e, d, eq = _row_system(cs, 4)
        assert eq == 1 and np.array_equal(e, [[1, 1, 1, 1], [1, 1, 0, 0]])
        assert np.array_equal(d, [1.0, 0.5])
        w = np.array([0.4, 0.3, 0.2, 0.0])
        assert np.allclose(solver._row_miss(w, e, d, eq), [0.1, 0.2], rtol=0.0, atol=1e-15)
        assert np.array_equal(solver._row_miss(np.full(4, 0.25), e, d, eq), [0.0, 0.0])

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"lower": np.r_[np.nan, np.zeros(3)]},
            {"upper": np.r_[np.ones(3), np.nan]},
            {"budget": np.nan},
            {"budget": np.inf},
            {"budget": -np.inf},
            {"linear_ineq": ((np.ones(4), np.nan),)},
            {"linear_ineq": ((np.r_[np.nan, np.ones(3)], 1.0),)},
            {"linear_ineq": ((np.r_[np.inf, np.ones(3)], 1.0),)},
        ),
        ids=(
            "nan_lower", "nan_upper", "nan_budget", "inf_budget", "neg_inf_budget",
            "nan_cap", "nan_row_entry", "inf_row_entry",
        ),
    )
    def test_non_finite_input_is_a_parameter_error(self, kwargs):
        with pytest.raises(ParameterError):
            crisp_projected(random_spd(4, 2), _rand_mu(4, 2), constraints=ConstraintSet(**kwargs))

    def test_infinite_bounds_and_caps_stay_legal(self):
        n = 30
        sigma, mu = gen_regime(RegimeSpec("block_sector", n=n, seed=1)), _rand_mu(n, 1)
        sect = sector_labels(n, 3)
        loose = [((sect == 1).astype(float), np.inf)]
        for caps in (loose, [((sect == 0).astype(float), 0.2)] + loose):
            rep = crisp_projected(sigma, mu, 0.5, p=200, constraints=long_only_budget(n, caps))
            want = crisp_projected(sigma, mu, 0.5, p=200, constraints=long_only_budget(n, caps[:-1]))
            assert rep.converged and np.array_equal(rep.weights.values, want.weights.values)
        for cs in (
            ConstraintSet(linear_ineq=(((sect == 0).astype(float), -np.inf),)),
            ConstraintSet(lower=np.r_[np.inf, np.zeros(n - 1)], budget=1.0),
            ConstraintSet(upper=np.r_[-np.inf, np.ones(n - 1)]),
        ):
            with pytest.raises(InfeasibleConstraintsError):
                crisp_projected(sigma, mu, 0.5, constraints=cs)

    def test_an_infinite_box_is_crisp_solve(self):
        sigma, mu = random_spd(12, 5), _rand_mu(12, 5)
        box = ConstraintSet(lower=np.full(12, -np.inf), upper=np.full(12, np.inf))
        r1 = crisp_projected(sigma, mu, 0.5, p=50, constraints=box)
        r2 = crisp_solve(sigma, mu, 0.5, p_max=50)
        assert np.array_equal(r1.weights.values, r2.weights.values)
        assert (r1.sweeps_used, r1.converged) == (r2.sweeps_used, r2.converged)


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
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        assert rep.weights.norm_tag == "sum_one"

    def test_group_caps_respected(self):
        sigma = gen_regime(RegimeSpec("block_sector", n=40, seed=4))
        sect = sector_labels(40, 4)
        mu = gen_signal(SignalSpec("sector_tilt"), 40, sectors=sect)  # 0.04, -0.04, 0.02, -0.02
        caps = [((sect == k).astype(float), 0.40) for k in range(4)]
        rep = crisp_projected(sigma, mu, 0.5, p=500, constraints=long_only_budget(40, caps))
        w = rep.weights.values
        for k in range(4):
            assert w[sect == k].sum() <= 0.40 + 1e-8
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-8)

    def test_infeasible_raises(self):
        sigma = random_spd(5, 8)
        mu = _rand_mu(5, 8)
        bad = ConstraintSet(lower=np.zeros(5), upper=np.full(5, 0.1), budget=1.0)
        with pytest.raises(InfeasibleConstraintsError):
            crisp_projected(sigma, mu, 0.5, constraints=bad)

    def test_budget_at_the_top_of_the_box(self):
        # budget 10 in [0, 1]^10 leaves one feasible point, all ones
        sigma = gen_regime(RegimeSpec("block_sector", n=10, seed=1))
        cs = ConstraintSet(lower=np.zeros(10), upper=np.ones(10), budget=10.0)
        rep = crisp_projected(sigma, _rand_mu(10, 1), 0.5, p=50, constraints=cs)
        assert rep.converged and np.array_equal(rep.weights.values, np.ones(10))

    def _five_caps(self, n, cap):
        return long_only_budget(n, _caps(n, cap))

    def test_infeasible_caps_raise(self):
        # five 10 % caps hold at most half of the unit budget
        sigma = gen_regime(RegimeSpec("block_sector", n=50, seed=2))
        with pytest.raises(InfeasibleConstraintsError):
            crisp_projected(sigma, Signal(np.ones(50)), 0.5, constraints=self._five_caps(50, 0.1))

    def test_nearly_tight_caps_raise(self):
        # five caps of 0.19999999 miss the unit budget by 5e-8: a probe
        # tolerance of 1e-8 passed them and the solve later failed its sum-one tag
        sigma = gen_regime(RegimeSpec("block_sector", n=50, seed=42))
        cs = self._five_caps(50, 0.19999999)
        with pytest.raises(InfeasibleConstraintsError):
            crisp_projected(sigma, Signal(np.ones(50)), 0.5, p=200, constraints=cs)

    def test_probe_of_a_one_point_set(self):
        # every row binds at the set's only point and two rows are nearly
        # parallel: the origin's projection misses a row by 82 times the
        # probe's tolerance, through its large multipliers; the re-projection
        # by 0.014 times
        a = np.array([[-0.38, -0.38], [-0.37975, -0.37945], [-0.65, -1.91]])
        x0 = np.array([11.0, 4.0]) / 15.0
        assert _feasible(np.zeros(2), np.full(2, np.inf), *_rows(2, 1.0, a, a @ x0))
        assert not _feasible(np.zeros(2), np.full(2, np.inf), *_rows(2, 1.0, a, a @ x0 - 1e-9))

    def test_diverging_duals_return_a_feasible_point(self):
        # on the one-point set above the dual ascent diverges (the iterate
        # grows to 4.5e13); the projection of that iterate, certified relative
        # to its size, misses the second row by 2.2e-4, and projecting its
        # output once more lands on the set's only point
        a = np.array([[-0.38, -0.38], [-0.37975, -0.37945], [-0.65, -1.91]])
        x0 = np.array([11.0, 4.0]) / 15.0
        cs = long_only_budget(2, list(zip(a, a @ x0)))
        rep = crisp_projected(random_spd(2, 3), _rand_mu(2, 3), 0.5, p=50, constraints=cs)
        assert rep.weights.norm_tag == "sum_one"
        assert _violation(rep.weights.values, np.zeros(2), np.full(2, np.inf), 1.0, a, a @ x0) <= 1e-10
        assert np.allclose(rep.weights.values, x0, atol=1e-7)

    @pytest.mark.parametrize("seed", (30, 31))
    def test_probe_allows_the_rounding_of_a_certified_point(self, seed):
        # feasible sets whose re-projected origin misses a row by 1.13 and 1.21
        # times 8 eps N (|d_k| + |E_k||x|), within the probe's tolerance
        _, lo, hi, budget, a, c, _ = _projection_case("finite_upper", seed)
        assert _feasible(lo, hi, *_rows(lo.size, budget, a, c))

    def test_exactly_tight_caps_solve(self):
        # five 20 % caps: feasible only with every cap binding
        sigma = gen_regime(RegimeSpec("block_sector", n=50, seed=2))
        cs = self._five_caps(50, 0.2)
        rep = crisp_projected(sigma, Signal(np.ones(50)), 0.5, p=200, constraints=cs)
        lo, hi, budget, rows = cs.resolved(50)
        a, c = np.stack([r for r, _ in rows]), np.array([b for _, b in rows])
        assert rep.converged
        assert _violation(rep.weights.values, lo, hi, budget, a, c) <= 1e-8
        assert rep.weights.values.min() >= 0.0

    def test_projection_reports_its_iteration_cap(self):
        # box w >= 0, budget 1 and a 30 % cap on the first five assets
        n = 10
        w = np.linspace(0.5, -0.3, n)
        lo, hi = np.zeros(n), np.full(n, np.inf)
        a, c = np.r_[np.ones(5), np.zeros(5)][None, :], np.array([0.3])
        _, met = _project(w, lo, hi, *_rows(n, 1.0, a, c), max_iter=1)
        assert not met
        x, met = _project(w, lo, hi, *_rows(n, 1.0, a, c))
        assert met
        assert x[:5].sum() <= 0.3 + 1e-8 and x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_capped_projection_is_not_converged(self, monkeypatch):
        sigma = gen_regime(RegimeSpec("block_sector", n=20, seed=4))
        sect = sector_labels(20, 4)
        caps = [((sect == k).astype(float), 0.40) for k in range(4)]
        cs = long_only_budget(20, caps)
        rep = crisp_projected(sigma, _rand_mu(20, 4), 0.5, p=500, constraints=cs)
        assert rep.converged and rep.weights.norm_tag == "sum_one"
        monkeypatch.setattr(
            "crisp_alloc.solver._project",
            lambda *args: _project(*args, max_iter=1),
        )
        rep = crisp_projected(sigma, _rand_mu(20, 4), 0.5, p=500, constraints=cs)
        assert not rep.converged
        assert rep.weights.norm_tag == "raw"  # an uncertified projection's weights

    @pytest.mark.parametrize("p", (1, 100))
    def test_projects_four_times_whatever_the_sweep_count(self, p, monkeypatch):
        # two projections in _feasible and two of the last iterate; none per
        # sweep (eps 1e-300 runs every sweep, where a projection per sweep
        # would make 104 calls at p = 100)
        calls = []
        monkeypatch.setattr(solver, "_project", lambda *a: calls.append(1) or _project(*a))
        sigma = gen_regime(RegimeSpec("block_sector", n=200, seed=200))
        cs = long_only_budget(200, _caps(200, 0.3))
        rep = crisp_projected(sigma, Signal(np.ones(200)), 0.5, p=p, constraints=cs, eps=1e-300)
        assert rep.sweeps_used == p and len(calls) == 4

    def test_a_diverging_ascent_is_not_converged(self):
        # at gamma = 1 a sweep leaves no coordinate strictly inside the box, the
        # ascent's curvature floor 1e-12 makes the budget multiplier blow up and
        # every sweep clamps to the opposite bound; the stop rule must not read
        # that as convergence, and the twice-projected last iterate is feasible
        n = 80
        sigma, mu = gen_regime(RegimeSpec("block_sector", n=n, seed=n)), _rand_mu(n, n)
        cs = ConstraintSet(lower=np.zeros(n), upper=np.full(n, 0.02), budget=1.0)
        rep = crisp_projected(sigma, mu, 1.0, p=300, constraints=cs)
        w = rep.weights.values
        assert not rep.converged and rep.sweeps_used == 300
        assert w.min() >= 0.0 and w.max() <= 0.02 and w.sum() == pytest.approx(1.0, abs=1e-12)
        rep = crisp_projected(sigma, mu, 0.5, p=300, constraints=cs)
        assert rep.converged and rep.sweeps_used == 16

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

    def test_cap_must_be_positive(self):
        sigma = random_spd(4, 1)
        with pytest.raises(ParameterError):
            sweeps_to_tolerance(sigma, _rand_mu(4, 1), 0.5, 1e-10, cap=0)

    @pytest.mark.parametrize("n", (5, 40, 100))
    @pytest.mark.parametrize(
        "kind", ("block_sector", "factor", "equicorr", "spiked", "hedged_tight_blocks", "wide_vol")
    )
    def test_the_band_loop_count(self, kind, n):
        # one product a sweep up to sweep N, then blocks of 1, 2, 4, ..., 128
        # residuals, K doubled only while the doubled block fits under the
        # cap: caps on either side of sweep N, of the 2-row block's end and
        # of the first 128-row block's end (sweep N + 255), and the default.
        # Five signals on one recurrence pool the switch to squaring: a later
        # one crosses sweep N part way, or takes blocks from its first sweep
        # with the squares formed before it; each count is still its own call's
        sigma = gen_regime(RegimeSpec(kind, n=n, seed=n))
        mus = [_rand_mu(n, n + i) for i in range(5)]
        for gamma in (0.0, 1e-9, 0.1, 0.5, 1.0):
            for tol in (1e-6, 1e-10):
                for cap in (1, n - 1, n, n + 1, n + 3, n + 4, n + 255, n + 256, 50000):
                    want = block_sweeps_to_tolerance(sigma, mus[0], gamma, tol, cap)
                    assert tuple(sweeps_to_tolerance(sigma, mus[0], gamma, tol, cap)) == want, (gamma, tol, cap)
                    rec = solver._Recurrence(sigma, gamma)
                    for i, mu in enumerate(mus):
                        want = sweeps_to_tolerance(sigma, mu, gamma, tol, cap)
                        got = sweeps_to_tolerance(sigma, mu, gamma, tol, cap, recurrence=rec)
                        assert got == want, (gamma, tol, cap, i)

    def test_the_pool_switches_to_squaring_at_sweep_n(self):
        # N = 40, cap 30, a tol no residual meets: the first count runs 30
        # sweeps one product a sweep; the second 10 more, to sweep 40 of
        # the pool, then blocks of 1, 2, 4 and 8 residuals, forming G^2, G^4
        # and G^8; the third takes blocks from its first sweep with them
        n = 40
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=n))
        rec, states = solver._Recurrence(sigma, 0.5), []
        for i in range(3):
            assert sweeps_to_tolerance(sigma, _rand_mu(n, i), 0.5, 1e-300, 30, recurrence=rec) == (30, False)
            states.append((rec.swept, len(rec.powers)))
        assert states == [(30, 1), (40, 4), (41, 4)]

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_the_benchmark_capped_solve(self, seed):
        # hedged_tight_blocks at gamma = 1 is still above 1e-10 at 50,000 sweeps
        sigma = gen_regime(RegimeSpec("hedged_tight_blocks", n=40, seed=seed))
        mu = gen_signal(SignalSpec("gaussian", seed=seed + 1), 40)
        want = SweepDiagnostic(50000, False)
        assert sweeps_to_tolerance(sigma, mu, 1.0, 1e-10) == want
        assert block_sweeps_to_tolerance(sigma, mu, 1.0, 1e-10, 50000) == tuple(want)

    def test_weights_past_the_double_range(self):
        # subnormal variances put the diagonal solve past the largest double:
        # the counter raises as the solve does
        sigma = CovarianceMatrix(np.ldexp(gen_regime(RegimeSpec("block_sector", n=30, seed=3)).entries, -1040))
        mu = _rand_mu(30, 3)
        with pytest.raises(ConditioningError):
            crisp_solve(sigma, mu, 0.5)
        with pytest.raises(ConditioningError):
            sweeps_to_tolerance(sigma, mu, 0.5, 1e-10)

    @pytest.mark.parametrize("n, bound", ((300, 4.0), (1000, 3.0)))
    def test_working_matrices(self, n, bound):
        # P_gamma and its strict upper triangle, then G^K and its square, and
        # blocks of up to 256 residuals: a tol no residual meets runs to the
        # cap, past the first 128-row block
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=5))
        mu = _rand_mu(n, 5)
        assert peak_matrices(lambda: sweeps_to_tolerance(sigma, mu, 0.5, 1e-300, cap=n + 400), n) < bound

    def test_working_matrices_of_a_shared_recurrence(self):
        # P_gamma, gamma U, G and its seven squares to G^128 stay for the
        # counts to come, with blocks of up to 256 residuals (3.3 at N = 100):
        # 13.3 read, where one count alone holds at most two N x N arrays
        n = 100
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=5))
        mus = [_rand_mu(n, 5 + i) for i in range(5)]

        def counts():
            rec = solver._Recurrence(sigma, 0.5)
            for mu in mus:
                sweeps_to_tolerance(sigma, mu, 0.5, 1e-300, cap=n + 400, recurrence=rec)
            assert len(rec.powers) == 8

        assert peak_matrices(counts, n) < 14.0


_SIGMA4, _MU4, _MU3 = random_spd(4, 0), _rand_mu(4, 0), _rand_mu(3, 0)
_FM2 = FactorModel(np.ones((2, 1)), np.eye(1), np.ones(2))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: FactorModel(np.ones((3, 1)), np.eye(1), np.ones(2)), ParameterError,
                     "loadings rows must match idio_var length", id="factor-rows"),
        pytest.param(lambda: FactorModel(np.ones((2, 2)), np.eye(1), np.ones(2)), ParameterError,
                     "factor_cov must be K x K", id="factor-cov-shape"),
        pytest.param(lambda: FactorModel(np.ones((2, 1)), np.eye(1), [-2.0, 1.0]),
                     InvalidCovarianceError, "implied variances must be strictly positive",
                     id="factor-variance"),
        pytest.param(lambda: crisp_solve_stream(_FM2, _MU3), ParameterError,
                     "signal length does not match covariance size", id="stream-pairing"),
        pytest.param(lambda: crisp_projected(_SIGMA4, _MU3), ParameterError,
                     "signal length does not match covariance size", id="projected-pairing"),
        pytest.param(lambda: crisp_projected(_SIGMA4, _MU4, constraints=ConstraintSet(
                         lower=np.zeros(3))), ParameterError,
                     "bounds must be length-N vectors", id="bound-length"),
        pytest.param(lambda: crisp_projected(_SIGMA4, _MU4, constraints=ConstraintSet(
                         linear_ineq=((np.ones(3), 1.0),))), ParameterError,
                     "inequality rows must be length-N vectors", id="row-length"),
        pytest.param(lambda: crisp_solve(_SIGMA4, _MU4, ordering=[0.5, 1.7, 2.2, 3.9]),
                     ParameterError, "ordering must be a permutation of 0..N-1",
                     id="float-ordering"),
        pytest.param(lambda: crisp_solve(_SIGMA4, _MU4, ordering=np.array([0.0, 1.0, 2.0, 3.0])),
                     ParameterError, "ordering must be a permutation of 0..N-1",
                     id="integral-float-ordering"),
        pytest.param(lambda: crisp_solve(random_spd(2, 0), _rand_mu(2, 0), ordering=[True, False]),
                     ParameterError, "ordering must be a permutation of 0..N-1",
                     id="bool-ordering"),
        pytest.param(lambda: crisp_solve(_SIGMA4, _MU4, p_max=True), ParameterError,
                     "the sweep cap must be at least 1", id="cap-bool"),
        pytest.param(lambda: crisp_solve(_SIGMA4, _MU4, p_max=2.5), ParameterError,
                     "the sweep cap must be at least 1", id="cap-float"),
        pytest.param(lambda: crisp_solve_stream(_FM2, _rand_mu(2, 0), p_max=2.5), ParameterError,
                     "the sweep cap must be at least 1", id="stream-cap-float"),
        pytest.param(lambda: crisp_projected(_SIGMA4, _MU4, p=2.5), ParameterError,
                     "the sweep cap must be at least 1", id="projected-cap-float"),
        pytest.param(lambda: sweeps_to_tolerance(_SIGMA4, _MU4, 0.5, 1e-10, cap=2.5),
                     ParameterError, "the sweep cap must be at least 1", id="residual-cap-float"),
        # a recurrence serves the covariance object and the gamma it was built for
        pytest.param(lambda: sweeps_to_tolerance(_SIGMA4, _MU4, 0.5, 1e-10,
                                                 recurrence=solver._Recurrence(random_spd(4, 1), 0.5)),
                     ParameterError, "the recurrence is of another covariance or gamma",
                     id="recurrence-sigma"),
        pytest.param(lambda: sweeps_to_tolerance(_SIGMA4, _MU4, 0.5, 1e-10,
                                                 recurrence=solver._Recurrence(_SIGMA4, 0.4)),
                     ParameterError, "the recurrence is of another covariance or gamma",
                     id="recurrence-gamma"),
    ],
)
def test_rejected_input(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_an_integer_ordering_of_any_width_is_read():
    want = crisp_solve(_SIGMA4, _MU4, ordering=[3, 1, 0, 2]).weights.values
    for dtype in (np.int32, np.uint8, np.int64):
        got = crisp_solve(_SIGMA4, _MU4, ordering=np.array([3, 1, 0, 2], dtype=dtype))
        assert np.array_equal(got.weights.values, want)
