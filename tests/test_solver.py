import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

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
from crisp_alloc.solver import _feasible, _project, _violation
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
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize(
        "case", ("mixed_sign_rows", "finite_upper", "rows_no_budget", "budget_only")
    )
    def test_matches_slsqp(self, case, seed):
        y, lo, hi, budget, a, c, x0 = _projection_case(case, seed)
        x, met = _project(y, lo, hi, budget, a, c)
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
                x, met = _project(y, lo, hi, budget, np.zeros((0, n)), np.zeros(0))
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
        x, met = _project(y, lo, hi, -0.6 * scale, np.zeros((0, 4)), np.zeros(0))
        assert met
        assert np.abs(x - _project_box_budget(y, lo, hi, -0.6 * scale)).max() <= 1e-15 * scale
        assert np.allclose(x / scale, [-0.2, 0.1, -0.1, -0.4], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("scale", (1.0, 1e-200, 1e200))
    def test_newton_stall_falls_back_to_a_gradient_step(self, scale):
        # a Newton direction here does not raise the dual at any step length;
        # the projected gradient step gets past it
        y = scale * np.array([-2.9, 1.5, -2.6])
        lo, hi = scale * np.array([0.3, -np.inf, -np.inf]), scale * np.array([0.8, 0.4, np.inf])
        a = np.array([[-2.0, 2.0, 0.0], [1.0, 0.0, 1.0], [1.0, 2.0, 1.0]])
        c = scale * np.array([-0.2, 1.0, 1.3])
        x, met = _project(y, lo, hi, scale, a, c)
        assert met
        assert np.allclose(x / scale, [0.4, 0.3, 0.3], rtol=0.0, atol=1e-14)
        assert_kkt(x / scale, y / scale, lo / scale, hi / scale, 1.0, a, c / scale, 1e-12)

    def test_budget_at_a_corner_of_the_box(self):
        # the only feasible point is a corner; the breakpoint search returned
        # (1, 1), (1, 0) and raised on these
        lo, hi, none = np.zeros(2), np.ones(2), (np.zeros((0, 2)), np.zeros(0))
        for y, budget, want in (((1.0, 2.0), 0.0, (0.0, 0.0)), ((5.0, -2.0), 0.0, (0.0, 0.0)),
                                ((-3.0, 0.5), 2.0, (1.0, 1.0))):
            x, met = _project(np.array(y), lo, hi, budget, *none)
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
        x, met = _project(y, lo, hi, 2.859641581645487e-08, a, c)
        assert met
        assert _violation(x, lo, hi, 2.859641581645487e-08, a, c) <= 1e-17  # 1e-10 of the weights

    def test_box_only_is_a_clip(self):
        y = np.array([-2.0, 0.5, 3.0])
        lo, hi = np.zeros(3), np.ones(3)
        x, met = _project(y, lo, hi, None, np.zeros((0, 3)), np.zeros(0))
        assert met and np.array_equal(x, np.clip(y, lo, hi))

    def test_dykstra_false_certificate(self):
        # Dykstra's cycle stops moving while its increments have not settled,
        # so its stop rule reports a point that breaks the first cap by 0.27
        y = np.array([-0.43, -0.74, 0.25])
        lo, hi = np.zeros(3), np.full(3, np.inf)
        a, c = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), np.array([0.6, 0.6])
        x_dykstra, met_dykstra = _project_general(y, lo, hi, 1.0, list(zip(a, c)), tol=1e-15)
        assert met_dykstra and (a @ x_dykstra - c).max() > 1e-8
        x, met = _project(y, lo, hi, 1.0, a, c)
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
        x, met = _project(y, lo, hi, 1.0, a, c)
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
        x, met = _project(y, lo, hi, 1.0, a, c)
        assert met
        assert x.min() >= 0.0 and _violation(x, lo, hi, 1.0, a, c) <= 1e-12
        assert (a @ x - c).max() > -1e-12  # a cap binds
        assert_kkt(x, y, lo, hi, 1.0, a, c, 1e-10 * max(1.0, scale))


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
        mu = gen_signal(SignalSpec("sector_tilt", tilts=(0.04, -0.04, 0.02, -0.02)), 40, sectors=sect)
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
        sect = sector_labels(n, 5)
        return long_only_budget(n, [((sect == k).astype(float), cap) for k in range(5)])

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
        assert _feasible(np.zeros(2), np.full(2, np.inf), 1.0, a, a @ x0)
        assert not _feasible(np.zeros(2), np.full(2, np.inf), 1.0, a, a @ x0 - 1e-9)

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
        assert _feasible(lo, hi, budget, a, c)

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
        _, met = _project(w, lo, hi, 1.0, a, c, max_iter=1)
        assert not met
        x, met = _project(w, lo, hi, 1.0, a, c)
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
