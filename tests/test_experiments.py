import csv
import io
import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crisp_alloc import (
    ConditioningError,
    CovarianceMatrix,
    ExperimentSpec,
    ExperimentTable,
    MethodSpec,
    ParameterError,
    RegimeSpec,
    Signal,
    SignalSpec,
    SweepDiagnostic,
    WeightVector,
    a1_sum_norm_mvo,
    a2_flat_ivp_tree,
    allocate,
    build_tree,
    cotton,
    crisp_solve,
    dir_diag,
    dir_error,
    export,
    gen_regime,
    gen_signal,
    hrp,
    hrp_mu,
    hrp_sigma_mu,
    kappa,
    markowitz_direct,
    nonmonotone_instance,
    preset,
    run_experiment,
    run_trial,
    sample_cov,
    sample_mean,
    sample_returns,
    sector_labels,
    sharpe,
    signed_cosine,
    to_correlation,
)
from crisp_alloc import experiments
from crisp_alloc.experiments import METHOD_IDS, PRESET_NAMES, Inputs, _Context, _score


def _mini_spec(**kw):
    defaults = dict(
        name="mini",
        regime=RegimeSpec("block_sector", n=20, sectors=4, seed=11),
        signal=SignalSpec("gaussian", seed=2),
        methods=(MethodSpec("hrp"), MethodSpec("crisp", 0.5, 50)),
        t_values=(40,),
        trials=6,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestRunTrial:
    def test_deterministic_record(self):
        spec = _mini_spec()
        a = run_trial(spec, 3)
        b = run_trial(spec, 3)
        for key in a.outcomes:
            assert a.outcomes[key] == b.outcomes[key]

    def test_different_trials_differ(self):
        spec = _mini_spec()
        a = run_trial(spec, 0)
        b = run_trial(spec, 1)
        key = spec.methods[1]
        assert a.outcomes[key].sharpe != b.outcomes[key].sharpe

    def test_signal_blind_methods_ignore_mu(self):
        sigma = gen_regime(RegimeSpec("block_sector", n=16, sectors=4, seed=0))
        mu1 = gen_signal(SignalSpec("gaussian", seed=1), 16)
        mu2 = gen_signal(SignalSpec("gaussian", seed=2), 16)
        for mid in ("one-over-n", "hrp"):
            w1 = allocate(MethodSpec(mid), Inputs(sigma, mu1))[0].values
            w2 = allocate(MethodSpec(mid), Inputs(sigma, mu2))[0].values
            assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_every_method_in_the_table_allocates(self, method):
        sigma = gen_regime(RegimeSpec("block_sector", n=12, sectors=3, seed=1))
        mu = gen_signal(SignalSpec("gaussian", seed=1), 12)
        w, report = allocate(MethodSpec(method, 0.5, 20), Inputs(sigma, mu))
        assert w.n == 12 and np.all(np.isfinite(w.values))
        assert report is None or report.weights is w

    @pytest.mark.parametrize(
        "methods, builds",
        (
            (("markowitz", "one-over-n", "crisp-stream"), 0),
            (("hrp", "cotton", "crisp"), 1),
        ),
    )
    def test_a_trial_builds_the_tree_only_when_a_method_reads_it(self, methods, builds, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return build_tree(*args)

        monkeypatch.setattr(experiments, "build_tree", counting)
        spec = _mini_spec(methods=tuple(MethodSpec(m) for m in methods))
        for i in range(3):
            calls.clear()
            rec = run_trial(spec, i)
            assert len(calls) == builds
            assert all(math.isfinite(o.sharpe) for o in rec.outcomes.values())

    def test_unknown_method_id(self):
        with pytest.raises(ParameterError):
            MethodSpec("ledoit-wolf")

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"gamma": 1.5}, {"gamma": -1.0}, {"gamma": math.nan}, {"sweeps": 0},
            {"eps": 0.0}, {"eps": math.nan}, {"eps": -1e-8},
        ),
    )
    def test_gamma_and_sweeps_are_checked_up_front(self, kwargs):
        # rather than in every trial, as a NaN record counted as instability
        with pytest.raises(ParameterError):
            MethodSpec("crisp", **kwargs)
        with pytest.raises(ParameterError):
            MethodSpec("hrp", **kwargs)

    @pytest.mark.parametrize("ic", (0.0, 1.5, -0.1))
    def test_ic_outside_the_unit_interval_is_checked_up_front(self, ic):
        # rather than in a trial: ic = 0 divided by zero there, ic = 1.5 took
        # the root of a negative number and ic = -0.1 ran
        with pytest.raises(ParameterError, match="ic must lie in"):
            _mini_spec(mu_estimator="ic_noise", ic=ic)

    def test_ic_of_one_is_a_noiseless_signal(self):
        spec = _mini_spec(mu_estimator="ic_noise", ic=1.0)
        oracle = replace(spec, mu_estimator="oracle")
        key = spec.methods[1]
        assert run_trial(spec, 0).outcomes[key] == run_trial(oracle, 0).outcomes[key]

    @pytest.mark.parametrize("t_values", ((-5,), (1,), (40, 0)))
    def test_t_below_two_is_checked_up_front(self, t_values):
        # the bound sample_returns holds every draw to
        with pytest.raises(ParameterError, match="at least 2"):
            _mini_spec(t_values=t_values)

    def test_oracle_ceiling(self):
        # with true inputs, no method beats the direct solution's Sharpe
        sigma = gen_regime(RegimeSpec("block_sector", n=20, sectors=4, seed=5))
        sect = sector_labels(20, 4)
        mu = gen_signal(SignalSpec("gaussian", seed=5), 20)
        ceiling = sharpe(markowitz_direct(sigma, mu).values, sigma, mu)
        for m in ("hrp-mu", "hrp-sigma-mu", "crisp", "markowitz", "hsp"):
            w, _ = allocate(MethodSpec(m, 0.7), Inputs(sigma, mu))
            assert sharpe(w.values, sigma, mu) <= ceiling + 1e-10


class TestScore:
    def test_instability_flag(self):
        spec = _mini_spec(signal=SignalSpec("ones"))
        ctx = _Context(
            sigma_true=gen_regime(spec.regime),
            mu_true=Signal(np.ones(20)),
            w_star=np.ones(20),
            oracle_minvar_vol=0.01,
            minvar_mode=True,
        )
        crazy, _ = allocate(MethodSpec("one-over-n"), Inputs(ctx.sigma_true, ctx.mu_true))
        out = _score(ctx, crazy)
        assert out.unstable  # equal weight vol far exceeds 5x a tiny oracle vol

    def test_zero_sum_weights_name_their_reason(self):
        ctx = _Context(
            sigma_true=gen_regime(RegimeSpec("block_sector", n=4, sectors=2, seed=0)),
            mu_true=Signal(np.ones(4)),
            w_star=np.ones(4),
            oracle_minvar_vol=0.01,
            minvar_mode=False,
        )
        out = _score(ctx, WeightVector(np.zeros(4), "raw"))
        assert out.unstable and math.isnan(out.sharpe) and out.oos_vol == math.inf
        assert out.reason == "DegenerateInputError"


class TestRunExperiment:
    def test_parallel_matches_serial(self):
        spec = _mini_spec()
        r1 = run_experiment(spec, jobs=1)
        r2 = run_experiment(spec, jobs=4)
        assert r1.cells == r2.cells

    def test_sample_mean_estimator(self):
        # the trial's signal is the sample mean of its own draws
        methods = (MethodSpec("markowitz"), MethodSpec("hrp-mu"), MethodSpec("crisp", 0.5, 50))
        spec = _mini_spec(mu_estimator="sample_mean", methods=methods, trials=3)
        records = run_experiment(spec, jobs=1).records
        assert run_experiment(spec, jobs=2).records == records
        rec = records[2]
        assert run_trial(spec, rec.trial_index, rec.t) == rec
        sigma_true = gen_regime(spec.regime)
        mu_true = gen_signal(spec.signal, spec.regime.n)
        seed = np.random.SeedSequence([spec.seed, rec.t, rec.trial_index])
        returns = sample_returns(sigma_true, mu_true, rec.t, seed)
        w = markowitz_direct(sample_cov(returns, ridge=spec.ridge), sample_mean(returns)).values
        got = rec.outcomes[methods[0]]
        assert got.sharpe == sharpe(w, sigma_true, mu_true)
        assert got.signed_cos == signed_cosine(w, markowitz_direct(sigma_true, mu_true).values)
        oracle = run_trial(replace(spec, mu_estimator="oracle"), rec.trial_index, rec.t)
        assert oracle.outcomes[methods[0]].sharpe != got.sharpe

    def test_cells_ordering(self):
        spec = _mini_spec(t_values=(40, 60))
        res = run_experiment(spec)
        keys = [(c.method, c.gamma, c.t) for c in res.cells]
        assert keys == sorted(keys)

    def test_instability_counted_not_raised(self):
        # unridged T = 60 < N = 100: the sample covariance is singular, so its
        # Schur blocks break down; each such draw is a record, not an abort
        m = MethodSpec("cotton", 0.5)
        spec = replace(preset("oos_minvar"), ridge=0.0, t_values=(60,), trials=4, methods=(m,))
        res = run_experiment(spec)
        outs = [r.outcomes[m] for r in res.records]
        broken = [o for o in outs if o.reason == "SchurBreakdownError"]
        assert broken and all(o.unstable for o in broken)
        cell = res.cells[0]
        assert cell.trials == 4 and cell.instability >= len(broken)

    def test_failing_method_is_a_record_not_an_abort(self):
        # unridged T = 60 < N = 100: the direct solve's factorization fails
        spec = replace(
            preset("oos_minvar"),
            ridge=0.0,
            t_values=(60,),
            trials=2,
            methods=(MethodSpec("hrp"), MethodSpec("markowitz")),
        )
        res = run_experiment(spec)
        for rec in res.records:
            failed = rec.outcomes[MethodSpec("markowitz")]
            assert failed.unstable and math.isnan(failed.sharpe)
            assert failed.reason == "SingularCovarianceError"
            kept = rec.outcomes[MethodSpec("hrp")]
            assert math.isfinite(kept.sharpe) and kept.reason == ""
        hrp_cell = next(c for c in res.cells if c.method == "hrp")
        assert hrp_cell.trials == 2 and math.isfinite(hrp_cell.mean_sharpe)


def _expected_preset(name, full, seed):
    """Every preset's spec written out field by field, as a pin on the table."""
    block = lambda n: RegimeSpec("block_sector", n=n, seed=seed)  # noqa: E731
    ones, gauss = SignalSpec("ones"), SignalSpec("gaussian", seed=7)
    trials = 80 if full else 40
    m = MethodSpec
    specs = {
        "recovery": ExperimentSpec(name, block(200), ones, kind="recovery", seed=seed),
        "minvar_direction": ExperimentSpec(
            name, block(200), ones, kind="minvar_direction", seed=seed
        ),
        "graduated": ExperimentSpec(name, block(200), gauss, kind="graduated", seed=seed),
        "worst_case": ExperimentSpec(
            name,
            RegimeSpec("hedged_tight_blocks", n=100, seed=seed),
            SignalSpec("worst_case", restarts=32 if full else 16),
            kind="worst_case",
            seed=seed,
        ),
        "sweep_rate": ExperimentSpec(name, block(100), gauss, kind="sweep_rate", seed=seed),
        "trajectory": ExperimentSpec(name, block(100), gauss, kind="trajectory", seed=seed),
        "oos_sensitivity": ExperimentSpec(
            name, block(100), gauss, trials=trials, seed=seed,
            methods=(
                m("one-over-n"), m("hrp"), m("markowitz"), m("hrp-mu", 0.5), m("hrp-mu", 1.0),
                m("hrp-sigma-mu", 0.5), m("hrp-sigma-mu", 1.0), m("crisp", 0.3),
                m("crisp", 0.5), m("crisp", 0.7), m("crisp", 1.0),
            ),
        ),
        "oos_structural": ExperimentSpec(
            name, block(100), SignalSpec("sector_tilt"), t_values=(60, 120, 240),
            trials=trials, seed=seed,
            methods=(
                m("one-over-n"), m("hrp"), m("markowitz"), m("hrp-mu", 1.0),
                m("hrp-sigma-mu", 0.5), m("hrp-sigma-mu", 1.0), m("crisp", 0.5),
                m("crisp", 0.7), m("crisp", 1.0),
            ),
        ),
        "oos_minvar": ExperimentSpec(
            name, block(100), ones, t_values=(60, 120, 240, 500), trials=trials, seed=seed,
            methods=(
                m("one-over-n"), m("hrp"), m("cotton", 0.5), m("cotton", 0.7),
                m("cotton", 1.0), m("hrp-mu", 1.0), m("hrp-sigma-mu", 1.0), m("crisp", 0.5),
                m("crisp", 0.7), m("crisp", 1.0), m("markowitz"),
            ),
        ),
        "sweep_regularization": ExperimentSpec(
            name, block(100), gauss, t_values=(60, 200), trials=200 if full else 40,
            mu_estimator="ic_noise", ic=0.05, kind="sweep_regularization", seed=seed,
        ),
        "adaptive_calibration": ExperimentSpec(
            name, block(100 if full else 60), gauss, trials=100 if full else 20,
            kind="adaptive_calibration", seed=seed,
        ),
    }
    return specs[name]


class TestPresets:
    @pytest.mark.parametrize("seed", (42, 7))
    @pytest.mark.parametrize("full", (False, True))
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_spec_is_pinned(self, name, full, seed):
        want = _expected_preset(name, full, seed)
        got = preset(name, full=full, seed=seed)
        assert got == want
        assert repr(got) == repr(want)

    def test_preset_names_are_pinned(self):
        assert PRESET_NAMES == (
            "recovery", "minvar_direction", "graduated", "worst_case", "sweep_rate",
            "trajectory", "oos_sensitivity", "oos_structural", "oos_minvar",
            "sweep_regularization", "adaptive_calibration",
        )

    def test_readme_lists_every_preset(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        listed = readme.split("\nPresets: ", 1)[1].split(". ", 1)[0]
        assert tuple(re.findall(r"`(\w+)`", listed)) == PRESET_NAMES

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown experiment kind 'nope'"):
            run_experiment(_mini_spec(kind="nope"))

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ParameterError) as err:
            preset("nope")
        for name in PRESET_NAMES:
            assert name in str(err.value)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_construct(self, name):
        spec = preset(name)
        assert spec.name == name
        full = preset(name, full=True)
        assert full.trials >= spec.trials

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_jobs_do_not_change_the_tables(self, name):
        spec = replace(preset(name), trials=1)
        serial = [export(t) for t in run_experiment(spec, jobs=1).tables]
        threaded = [export(t) for t in run_experiment(spec, jobs=2).tables]
        assert serial == threaded

    @pytest.mark.parametrize("name", ("sweep_regularization", "adaptive_calibration"))
    def test_nested_presets_pass_jobs_through(self, name, monkeypatch):
        inner = experiments.run_experiment
        seen = []

        def spy(spec, jobs=1):
            seen.append((spec.kind, jobs))
            return inner(spec, jobs)

        monkeypatch.setattr(experiments, "run_experiment", spy)
        spy(replace(preset(name), trials=1), jobs=2)
        assert seen[0] == (name, 2)
        assert seen[1:] and all(s == ("monte_carlo", 2) for s in seen[1:])

    def test_sweep_regularization_matches_one_run_per_configuration(self):
        # the table as it was built before: one single-method run per (gamma, p)
        spec = replace(preset("sweep_regularization"), trials=2)
        rows = []
        for g in (0.3, 0.5, 0.7, 1.0):
            for p in (1, 5, 10, 50, 100, 500):
                sub = replace(spec, methods=(MethodSpec("crisp", g, p),), kind="monte_carlo")
                for c in run_experiment(sub).cells:
                    rows.append((g, p, c.t, c.mean_sharpe, c.std_sharpe))
        cols = ("gamma", "sweeps", "t", "mean_sharpe", "std_sharpe")
        oracle = ExperimentTable("sweep_regularization", cols, tuple(rows))
        assert export(run_experiment(spec).tables[0]) == export(oracle)

    def test_recovery_preset_runs(self):
        spec = preset("recovery")
        spec = type(spec)(**{**spec.__dict__, "regime": RegimeSpec("block_sector", n=30, seed=42)})
        res = run_experiment(spec)
        table = res.tables[0]
        by_label = {r[0]: r for r in table.rows}
        assert by_label["flat-ivp-tree g=0 mu=1"][1] < 1e-12
        assert by_label["flat-ivp-tree g=0 mu=1"][3] == "match"
        assert by_label["hrp-mu g=0 mu=1"][1] < 1e-12

    def test_trajectory_preset(self):
        res = run_experiment(preset("trajectory"))
        rows = res.tables[0].rows
        d0 = rows[0][1]
        assert rows[-1][1] < 1e-10  # exact error vanishes at full coupling
        assert max(r[1] for r in rows) > d0


# The diagnostic tables as the kernels give them, each kernel called by hand
# with its own arguments: a pin on the method table's rows.


def _recovery_oracle(spec):
    sigma = gen_regime(spec.regime)
    ones = Signal(np.ones(spec.regime.n))
    tree = build_tree(to_correlation(sigma), "ward")
    w_hrp = hrp(sigma, tree).sum_normalized().values
    rows = []
    for label, w in (
        ("cotton g=0", cotton(sigma, tree, 0.0)),
        ("flat-ivp-tree g=0 mu=1", a2_flat_ivp_tree(sigma, ones, tree, 0.0)),
        ("sum-norm-mvo g=0 mu=1", a1_sum_norm_mvo(sigma, ones, tree, 0.0)),
        ("hrp-mu g=0 mu=1", hrp_mu(sigma, ones, tree, 0.0)),
        ("hrp-sigma-mu g=0 mu=1", hrp_sigma_mu(sigma, ones, tree, 0.0)),
    ):
        v = w.sum_normalized().values
        rel = float(np.linalg.norm(v - w_hrp) / np.linalg.norm(w_hrp))
        cos = signed_cosine(v, w_hrp)
        rows.append((label, rel, cos, "match" if rel < 1e-12 else ("approx" if cos > 0.98 else "differ")))
    return ExperimentTable("recovery", ("comparison", "rel_diff", "cos", "verdict"), tuple(rows))


def _minvar_direction_oracle(spec):
    sigma = gen_regime(spec.regime)
    ones = Signal(np.ones(spec.regime.n))
    tree = build_tree(to_correlation(sigma), "ward")
    target = markowitz_direct(sigma, ones).values
    rows = []
    for g in (0.0, 0.3, 0.5, 0.7, 1.0):
        ws = (
            cotton(sigma, tree, g),
            crisp_solve(sigma, ones, g, p_max=200, eps=1e-300, ordering=tree.leaf_order).weights,
            a2_flat_ivp_tree(sigma, ones, tree, g),
            hrp_mu(sigma, ones, tree, g),
            a1_sum_norm_mvo(sigma, ones, tree, g),
        )
        rows.append((g, *(dir_error(w.values, target) for w in ws)))
    cols = ("gamma", "cotton", "crisp_p200", "flat_ivp_tree", "hrp_mu", "sum_norm_mvo")
    return ExperimentTable("minvar_direction", cols, tuple(rows))


def _graduated_oracle(spec):
    n, seed, gauss = spec.regime.n, spec.seed, SignalSpec("gaussian", seed=7)
    rows = []
    for label, regime, sig in (
        ("base_gaussian", RegimeSpec("block_sector", n=n, seed=seed), gauss),
        ("factor_k3", RegimeSpec("factor", n=n, k=3, seed=seed), gauss),
        ("hedged", RegimeSpec("hedged_tight_blocks", n=n, seed=seed), gauss),
        ("hedged_worst_mu", RegimeSpec("hedged_tight_blocks", n=n, seed=seed),
         SignalSpec("worst_case", restarts=8)),
    ):
        sigma = gen_regime(regime)
        mu = gen_signal(sig, n, sectors=sector_labels(n, regime.sectors), sigma=sigma)
        tree = build_tree(to_correlation(sigma), "ward")
        target = markowitz_direct(sigma, mu).values
        row = [label, kappa(to_correlation(sigma)), dir_diag(sigma, mu)]
        for g in (0.0, 1.0):
            row.append(dir_error(a1_sum_norm_mvo(sigma, mu, tree, g).values, target))
        for g in (0.0, 1.0):
            w = crisp_solve(sigma, mu, g, p_max=200, eps=1e-300, ordering=tree.leaf_order).weights
            row.append(dir_error(w.values, target))
        rows.append(tuple(row))
    cols = ("panel", "kappa_c", "dir_diag", "sum_norm_mvo_g0", "sum_norm_mvo_g1",
            "crisp_p200_g0", "crisp_p200_g1")
    return ExperimentTable("graduated", cols, tuple(rows))


@pytest.mark.parametrize(
    "name, oracle, calls, trees",
    (
        pytest.param("recovery", _recovery_oracle, 6, 1, id="recovery"),
        pytest.param("minvar_direction", _minvar_direction_oracle, 25, 1, id="minvar_direction"),
        pytest.param("graduated", _graduated_oracle, 16, 4, id="graduated"),
    ),
)
def test_diagnostic_preset_allocates_through_the_table(name, oracle, calls, trees, monkeypatch):
    # every column passes through experiments.allocate, one tree per population,
    # and the table is the kernels' own, value for value
    spec = replace(preset(name), regime=RegimeSpec("block_sector", n=40, seed=42))
    inner_allocate, inner_build = experiments.allocate, experiments.build_tree
    seen, built = [], []

    def allocate_spy(m, x):
        seen.append(m)
        return inner_allocate(m, x)

    def build_spy(*args):
        built.append(args)
        return inner_build(*args)

    monkeypatch.setattr(experiments, "allocate", allocate_spy)
    monkeypatch.setattr(experiments, "build_tree", build_spy)
    (table,) = run_experiment(spec).tables
    assert (len(seen), len(built)) == (calls, trees)
    assert table == oracle(spec)


class TestNonmonotoneInstance:
    def test_is_spd(self):
        sigma, mu = nonmonotone_instance()
        assert sigma.min_eigenvalue() > 0
        assert mu.n == sigma.n == 4


class TestExport:
    def test_empty_table_header_only(self):
        t = ExperimentTable("x", ("a", "b"), ())
        assert export(t, "csv") == b"a,b\n"

    def test_one_cell_two_lines(self):
        t = ExperimentTable("x", ("a", "b"), ((1, 2.0),))
        assert export(t, "csv").decode().splitlines() == ["a,b", "1,2"]

    def test_round_trip(self):
        spec = _mini_spec(trials=3)
        res = run_experiment(spec)
        blob = export(res.tables[0], "csv").decode()
        rows = list(csv.reader(io.StringIO(blob)))
        assert tuple(rows[0]) == res.tables[0].columns
        for parsed, row in zip(rows[1:], res.tables[0].rows):
            for got, want in zip(parsed, row):
                if isinstance(want, float) and not math.isnan(want):
                    assert float(got) == pytest.approx(want, rel=1e-5)
                elif isinstance(want, int):
                    assert int(got) == want

    def test_tsv_and_text(self):
        t = ExperimentTable("x", ("a", "b"), ((1, 2.5),))
        assert b"\t" in export(t, "tsv")
        assert export(t, "text").decode().splitlines()[0].startswith("a")

    def test_nan_cell(self):
        # a failed or undefined cell is written as nan in every format
        t = ExperimentTable("x", ("a", "b"), (("x", float("nan")), ("y", 1.5)))
        assert export(t, "csv") == b"a,b\nx,nan\ny,1.5\n"
        assert export(t, "tsv") == b"a\tb\nx\tnan\ny\t1.5\n"
        assert export(t, "text") == b"a  b  \nx  nan\ny  1.5\n"

    def test_six_significant_digits(self):
        t = ExperimentTable("x", ("a",), ((0.123456789,),))
        assert export(t, "csv") == b"a\n0.123457\n"

    def test_unknown_format(self):
        with pytest.raises(ParameterError):
            export(ExperimentTable("x", ("a",), ()), "yaml")


def test_sweep_rate_names_a_capped_solve(monkeypatch):
    # a solve stopped at the cap would enter the mean as the cap itself
    calls = []

    def capped(sigma, mu, gamma, tol):
        calls.append(gamma)
        return SweepDiagnostic(50000, False)

    monkeypatch.setattr(experiments, "sweeps_to_tolerance", capped)
    with pytest.raises(ConditioningError, match="sweep cap hit at gamma=0, signal seed 100"):
        run_experiment(preset("sweep_rate"))
    assert calls == [0.0]


@pytest.mark.parametrize("k", (-330, 330))
def test_pca_factors_scale_with_sigma(k):
    # the idiosyncratic floor is relative to each variance; an absolute 1e-10
    # bound every asset of Sigma * 2^-330, where crisp-stream then reported a
    # one-sweep solve 100% off as converged
    sigma = gen_regime(RegimeSpec("block_sector", n=60, seed=3))
    want = np.ldexp(experiments._pca_factors(sigma, 3).idio_var, k)
    got = experiments._pca_factors(CovarianceMatrix(np.ldexp(sigma.entries, k)), 3).idio_var
    assert np.abs(got - want).max() <= 1e-12 * want.max()


_SCALES = (-600, -40, 0, 40, 600)
# under Sigma 2^a and mu 2^b: the weights 2^(b - a) the unscaled ones, exactly
# or (crisp-stream, whose factors come from eigh) to 1e-14; the rest the same bits
_SCALED_EXACTLY, _SCALED_CLOSE = {"crisp", "markowitz"}, {"crisp-stream"}


def _scaled_inputs(a, b):
    sigma = gen_regime(RegimeSpec("block_sector", n=60, seed=3))
    mu = gen_signal(SignalSpec("gaussian", seed=3), 60)
    return Inputs(CovarianceMatrix(np.ldexp(sigma.entries, a)), Signal(np.ldexp(mu.values, b)))


@pytest.mark.parametrize("method", sorted(set(METHOD_IDS) - {"crisp-projected"}))
def test_every_method_at_any_scale(method):
    m, scaled = MethodSpec(method, 0.5), method in _SCALED_EXACTLY | _SCALED_CLOSE
    base = allocate(m, _scaled_inputs(0, 0))[0].values
    for a, b in itertools.product(_SCALES, _SCALES):
        if scaled and b - a > 1000:  # 2^(b - a) the weights lies past the largest double
            with pytest.raises(ConditioningError, match="the weights overflow the double range"):
                allocate(m, _scaled_inputs(a, b))
            continue
        w = allocate(m, _scaled_inputs(a, b))[0].values
        if scaled and a - b > 1000:  # below the least double: the nearest weights are zeros
            assert not w.any(), (a, b)
        elif method in _SCALED_CLOSE:
            assert np.abs(np.ldexp(w, a - b) - base).max() <= 1e-14 * np.abs(base).max(), (a, b)
        else:
            assert np.array_equal(w, np.ldexp(base, b - a) if scaled else base), (a, b)


@pytest.mark.parametrize(
    "k",
    [pytest.param(k, marks=pytest.mark.xfail(
        k == 600, strict=True,
        reason="the dual ascent's absolute curvature floor max(h, 1e-12) binds (ROADMAP item 1)",
    )) for k in _SCALES],
)
def test_projected_at_any_common_scale(k):
    # Sigma and mu times the same 2^k leave the constrained optimum where it is
    m = MethodSpec("crisp-projected", 0.5)
    base = allocate(m, _scaled_inputs(0, 0))[0].values
    assert np.array_equal(allocate(m, _scaled_inputs(k, k))[0].values, base)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: _mini_spec(mu_estimator="median"), ParameterError,
                     "unknown mu estimator 'median'", id="mu-estimator"),
        pytest.param(lambda: _mini_spec(ic=0.0), ParameterError, "ic must lie in (0, 1]",
                     id="ic"),
        pytest.param(lambda: _mini_spec(t_values=()), ParameterError,
                     "t_values must hold at least one T", id="no-t"),
        pytest.param(lambda: _mini_spec(t_values=(40.5,)), ParameterError,
                     "every T in t_values must be at least 2", id="t-float"),
        pytest.param(lambda: _mini_spec(trials=2.5), ParameterError,
                     "trials must be at least 1", id="trials-float"),
        pytest.param(lambda: _mini_spec(trials=True), ParameterError,
                     "trials must be at least 1", id="trials-bool"),
        pytest.param(lambda: MethodSpec("crisp", 0.5, 0), ParameterError,
                     "the sweep cap must be at least 1", id="sweeps-0"),
        pytest.param(lambda: MethodSpec("crisp", 0.5, 2.5), ParameterError,
                     "the sweep cap must be at least 1", id="sweeps-float"),
        pytest.param(lambda: allocate(MethodSpec("crisp-stream", factors=2.5),
                                      Inputs(gen_regime(RegimeSpec("block_sector", n=12)), Signal(np.ones(12)))),
                     ParameterError, "--factors must be between 1 and N = 12, got 2.5", id="factors-float"),
        pytest.param(lambda: _mini_spec(seed=-1), ParameterError, "seed must be at least 0",
                     id="spec-seed-negative"),
        *(
            pytest.param(lambda i=i, t=t: run_trial(_mini_spec(trials=1), i, t), ParameterError, fragment,
                         id=label)
            for label, i, t, fragment in (
                ("trial-negative", -1, None, "trial_index must be at least 0"),
                ("trial-float", 1.0, None, "trial_index must be at least 0"),
                ("trial-bool", True, None, "trial_index must be at least 0"),
                ("t-float", 0, 7.5, "t must be at least 2"),
                ("t-1", 0, 1, "t must be at least 2"),
            )
        ),
        *(
            pytest.param(lambda jobs=jobs: run_experiment(_mini_spec(trials=1), jobs=jobs),
                         ParameterError, "jobs must be a whole number of at least 1",
                         id=f"jobs-{jobs}")
            for jobs in (0, -3, 2.5, True)
        ),
    ],
)
def test_rejected_input(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
