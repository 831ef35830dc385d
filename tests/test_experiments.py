import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from crisp_alloc import (
    ExperimentSpec,
    ExperimentTable,
    MethodSpec,
    ParameterError,
    RegimeSpec,
    Signal,
    SignalSpec,
    allocate,
    build_tree,
    export,
    gen_regime,
    gen_signal,
    markowitz_direct,
    nonmonotone_instance,
    preset,
    run_experiment,
    run_trial,
    sector_labels,
    sharpe,
    to_correlation,
)
from crisp_alloc import experiments
from crisp_alloc.experiments import METHOD_IDS, PRESET_NAMES, _Context, _score


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
        key = spec.methods[1].key
        assert a.outcomes[key].sharpe != b.outcomes[key].sharpe

    def test_signal_blind_methods_ignore_mu(self):
        sigma = gen_regime(RegimeSpec("block_sector", n=16, sectors=4, seed=0))
        tree = build_tree(to_correlation(sigma), "ward")
        mu1 = gen_signal(SignalSpec("gaussian", seed=1), 16)
        mu2 = gen_signal(SignalSpec("gaussian", seed=2), 16)
        for mid in ("one-over-n", "hrp"):
            w1 = allocate(MethodSpec(mid), sigma, mu1, tree).values
            w2 = allocate(MethodSpec(mid), sigma, mu2, tree).values
            assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_every_method_in_the_table_allocates(self, method):
        sigma = gen_regime(RegimeSpec("block_sector", n=12, sectors=3, seed=1))
        mu = gen_signal(SignalSpec("gaussian", seed=1), 12)
        tree = build_tree(to_correlation(sigma), "ward")
        w = allocate(MethodSpec(method, 0.5, 20), sigma, mu, tree)
        assert w.n == 12 and np.all(np.isfinite(w.values))

    def test_unknown_method_id(self):
        with pytest.raises(ParameterError):
            MethodSpec("ledoit-wolf")

    def test_oracle_ceiling(self):
        # with true inputs, no method beats the direct solution's Sharpe
        sigma = gen_regime(RegimeSpec("block_sector", n=20, sectors=4, seed=5))
        sect = sector_labels(20, 4)
        mu = gen_signal(SignalSpec("gaussian", seed=5), 20)
        tree = build_tree(to_correlation(sigma), "ward")
        ceiling = sharpe(markowitz_direct(sigma, mu).values, sigma, mu)
        for m in ("hrp-mu", "hrp-sigma-mu", "crisp", "markowitz", "hsp"):
            w = allocate(MethodSpec(m, 0.7), sigma, mu, tree)
            assert sharpe(w.values, sigma, mu) <= ceiling + 1e-10


class TestScore:
    def test_instability_flag(self):
        spec = _mini_spec(signal=SignalSpec("ones"))
        ctx = _Context(
            sigma_true=gen_regime(spec.regime),
            mu_true=Signal(np.ones(20)),
            sectors=sector_labels(20, 4),
            w_star=np.ones(20),
            oracle_minvar_vol=0.01,
            minvar_mode=True,
        )
        crazy = allocate(MethodSpec("one-over-n"), ctx.sigma_true, ctx.mu_true, None)
        out = _score(ctx, crazy)
        assert out.unstable  # equal weight vol far exceeds 5x a tiny oracle vol


class TestRunExperiment:
    def test_parallel_matches_serial(self):
        spec = _mini_spec()
        r1 = run_experiment(spec, jobs=1)
        r2 = run_experiment(spec, jobs=4)
        assert r1.cells == r2.cells

    def test_cells_ordering(self):
        spec = _mini_spec(t_values=(40, 60))
        res = run_experiment(spec)
        keys = [(c.method, c.gamma, c.t) for c in res.cells]
        assert keys == sorted(keys)

    def test_instability_counted_not_raised(self):
        # cotton on tiny-T samples may break down; the cell must absorb it
        spec = _mini_spec(
            methods=(MethodSpec("cotton", 0.5),),
            t_values=(21,),
            trials=8,
            ridge=1e-10,
        )
        res = run_experiment(spec)
        cell = res.cells[0]
        assert cell.trials == 8
        assert cell.instability >= 0  # no exception propagated

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
            failed = rec.outcomes[MethodSpec("markowitz").key]
            assert failed.unstable and math.isnan(failed.sharpe)
            assert failed.reason == "SingularCovarianceError"
            kept = rec.outcomes[MethodSpec("hrp").key]
            assert math.isfinite(kept.sharpe) and kept.reason == ""
        hrp_cell = next(c for c in res.cells if c.method == "hrp")
        assert hrp_cell.trials == 2 and math.isfinite(hrp_cell.mean_sharpe)


class TestPresets:
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

    def test_six_significant_digits(self):
        t = ExperimentTable("x", ("a",), ((0.123456789,),))
        assert export(t, "csv") == b"a\n0.123457\n"

    def test_unknown_format(self):
        with pytest.raises(ParameterError):
            export(ExperimentTable("x", ("a",), ()), "yaml")
