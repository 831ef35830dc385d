import hashlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from crisp_alloc import (
    FactorModel,
    MethodSpec,
    RegimeSpec,
    Signal,
    SignalSpec,
    SingularCovarianceError,
    allocate,
    cli,
    crisp_solve_stream,
    experiments,
    export,
    gen_regime,
    gen_signal,
    preset,
    run_experiment,
    trajectory,
    worst_case_mu,
)
from crisp_alloc.analysis import default_gamma_grid
from crisp_alloc.cli import main
from crisp_alloc.experiments import METHOD_IDS
from crisp_alloc.synthetic import _REGIMES, _SIGNALS


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenAllocateRoundTrip:
    def test_round_trip(self, tmp_path, capsys):
        cov = tmp_path / "cov.csv"
        code, out, _ = run_cli(
            ["gen", "--regime", "block", "--n", "12", "--out", str(cov), "--seed", "3"],
            capsys,
        )
        assert code == 0 and cov.exists()
        code, out, _ = run_cli(["allocate", "--method", "hrp", "--cov", str(cov)], capsys)
        assert code == 0
        weights = [float(x) for x in out.splitlines()[1].split(":")[1].split()]
        assert len(weights) == 12
        # printed at six significant digits
        assert sum(weights) == pytest.approx(1.0, abs=1e-5)

    def test_gen_with_signal(self, tmp_path, capsys):
        cov = tmp_path / "c.csv"
        code, out, _ = run_cli(
            [
                "gen", "--regime", "factor:k=2", "--n", "10",
                "--out", str(cov), "--signal", "gaussian:sigma=0.03",
            ],
            capsys,
        )
        assert code == 0
        mu_path = tmp_path / "c_mu.csv"
        assert mu_path.exists()
        code, _, _ = run_cli(
            ["allocate", "--method", "hrp-sigma-mu", "--gamma", "0.5",
             "--cov", str(cov), "--mu", str(mu_path)],
            capsys,
        )
        assert code == 0

    @pytest.mark.parametrize("signal", ("ones", "gaussian", "tilt", "worst:restarts=2"))
    def test_allocate_on_gen_files_prints_what_the_specs_print(self, signal, tmp_path, capsys):
        # one recipe: a spec given to allocate draws the inputs gen writes, and
        # a signal spec on a covariance file draws on its five equal sectors
        regime, sig = ["--regime", "block", "--n", "12"], ["--signal", signal, "--seed", "42"]
        cov = tmp_path / "cov.csv"
        assert run_cli(["gen", *regime, *sig, "--out", str(cov)], capsys)[0] == 0
        alloc = ["allocate", "--method", "crisp"]
        files = ["--cov", str(cov), "--mu", str(tmp_path / "cov_mu.csv")]
        code, from_files, _ = run_cli([*alloc, *files], capsys)
        assert code == 0
        assert run_cli([*alloc, *regime, *sig], capsys) == (0, from_files, "")
        assert run_cli([*alloc, "--cov", str(cov), *sig], capsys) == (0, from_files, "")

    def test_solvers_report_their_convergence(self, capsys):
        # a line of its own after the weights line, which is parsed and stays as it was
        base = ["allocate", "--regime", "block", "--n", "10", "--seed", "4"]
        code, out, _ = run_cli(base + ["--method", "crisp-projected", "--sweeps", "1"], capsys)
        lines = out.splitlines()
        assert code == 0 and lines[1].startswith("weights:")
        assert lines[2] == "sweeps: 1  converged: False"
        for method in ("crisp", "crisp-stream", "crisp-projected"):
            code, out, _ = run_cli(base + ["--method", method, "--sweeps", "5000"], capsys)
            sweeps, converged = out.splitlines()[2].split("  ")
            assert code == 0 and converged == "converged: True", method
            assert 1 <= int(sweeps.removeprefix("sweeps: ")) < 5000
        code, out, _ = run_cli(base + ["--method", "hrp"], capsys)
        assert code == 0 and "converged" not in out

    @pytest.mark.parametrize(
        "args, digest",
        (
            ("", "3cf4326139adcb094e5be375e03ce4e71853af57f9539ec3d701c4a096ee3025"),
            ("--n 12 --seed 5", "4f1687fba6394c31a711ba58a51d11963290a22e2c26a1d947267829ccb74712"),
        ),
    )
    def test_gen_wide_vol_bytes_are_pinned(self, args, digest, tmp_path, capsys):
        cov = tmp_path / "wide.csv"
        argv = ["gen", "--regime", "wide_vol", *args.split(), "--out", str(cov)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(cov.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "method", ("one-over-n", "markowitz", "crisp-stream", "crisp-projected")
    )
    def test_treeless_method_builds_no_tree(self, method, capsys, monkeypatch):
        args = ["allocate", "--method", method, "--regime", "block", "--n", "10", "--seed", "4"]
        code, want, _ = run_cli(args, capsys)
        assert code == 0

        def no_tree(*_):
            raise RuntimeError("build_tree called")

        monkeypatch.setattr(experiments, "build_tree", no_tree)
        code, got, _ = run_cli(args, capsys)
        assert code == 0
        assert got == want


class TestNpyFiles:
    def test_allocate_reads_and_writes_npy_like_csv(self, tmp_path, capsys):
        cov = tmp_path / "c.csv"
        gen = ["gen", "--regime", "factor:k=2", "--n", "10", "--out", str(cov), "--signal", "gaussian"]
        assert run_cli(gen, capsys)[0] == 0
        mu = tmp_path / "c_mu.csv"
        np.save(tmp_path / "c.npy", np.loadtxt(cov, delimiter=","))
        np.save(tmp_path / "mu.npy", np.loadtxt(mu, delimiter=","))  # a 1-D signal
        runs = {}
        for cov_in, mu_in, out in ((cov, mu, "w.csv"), ("c.npy", "mu.npy", "w.npy")):
            args = ["allocate", "--method", "crisp", "--cov", str(tmp_path / cov_in),
                    "--mu", str(tmp_path / mu_in), "--out", str(tmp_path / out)]
            code, stdout, _ = run_cli(args, capsys)
            assert code == 0
            runs[out] = stdout.replace(out, "")
        assert runs["w.csv"] == runs["w.npy"]
        w = np.load(tmp_path / "w.npy", allow_pickle=False)
        assert w.shape == (10,)
        assert np.array_equal(w, np.loadtxt(tmp_path / "w.csv"))

    def test_values_round_trip_exactly(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((5, 4)) * np.logspace(-300, 300, 4)
        path = str(tmp_path / "sub" / "m.npy")
        cli._write_matrix(path, m)
        assert np.array_equal(cli._read_matrix(path), m)
        cli._write_matrix(path, np.arange(3))  # a vector reads back as one row
        assert np.array_equal(cli._read_matrix(path), [[0.0, 1.0, 2.0]])

    @pytest.mark.parametrize(
        "write, message",
        (
            (lambda p: p.write_text("1.0,0.1\n0.1,1.0\n"), "magic string"),
            (lambda p: p.write_bytes(b""), "cannot read"),
            (lambda p: np.save(p, np.array([1.0, "a"], dtype=object)), "cannot read"),
            (lambda p: np.save(p, np.array([["1", "0"], ["0", "1"]])), "not a real numeric"),
            (lambda p: np.save(p, np.eye(2) + 0j), "not a real numeric"),
            (lambda p: np.save(p, np.ones((2, 2, 2))), "at most two dimensions"),
            (lambda p: np.save(p, np.zeros((0, 0))), "empty array"),
            (lambda p: np.save(p, np.eye(3)) or p.write_bytes(p.read_bytes()[:-8]), "cannot read"),
            (lambda p: np.savez(p.with_suffix(""), a=np.eye(2)) or p.with_suffix(".npz").rename(p),
             "magic string"),
        ),
        ids=("csv_text", "empty_file", "object_dtype", "strings", "complex", "three_d", "no_entries",
             "truncated", "npz"),
    )
    def test_bad_npy_is_an_error(self, write, message, tmp_path, capsys):
        bad = tmp_path / "bad.npy"
        write(bad)
        code, _, err = run_cli(["allocate", "--method", "hrp", "--cov", str(bad)], capsys)
        assert code == 1
        assert err.startswith("error: ") and message in err


    @pytest.mark.parametrize("name, mu_name", (("x.npy", "x_mu.npy"), ("x.csv", "x_mu.csv"),
                                               ("x.v2.npy", "x.v2_mu.npy")))
    def test_gen_signal_keeps_the_out_suffix(self, name, mu_name, tmp_path, capsys):
        cov = tmp_path / name
        argv = ["gen", "--regime", "block", "--n", "6", "--out", str(cov), "--signal", "gaussian"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted((name, mu_name))
        assert f"wrote {tmp_path / mu_name} (6 x 1)" in out
        assert cli._read_matrix(str(tmp_path / mu_name)).size == 6


class TestStreamAllocate:
    def test_prints_the_library_weights(self, capsys):
        # N = 200, K = 3: the stream sweeps 8 blocks of 25 assets
        n, k = 200, 3
        args = ["allocate", "--method", "crisp-stream", "--regime", "block", "--n", str(n),
                "--seed", "7", "--factors", str(k), "--gamma", "0.7"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        sigma = gen_regime(RegimeSpec("block_sector", n=n, seed=7))
        eigs, vecs = scipy.linalg.eigh(sigma.entries, subset_by_index=(n - k, n - 1))
        top = vecs * np.sqrt(eigs)
        d = np.diag(sigma.entries)
        fm = FactorModel(top, np.eye(k), np.maximum(d - (top**2).sum(axis=1), 1e-10 * d))
        rep = crisp_solve_stream(fm, Signal(np.ones(n)), 0.7, p_max=100, eps=1e-8)
        assert out.splitlines()[1] == "weights: " + " ".join(f"{x:.6g}" for x in rep.weights.values)


class TestDeterminism:
    def test_allocate_output_bytes_identical(self, tmp_path, capsys):
        outs = []
        for i in range(2):
            path = tmp_path / f"w{i}.csv"
            code, _, _ = run_cli(
                ["allocate", "--method", "crisp", "--gamma", "0.5",
                 "--regime", "block", "--n", "10", "--seed", "9",
                 "--signal", "gaussian:sigma=0.02", "--out", str(path)],
                capsys,
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_experiment_trials_override(self, tmp_path, capsys):
        argv = ["experiment", "oos_sensitivity", "--trials", "2", "--out", str(tmp_path)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        spec = replace(preset("oos_sensitivity"), trials=2)
        want = export(run_experiment(spec).tables[0])
        assert (tmp_path / "oos_sensitivity" / "cells.csv").read_bytes() == want

    def test_experiment_output_bytes_identical(self, tmp_path, capsys):
        blobs = []
        for i in range(2):
            root = tmp_path / f"run{i}"
            code, _, _ = run_cli(["experiment", "trajectory", "--out", str(root)], capsys)
            assert code == 0
            blobs.append((root / "trajectory" / "trajectory.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestErrors:
    @pytest.mark.parametrize("k", ("0", "11"))
    def test_factor_count_outside_one_to_n(self, k, capsys):
        args = ["allocate", "--method", "crisp-stream", "--regime", "block", "--n", "10",
                "--factors", k]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "--factors" in err

    def test_gamma_outside_the_unit_interval(self, capsys):
        args = ["allocate", "--method", "hrp", "--regime", "block", "--n", "10", "--gamma", "2"]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "gamma" in err

    def test_malformed_csv_line_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,0.1\n0.1,oops\n")
        code, _, err = run_cli(["allocate", "--method", "hrp", "--cov", str(bad)], capsys)
        assert code == 1
        assert "bad.csv:2:2" in err

    def test_ragged_csv(self, tmp_path, capsys):
        bad = tmp_path / "ragged.csv"
        bad.write_text("1.0,0.1\n0.1\n")
        code, _, err = run_cli(["allocate", "--method", "hrp", "--cov", str(bad)], capsys)
        assert code == 1
        assert "ragged" in err

    @pytest.mark.parametrize(
        "text, message",
        (
            ("", "empty.csv: empty file"),
            ("\n  \n", "empty.csv: empty file"),
            ("1.0,0.1\n0.1,1_0\n", "empty.csv:2:2: not a number: '1_0'"),  # float() reads 10
        ),
        ids=("empty", "blank_lines", "digit_separator"),
    )
    def test_csv_without_a_matrix(self, text, message, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text(text)
        code, _, err = run_cli(["allocate", "--method", "hrp", "--cov", str(bad)], capsys)
        assert code == 1
        assert err == f"error: {tmp_path / message}\n"

    def test_csv_values_read_exactly(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((5, 4)) * np.logspace(-200, 200, 4)
        path = tmp_path / "m.csv"
        cli._write_matrix(str(path), m)
        path.write_text("  \n" + path.read_text().replace("\n", "\r\n\n ", 2))
        assert np.array_equal(cli._read_matrix(str(path)), m)

    def test_unknown_preset_lists_options(self, capsys):
        code, _, err = run_cli(["experiment", "bogus"], capsys)
        assert code == 2
        assert "recovery" in err and "oos_minvar" in err
        assert err.count("recovery") == 1  # one list of the valid names

    def test_failed_experiment_names_the_file_it_wrote(self, tmp_path, capsys, monkeypatch):
        def broken(spec, jobs=1):
            raise SingularCovarianceError("synthetic failure")

        monkeypatch.setattr(cli, "run_experiment", broken)
        code, _, err = run_cli(["experiment", "recovery", "--out", str(tmp_path)], capsys)
        failed = tmp_path / "recovery" / "FAILED.txt"
        assert code == 1
        assert failed.read_text(encoding="utf-8") == "synthetic failure\n"
        assert f"wrote {failed}" in err and "partial" not in err
        assert [p.name for p in (tmp_path / "recovery").iterdir()] == ["FAILED.txt"]

    @pytest.mark.parametrize("spec", ("factor:k=x", "block:sectors=1.5", "equicorr:rho=high"))
    def test_regime_value_that_does_not_convert(self, spec, tmp_path, capsys):
        argv = ["gen", "--regime", spec, "--n", "6", "--out", str(tmp_path / "c.csv")]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith("error: regime ") and "is not a valid" in err

    def test_signal_value_that_does_not_convert(self, tmp_path, capsys):
        argv = ["gen", "--regime", "block", "--n", "6", "--signal", "gaussian:sigma=abc",
                "--out", str(tmp_path / "c.csv")]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err == "error: signal sigma='abc' is not a valid float\n"

    @pytest.mark.parametrize("spec", ("block:sectors=0", "hedged:sectors=-2", "factor:k=0"))
    def test_regime_needs_a_sector_and_a_factor(self, spec, tmp_path, capsys):
        argv = ["gen", "--regime", spec, "--n", "6", "--out", str(tmp_path / "c.csv")]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err == "error: sectors and k must be at least 1\n"

    def test_gen_without_out_fails_before_generating(self, monkeypatch, capsys):
        def no_regime(spec):
            raise AssertionError("the regime was generated")

        monkeypatch.setattr(cli, "gen_regime", no_regime)
        code, out, err = run_cli(["gen", "--regime", "block", "--n", "6"], capsys)
        assert (code, out, err) == (1, "", "error: gen needs --out FILE\n")

    def test_undecodable_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff1.0,0.1\n0.1,1.0\n")
        code, _, err = run_cli(["allocate", "--method", "hrp", "--cov", str(bad)], capsys)
        assert code == 1
        assert err.startswith(f"error: cannot read {bad}")

    def test_missing_inputs(self, capsys):
        code, _, err = run_cli(["allocate", "--method", "hrp"], capsys)
        assert code == 1
        assert "--cov" in err or "--regime" in err


class TestSpecs:
    @pytest.mark.parametrize("kind", _REGIMES + ("block", "hedged"))
    def test_every_regime_kind_and_alias(self, kind, tmp_path, capsys):
        cov = tmp_path / "c.csv"
        code, _, _ = run_cli(["gen", "--regime", kind, "--n", "6", "--out", str(cov)], capsys)
        assert code == 0
        assert len(cov.read_text().splitlines()) == 6

    @pytest.mark.parametrize("kind", _SIGNALS + ("tilt", "worst"))
    def test_every_signal_kind_and_alias(self, kind, tmp_path, capsys):
        cov = tmp_path / "c.csv"
        argv = ["gen", "--regime", "block", "--n", "6", "--signal", kind, "--out", str(cov)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert len((tmp_path / "c_mu.csv").read_text().splitlines()) == 6

    @pytest.mark.parametrize(
        "flag, valid",
        (
            ("--regime", "block, block_sector, equicorr, factor, hedged, "
                         "hedged_tight_blocks, spiked, wide_vol"),
            ("--signal", "gaussian, ones, sector_tilt, tilt, worst, worst_case"),
        ),
    )
    def test_unknown_kind_lists_the_valid_names(self, flag, valid, tmp_path, capsys):
        argv = ["gen", "--regime", "block", "--out", str(tmp_path / "c.csv"), flag, "bogus"]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err.endswith(f"'bogus'; valid: {valid}\n")


    @pytest.mark.parametrize(
        "flag, spec, message",
        (
            ("--regime", "factor:kk=1", "unknown regime key 'kk'; valid: k, rho, sectors"),
            ("--signal", "gaussian:sigma=0.1,seed=3",
             "unknown signal key 'seed'; valid: restarts, sigma"),
        ),
    )
    def test_unknown_key_lists_the_keys_read(self, flag, spec, message, tmp_path, capsys):
        out = tmp_path / "c.csv"
        argv = ["gen", "--regime", "block", "--n", "6", "--out", str(out), flag, spec]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()


class TestOptionsWhereRead:
    @pytest.mark.parametrize(
        "argv",
        (
            ["trajectory", "--example", "nonmonotone", "--format", "tsv"],
            ["gen", "--regime", "block", "--out", "x.csv", "--jobs", "2"],
        ),
    )
    def test_experiment_options_rejected_elsewhere(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ("--mu", "--signal"))
    def test_worst_mu_reads_only_the_covariance(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["worst-mu", "--regime", "hedged", "--n", "20", flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # every setting comes from a flag: no subcommand reads a settings file
    @pytest.mark.parametrize(
        "argv",
        (
            ["allocate", "--method", "hrp", "--regime", "block"],
            ["experiment", "recovery"],
            ["trajectory", "--example", "nonmonotone"],
            ["worst-mu", "--regime", "hedged"],
            ["gen", "--regime", "block", "--out", "x.csv"],
        ),
        ids=lambda argv: argv[0],
    )
    def test_config_is_not_a_flag(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").write_text("seed = 3\n")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", "cfg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config cfg" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg"]

    def test_experiment_help_names_only_real_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # whatever the terminal width
        assert "--out" in out and "results/" in out and "exits 2" in out
        assert "--config" not in out and "--list" not in out

    @pytest.mark.parametrize("command", ("allocate", "trajectory", "worst-mu", "gen"))
    def test_help_names_the_output_file_and_no_config(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--out OUT output file, CSV or .npy" in out
        assert "--config" not in out

    def test_gen_help_names_what_it_writes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "write a synthetic covariance, and with --signal a signal, as CSV or .npy" in out


class TestResultsDir:
    def test_out_is_the_root_whatever_the_environment_holds(self, tmp_path, capsys, monkeypatch):
        env, root = tmp_path / "env", tmp_path / "res"
        monkeypatch.setenv("CRISP_ALLOC_RESULTS_DIR", str(env))
        code, _, _ = run_cli(["experiment", "trajectory", "--out", str(root)], capsys)
        assert code == 0
        assert (root / "trajectory" / "trajectory.csv").exists()
        assert not env.exists()

    def test_results_is_the_default_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(["experiment", "trajectory"], capsys)
        assert code == 0
        assert (tmp_path / "results" / "trajectory" / "trajectory.csv").exists()

    def test_the_variable_does_not_move_the_default_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CRISP_ALLOC_RESULTS_DIR", str(tmp_path / "env"))
        code, _, _ = run_cli(["experiment", "trajectory"], capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results"]
        assert (tmp_path / "results" / "trajectory" / "trajectory.csv").exists()


class TestTrajectoryAndWorstMu:
    def test_trajectory_example(self, capsys):
        code, out, _ = run_cli(["trajectory", "--example", "nonmonotone", "--grid", "9"], capsys)
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        exact = [float(r[1]) for r in rows]
        assert exact[-1] < 1e-10
        assert max(exact) > exact[0]

    def test_trajectory_from_files_matches_the_library(self, tmp_path, capsys):
        sigma = gen_regime(RegimeSpec("block_sector", n=12, seed=5))
        mu = gen_signal(SignalSpec("gaussian", seed=5), 12)
        cov, mu_path, out = tmp_path / "cov.csv", tmp_path / "mu.csv", tmp_path / "traj.csv"
        np.savetxt(cov, sigma.entries, fmt="%.17g", delimiter=",")
        np.savetxt(mu_path, mu.values, fmt="%.17g", delimiter=",")
        code, printed, _ = run_cli(
            ["trajectory", "--cov", str(cov), "--mu", str(mu_path), "--grid", "5",
             "--sweeps", "30", "--out", str(out)],
            capsys,
        )
        assert code == 0
        points = trajectory(sigma, mu, default_gamma_grid(5), p=30)
        rows = [(p.gamma, p.dir_exact, p.dir_finite_sweep, p.dir_slack) for p in points]
        lines = printed.splitlines()
        assert lines[1:-1] == [f"{g:.3f} {a:.6g} {b:.6g} {c:.6g}" for g, a, b, c in rows]
        assert lines[-1] == f"wrote {out}"
        assert np.array_equal(np.loadtxt(out, delimiter=","), np.array(rows))

    def test_worst_mu_out(self, tmp_path, capsys):
        out = tmp_path / "mu.csv"
        code, printed, _ = run_cli(
            ["worst-mu", "--regime", "hedged", "--n", "20", "--restarts", "4",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        sigma = gen_regime(RegimeSpec("hedged_tight_blocks", n=20, seed=42))
        mu, _ = worst_case_mu(sigma, restarts=4, seed=42)
        assert printed.splitlines()[-1] == f"wrote {out}"
        assert np.array_equal(np.loadtxt(out, delimiter=","), mu.values)

    def test_worst_mu(self, capsys):
        code, out, _ = run_cli(
            ["worst-mu", "--regime", "hedged", "--n", "20", "--restarts", "4"], capsys
        )
        assert code == 0
        assert "dir_diag" in out


_NEGATIVE_SEED = "error: seeds must be whole numbers of at least 0, got -1"

# files written under tmp_path ("{tmp}" in an argument is that directory),
# the arguments, the exit code and a fragment of stderr
_REJECTED = [
    pytest.param({}, ["gen", "--regime", "block:k", "--n", "6", "--out", "{tmp}/c.csv"], 1,
                 "error: bad spec item 'k' (want key=value)", id="spec-item"),
    pytest.param({"c.csv": "1,0,0\n0,1,0\n0,0,1\n", "mu.csv": "1\n2\n"},
                 ["allocate", "--method", "hrp", "--cov", "{tmp}/c.csv", "--mu", "{tmp}/mu.csv"],
                 1, "error: signal length does not match covariance size", id="pairing"),
    # float() reads an Arabic-Indic digit, loadtxt does not: no cell is
    # named, and loadtxt's own message is passed on
    pytest.param({"c.csv": "1,0\n\n0,\u0661\n"},
                 ["allocate", "--method", "hrp", "--cov", "{tmp}/c.csv"], 1,
                 "could not convert string", id="cell-loadtxt-alone-rejects"),
    pytest.param({}, ["gen", "--regime", "block", "--n", "6", "--out", "{tmp}/c.csv", "--mu-out", "{tmp}/m.csv"],
                 1, "error: --mu-out needs --signal", id="mu-out-without-signal"),
    pytest.param({}, ["experiment", "recovery", "--jobs", "0", "--out", "{tmp}/r"], 1,
                 "error: --jobs must be at least 1", id="jobs-0"),
    pytest.param({}, ["experiment", "recovery", "--jobs", "-3", "--out", "{tmp}/r"], 1,
                 "error: --jobs must be at least 1", id="jobs-negative"),
    # MethodSpec checks --eps for every method, not only the solvers that read it
    pytest.param({}, ["allocate", "--method", "hrp", "--regime", "block", "--n", "10", "--eps", "0"],
                 1, "error: the tolerance must be strictly positive", id="eps-0"),
    # a negative seed is a typed error in every subcommand that draws, not numpy's ValueError
    *(
        pytest.param({}, [*argv, "--seed", "-1"], 1, fragment, id=f"seed-{argv[0]}")
        for argv, fragment in (
            (["allocate", "--method", "hrp", "--regime", "block", "--n", "10"], _NEGATIVE_SEED),
            (["experiment", "oos_sensitivity", "--out", "{tmp}/r"], "error: --seed must be at least 0"),
            (["trajectory", "--regime", "block", "--n", "10"], _NEGATIVE_SEED),
            (["worst-mu", "--regime", "hedged", "--n", "10"], _NEGATIVE_SEED),
            (["gen", "--regime", "block", "--n", "6", "--out", "{tmp}/c.csv"], _NEGATIVE_SEED),
        )
    ),
    # a file and a spec for one input contradict each other: argparse rejects
    # the pair, where the file was used and the spec ignored
    *(
        pytest.param({"c.csv": "1,0\n0,1\n", "mu.csv": "1\n2\n"}, [*argv, a, path, b, spec], 2,
                     f"argument {b}: not allowed with argument {a}", id=f"{argv[0]}-{a[2:]}-{b[2:]}")
        for argv, (a, path, b, spec) in (
            (["allocate", "--method", "hrp"], ("--cov", "{tmp}/c.csv", "--regime", "block")),
            (["allocate", "--method", "hrp", "--cov", "{tmp}/c.csv"],
             ("--mu", "{tmp}/mu.csv", "--signal", "gaussian")),
            (["trajectory"], ("--cov", "{tmp}/c.csv", "--regime", "block")),
            (["trajectory", "--cov", "{tmp}/c.csv"], ("--mu", "{tmp}/mu.csv", "--signal", "gaussian")),
            (["worst-mu"], ("--cov", "{tmp}/c.csv", "--regime", "block")),
        )
    ),
]


@pytest.mark.parametrize("files, argv, code, fragment", _REJECTED)
def test_rejected_input(files, argv, code, fragment, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    try:
        got, _, err = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    except SystemExit as exc:  # argparse's own rejections
        got, err = exc.code, capsys.readouterr().err
    assert got == code
    assert fragment in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)  # nothing written


@pytest.mark.parametrize("method", METHOD_IDS)
def test_allocate_prints_the_method_table_row(method, capsys):
    argv = ["allocate", "--method", method, "--regime", "block", "--n", "12", "--seed", "4",
            "--signal", "gaussian", "--gamma", "0.7", "--sweeps", "40", "--eps", "1e-10"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    x = experiments._population(RegimeSpec("block_sector", n=12, seed=4), SignalSpec("gaussian", seed=4))
    w, report = allocate(MethodSpec(method, 0.7, 40, 1e-10), x)
    lines = out.splitlines()
    assert lines[1] == "weights: " + " ".join(f"{x:.6g}" for x in w.values)
    sweeps = [line for line in lines if line.startswith("sweeps:")]
    if report is None:
        assert sweeps == []
    else:
        assert sweeps == [f"sweeps: {report.sweeps_used}  converged: {report.converged}"]


def test_a_rejected_job_count_writes_nothing(tmp_path, capsys):
    argv = ["experiment", "recovery", "--jobs", "0", "--out", str(tmp_path / "r")]
    code, _, _ = run_cli(argv, capsys)
    assert code == 1
    assert not (tmp_path / "r").exists()


class TestClosedStdout:
    """A reader that closes stdout before the output is written ends the run
    with exit 1 and no traceback: the rest of stdout goes to devnull."""

    ALLOCATE = ["allocate", "--method", "hrp", "--regime", "block", "--n", "400"]

    @pytest.mark.parametrize("method", ("write", "flush"))
    def test_exits_1_and_sends_the_rest_to_devnull(self, method, tmp_path, monkeypatch):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        def broken(*args):
            raise BrokenPipeError(32, "Broken pipe")

        stdout = io.StringIO()
        monkeypatch.setattr(stdout, method, broken)
        monkeypatch.setattr(stdout, "fileno", lambda: fd)
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main(self.ALLOCATE) == 1
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    def test_a_closed_pipe_prints_no_traceback(self):
        read, write = os.pipe()
        os.close(read)  # the reader has gone before the first write
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        try:
            run = subprocess.run([sys.executable, "-m", "crisp_alloc.cli", *self.ALLOCATE],
                                 stdout=write, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write)
        assert run.returncode == 1
        assert "Traceback" not in run.stderr and "Exception ignored" not in run.stderr
