"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup`` (timed as
``setup_s``), then runs closed-loop rounds: every call starts when the
previous one returns. A round has a library part (one ``op_p50_s`` sample per
operation unit) and one in-process ``cli.main`` call (one ``cli_p50_s``
sample); each call is a segment of ``speed.SpeedClock``. The outputs of round
0 are kept for the output checks, which run after the timed loop.

Operation units: one Monte Carlo trial (``mc_walkforward``), one library
rebalance of the N = 1000 book (``desk_rebalance``), one set of solver
diagnostic tables (``solver_convergence``).
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import crisp_alloc as ca
from crisp_alloc import cli, experiments

from . import checks
from .speed import SpeedClock, Timed


@dataclass
class Round:
    lib: Timed = field(default_factory=Timed)
    units: int = 1
    cli: Timed = field(default_factory=Timed)
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def run_cli(argv: list[str], sc: SpeedClock, into: Timed) -> tuple[int, str]:
    """One in-process ``cli.main`` call; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with sc.segment(into):
            rc = cli.main(argv)
    if rc != 0:
        print(f"cli {' '.join(argv)} exited {rc}: {err.getvalue().strip()}", flush=True)
    return rc, out.getvalue()


def call(sc: SpeedClock, into: Timed, where: str, fn, *args, **kwargs):
    """One timed library call; None (with the traceback printed) if it raised."""
    with sc.segment(into):
        try:
            return fn(*args, **kwargs)
        except Exception:
            print(f"{where} raised:\n{traceback.format_exc()}", flush=True)
            return None


@contextlib.contextmanager
def recording(module, name: str):
    """Log the arguments and result of every call to ``module.name``.

    Restores whatever the name was bound to, so it nests with the tracer.
    """
    inner = getattr(module, name)
    log: list[tuple[tuple, object]] = []

    def record(*args, **kwargs):
        result = inner(*args, **kwargs)
        log.append((args, result))
        return result

    setattr(module, name, record)
    try:
        yield log
    finally:
        setattr(module, name, inner)


def write_csv(path: Path, m: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(m).T if np.ndim(m) == 1 else m, fmt="%.17g", delimiter=",")


class McWalkforward:
    """The paper's tournament: ``oos_sensitivity`` and ``oos_minvar`` at N = 100.

    Each round runs 4 trials per T of both presets (4 + 16 trials, the 1 : 4
    trial ratio of the full presets), with a fresh preset seed per round so no
    round repeats another's draws, and one ``experiment oos_sensitivity
    --trials 2`` through the CLI.
    """

    name = "mc_walkforward"
    trials_per_t = 4
    cli_trials = 2

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def specs(self, r: int) -> dict:
        s = self.seed * 1000 + r
        return {
            p: replace(ca.preset(p, seed=s), trials=self.trials_per_t)
            for p in ("oos_sensitivity", "oos_minvar")
        }

    def run_round(self, r: int, sc: SpeedClock) -> Round:
        rnd = Round()
        specs = self.specs(r)
        results = {}
        for p, spec in specs.items():
            res = call(sc, rnd.lib, f"run_experiment({p})", ca.run_experiment, spec)
            if res is not None:
                results[p] = res
        rnd.units = sum(len(s.t_values) * s.trials for s in specs.values())
        # one operation per (trial, method); a NaN Sharpe marks a caught breakdown
        for p, spec in specs.items():
            if p in results:
                for rec in results[p].records:
                    for o in rec.outcomes.values():
                        rnd.op(not math.isnan(o.sharpe))
            else:
                for _ in range(len(spec.t_values) * spec.trials * len(spec.methods)):
                    rnd.op(False)

        out_dir = self.workdir / f"cli-r{r}"
        argv = [
            "experiment", "oos_sensitivity", "--trials", str(self.cli_trials),
            "--seed", str(self.seed * 1000 + r), "--out", str(out_dir), "--jobs", "1",
        ]
        rc, _ = run_cli(argv, sc, rnd.cli)
        rnd.op(rc == 0)
        rnd.outputs = {"specs": specs, "results": results, "cli_dir": out_dir}
        return rnd

    def check(self, first: Round) -> dict:
        specs, results = first.outputs["specs"], first.outputs["results"]
        found = {}
        if len(results) != len(specs):
            return {"all_presets_ran": False}
        tables = {p: ca.export(res.tables[0]) for p, res in results.items()}
        # ROADMAP determinism contract: jobs=1 and jobs=2 export the same bytes
        sens = specs["oos_sensitivity"]
        found["jobs2_identical"] = ca.export(ca.run_experiment(sens, jobs=2).tables[0]) == tables[
            "oos_sensitivity"
        ]
        cli_spec = replace(sens, trials=self.cli_trials)
        cli_file = first.outputs["cli_dir"] / "oos_sensitivity" / "cells.csv"
        found["cli_table_identical"] = cli_file.is_file() and cli_file.read_bytes() == ca.export(
            ca.run_experiment(cli_spec).tables[0]
        )
        # the trials' trees are built inside run_experiment; check one tree of
        # the same kind (a T = 120 sample of this round's regime) against scipy
        sigma_true = ca.gen_regime(sens.regime)
        zero = ca.Signal(np.zeros(sigma_true.n))
        returns = ca.sample_returns(sigma_true, zero, sens.t_values[0], sens.seed)
        corr = ca.to_correlation(ca.sample_cov(returns))
        found["tree_matches_scipy_ward"] = checks.tree_matches_scipy(ca.build_tree(corr), corr)
        found["reference_values"] = {p: checks.table_values(b) for p, b in tables.items()}
        return found


class DeskRebalance:
    """One N = 1000 book from a sampled covariance (block_sector, T = 2N).

    A round is one library rebalance (``build_tree`` once, then eight
    allocators) and one ``allocate --method crisp`` through the CLI from CSV
    files written during set-up. Every round rebalances the same book.

    The book's covariance is the same for every workload seed; the seed
    draws the signal. ``crisp_projected`` builds the long-only
    minimum-variance book (signal of ones) under the caps. Its Dykstra
    projection runs 93k-170k inner iterations on covariances sampled with
    different seeds, and 54k-175k with the Gaussian signal, so either would
    spread this workload's time across seeds by more than the host's noise.
    """

    name = "desk_rebalance"
    outputs = (
        "tree", "hrp", "hrp_mu", "hrp_sigma_mu", "cotton", "crisp_solve",
        "crisp_solve_stream", "crisp_projected", "markowitz_direct",
    )
    n = 1000
    book_seed = 0
    gamma = 0.5
    sweeps = 100
    factors = 3
    sectors = 5
    cap = 0.3

    def setup(self, seed: int, workdir: Path) -> None:
        n = self.n
        sigma_true = ca.gen_regime(ca.RegimeSpec("block_sector", n=n, seed=self.book_seed))
        zero = ca.Signal(np.zeros(n))
        self.sigma = ca.sample_cov(ca.sample_returns(sigma_true, zero, 2 * n, self.book_seed + 1))
        self.mu = ca.gen_signal(ca.SignalSpec("gaussian", seed=seed), n)
        # K = 3 PCA factors, built the way ``allocate --method crisp-stream`` builds them
        eigs, vecs = np.linalg.eigh(self.sigma.entries)
        top = vecs[:, -self.factors :] * np.sqrt(eigs[-self.factors :])
        idio = np.diag(self.sigma.entries) - (top**2).sum(axis=1)
        self.fm = ca.FactorModel(top, np.eye(self.factors), np.maximum(idio, 1e-10))
        labels = ca.sector_labels(n, self.sectors)
        caps = [((labels == s).astype(float), self.cap) for s in range(self.sectors)]
        self.constraints = ca.long_only_budget(n, caps)
        self.ones = ca.Signal(np.ones(n))
        self.cov_csv = workdir / "cov.csv"
        self.mu_csv = workdir / "mu.csv"
        write_csv(self.cov_csv, self.sigma.entries)
        write_csv(self.mu_csv, self.mu.values)

    def run_round(self, r: int, sc: SpeedClock) -> Round:
        rnd = Round()
        s, mu, g, p = self.sigma, self.mu, self.gamma, self.sweeps
        out = {}
        tree = call(sc, rnd.lib, "build_tree", lambda: ca.build_tree(ca.to_correlation(s), "ward"))
        if tree is not None:
            out["tree"] = tree
            calls = {
                "hrp": lambda: ca.hrp(s, tree),
                "hrp_mu": lambda: ca.hrp_mu(s, mu, tree, g),
                "hrp_sigma_mu": lambda: ca.hrp_sigma_mu(s, mu, tree, g),
                "cotton": lambda: ca.cotton(s, tree, g),
                "crisp_solve": lambda: ca.crisp_solve(s, mu, g, p_max=p, ordering=tree.leaf_order),
                "crisp_solve_stream": lambda: ca.crisp_solve_stream(self.fm, mu, g, p_max=p),
                "crisp_projected": lambda: ca.crisp_projected(s, self.ones, g, p, self.constraints),
                "markowitz_direct": lambda: ca.markowitz_direct(s, mu),
            }
            for name, fn in calls.items():
                res = call(sc, rnd.lib, name, fn)
                if res is not None:
                    out[name] = res
        for name in self.outputs:
            rnd.op(name in out)

        argv = ["allocate", "--cov", str(self.cov_csv), "--mu", str(self.mu_csv), "--method", "crisp"]
        rc, stdout = run_cli(argv, sc, rnd.cli)
        rnd.op(rc == 0)
        out["cli_stdout"] = stdout
        rnd.outputs = out
        return rnd

    def check(self, first: Round) -> dict:
        out = first.outputs
        if any(k not in out for k in self.outputs):
            return {"all_allocators_ran": False}
        corr = ca.to_correlation(self.sigma)
        found = {
            "tree_matches_scipy_ward": checks.tree_matches_scipy(out["tree"], corr),
            "projected_feasible": checks.projected_feasible(
                out["crisp_projected"].weights.values, self.constraints, tol=1e-8
            ),
            "hrp_sum_one": checks.normalised(out["hrp"], "sum_one", nonneg=True),
            "hrp_mu_signed_sum_one": checks.signed_budgets_sum_one(out["hrp_mu"], self.mu),
            "hrp_sigma_mu_l1_one": checks.normalised(out["hrp_sigma_mu"], "l1_one"),
            "cotton_sum_one": checks.normalised(out["cotton"], "sum_one"),
        }
        w_lib = out["crisp_solve"].weights.values
        w_cli = checks.cli_weights(out["cli_stdout"])
        # the CLI prints six significant digits
        found["cli_weights_match_library"] = w_cli is not None and bool(
            np.all(np.abs(w_cli - w_lib) <= 1e-5 * np.abs(w_lib))
        )
        ref = {"tree_heights": sorted(n.height for n in out["tree"].internal_nodes)}
        for name in self.outputs[1:]:
            res = out[name]
            ref[name] = (res.weights if hasattr(res, "weights") else res).values.tolist()
        found["reference_values"] = ref
        return found


class SolverConvergence:
    """The solver driven to a stated accuracy instead of a fixed budget.

    A round builds the ``sweep_rate`` table (8 gammas x 5 signals to residual
    1e-10) on block_sector N = 100 and on equicorr rho = 0.6 at N = 30, runs
    one to-tolerance solve on hedged_tight_blocks N = 40 at gamma = 1 that
    ends at the 50 000-sweep cap, and ``worst_case_mu`` (16 restarts,
    hedged_tight_blocks N = 100). The trajectory table (block_sector N = 200,
    21 points, 200 sweeps) comes from ``crisp-alloc trajectory``, the round's
    CLI call.
    """

    name = "solver_convergence"
    tol = 1e-10
    # equicorr at N = 100 needs up to ~8 800 sweeps per solve at gamma = 1 and
    # takes 17-20 s per table; N = 30 keeps the same rho and rate behaviour
    equicorr_n = 30

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        gauss = ca.SignalSpec("gaussian", seed=7)
        self.sweep_specs = {
            "block_sector": ca.ExperimentSpec(
                "sweep_rate", ca.RegimeSpec("block_sector", n=100, seed=seed), gauss,
                kind="sweep_rate", seed=seed,
            ),
            "equicorr": ca.ExperimentSpec(
                "sweep_rate", ca.RegimeSpec("equicorr", n=self.equicorr_n, rho=0.6, seed=seed),
                gauss, kind="sweep_rate", seed=seed,
            ),
        }
        self.hedged40 = ca.gen_regime(ca.RegimeSpec("hedged_tight_blocks", n=40, seed=seed))
        self.mu40 = ca.gen_signal(ca.SignalSpec("gaussian", seed=seed + 1), 40)
        self.hedged100 = ca.gen_regime(ca.RegimeSpec("hedged_tight_blocks", n=100, seed=seed))
        block200 = ca.gen_regime(ca.RegimeSpec("block_sector", n=200, seed=seed))
        mu200 = ca.gen_signal(ca.SignalSpec("gaussian", seed=seed + 2), 200)
        self.cov_csv = workdir / "block200.csv"
        self.mu_csv = workdir / "block200_mu.csv"
        write_csv(self.cov_csv, block200.entries)
        write_csv(self.mu_csv, mu200.values)

    def run_round(self, r: int, sc: SpeedClock) -> Round:
        rnd = Round()
        out = {"tables": {}, "solves": {}}
        for label, spec in self.sweep_specs.items():
            # the table keeps only mean counts; the log keeps each solve's result
            with recording(experiments, "sweeps_to_tolerance") as log:
                res = call(sc, rnd.lib, f"sweep_rate({label})", ca.run_experiment, spec)
            if res is not None:
                out["tables"][label] = res.tables[0]
            out["solves"][label] = log
        res = call(sc, rnd.lib, "sweeps_to_tolerance(hedged N=40)", ca.sweeps_to_tolerance,
                   self.hedged40, self.mu40, 1.0, self.tol)
        if res is not None:
            out["capped_solve"] = res
        res = call(sc, rnd.lib, "worst_case_mu", ca.worst_case_mu, self.hedged100,
                   restarts=16, seed=self.seed)
        if res is not None:
            out["worst_case"] = res

        for label in self.sweep_specs:
            log = out["solves"][label]
            rnd.op(label in out["tables"] and len(log) == 40)
            for _, diag in log:
                rnd.op(diag.converged)
        # the gamma = 1 hedged solve is expected to stop at the cap: it is
        # reported on its own (capped_solve), not counted as a failed operation
        rnd.op("capped_solve" in out)
        rnd.op("worst_case" in out)

        argv = [
            "trajectory", "--cov", str(self.cov_csv), "--mu", str(self.mu_csv),
            "--grid", "21", "--sweeps", "200",
        ]
        rc, stdout = run_cli(argv, sc, rnd.cli)
        rnd.op(rc == 0)
        out["cli_stdout"] = stdout
        rnd.outputs = out
        return rnd

    def check(self, first: Round) -> dict:
        out = first.outputs
        if len(out["tables"]) != len(self.sweep_specs) or "capped_solve" not in out or "worst_case" not in out:
            return {"all_tables_built": False}
        found = {}
        ref = {}
        for label, table in out["tables"].items():
            log = out["solves"][label]
            found[f"{label}_residuals_below_tol"] = checks.residuals_below_tol(log, self.tol)
            found[f"{label}_table_matches_solves"] = checks.sweep_table_matches(table, log)
            ref[f"sweep_rate_{label}"] = checks.table_values(ca.export(table))
        mu, val = out["worst_case"]
        found["worst_case_valid"] = bool(
            0.0 <= val <= 1.0 and abs(float(np.linalg.norm(mu.values)) - 1.0) <= 1e-12
        )
        traj = checks.trajectory_rows(out["cli_stdout"])
        found["trajectory_complete"] = traj is not None and len(traj) == 21
        ref["capped_solve_sweeps"] = [float(out["capped_solve"].sweeps)]
        ref["capped_solve_converged"] = [str(out["capped_solve"].converged)]
        ref["worst_case_dir_diag"] = [val]
        ref["trajectory"] = traj or []
        found["reference_values"] = ref
        return found


WORKLOADS = {w.name: w for w in (McWalkforward, DeskRebalance, SolverConvergence)}
