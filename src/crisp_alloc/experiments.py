"""Walk-forward Monte Carlo harness and the preset experiment battery.

One trial draws T observations from the true (mu, Sigma), forms the ridged
sample covariance, allocates every configured method through the one method
table ``METHODS`` (the cluster tree of the estimate's correlation is built on
the first method that reads it), and scores the weights under the true moments.
Trials run in trial order on the calling thread, and aggregation is a
deterministic reduction keyed by trial index. Each experiment kind, the Monte
Carlo one included, is one runner in ``_RUNNERS``, and each preset one row of
``_PRESETS``; all share the same table/export machinery. The Monte Carlo
context and the ``recovery``, ``minvar_direction`` and ``graduated`` tables
draw their true (Sigma, mu) with one recipe, ``_population``, and those tables
allocate every column through ``METHODS`` too, so each column is the allocator
its method id names.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass, fields, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
import scipy.linalg

from . import baselines, signal_trees
from .analysis import AdaptiveInputs, TrajectoryPoint, kappa_eff, trajectory
from .core import CovarianceMatrix, Signal, WeightVector, _count, kappa, markowitz_direct, to_correlation
from .dendrogram import Dendrogram, build_tree
from .errors import AllocationError, ConditioningError, ParameterError
from .metrics import dir_diag, dir_error, gross_leverage, sharpe, signed_cosine
from .solver import DEFAULT_EPS, DEFAULT_GAMMA, DEFAULT_SWEEPS, FactorModel, SolveReport, _check_solver_args
from .solver import crisp_projected, crisp_solve, crisp_solve_stream, long_only_budget
from .solver import sweeps_to_tolerance  # called as this module's attribute, so a wrapper sees it
from .synthetic import (
    DEFAULT_RIDGE,
    RegimeSpec,
    SignalSpec,
    gen_regime,
    gen_signal,
    sample_cov,
    sample_mean,
    sample_returns,
    sector_labels,
    worst_case_mu,
)


@dataclass(frozen=True)
class Inputs:
    """One estimated (Sigma, mu). ``tree`` is the Ward tree of Sigma's
    correlation, built on first read and at most once."""

    sigma: CovarianceMatrix
    mu: Signal

    @cached_property
    def tree(self) -> Dendrogram:
        return build_tree(to_correlation(self.sigma), "ward")


def _pca_factors(sigma: CovarianceMatrix, k: int) -> FactorModel:
    """Sigma's top ``k`` principal components as a k-factor model."""
    message = f"--factors must be between 1 and N = {sigma.n}, got {k}"
    if _count(k, 1, message) > sigma.n:
        raise ParameterError(message)
    eigs, vecs = scipy.linalg.eigh(sigma.entries, subset_by_index=(sigma.n - k, sigma.n - 1))
    top = vecs * np.sqrt(eigs)
    d = np.diag(sigma.entries)
    # floored relative to each variance, so the model scales with Sigma
    return FactorModel(top, np.eye(k), np.maximum(d - (top**2).sum(axis=1), 1e-10 * d))


# The method table: id -> allocator(m, x) of a MethodSpec and the Inputs; a
# solver row returns its SolveReport. Kernels are looked up at call time, so a
# wrapper installed on a kernel's module attribute sees every call, and a row
# that never reads x.tree builds no tree.
METHODS: dict[str, Callable[[MethodSpec, Inputs], Union[WeightVector, SolveReport]]] = {
    "one-over-n": lambda m, x: baselines.equal_weight(x.sigma.n),
    "hrp": lambda m, x: baselines.hrp(x.sigma, x.tree),
    "cotton": lambda m, x: baselines.cotton(x.sigma, x.tree, m.gamma),
    "hrp-mu": lambda m, x: signal_trees.hrp_mu(x.sigma, x.mu, x.tree, m.gamma),
    "hsp": lambda m, x: signal_trees.hsp(x.sigma, x.mu, x.tree),
    "hrp-sigma-mu": lambda m, x: signal_trees.hrp_sigma_mu(x.sigma, x.mu, x.tree, m.gamma),
    "crisp": lambda m, x: crisp_solve(x.sigma, x.mu, m.gamma, m.sweeps, m.eps, x.tree.leaf_order),
    "markowitz": lambda m, x: markowitz_direct(x.sigma, x.mu),
    "a1": lambda m, x: baselines.a1_sum_norm_mvo(x.sigma, x.mu, x.tree, m.gamma),
    "a2": lambda m, x: baselines.a2_flat_ivp_tree(x.sigma, x.mu, x.tree, m.gamma),
    "crisp-stream": lambda m, x: crisp_solve_stream(
        _pca_factors(x.sigma, m.factors), x.mu, m.gamma, m.sweeps, m.eps
    ),
    "crisp-projected": lambda m, x: crisp_projected(
        x.sigma, x.mu, m.gamma, m.sweeps, long_only_budget(x.sigma.n), m.eps
    ),
}
METHOD_IDS = tuple(METHODS)
DEFAULT_FACTORS = 3

# volatility blowup relative to the oracle minimum-variance level that flags
# a trial as unstable (the dagger convention of the result tables)
INSTABILITY_VOL_MULTIPLE = 5.0


@dataclass(frozen=True, order=True)
class MethodSpec:
    """One allocator configuration: method id, gamma, sweep budget, the
    solvers' stop tolerance and crisp-stream's factor count. It keys its
    outcomes in a TrialRecord."""

    method: str
    gamma: float = DEFAULT_GAMMA
    sweeps: int = DEFAULT_SWEEPS
    eps: float = DEFAULT_EPS
    factors: int = DEFAULT_FACTORS

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method id {self.method!r}")
        _check_solver_args(self.gamma, self.sweeps, self.eps)


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully populated experiment recipe."""

    name: str
    regime: RegimeSpec
    signal: SignalSpec
    methods: tuple[MethodSpec, ...] = ()
    t_values: tuple[int, ...] = (120,)
    trials: int = 40
    mu_estimator: str = "oracle"  # oracle | sample_mean | ic_noise
    seed: int = 42
    ridge: float = DEFAULT_RIDGE
    kind: str = "monte_carlo"
    ic: float = 0.05  # used only by the ic_noise estimator

    def __post_init__(self):
        _count(self.trials, 1, "trials must be at least 1")
        _count(self.seed, 0, "seed must be at least 0")
        if self.mu_estimator not in ("oracle", "sample_mean", "ic_noise"):
            raise ParameterError(f"unknown mu estimator {self.mu_estimator!r}")
        if not 0.0 < self.ic <= 1.0:
            raise ParameterError("ic must lie in (0, 1]")
        if not self.t_values:
            raise ParameterError("t_values must hold at least one T")
        for t in self.t_values:
            _count(t, 2, "every T in t_values must be at least 2")


@dataclass(frozen=True)
class TrialOutcome:
    """Score of one method in one trial; an allocation that raised is an
    unstable record with NaN scores and ``reason`` naming the exception class."""

    sharpe: float
    signed_cos: float
    leverage: float
    oos_vol: float
    unstable: bool
    reason: str = ""


@dataclass(frozen=True)
class TrialRecord:
    t: int
    trial_index: int
    outcomes: dict[MethodSpec, TrialOutcome]


@dataclass(frozen=True)
class CellResult:
    """Aggregate of one (method, gamma, sweeps, T) cell."""

    method: str
    gamma: float
    sweeps: int
    t: int
    trials: int
    mean_sharpe: float
    std_sharpe: float
    mean_cos: float
    frac_neg_cos: float
    mean_leverage: float
    instability: int


@dataclass(frozen=True)
class ExperimentTable:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    tables: tuple[ExperimentTable, ...]
    cells: tuple[CellResult, ...] = ()
    records: tuple[TrialRecord, ...] = ()


# ---------------------------------------------------------------------------
# Allocation dispatch and scoring
# ---------------------------------------------------------------------------


def allocate(m: MethodSpec, x: Inputs) -> tuple[WeightVector, Optional[SolveReport]]:
    """Run one configured allocator on an estimated (Sigma, mu): its weights,
    and the SolveReport of a solver method (None for the others)."""
    out = METHODS[m.method](m, x)
    return (out.weights, out) if isinstance(out, SolveReport) else (out, None)


@dataclass(frozen=True)
class _Context:
    sigma_true: CovarianceMatrix
    mu_true: Signal
    w_star: np.ndarray
    oracle_minvar_vol: float
    minvar_mode: bool


def _population(regime: RegimeSpec, signal: SignalSpec) -> Inputs:
    """The true (Sigma, mu) of a regime and a signal recipe, the signal drawn
    on the regime's sector map."""
    sigma = gen_regime(regime)
    sectors = sector_labels(regime.n, regime.sectors)
    return Inputs(sigma, gen_signal(signal, regime.n, sectors=sectors, sigma=sigma))


def _make_context(spec: ExperimentSpec) -> _Context:
    x = _population(spec.regime, spec.signal)
    w_mv = baselines.direct_minvar(x.sigma).values
    w_mv = w_mv / w_mv.sum()
    return _Context(
        sigma_true=x.sigma,
        mu_true=x.mu,
        w_star=markowitz_direct(x.sigma, x.mu).values,
        oracle_minvar_vol=float(np.sqrt(w_mv @ x.sigma.entries @ w_mv)),
        minvar_mode=spec.signal.kind == "ones",
    )


def _score(ctx: _Context, w: WeightVector) -> TrialOutcome:
    v = w.values
    s_true = ctx.sigma_true.entries
    total = float(v.sum())
    if total == 0.0:
        # the condition WeightVector.sum_normalized raises on
        return TrialOutcome(math.nan, math.nan, math.nan, math.inf, True, "DegenerateInputError")
    v_sum1 = v / total
    vol = float(np.sqrt(max(v_sum1 @ s_true @ v_sum1, 0.0)))
    if ctx.minvar_mode:
        sr = 1.0 / vol if vol > 0.0 else math.inf
    else:
        sr = sharpe(v, ctx.sigma_true, ctx.mu_true)
    lev = gross_leverage(v if w.norm_tag != "raw" else v_sum1)
    cos = signed_cosine(v, ctx.w_star)
    unstable = vol > INSTABILITY_VOL_MULTIPLE * ctx.oracle_minvar_vol
    return TrialOutcome(sr, cos, lev, vol, unstable)


def _run_trial(ctx: _Context, spec: ExperimentSpec, t: int, trial_index: int) -> TrialRecord:
    seed = np.random.SeedSequence([spec.seed, t, trial_index])
    returns = sample_returns(ctx.sigma_true, ctx.mu_true, t, seed)
    if spec.mu_estimator == "oracle":
        mu_hat = ctx.mu_true
    elif spec.mu_estimator == "sample_mean":
        mu_hat = sample_mean(returns)
    else:  # ic_noise: true signal plus noise sized to the information coefficient
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, t, trial_index, 7]))
        scale = float(np.std(ctx.mu_true.values))
        noise_sd = scale * math.sqrt((1.0 - spec.ic**2) / spec.ic**2)
        mu_hat = Signal(ctx.mu_true.values + noise_sd * rng.standard_normal(ctx.mu_true.n))
    x = Inputs(sample_cov(returns, ridge=spec.ridge), mu_hat)

    outcomes = {}
    for m in spec.methods:
        try:
            outcomes[m] = _score(ctx, allocate(m, x)[0])
        except AllocationError as exc:
            reason = type(exc).__name__
            outcomes[m] = TrialOutcome(math.nan, math.nan, math.nan, math.inf, True, reason)
    return TrialRecord(t=t, trial_index=trial_index, outcomes=outcomes)


def run_trial(spec: ExperimentSpec, trial_index: int, t: Optional[int] = None) -> TrialRecord:
    """One full trial, reproducible from (spec.seed, t, trial_index) alone."""
    trial_index = _count(trial_index, 0, "trial_index must be at least 0")
    t = spec.t_values[0] if t is None else _count(t, 2, "t must be at least 2")
    return _run_trial(_make_context(spec), spec, t, trial_index)


def _aggregate(spec: ExperimentSpec, records: list[TrialRecord]) -> list[CellResult]:
    cells: list[CellResult] = []
    for m in sorted(spec.methods):
        for t in sorted(set(spec.t_values)):
            outs = [r.outcomes[m] for r in records if r.t == t]
            good = [o for o in outs if not math.isnan(o.sharpe)]
            shs = np.array([o.sharpe for o in good])
            coss = np.array([o.signed_cos for o in good])
            levs = np.array([o.leverage for o in good])
            cells.append(
                CellResult(
                    method=m.method,
                    gamma=m.gamma,
                    sweeps=m.sweeps,
                    t=t,
                    trials=len(outs),
                    mean_sharpe=float(shs.mean()) if len(good) else math.nan,
                    std_sharpe=float(shs.std(ddof=1)) if len(good) > 1 else 0.0,
                    mean_cos=float(coss.mean()) if len(good) else math.nan,
                    frac_neg_cos=float((coss < 0).mean()) if len(good) else math.nan,
                    mean_leverage=float(levs.mean()) if len(good) else math.nan,
                    instability=sum(1 for o in outs if o.unstable),
                )
            )
    return cells


_CELL_COLUMNS = tuple(f.name for f in fields(CellResult) if f.name != "sweeps")


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ExperimentResult:
    """Execute the experiment with the runner its ``kind`` names, its trials in
    trial order on the calling thread. ``jobs`` is checked and otherwise
    ignored until the benchmark stops passing it (ROADMAP items 6 and 7)."""
    _count(jobs, 1, "jobs must be a whole number of at least 1")
    runner = _RUNNERS.get(spec.kind)
    if runner is None:
        raise ParameterError(f"unknown experiment kind {spec.kind!r}")
    return runner(spec)


def _run_monte_carlo(spec: ExperimentSpec) -> ExperimentResult:
    ctx = _make_context(spec)
    records = [_run_trial(ctx, spec, t, i) for t in spec.t_values for i in range(spec.trials)]
    cells = _aggregate(spec, records)
    rows = tuple(tuple(getattr(c, col) for col in _CELL_COLUMNS) for c in cells)
    table = ExperimentTable("cells", _CELL_COLUMNS, rows)
    return ExperimentResult(spec, (table,), tuple(cells), tuple(records))


# ---------------------------------------------------------------------------
# Reference instance with a non-monotone exact shrinkage trajectory
# ---------------------------------------------------------------------------


def nonmonotone_instance() -> tuple[CovarianceMatrix, Signal]:
    """4-asset instance whose exact shrinkage trajectory has an interior bump."""
    sigma = CovarianceMatrix(
        np.array(
            [
                [1.055, 0.078, -0.711, -1.874],
                [0.078, 6.058, -0.379, 1.775],
                [-0.711, -0.379, 1.036, 2.063],
                [-1.874, 1.775, 2.063, 6.477],
            ]
        )
    )
    mu = Signal(np.array([-1.695, 0.271, 0.322, -0.500]))
    return sigma, mu


# ---------------------------------------------------------------------------
# Diagnostic runners
# ---------------------------------------------------------------------------


def _run_recovery(spec: ExperimentSpec) -> ExperimentResult:
    x = _population(spec.regime, _ONES)
    w_hrp = allocate(MethodSpec("hrp"), x)[0].sum_normalized().values
    comparisons = (
        ("cotton g=0", "cotton"),
        ("flat-ivp-tree g=0 mu=1", "a2"),
        ("sum-norm-mvo g=0 mu=1", "a1"),
        ("hrp-mu g=0 mu=1", "hrp-mu"),
        ("hrp-sigma-mu g=0 mu=1", "hrp-sigma-mu"),
    )
    rows = []
    for label, method in comparisons:
        v = allocate(MethodSpec(method, 0.0), x)[0].sum_normalized().values
        rel = float(np.linalg.norm(v - w_hrp) / np.linalg.norm(w_hrp))
        cos = signed_cosine(v, w_hrp)
        verdict = "match" if rel < 1e-12 else ("approx" if cos > 0.98 else "differ")
        rows.append((label, rel, cos, verdict))
    table = ExperimentTable("recovery", ("comparison", "rel_diff", "cos", "verdict"), tuple(rows))
    return ExperimentResult(spec=spec, tables=(table,))


def _run_minvar_direction(spec: ExperimentSpec) -> ExperimentResult:
    x = _population(spec.regime, _ONES)
    target = markowitz_direct(x.sigma, x.mu).values
    methods = ("cotton", "crisp", "a2", "hrp-mu", "a1")
    # eps = 1e-300: crisp stops at 200 sweeps or where its iterate stops changing
    rows = tuple(
        (g, *(dir_error(allocate(MethodSpec(m, g, 200, 1e-300), x)[0].values, target) for m in methods))
        for g in (0.0, 0.3, 0.5, 0.7, 1.0)
    )
    cols = ("gamma", "cotton", "crisp_p200", "flat_ivp_tree", "hrp_mu", "sum_norm_mvo")
    return ExperimentResult(spec=spec, tables=(ExperimentTable("minvar_direction", cols, rows),))


def _run_graduated(spec: ExperimentSpec) -> ExperimentResult:
    n = spec.regime.n
    panels = [
        ("base_gaussian", RegimeSpec("block_sector", n=n, seed=spec.seed), SignalSpec("gaussian", seed=7)),
        ("factor_k3", RegimeSpec("factor", n=n, k=3, seed=spec.seed), SignalSpec("gaussian", seed=7)),
        ("hedged", RegimeSpec("hedged_tight_blocks", n=n, seed=spec.seed), SignalSpec("gaussian", seed=7)),
        ("hedged_worst_mu", RegimeSpec("hedged_tight_blocks", n=n, seed=spec.seed), SignalSpec("worst_case", restarts=8)),
    ]
    rows = []
    for label, regime, sig in panels:
        x = _population(regime, sig)
        target = markowitz_direct(x.sigma, x.mu).values
        row = [label, kappa(to_correlation(x.sigma)), dir_diag(x.sigma, x.mu)]
        for method in ("a1", "crisp"):
            row.extend(
                dir_error(allocate(MethodSpec(method, g, 200, 1e-300), x)[0].values, target)
                for g in (0.0, 1.0)
            )
        rows.append(tuple(row))
    cols = (
        "panel",
        "kappa_c",
        "dir_diag",
        "sum_norm_mvo_g0",
        "sum_norm_mvo_g1",
        "crisp_p200_g0",
        "crisp_p200_g1",
    )
    return ExperimentResult(spec=spec, tables=(ExperimentTable("graduated", cols, tuple(rows)),))


def _run_worst_case(spec: ExperimentSpec) -> ExperimentResult:
    n = spec.regime.n
    cases = [
        ("hedged", RegimeSpec("hedged_tight_blocks", n=n, seed=spec.seed)),
        ("hedged_tighter", RegimeSpec("hedged_tight_blocks", n=n, seed=spec.seed + 1, sectors=4)),
    ]
    rows = []
    for label, regime in cases:
        sigma = gen_regime(regime)
        mu, val = worst_case_mu(sigma, restarts=spec.signal.restarts, seed=spec.seed)
        eigs, vecs = np.linalg.eigh(sigma.entries)
        v_min = vecs[:, 0]
        cos_min = abs(float(mu.values @ v_min))
        rows.append((label, kappa(sigma), kappa(to_correlation(sigma)), val, cos_min))
    cols = ("case", "kappa_sigma", "kappa_c", "dir_diag", "cos_mu_vmin")
    return ExperimentResult(spec=spec, tables=(ExperimentTable("worst_case", cols, tuple(rows)),))


def _run_sweep_rate(spec: ExperimentSpec) -> ExperimentResult:
    sigma = gen_regime(spec.regime)
    corr_eigs = to_correlation(sigma).eigenvalues
    gammas = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0)
    n_signals = 5
    rows = []
    for g in gammas:
        counts = []
        for s in range(n_signals):
            mu = gen_signal(SignalSpec("gaussian", seed=100 + s), spec.regime.n)
            run = sweeps_to_tolerance(sigma, mu, g, 1e-10)
            if not run.converged:  # the cap is not a sweep count
                raise ConditioningError(f"sweep cap hit at gamma={g:g}, signal seed {100 + s}")
            counts.append(run.sweeps)
        rows.append((g, kappa_eff(corr_eigs, g), float(np.mean(counts))))
    cols = ("gamma", "kappa_eff", "mean_sweeps_to_1e-10")
    return ExperimentResult(spec=spec, tables=(ExperimentTable("sweep_rate", cols, tuple(rows)),))


def _run_trajectory(spec: ExperimentSpec) -> ExperimentResult:
    sigma, mu = nonmonotone_instance()
    grid = np.array([0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0])
    rows = tuple(astuple(p) for p in trajectory(sigma, mu, grid, p=200))
    cols = tuple(f.name for f in fields(TrajectoryPoint))
    return ExperimentResult(spec=spec, tables=(ExperimentTable("trajectory", cols, rows),))


def _run_adaptive_calibration(spec: ExperimentSpec) -> ExperimentResult:
    n = spec.regime.n
    regimes = [
        ("block", RegimeSpec("block_sector", n=n, seed=spec.seed)),
        ("equicorr", RegimeSpec("equicorr", n=n, rho=0.6, seed=spec.seed)),
    ]
    t_over_n = (0.6, 2.0)
    ics = (0.05, 0.10)
    grid = np.linspace(0.0, 1.0, 11)
    rows = []
    for regime_label, regime in regimes:
        kappa_c = kappa(to_correlation(gen_regime(regime)))
        for ratio in t_over_n:
            t = max(int(round(ratio * n)), 3)
            for ic in ics:
                sub = replace(
                    spec,
                    regime=regime,
                    signal=SignalSpec("gaussian", seed=11),
                    methods=tuple(MethodSpec("crisp", gamma=float(g)) for g in grid),
                    t_values=(t,),
                    mu_estimator="ic_noise",
                    ic=ic,
                )
                res = _run_monte_carlo(sub)
                sharpes = {c.gamma: c.mean_sharpe for c in res.cells}
                best_gamma = max(sharpes, key=sharpes.get)
                peak = sharpes[best_gamma]
                plateau = np.mean([1.0 if sharpes[g] >= 0.98 * peak else 0.0 for g in sharpes])
                nsr = AdaptiveInputs(kappa_c, ic, n, t, 0.0).nsr
                rows.append(
                    (regime_label, t, ic, nsr, best_gamma, float(plateau), sharpes[0.5])
                )
    cols = ("regime", "t", "ic", "nsr", "gamma_star_empirical", "plateau_width", "sharpe_at_g0.5")
    return ExperimentResult(spec=spec, tables=(ExperimentTable("adaptive_calibration", cols, tuple(rows)),))


def _run_sweep_regularization(spec: ExperimentSpec) -> ExperimentResult:
    # one run over every (gamma, sweep budget): each draw is sampled, estimated
    # and clustered once, and the cells come out sorted by (gamma, sweeps, T)
    methods = tuple(
        MethodSpec("crisp", gamma=g, sweeps=p)
        for g in (0.3, 0.5, 0.7, 1.0)
        for p in (1, 5, 10, 50, 100, 500)
    )
    res = _run_monte_carlo(replace(spec, methods=methods))
    rows = tuple((c.gamma, c.sweeps, c.t, c.mean_sharpe, c.std_sharpe) for c in res.cells)
    cols = ("gamma", "sweeps", "t", "mean_sharpe", "std_sharpe")
    return ExperimentResult(spec=spec, tables=(ExperimentTable("sweep_regularization", cols, rows),))


_RUNNERS: dict[str, Callable[[ExperimentSpec], ExperimentResult]] = {
    "monte_carlo": _run_monte_carlo,
    "recovery": _run_recovery,
    "minvar_direction": _run_minvar_direction,
    "graduated": _run_graduated,
    "worst_case": _run_worst_case,
    "sweep_rate": _run_sweep_rate,
    "trajectory": _run_trajectory,
    "adaptive_calibration": _run_adaptive_calibration,
    "sweep_regularization": _run_sweep_regularization,
}


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


class _Preset(NamedTuple):
    """One preset row, its regime drawn at the preset's seed. ``full`` holds the
    row fields that differ at full scale, ``spec`` further ExperimentSpec fields."""

    kind: str
    regime: str
    n: int
    signal: SignalSpec
    t_values: tuple[int, ...] = (120,)
    trials: int = 40
    full: dict = {}
    spec: dict = {}


def _at(method: str, *gammas: float) -> tuple[MethodSpec, ...]:
    return tuple(MethodSpec(method, g) for g in gammas)


_ONES, _GAUSS = SignalSpec("ones"), SignalSpec("gaussian", seed=7)
_BLIND = (MethodSpec("one-over-n"), MethodSpec("hrp"))

_PRESETS = {
    "recovery": _Preset("recovery", "block_sector", 200, _ONES),
    "minvar_direction": _Preset("minvar_direction", "block_sector", 200, _ONES),
    "graduated": _Preset("graduated", "block_sector", 200, _GAUSS),
    "worst_case": _Preset(
        "worst_case", "hedged_tight_blocks", 100, SignalSpec("worst_case", restarts=16),
        full=dict(signal=SignalSpec("worst_case", restarts=32)),
    ),
    "sweep_rate": _Preset("sweep_rate", "block_sector", 100, _GAUSS),
    "trajectory": _Preset("trajectory", "block_sector", 100, _GAUSS),
    "oos_sensitivity": _Preset(
        "monte_carlo", "block_sector", 100, _GAUSS, full=dict(trials=80),
        spec=dict(methods=(
            *_BLIND, MethodSpec("markowitz"), *_at("hrp-mu", 0.5, 1.0),
            *_at("hrp-sigma-mu", 0.5, 1.0), *_at("crisp", 0.3, 0.5, 0.7, 1.0),
        )),
    ),
    "oos_structural": _Preset(
        "monte_carlo", "block_sector", 100, SignalSpec("sector_tilt"), t_values=(60, 120, 240),
        full=dict(trials=80),
        spec=dict(methods=(
            *_BLIND, MethodSpec("markowitz"), *_at("hrp-mu", 1.0),
            *_at("hrp-sigma-mu", 0.5, 1.0), *_at("crisp", 0.5, 0.7, 1.0),
        )),
    ),
    "oos_minvar": _Preset(
        "monte_carlo", "block_sector", 100, _ONES, t_values=(60, 120, 240, 500),
        full=dict(trials=80),
        spec=dict(methods=(
            *_BLIND, *_at("cotton", 0.5, 0.7, 1.0), *_at("hrp-mu", 1.0),
            *_at("hrp-sigma-mu", 1.0), *_at("crisp", 0.5, 0.7, 1.0), MethodSpec("markowitz"),
        )),
    ),
    "sweep_regularization": _Preset(
        "sweep_regularization", "block_sector", 100, _GAUSS, t_values=(60, 200),
        full=dict(trials=200), spec=dict(mu_estimator="ic_noise", ic=0.05),
    ),
    "adaptive_calibration": _Preset(
        "adaptive_calibration", "block_sector", 60, _GAUSS, trials=20,
        full=dict(n=100, trials=100),
    ),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, full: bool = False, seed: int = 42) -> ExperimentSpec:
    """Named experiment recipe at desk scale; ``full`` restores larger runs."""
    row = _PRESETS.get(name)
    if row is None:
        raise ParameterError(f"unknown preset {name!r}; valid: {', '.join(PRESET_NAMES)}")
    if full:
        row = row._replace(**row.full)
    return ExperimentSpec(
        name,
        RegimeSpec(row.regime, n=row.n, seed=seed),
        row.signal,
        t_values=row.t_values,
        trials=row.trials,
        seed=seed,
        kind=row.kind,
        **row.spec,
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    """One table cell: a float to six significant digits (nan and inf too)."""
    return f"{x:.6g}" if isinstance(x, float) else str(x)


EXPORT_FORMATS = ("csv", "tsv", "text")


def export(table: ExperimentTable, format: str = "csv") -> bytes:
    """Serialize a table: header row, six significant digits, stable order."""
    if format not in EXPORT_FORMATS:
        raise ParameterError(f"unknown export format {format!r}")
    if format in ("csv", "tsv"):
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter="," if format == "csv" else "\t", lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_fmt(x) for x in row])
        return buf.getvalue().encode("utf-8")
    widths = [
        max(len(str(c)), *(len(_fmt(r[i])) for r in table.rows)) if table.rows else len(str(c))
        for i, c in enumerate(table.columns)
    ]
    lines = ["  ".join(str(c).ljust(widths[i]) for i, c in enumerate(table.columns))]
    for row in table.rows:
        lines.append("  ".join(_fmt(x).ljust(widths[i]) for i, x in enumerate(row)))
    return ("\n".join(lines) + "\n").encode("utf-8")
