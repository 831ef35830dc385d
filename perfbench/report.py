"""Per-layer metrics of a traced run, computed from its spans."""

from __future__ import annotations

import statistics

from .tracing import LAYERS, Span

# name -> unit; every name is reported on every workload (0 when unused)
PER_LAYER = {
    "dendrogram.build_tree.ms": "ms",
    "dendrogram.build_tree.share": "ratio",
    "solver.crisp_solve.ms": "ms",
    "solver.crisp_solve.sweeps": "count",
    "solver.crisp_solve.converged_frac": "ratio",
    "solver.gs_sweep.computed_gflop_per_s": "GFLOP/s",
    "solver.sweeps_to_tolerance.ms": "ms",
    "solver.sweeps_to_tolerance.sweeps": "count",
    "solver.sweeps_to_tolerance.converged_frac": "ratio",
    "solver.crisp_projected.ms": "ms",
    "solver.crisp_projected.sweeps": "count",
    "solver.crisp_projected.converged_frac": "ratio",
    "solver.crisp_solve_stream.ms": "ms",
    "baselines.cotton.ms": "ms",
    "baselines.cotton.breakdown_frac": "ratio",
    "baselines.hrp.ms": "ms",
    "signal_trees.hrp_mu.ms": "ms",
    "signal_trees.hrp_sigma_mu.ms": "ms",
    "core.markowitz_direct.ms": "ms",
    "core.to_correlation.ms": "ms",
    "synthetic.sample_returns.ms": "ms",
    "synthetic.sample_cov.ms": "ms",
    "synthetic.worst_case_mu.ms": "ms",
    "metrics.ms_per_trial": "ms",
    "analysis.trajectory.ms": "ms",
    "experiments.run_experiment.self_ms_per_trial": "ms",
    "experiments.trial_p50_ms": "ms",
    "experiments.trial_p95_ms": "ms",
    "cli.main.self_ms": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "bench.self_share": "ratio",
    "trace.overhead_frac": "ratio",
}

_SCORING = ("metrics.sharpe", "metrics.signed_cosine", "metrics.gross_leverage")


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _quantile(xs, q: int) -> float:
    """q-th percentile (inclusive method), 0 when there are no samples."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], traced_wall: float, overhead_frac: float) -> dict:
    """Per-layer metrics; shares are of ``traced_wall``, the traced segments' time."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def ms(name):
        return 1e3 * _mean([s.dur for s in by_name.get(name, [])])

    def info_mean(name, key):
        return _mean([float(s.info[key]) for s in by_name.get(name, []) if key in s.info])

    out = {name: 0.0 for name in PER_LAYER}
    for name in (
        "solver.crisp_solve", "solver.sweeps_to_tolerance", "solver.crisp_projected",
        "solver.crisp_solve_stream", "baselines.cotton", "baselines.hrp",
        "signal_trees.hrp_mu", "signal_trees.hrp_sigma_mu", "core.markowitz_direct",
        "core.to_correlation", "synthetic.sample_returns", "synthetic.sample_cov",
        "synthetic.worst_case_mu", "analysis.trajectory", "dendrogram.build_tree",
    ):
        out[f"{name}.ms"] = ms(name)
    for name in ("solver.crisp_solve", "solver.sweeps_to_tolerance", "solver.crisp_projected"):
        out[f"{name}.sweeps"] = info_mean(name, "sweeps")
        out[f"{name}.converged_frac"] = info_mean(name, "converged")

    trees = by_name.get("dendrogram.build_tree", [])
    out["dendrogram.build_tree.share"] = sum(s.dur for s in trees) / traced_wall

    # 2 N^2 flops per Gauss-Seidel sweep (one row dot product per coordinate)
    solves = by_name.get("solver.crisp_solve", [])
    flops = sum(2.0 * s.info["n"] ** 2 * s.info["sweeps"] for s in solves if "n" in s.info)
    busy = sum(s.dur for s in solves)
    out["solver.gs_sweep.computed_gflop_per_s"] = flops / busy / 1e9 if busy > 0 else 0.0

    cottons = by_name.get("baselines.cotton", [])
    out["baselines.cotton.breakdown_frac"] = _mean(
        [1.0 if s.info.get("raised") == "SchurBreakdownError" else 0.0 for s in cottons]
    )

    trials = by_name.get("experiments.trial", [])
    trial_ids = {i for i, s in enumerate(spans) if s.name == "experiments.trial"}
    if trials:
        scoring = sum(s.dur for s in spans if s.name in _SCORING and s.parent in trial_ids)
        out["metrics.ms_per_trial"] = 1e3 * scoring / len(trials)
        runs = by_name.get("experiments.run_experiment", [])
        out["experiments.run_experiment.self_ms_per_trial"] = (
            1e3 * sum(s.self_s for s in runs) / len(trials)
        )
        durs = [1e3 * s.dur for s in trials]
        out["experiments.trial_p50_ms"] = statistics.median(durs)
        out["experiments.trial_p95_ms"] = _quantile(durs, 95)
    out["cli.main.self_ms"] = 1e3 * _mean([s.self_s for s in by_name.get("cli.main", [])])

    for layer in LAYERS:
        own = sum(s.self_s for s in spans if s.name.split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = own / traced_wall
    top = sum(s.dur for s in spans if s.parent < 0)
    out["bench.self_share"] = (traced_wall - top) / traced_wall
    out["trace.overhead_frac"] = overhead_frac
    return out
