"""crisp-alloc benchmark: one workload, closed loop, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload mc_walkforward --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced rounds of the same work and reports the
per-layer metrics from the traced rounds' spans. Output checks run in both
modes after the timed loop. The last line of standard output is the result;
the line before it (``perfbench-summary``) carries the environment, the check
outcomes and the metrics under the names used in the design notes
(``perfbench/DESIGN.md``). Result, summary and spans are also written to
``.perfbench/`` in the repository root.

All load comes from this one process: BLAS is pinned to one thread below,
before numpy is imported, and every experiment runs with ``jobs=1``.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOAD_NAMES = ("mc_walkforward", "desk_rebalance", "solver_convergence")
DEFAULT_SEED = 1
SETUP_REPEATS = 3

clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--write-reference", action="store_true",
        help=f"record round 0's outputs at seed {DEFAULT_SEED} as the reference",
    )
    return p.parse_args(argv)


def timed_setup(cls, seed: int, workdir: Path, sc):
    """Build the inputs SETUP_REPEATS times; keep the last, return all timings."""
    from perfbench.speed import Timed

    times = []
    for _ in range(SETUP_REPEATS):
        wl = cls()
        times.append(Timed())
        with sc.segment(times[-1]):
            wl.setup(seed, workdir)
    return wl, times


def measure(wl, seconds: float, sc):
    """Closed loop of rounds until the next round would end past ``seconds``."""
    rounds, walls = [], []
    t0 = clock()
    while True:
        t = clock()
        rounds.append(wl.run_round(len(rounds), sc))
        walls.append(clock() - t)
        if len(rounds) > 1:
            rounds[-1].outputs = {}
        if clock() - t0 + statistics.median(walls) > seconds:
            return rounds


def measure_traced(wl, seconds: float, sc, tracer):
    """Pairs of one untraced and one traced run of the same round.

    The order inside a pair alternates so that drift in machine speed does
    not land on one side.
    """
    untraced, traced, pair_walls = [], [], []
    t0 = clock()
    r = 0
    while True:
        pair = 0.0
        for is_traced in ((False, True) if r % 2 == 0 else (True, False)):
            if is_traced:
                tracer.op_id = f"{wl.name}-r{r}"
                tracer.install()
            try:
                t = clock()
                rnd = wl.run_round(r, sc)
                pair += clock() - t
            finally:
                if is_traced:
                    tracer.uninstall()
            if not (r == 0 and not is_traced):
                rnd.outputs = {}
            (traced if is_traced else untraced).append(rnd)
        pair_walls.append(pair)
        r += 1
        if clock() - t0 + statistics.median(pair_walls) > seconds:
            return untraced, traced


def run_checks(wl, first, seed: int, write_reference: bool) -> dict:
    from perfbench import checks

    found = wl.check(first)
    got = found.pop("reference_values", None)
    if got is None:
        return found
    if write_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        ref[wl.name] = got
        REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    elif seed == DEFAULT_SEED:
        ref = json.loads(REFERENCE.read_text()).get(wl.name, {})
        found.update(checks.matches_reference(ref, got) if ref else {"reference_present": False})
    return found


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        print(f"error: the reference is recorded at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    if not (SRC / "crisp_alloc" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    import crisp_alloc

    from perfbench import envinfo, workloads
    from perfbench.report import PER_LAYER, layer_metrics
    from perfbench.speed import PROBE_REF_S, SpeedClock, probe
    from perfbench.tracing import Tracer

    import_s = clock() - T_START
    sc = SpeedClock()
    # the first probe runs cold; the median of five is the warm probe time
    import_ref_s = import_s * PROBE_REF_S / statistics.median(probe() for _ in range(5))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cls = workloads.WORKLOADS[args.workload]
        wl, setup_times = timed_setup(cls, args.seed, workdir, sc)
        setup_s = import_ref_s + statistics.median(t.ref_s for t in setup_times)

        tracer = Tracer(crisp_alloc)
        if args.trace:
            untraced, traced = measure_traced(wl, args.seconds, sc, tracer)
            rounds = untraced + traced
            first = untraced[0]
        else:
            rounds = measure(wl, args.seconds, sc)
            first = rounds[0]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        found = run_checks(wl, first, args.seed, args.write_reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds) + len(found)
    failed = sum(r.failed for r in rounds) + sum(1 for ok in found.values() if not ok)
    op_samples = [r.lib.ref_s / r.units for r in rounds]
    cli_samples = [r.cli.ref_s for r in rounds]
    op_p50_s = statistics.median(op_samples)
    cli_p50_s = statistics.median(cli_samples)
    op_wall = statistics.median(r.lib.wall_s / r.units for r in rounds)
    cli_wall = statistics.median(r.cli.wall_s for r in rounds)
    # (reference-second value, wall-second value, unit)
    named = {
        "mc_walkforward": {"mc_trials_per_s": (1.0 / op_p50_s, 1.0 / op_wall, "1/s")},
        "desk_rebalance": {
            "desk_rebalance_s": (op_p50_s, op_wall, "s"),
            "cli_allocate_s": (cli_p50_s, cli_wall, "s"),
        },
        "solver_convergence": {
            "diag_tables_s": (op_p50_s + cli_p50_s, op_wall + cli_wall, "s")
        },
    }[args.workload]
    named.update(
        setup_s=(setup_s, import_s + statistics.median(t.wall_s for t in setup_times), "s"),
        failed_frac=(failed / attempted, failed / attempted, "ratio"),
        peak_rss_mb=(peak_rss_mb, peak_rss_mb, "MB"),
    )
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "op_samples_ref_s": op_samples,
        "cli_samples_ref_s": cli_samples,
        "op_samples_wall_s": [r.lib.wall_s / r.units for r in rounds],
        "cli_samples_wall_s": [r.cli.wall_s for r in rounds],
        "setup_wall_s": [import_s] + [t.wall_s for t in setup_times],
        "setup_ref_s": [import_ref_s] + [t.ref_s for t in setup_times],
        "probe_ref_s": PROBE_REF_S,
        "named_metrics": {
            k: {"value": v, "wall_value": w, "unit": u} for k, (v, w, u) in named.items()
        },
        "checks": found,
        "environment": envinfo.environment(ROOT, BLAS_THREADS),
    }
    if args.workload == "solver_convergence":
        cap = first.outputs.get("capped_solve")
        summary["capped_solve_hedged_n40_gamma1"] = (
            {"sweeps": cap.sweeps, "converged": cap.converged} if cap else None
        )

    if args.trace:
        # overhead in reference seconds, so a change of host speed between
        # the two halves of a pair does not read as tracing cost
        untraced_ref = sum(r.lib.ref_s + r.cli.ref_s for r in untraced)
        traced_ref = sum(r.lib.ref_s + r.cli.ref_s for r in traced)
        overhead_frac = (traced_ref - untraced_ref) / untraced_ref
        # spans also contain the speed probes that fired inside them
        traced_wall = sum(r.lib.wall_s + r.cli.wall_s + r.lib.probe_s + r.cli.probe_s for r in traced)
        per_layer = layer_metrics(tracer.spans, traced_wall, overhead_frac)
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER.items()}
        summary["trace_accounting"] = {
            "untraced_ref_s": untraced_ref,
            "traced_ref_s": traced_ref,
            "traced_wall_with_probes_s": traced_wall,
            "span_self_sum_s": sum(s.self_s for s in tracer.spans),
            "spans": len(tracer.spans),
            "pairs": len(traced),
        }
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.to_records()) + "\n")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": op_p50_s, "unit": "s"},
            "cli_p50_s": {"value": cli_p50_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    correct = bool(found) and all(found.values()) and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{name}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=1) + "\n"
    )
    print("perfbench-summary " + json.dumps(summary), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
