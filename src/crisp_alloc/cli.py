"""Command-line front end.

Subcommands: ``allocate`` (one allocation from CSV inputs or a generated
regime, with direction/Sharpe diagnostics against the direct solve),
``experiment`` (named preset battery written as CSV/TSV/text tables),
``trajectory`` (shrinkage-grid direction errors), ``worst-mu`` (adversarial
signal search), and ``gen`` (write a synthetic covariance/signal to CSV).

Covariance files are headerless CSV, N rows by N columns; signals are N x 1.
A path ending in ``.npy`` is read and written as a numpy array instead. With
neither ``--mu`` nor ``--signal`` the signal is all ones; a ``--signal`` spec
on a ``--cov`` file is drawn on five equal sectors. ``--regime`` and
``--signal`` specs give the same inputs that ``gen`` writes, and a signal of
the wrong length exits 1 with the library's message. ``gen --mu-out`` needs
``--signal``. A stdout closed before the output is written exits 1.
Flags override an optional ``key = value`` config file, which overrides the
built-in defaults. The CRISP_ALLOC_RESULTS_DIR environment variable overrides
the results root.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .analysis import TrajectoryPoint, default_gamma_grid, trajectory
from .core import CovarianceMatrix, Signal, _count, markowitz_direct
from .errors import AllocationError, ParameterError
from .experiments import (
    DEFAULT_FACTORS,
    EXPORT_FORMATS,
    METHOD_IDS,
    Inputs,
    MethodSpec,
    _fmt,
    _population,
    allocate,
    export,
    nonmonotone_instance,
    preset,
    run_experiment,
)
from .metrics import direction_report, sharpe
from .solver import DEFAULT_EPS, DEFAULT_GAMMA, DEFAULT_SWEEPS
from .synthetic import (
    _REGIMES,
    _SIGNALS,
    RegimeSpec,
    SignalSpec,
    gen_regime,
    gen_signal,
    sector_labels,
    worst_case_mu,
)


class CliError(Exception):
    pass


def _read_matrix(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return _read_npy(path)
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is reported below
            lines = (line for line in fh if not line.isspace())
            m = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(_locate_bad_cell(path) or f"{path}: {exc}") from exc
    if not m.size:
        raise CliError(f"{path}: empty file")
    return m


def _read_npy(path: str) -> np.ndarray:
    """A real numeric array of at most two dimensions (a vector is a row)."""
    try:
        with open(path, "rb") as fh:  # np.load's reader for .npy, pickles refused
            m = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if m.dtype.kind not in "biuf" or m.ndim > 2:
        raise CliError(f"{path}: not a real numeric array of at most two dimensions")
    if not m.size:
        raise CliError(f"{path}: empty array")
    return np.atleast_2d(m.astype(float))


def _locate_bad_cell(path: str):
    """The first cell that is not a number, or row of another width, as
    'path:line[:column]: ...'; None when there is none."""
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            for col, cell in enumerate(cells, start=1):
                if not _is_number(cell):
                    return f"{path}:{lineno}:{col}: not a number: {cell!r}"
            width = width or len(cells)
            if len(cells) != width:
                return f"{path}:{lineno}: ragged row width"
    return None


def _is_number(cell: str) -> bool:
    """Whether loadtxt reads ``cell``: float() less its digit separators."""
    try:
        float(cell)
    except ValueError:
        return False
    return "_" not in cell


def _write_matrix(path: str, m: np.ndarray) -> None:
    """Headerless CSV at full precision, a vector as a column; ``.npy`` as is."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if path.endswith(".npy"):
        np.save(path, m)
    else:
        np.savetxt(path, m, fmt="%.17g", delimiter=",")


def _write_out(path: str | None, m: np.ndarray) -> None:
    """``m`` to the ``--out`` path, when one is given."""
    if path:
        _write_matrix(path, m)
        print(f"wrote {path}")


# per spec kind: the spec class, the library's kind names, short aliases,
# and the keys a spec string may set, key -> (field, type)
_SPECS = {
    "regime": (
        RegimeSpec,
        _REGIMES,
        {"block": "block_sector", "hedged": "hedged_tight_blocks"},
        {"k": ("k", int), "rho": ("rho", float), "sectors": ("sectors", int)},
    ),
    "signal": (
        SignalSpec,
        _SIGNALS,
        {"tilt": "sector_tilt", "worst": "worst_case"},
        {"sigma": ("sigma_mu", float), "restarts": ("restarts", int)},
    ),
}


def _parse_spec(what: str, text: str, **fields):
    """'kind:key=val,key=val' -> the ``what`` ("regime" or "signal") spec."""
    cls, kinds, aliases, keys = _SPECS[what]
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    params = {}
    for item in rest.split(",") if rest else ():
        key, _, val = item.partition("=")
        if not val:
            raise CliError(f"bad spec item {item!r} (want key=value)")
        params[key.strip()] = val.strip()
    names = dict(zip(kinds, kinds), **aliases)
    if kind not in names:
        raise CliError(f"unknown {what} {kind!r}; valid: {', '.join(sorted(names))}")
    for key, val in params.items():
        if key not in keys:
            raise CliError(f"unknown {what} key {key!r}; valid: {', '.join(sorted(keys))}")
        field, typ = keys[key]
        try:
            fields[field] = typ(val)
        except ValueError:
            raise CliError(f"{what} {key}={val!r} is not a valid {typ.__name__}") from None
    return cls(kind=names[kind], **fields)


def _load_config(path: str) -> dict:
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key = value")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _results_root(args) -> Path:
    env = os.environ.get("CRISP_ALLOC_RESULTS_DIR")
    if env:
        return Path(env)
    return Path(args.out) if args.out else Path("results")


def _build_cov(args):
    """(sigma, sectors) from a CSV path or a generated regime."""
    if args.cov:
        sigma = CovarianceMatrix(_read_matrix(args.cov))
        sectors = sector_labels(sigma.n, RegimeSpec.sectors)
    elif args.regime:
        spec = _parse_spec("regime", args.regime, n=args.n, seed=args.seed)
        sigma = gen_regime(spec)
        sectors = sector_labels(spec.n, spec.sectors)
    else:
        raise CliError("need --cov FILE or --regime SPEC")
    return sigma, sectors


def _build_inputs(args):
    """(sigma, mu): ``_build_cov`` and a signal from a CSV path or a spec (all
    ones when neither is given). The library pairs them when it reads them."""
    sigma, sectors = _build_cov(args)
    if args.mu:
        return sigma, Signal(_read_matrix(args.mu).reshape(-1))
    sig = _parse_spec("signal", args.signal or "ones", seed=args.seed)
    return sigma, gen_signal(sig, sigma.n, sectors=sectors, sigma=sigma)


def cmd_allocate(args) -> int:
    m = MethodSpec(args.method, args.gamma, args.sweeps, args.eps, args.factors)
    sigma, mu = _build_inputs(args)
    w, solved = allocate(m, Inputs(sigma, mu))

    w_star = markowitz_direct(sigma, mu)
    rep = direction_report(w.values, w_star.values)
    print(f"method: {args.method}  gamma: {args.gamma:g}  n: {sigma.n}")
    print("weights:", " ".join(f"{x:.6g}" for x in w.values))
    if solved:
        print(f"sweeps: {solved.sweeps_used}  converged: {solved.converged}")
    print(
        f"dir_error_vs_direct: {rep.dir_error:.6g}  signed_cos: {rep.signed_cosine:.6g}  "
        f"sign_match: {rep.sign_match_fraction:.6g}"
    )
    print(f"sharpe: {sharpe(w.values, sigma, mu):.6g}  sharpe_direct: {sharpe(w_star.values, sigma, mu):.6g}")
    _write_out(args.out, w.values)
    return 0


def cmd_experiment(args) -> int:
    _count(args.jobs, 1, "--jobs must be at least 1")  # before any file is written
    _count(args.seed, 0, "--seed must be at least 0")  # exit 1, not the unknown-preset exit 2
    try:
        spec = preset(args.preset, full=args.full, seed=args.seed)
    except ParameterError as exc:  # names the valid presets
        print(exc, file=sys.stderr)
        return 2
    if args.trials is not None:  # runners that draw no trials ignore it
        spec = dataclasses.replace(spec, trials=args.trials)
    root = _results_root(args) / args.preset
    try:
        result = run_experiment(spec, jobs=args.jobs)
    except AllocationError as exc:
        root.mkdir(parents=True, exist_ok=True)
        failed = root / "FAILED.txt"
        failed.write_text(f"{exc}\n", encoding="utf-8")
        print(f"experiment failed: {exc}; wrote {failed}", file=sys.stderr)
        return 1
    root.mkdir(parents=True, exist_ok=True)
    for table in result.tables:
        path = root / f"{table.name}.{args.format if args.format != 'text' else 'txt'}"
        path.write_bytes(export(table, args.format))
        print(f"wrote {path}")
        for row in table.rows:
            print("  " + " ".join(map(_fmt, row)))
    return 0


def cmd_trajectory(args) -> int:
    if args.example == "nonmonotone":
        sigma, mu = nonmonotone_instance()
    else:
        sigma, mu = _build_inputs(args)
    points = trajectory(sigma, mu, default_gamma_grid(args.grid), p=args.sweeps)
    rows = [dataclasses.astuple(p) for p in points]
    print(*(f.name for f in dataclasses.fields(TrajectoryPoint)))
    for gamma, *dirs in rows:
        print(f"{gamma:.3f}", *map(_fmt, dirs))
    _write_out(args.out, np.array(rows))
    return 0


def cmd_worst_mu(args) -> int:
    sigma, _ = _build_cov(args)
    mu, val = worst_case_mu(sigma, restarts=args.restarts, seed=args.seed)
    print(f"dir_diag: {val:.6g}")
    print("mu:", " ".join(f"{x:.6g}" for x in mu.values))
    _write_out(args.out, mu.values)
    return 0


def cmd_gen(args) -> int:
    if not args.out:
        raise CliError("gen needs --out FILE")
    if args.mu_out and not args.signal:
        raise CliError("--mu-out needs --signal")
    spec = _parse_spec("regime", args.regime, n=args.n, seed=args.seed)
    sig = _parse_spec("signal", args.signal or "ones", seed=args.seed)
    x = _population(spec, sig)
    _write_matrix(args.out, x.sigma.entries)
    print(f"wrote {args.out} ({spec.n} x {spec.n})")
    if args.signal:
        out = Path(args.out)
        mu_path = args.mu_out or str(out.with_name(f"{out.stem}_mu{out.suffix}"))
        _write_matrix(mu_path, x.mu.values)
        print(f"wrote {mu_path} ({spec.n} x 1)")
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="optional key = value config file")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--out", help="output path (or results root for experiments)")
    # a file and a spec for the same input contradict each other, so argparse
    # rejects the pair (exit 2)
    cov_io = argparse.ArgumentParser(add_help=False, parents=[common])
    cov_src = cov_io.add_mutually_exclusive_group()
    cov_src.add_argument("--cov", help="covariance CSV (N x N, headerless) or .npy")
    cov_src.add_argument("--regime", help="regime spec, e.g. block or factor:k=3")
    cov_io.add_argument("--n", type=int, default=100, help="assets for generated regimes")
    inputs = argparse.ArgumentParser(add_help=False, parents=[cov_io])
    mu_src = inputs.add_mutually_exclusive_group()
    mu_src.add_argument("--mu", help="signal CSV (N x 1) or .npy")
    mu_src.add_argument("--signal", help="signal spec, e.g. gaussian:sigma=0.02")

    parser = argparse.ArgumentParser(
        prog="crisp-alloc",
        description="Hierarchical and iterative shrinkage portfolio allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="run one allocation", parents=[inputs])
    p_alloc.add_argument("--method", choices=METHOD_IDS, required=True)
    p_alloc.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p_alloc.add_argument("--sweeps", type=int, default=DEFAULT_SWEEPS)
    p_alloc.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_alloc.add_argument(
        "--factors", type=int, default=DEFAULT_FACTORS, help="factor count for crisp-stream"
    )
    p_alloc.set_defaults(func=cmd_allocate)

    p_exp = sub.add_parser("experiment", help="run a named experiment preset", parents=[common])
    p_exp.add_argument("preset", help="preset name; see --list via invalid name")
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--full", action="store_true", help="restore full-scale runs")
    p_exp.add_argument("--format", choices=EXPORT_FORMATS, default="csv")
    p_exp.add_argument("--jobs", type=int, default=1, help="checked only; trials run in order on one thread")
    p_exp.set_defaults(func=cmd_experiment)

    p_traj = sub.add_parser("trajectory", help="shrinkage-grid direction errors", parents=[inputs])
    p_traj.add_argument("--example", choices=("nonmonotone",), help="built-in instance")
    p_traj.add_argument("--sweeps", type=int, default=200)
    p_traj.add_argument("--grid", type=int, default=21)
    p_traj.set_defaults(func=cmd_trajectory)

    p_worst = sub.add_parser("worst-mu", help="adversarial signal search", parents=[cov_io])
    p_worst.add_argument("--restarts", type=int, default=32)
    p_worst.set_defaults(func=cmd_worst_mu)

    p_gen = sub.add_parser("gen", help="write a synthetic covariance to CSV", parents=[common])
    p_gen.add_argument("--regime", required=True)
    p_gen.add_argument("--n", type=int, default=100)
    p_gen.add_argument("--signal", help="also write a signal")
    p_gen.add_argument("--mu-out", help="signal path (default: --out with _mu before its suffix)")
    p_gen.set_defaults(func=cmd_gen)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # flags > config file > defaults: the config's strings become the
        # subcommand's defaults, which argparse types as it types the flags
        dests = {name: {a.dest for a in p._actions} for name, p in subparsers.items()}
        try:
            cfg = _load_config(args.config)
            bad = set(cfg).difference(*dests.values())
            if bad:
                raise CliError(f"unknown config keys: {', '.join(sorted(bad))}")
        except CliError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if "full" in cfg:  # a store_true default is not typed
            cfg["full"] = cfg["full"].lower() in ("1", "true", "yes", "on")
        sub = subparsers[args.command]
        for group in sub._mutually_exclusive_groups:  # a flag outranks its partner's config value
            pair = [a.dest for a in group._group_actions]
            if any(getattr(args, d) is not None for d in pair):
                for d in pair:
                    cfg.pop(d, None)
        sub.set_defaults(**{k: v for k, v in cfg.items() if k in dests[args.command]})
        args = parser.parse_args(argv)
        # argparse types a string default but checks no choices on it
        for action in sub._actions:
            if action.choices is not None and action.dest in cfg:
                try:
                    sub._check_value(action, getattr(args, action.dest))
                except argparse.ArgumentError as exc:
                    sub.error(str(exc))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone raises here, not at exit
        return code
    except (CliError, AllocationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the rest of stdout goes to devnull: the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
