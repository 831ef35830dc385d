"""Span tracing installed from outside the library.

The tracer replaces each traced public function with a timing wrapper at
every name a module of the package binds it to (the defining module, the
modules that import it with ``from … import``, and the package namespace), so
calls between layers are seen at the boundary without changing ``src/``.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# Public functions traced, per layer (a module of ``crisp_alloc``).
# ``experiments._run_trial`` is the trial boundary; it is private but it is
# the only place one Monte Carlo trial starts and ends.
TRACED = {
    "synthetic": (
        "gen_regime", "gen_signal", "sample_returns", "sample_cov", "sample_mean",
        "worst_case_mu",
    ),
    "core": ("to_correlation", "markowitz_direct", "kappa"),
    "dendrogram": ("build_tree",),
    "baselines": (
        "hrp", "cotton", "direct_minvar", "equal_weight", "a1_sum_norm_mvo",
        "a2_flat_ivp_tree",
    ),
    "signal_trees": ("hrp_mu", "hsp", "hrp_sigma_mu"),
    "solver": ("crisp_solve", "crisp_solve_stream", "crisp_projected", "sweeps_to_tolerance"),
    "analysis": ("trajectory", "kappa_eff"),
    "metrics": (
        "sharpe", "signed_cosine", "gross_leverage", "dir_error", "dir_diag",
        "direction_report",
    ),
    "experiments": ("run_experiment", "allocate", "export", "_run_trial"),
    "cli": ("main",),
}

LAYERS = tuple(TRACED)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op_id: str = ""
    info: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _counts(name: str, args, result) -> dict:
    """Counts read from a traced call's arguments and return value."""
    if name in ("solver.crisp_solve", "solver.crisp_projected", "solver.crisp_solve_stream"):
        return {"sweeps": result.sweeps_used, "converged": result.converged, "n": args[0].n}
    if name == "solver.sweeps_to_tolerance":
        return {"sweeps": result.sweeps, "converged": result.converged}
    return {}


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.op_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            op_id = spans[parent].op_id if parent >= 0 else self.op_id
            if name == "experiments.trial":  # _run_trial(ctx, spec, t, trial_index)
                op_id = f"{op_id}/{args[1].name}/t{args[2]}/trial{args[3]}"
            span = Span(name, 0.0, parent=parent, op_id=op_id)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.info["raised"] = type(exc).__name__
                raise
            else:
                span.end = clock()
                span.info.update(_counts(name, args, result))
                return result
            finally:
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.dur

        return traced

    def install(self) -> None:
        modules = [self.package] + [
            m for k, m in sys.modules.items() if k.startswith(self.package.__name__ + ".")
        ]
        originals = {}
        for layer, funcs in TRACED.items():
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for func in funcs:
                fn = getattr(mod, func)
                name = f"{layer}.trial" if func == "_run_trial" else f"{layer}.{func}"
                originals[id(fn)] = self._wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and callable(value):
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def to_records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op_id": s.op_id,
                "self_s": s.self_s,
                **s.info,
            }
            for s in self.spans
        ]
