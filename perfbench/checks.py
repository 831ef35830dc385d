"""Output checks that hold for any workload seed, plus the reference compare.

Every check returns a bool; a failed check counts as one failed operation.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.cluster.hierarchy as sch
from scipy.spatial.distance import squareform

import crisp_alloc as ca

# Relative tolerance of the reference compare, scaled by the largest absolute
# value of each compared column or vector. Exported tables print six
# significant digits, so a rounding-level change moves a value by at most
# ~1e-5 of itself; a changed algorithm (another tree, another iterate, another
# sweep count) moves Sharpe means, weights and counts by far more than 1e-4.
REFERENCE_RTOL = 1e-4


def tree_matches_scipy(tree, corr, rtol: float = 1e-12) -> bool:
    """Same clusters and heights as ``scipy.cluster.hierarchy.linkage(…, 'ward')``.

    Valid on tie-free inputs such as sampled covariances, where the greedy
    merge sequence is unique.
    """
    d = ca.corr_distance(corr)
    z = sch.linkage(squareform(0.5 * (d + d.T), checks=False), "ward")
    n = corr.n
    members = [frozenset([i]) for i in range(n)]
    theirs = {}
    for a, b, h, _ in z:
        merged = members[int(a)] | members[int(b)]
        members.append(merged)
        theirs[merged] = h
    ours = {frozenset(node.leaves): node.height for node in tree.internal_nodes}
    if ours.keys() != theirs.keys():
        return False
    scale = max(theirs.values())
    return all(abs(ours[k] - theirs[k]) <= rtol * scale for k in ours)


def projected_feasible(w: np.ndarray, constraints, tol: float) -> bool:
    lo, hi, budget, rows = constraints.resolved(w.size)
    viol = max(float(np.max(lo - w)), float(np.max(w - hi)))
    if budget is not None:
        viol = max(viol, abs(float(w.sum()) - budget))
    for a, b in rows:
        viol = max(viol, float(a @ w) - b)
    return viol <= tol


def normalised(w, tag: str, nonneg: bool = False, tol: float = 1e-10) -> bool:
    """The tree pass returned its normalisation tag and meets it."""
    v = w.values
    total = float(v.sum()) if tag == "sum_one" else float(np.abs(v).sum())
    ok = w.norm_tag == tag and abs(total - 1.0) <= tol
    return bool(ok and (not nonneg or float(v.min()) >= 0.0))


def signed_budgets_sum_one(w, mu, tol: float = 1e-10) -> bool:
    """``hrp_mu``: node budgets sum to one, so sum_i sign(mu_i) w_i = 1.

    Budgets may be negative on estimated covariances, and then the weights
    are tagged ``raw`` rather than ``l1_one``; the signed sum still holds.
    """
    signs = np.where(mu.values >= 0.0, 1.0, -1.0)
    gross = max(1.0, float(np.abs(w.values).sum()))
    return abs(float(signs @ w.values) - 1.0) <= tol * gross


def cli_weights(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("weights:"):
            return np.array([float(x) for x in line.split()[1:]])
    return None


def trajectory_rows(stdout: str):
    """Rows of ``crisp-alloc trajectory`` output, or None if it is malformed."""
    lines = stdout.splitlines()
    if not lines or lines[0].split() != ["gamma", "dir_exact", "dir_finite_sweep", "dir_slack"]:
        return None
    rows = [[float(x) for x in line.split()] for line in lines[1:] if line.strip()]
    if any(len(r) != 4 or not all(math.isfinite(x) for x in r) for r in rows):
        return None
    return rows


def residuals_below_tol(log, tol: float) -> bool:
    """Re-run each converged to-tolerance solve for its reported sweep count.

    ``crisp_solve`` with ``p_max`` = the count and early stopping disabled
    visits the same iterate (same start, same sweep), whose dense residual
    ||P_gamma w - mu|| must be below the tolerance.
    """
    for (sigma, mu, gamma, *_), diag in log:
        if not diag.converged:
            continue
        w = ca.crisp_solve(sigma, mu, gamma, p_max=diag.sweeps, eps=1e-300).weights.values
        s = sigma.entries
        resid = gamma * (s @ w) + (1.0 - gamma) * np.diag(s) * w - mu.values
        if not float(np.linalg.norm(resid)) < tol:
            return False
    return True


def sweep_table_matches(table, log) -> bool:
    """The table's mean sweep counts are the means of the logged solves."""
    per_gamma = {}
    for (_, _, gamma, *_), diag in log:
        per_gamma.setdefault(gamma, []).append(diag.sweeps)
    if len(table.rows) != len(per_gamma):
        return False
    return all(float(np.mean(per_gamma[row[0]])) == row[2] for row in table.rows)


def table_values(exported: bytes) -> list[list]:
    """Rows of an exported CSV table, header included: floats where numeric."""
    rows = []
    for row in csv.reader(io.StringIO(exported.decode("utf-8"))):
        cells = []
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def _columns(values: list) -> list[list]:
    """A table (list of rows) as its columns; a flat vector as one column."""
    if values and isinstance(values[0], list):
        return [list(col) for col in zip(*values)] if len({len(r) for r in values}) == 1 else []
    return [values]


def _same_column(ref: list, got: list, rtol: float) -> bool:
    if len(ref) != len(got):
        return False
    nums = [abs(x) for x in ref if isinstance(x, float) and math.isfinite(x)]
    scale = max(nums, default=0.0)
    for a, b in zip(ref, got):
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return False
        elif math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                return False
        elif abs(a - b) > rtol * scale:
            return False
    return True


def _same(ref: list, got: list, rtol: float) -> bool:
    ref_cols, got_cols = _columns(ref), _columns(got)
    return len(ref) == len(got) and len(ref_cols) == len(got_cols) and all(
        _same_column(a, b, rtol) for a, b in zip(ref_cols, got_cols)
    )


def matches_reference(ref: dict, got: dict, rtol: float = REFERENCE_RTOL) -> dict:
    """One bool per reference entry."""
    return {f"reference_{k}": k in got and _same(v, got[k], rtol) for k, v in ref.items()}
