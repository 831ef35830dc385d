"""Shared fixtures: the 4-asset worked example, base universes, random SPD
draws, and the six tree passes under one call signature."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from crisp_alloc import (
    CovarianceMatrix,
    Dendrogram,
    RegimeSpec,
    Signal,
    a1_sum_norm_mvo,
    a2_flat_ivp_tree,
    build_tree,
    gen_regime,
    hrp,
    hrp_mu,
    hrp_sigma_mu,
    hsp,
    to_correlation,
)
from crisp_alloc.dendrogram import _assemble

# every tree pass as (sigma, mu, tree, gamma) -> WeightVector; hrp ignores mu
# and gamma, hsp ignores gamma
TREE_PASSES = {
    "hrp": lambda sigma, mu, tree, gamma: hrp(sigma, tree),
    "hsp": lambda sigma, mu, tree, gamma: hsp(sigma, mu, tree),
    "hrp_mu": hrp_mu,
    "a2": a2_flat_ivp_tree,
    "a1": a1_sum_norm_mvo,
    "hrp_sigma_mu": hrp_sigma_mu,
}


@pytest.fixture(scope="session")
def four_asset():
    """Two sectors of two assets: vols (0.20, 0.25, 0.30, 0.15), within-sector
    correlation 0.80, cross-sector 0.20, and a mixed-sign signal."""
    vol = np.array([0.20, 0.25, 0.30, 0.15])
    corr = np.array(
        [
            [1.0, 0.8, 0.2, 0.2],
            [0.8, 1.0, 0.2, 0.2],
            [0.2, 0.2, 1.0, 0.8],
            [0.2, 0.2, 0.8, 1.0],
        ]
    )
    sigma = CovarianceMatrix(corr * np.outer(vol, vol))
    mu = Signal(np.array([0.03, -0.01, 0.02, -0.04]))
    tree = build_tree(to_correlation(sigma), "ward")
    return sigma, mu, tree


@pytest.fixture(scope="session")
def base100():
    return gen_regime(RegimeSpec("block_sector", n=100, seed=42))


@pytest.fixture(scope="session")
def base200():
    return gen_regime(RegimeSpec("block_sector", n=200, seed=42))


def random_spd(n: int, seed: int, kappa_max: float = 25.0) -> CovarianceMatrix:
    """Well-conditioned random SPD covariance with dispersed volatilities."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    eigs = np.exp(rng.uniform(0.0, np.log(kappa_max), n))
    m = (q * eigs) @ q.T
    vols = rng.uniform(0.1, 0.5, n)
    d = np.sqrt(np.diag(m))
    m = m / np.outer(d, d) * np.outer(vols, vols)
    return CovarianceMatrix(0.5 * (m + m.T))


def chain_tree(n: int) -> Dendrogram:
    """The deepest tree on n >= 2 assets: each merge adds one leaf, on the
    left, to the cluster so far, so the depth is n - 1."""
    pairs = [(0, 1)] + [(i + 1, n + i - 1) for i in range(1, n - 1)]
    return _assemble(n, pairs, [float(h) for h in range(1, n)])


def peak_matrices(call, n: int) -> float:
    """The peak of what ``call()`` allocates, in N x N double matrices."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


@pytest.fixture
def rand_spd():
    return random_spd


# one line per acceptance criterion, echoed after the run (see test_acceptance)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
