import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crisp_alloc import (
    CovarianceMatrix,
    DegenerateInputError,
    ParameterError,
    Signal,
    WeightVector,
    dir_diag,
    dir_error,
    direction_report,
    gross_leverage,
    markowitz_direct,
    sharpe,
    sign_match_fraction,
    signed_cosine,
    to_correlation,
)
from crisp_alloc.experiments import _Context, _score
from tests.conftest import random_spd

_vec = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=2, max_size=8
)
_scale = st.floats(-1e3, 1e3).filter(lambda s: abs(s) > 1e-6)
_TINY = np.finfo(float).tiny  # smallest normal float

# Falsifying examples of earlier versions: b tiled to the zero vector, and
# nonzero vectors whose squared norms underflow.
_ZEROED_BY_TILING = ([0.0, 1.0], [0.0, 0.0, 1.0])
_UNDERFLOW_A = ([0.0, 1.0], [0.0, 1.1177646354434014e-262, 1.0])
_UNDERFLOW_B = ([0.0, 1.0], [0.0, 6.530329552679903e-269, 1.0])


def _pair(a: list, b: list) -> tuple[np.ndarray, np.ndarray]:
    """Tile b to the length of a; reject the draw if either ends up zero."""
    if len(a) != len(b):
        b = (b * ((len(a) // len(b)) + 1))[: len(a)]
    a, b = np.array(a), np.array(b)
    assume(np.any(a) and np.any(b))
    return a, b


class TestDirError:
    def test_collinear(self):
        w = np.array([1.0, 2.0, -0.5])
        assert dir_error(w, 3.0 * w) < 1e-14

    def test_negation_invariant(self):
        w = np.array([0.3, -0.7, 1.1])
        assert dir_error(w, -w) < 1e-14

    def test_orthogonal(self):
        assert dir_error([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateInputError):
            dir_error([0.0, 0.0], [1.0, 0.0])

    @settings(deadline=None, max_examples=100)
    @given(_vec, _vec, _scale, _scale)
    @example(*_ZEROED_BY_TILING, 1.0, 1.0)
    @example(*_UNDERFLOW_A, 1.0, 1.0)
    @example(*_UNDERFLOW_B, 1.0, 1.0)
    def test_rescaling_invariance_and_symmetry(self, a, b, sa, sb):
        a, b = _pair(a, b)
        # rescaling a vector whose largest entry is subnormal loses digits
        # before any metric sees it
        assume(np.max(np.abs(sa * a)) >= _TINY and np.max(np.abs(sb * b)) >= _TINY)
        d = dir_error(a, b)
        assert 0.0 <= d <= 1.0
        assert dir_error(sa * a, sb * b) == pytest.approx(d, abs=1e-9)
        assert dir_error(b, a) == pytest.approx(d, abs=1e-12)

    def test_report_reads_dir_error(self):
        # near-parallel pairs, where 1 - cos^2 and dir_error round apart
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.standard_normal(20)
            b = a + 1e-4 * rng.standard_normal(20)
            assert direction_report(a, b).dir_error == dir_error(a, b)

    @settings(deadline=None, max_examples=100)
    @given(_vec, _vec)
    @example(*_ZEROED_BY_TILING)
    @example(*_UNDERFLOW_A)
    @example(*_UNDERFLOW_B)
    def test_identity_with_signed_cosine(self, a, b):
        a, b = _pair(a, b)
        rep = direction_report(a, b)
        assert rep.dir_error + rep.signed_cosine**2 == pytest.approx(1.0, abs=1e-12)
        # dir = 0 iff |cos| = 1
        if rep.dir_error < 1e-10:
            assert abs(rep.signed_cosine) > 1.0 - 1e-9


class TestSignMetrics:
    def test_same_vector(self):
        w = np.array([0.2, -0.4, 0.1])
        assert signed_cosine(w, w) == pytest.approx(1.0, abs=1e-14)
        assert sign_match_fraction(w, w) == 1.0

    def test_negation(self):
        w = np.array([0.2, -0.4, 0.1])
        assert signed_cosine(w, -w) == pytest.approx(-1.0, abs=1e-14)
        assert sign_match_fraction(w, -w) == 0.0

    def test_sign_zero_counts_positive(self):
        assert sign_match_fraction([0.0, 1.0], [1.0, 1.0]) == 1.0
        assert sign_match_fraction([0.0, 1.0], [-1.0, 1.0]) == 0.5


class TestDirDiag:
    def test_diagonal_covariance(self):
        sigma = CovarianceMatrix(np.diag([1.0, 2.0, 3.0]))
        assert dir_diag(sigma, Signal([0.1, -0.2, 0.3])) < 1e-14

    def test_eigenvector_signal(self):
        sigma = random_spd(6, 4)
        corr = to_correlation(sigma)
        _, vecs = np.linalg.eigh(corr.entries)
        mu = Signal(np.sqrt(np.diag(sigma.entries)) * vecs[:, 2])
        assert dir_diag(sigma, mu) < 1e-10


class TestSharpe:
    def test_four_asset_oracle(self, four_asset):
        sigma, mu, _ = four_asset
        w = markowitz_direct(sigma, mu)
        assert sharpe(w, sigma, mu) == pytest.approx(0.62, abs=0.01)

    def test_orthogonal_signal(self):
        sigma = CovarianceMatrix(np.eye(2))
        assert sharpe([1.0, 1.0], sigma, Signal([1.0, -1.0])) == 0.0

    def test_scaling_behavior(self, four_asset):
        sigma, mu, _ = four_asset
        w = np.array([0.4, 0.1, 0.3, 0.2])
        s = sharpe(w, sigma, mu)
        assert sharpe(3.0 * w, sigma, mu) == pytest.approx(s, rel=1e-12)
        assert sharpe(-w, sigma, mu) == pytest.approx(-s, rel=1e-12)


def _minvar_score(w, sigma):
    """The harness's minimum-variance Sharpe of w: 1 / vol of w / sum(w)."""
    n = sigma.n
    ctx = _Context(sigma, Signal(np.ones(n)), np.ones(n), 1.0, minvar_mode=True)
    return _score(ctx, WeightVector(np.asarray(w, dtype=float)))


class TestMinvarSharpe:
    def test_equal_weights_identity(self):
        sigma = CovarianceMatrix(np.eye(4))
        assert _minvar_score([0.25] * 4, sigma).sharpe == pytest.approx(2.0, abs=1e-12)

    def test_direct_formula_oracle(self):
        sigma = random_spd(5, 6)
        w = np.random.default_rng(6).uniform(0.1, 1.0, 5)
        v = w / w.sum()
        expect = 1.0 / np.sqrt(v @ sigma.entries @ v)
        assert _minvar_score(w, sigma).sharpe == pytest.approx(expect, rel=1e-12)

    def test_zero_sum_is_an_unstable_record(self):
        # weights summing to zero cannot be sum-normalized: no score, flagged
        out = _minvar_score([1.0, -1.0], CovarianceMatrix(np.eye(2)))
        assert np.isnan(out.sharpe) and out.unstable


class TestGrossLeverage:
    def test_values(self):
        assert gross_leverage([0.5, -0.5]) == 1.0
        assert gross_leverage([0.25, 0.25, 0.25, 0.25]) == 1.0

    def test_four_asset_markowitz(self, four_asset):
        sigma, mu, _ = four_asset
        w = markowitz_direct(sigma, mu).sum_normalized()
        assert gross_leverage(w) == pytest.approx(5.04, abs=0.02)


_SIGMA2 = CovarianceMatrix(np.array([[0.04, 0.01], [0.01, 0.09]]))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: sharpe([0.0, 0.0], _SIGMA2, Signal([0.01, 0.02])),
                     DegenerateInputError, "zero-risk portfolio has no Sharpe ratio",
                     id="zero-risk"),
        pytest.param(lambda: sharpe([1.0, 2.0], _SIGMA2, Signal([0.01, 0.02, 0.03])),
                     ParameterError, "signal length does not match covariance size",
                     id="sharpe-pairing"),
        pytest.param(lambda: dir_diag(_SIGMA2, Signal([0.01, 0.02, 0.03])), ParameterError,
                     "signal length does not match covariance size", id="pairing"),
        pytest.param(lambda: sharpe([1.0, 2.0, 3.0], _SIGMA2, Signal([0.01, 0.02])),
                     ParameterError, "weights and covariance have different lengths (3 and 2)",
                     id="sharpe-weights"),
        pytest.param(lambda: dir_error([1.0, 2.0, 3.0], [1.0, 2.0]), ParameterError,
                     "w and w_star have different lengths (3 and 2)", id="dir-error-lengths"),
        pytest.param(lambda: signed_cosine([1.0, 2.0], [1.0, 2.0, 3.0]), ParameterError,
                     "w and w_star have different lengths (2 and 3)", id="cosine-lengths"),
        pytest.param(lambda: sign_match_fraction([1.0], [1.0, 2.0]), ParameterError,
                     "w and w_star have different lengths (1 and 2)", id="sign-match-lengths"),
        pytest.param(lambda: direction_report([1.0, 2.0], [1.0]), ParameterError,
                     "w and w_star have different lengths (2 and 1)", id="report-lengths"),
    ],
)
def test_rejected_input(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
