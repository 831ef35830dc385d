import math

import numpy as np
import pytest

from crisp_alloc import (
    ClusterStats,
    CovarianceMatrix,
    ParameterError,
    RegimeSpec,
    Signal,
    SignalSpec,
    balanced_tree,
    build_tree,
    dir_error,
    gen_regime,
    gen_signal,
    hrp,
    hrp_mu,
    hrp_sigma_mu,
    hsp,
    signed_cosine,
    solve_2x2,
    to_correlation,
)
from crisp_alloc import baselines
from crisp_alloc.baselines import _permuted, raw_budgets
from tests.conftest import TREE_PASSES, random_spd


class _ReadCounter(np.ndarray):
    """Matrix view that tallies how many of its entries a caller reads.

    Indexing counts the entries it returns; a ufunc or numpy function applied
    to the whole matrix counts all of them. An in-place ufunc (out=self)
    returns the counter itself and ``ravel`` a flat counter on the same tally,
    so reads through either stay counted. Other results are plain ndarrays
    computed on the same memory, so they are bit-identical to uncounted ones.
    """

    def __getitem__(self, key):
        out = self.view(np.ndarray)[key]
        self.tally[0] += np.size(out)
        return out

    def ravel(self, order="C"):
        flat = self.view(np.ndarray).ravel(order).view(_ReadCounter)
        flat.tally = self.tally
        return flat

    def _whole(self, args):
        self.tally[0] += self.size
        return tuple(x.view(np.ndarray) if x is self else x for x in args)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # an in-place ufunc writes through a plain view, or it would dispatch
        # back here
        out = kwargs.get("out", ())
        if out:
            kwargs["out"] = tuple(o.view(np.ndarray) if o is self else o for o in out)
        result = getattr(ufunc, method)(*self._whole(inputs), **kwargs)
        return self if any(o is self for o in out) else result

    def __array_function__(self, func, types, args, kwargs):
        return func(*self._whole(args), **kwargs)


@pytest.fixture(scope="module")
def doubling_inputs():
    """Balanced-tree inputs at N = 2048 and 4096, built once for all passes."""
    return {
        n: (
            gen_regime(RegimeSpec("block_sector", n=n, sectors=4, seed=42)),
            balanced_tree(n),
            gen_signal(SignalSpec("gaussian", seed=3), n),
        )
        for n in (2048, 4096)
    }


class TestSolve2x2:
    def test_four_asset_left_child(self):
        # leaf-pair system of the first sector at gamma = 0.5
        stats = ClusterStats(v_l=0.04, v_r=0.0625, s_l=0.03, s_r=-0.01, c=0.04)
        a_l, a_r = solve_2x2(stats, 0.5)
        assert 0.04 * 0.0625 - 0.02**2 == pytest.approx(0.002100, abs=1e-9)
        assert a_l == pytest.approx(0.9881, abs=5e-4)
        assert a_r == pytest.approx(-0.4762, abs=5e-4)

    def test_four_asset_right_child(self):
        stats = ClusterStats(v_l=0.09, v_r=0.0225, s_l=0.02, s_r=-0.04, c=0.036)
        a_l, a_r = solve_2x2(stats, 0.5)
        assert 0.09 * 0.0225 - 0.018**2 == pytest.approx(0.001701, abs=1e-9)
        assert a_l == pytest.approx(0.6878, abs=5e-4)
        assert a_r == pytest.approx(-2.3280, abs=5e-4)

    def test_gamma_zero_decouples(self):
        stats = ClusterStats(v_l=0.2, v_r=0.5, s_l=0.1, s_r=-0.3, c=0.9)
        a_l, a_r = solve_2x2(stats, 0.0)
        assert a_l == pytest.approx(0.1 / 0.2, rel=1e-12)
        assert a_r == pytest.approx(-0.3 / 0.5, rel=1e-12)

    def test_non_positive_variance_raises(self):
        with pytest.raises(ParameterError, match="cluster variances must be strictly positive"):
            solve_2x2(ClusterStats(v_l=0.0, v_r=1.0, s_l=0.1, s_r=0.1, c=0.0), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["v_l", "v_r", "s_l", "s_r", "c"])
    def test_non_finite_statistic_raises(self, name, bad):
        # NaN compares False with everything, so a v <= 0 check alone let
        # these through to (nan, nan) or (0.0, nan) budgets
        fields = {"v_l": 1.0, "v_r": 1.0, "s_l": 0.1, "s_r": 0.1, "c": 0.1, name: bad}
        with pytest.raises(ParameterError, match="all statistics finite"):
            solve_2x2(ClusterStats(**fields), 0.5)

    def test_determinant_past_the_largest_double_raises(self):
        # (gamma c)^2 = 1e320 overflows; it raised a bare OverflowError
        with pytest.raises(ParameterError, match="node determinant"):
            solve_2x2(ClusterStats(1.0, 1.0, 0.1, 0.2, 1e160), 1.0)

    def test_determinant_scales_exactly(self):
        # v_l, v_r and c times 2^k put delta times 2^2k, bit for bit: gamma c
        # is squared by a product, where libm's pow is not correctly rounded
        v_l, v_r, c = 0.001, 0.002, 0.12174110192433672
        *_, delta = raw_budgets(v_l, v_r, 0.1, 0.2, c, 1.0)
        for k in (1, 2, 3, -5):
            v_lk, v_rk, c_k = (math.ldexp(v, k) for v in (v_l, v_r, c))
            *_, scaled = raw_budgets(v_lk, v_rk, 0.1, 0.2, c_k, 1.0)
            assert scaled == math.ldexp(delta, 2 * k), k

    def test_degenerate_determinant_falls_back(self):
        v = 1.0
        c = 1.0  # gamma*c = sqrt(v_l v_r): delta = 0
        a_l, a_r, delta = raw_budgets(v, v, 0.4, 0.6, c, 1.0)
        assert delta == 0.0
        assert (a_l, a_r) == (0.4, 0.6)


class TestHrpMu:
    def test_four_asset_weights(self, four_asset):
        sigma, mu, tree = four_asset
        w = hrp_mu(sigma, mu, tree, 0.5)
        assert np.allclose(w.values, [0.292, -0.140, 0.130, -0.438], atol=1e-3)
        assert w.norm_tag == "l1_one"

    def test_four_asset_root_stats(self, four_asset):
        sigma, mu, tree = four_asset
        trace = {}
        hrp_mu(sigma, mu, tree, 0.5, trace=trace)
        st = trace[2 * tree.n - 2]
        assert st.v_l == pytest.approx(0.00535, abs=5e-4)
        assert st.v_r == pytest.approx(0.00648, abs=5e-4)
        assert st.s_l == pytest.approx(0.0222, abs=5e-4)
        assert st.s_r == pytest.approx(0.0360, abs=5e-4)
        assert st.c == pytest.approx(-0.00029, abs=5e-5)

    def test_recovers_hrp(self, base100):
        tree = build_tree(to_correlation(base100), "ward")
        ones = Signal(np.ones(100))
        w = hrp_mu(base100, ones, tree, 0.0).values
        w_hrp = hrp(base100, tree).values
        assert np.linalg.norm(w - w_hrp) / np.linalg.norm(w_hrp) < 1e-12

    def test_aggregate_signal_nonnegative(self):
        rng = np.random.default_rng(0)
        for seed in range(40):
            sigma = random_spd(10, seed)
            tree = build_tree(to_correlation(sigma), "ward")
            mu = Signal(rng.normal(0.0, 0.02, 10))
            trace = {}
            hrp_mu(sigma, mu, tree, 0.7, trace=trace)
            for st in trace.values():
                assert st.s_l >= 0.0 and st.s_r >= 0.0

    def test_hedging_awareness(self):
        # sign-discordant positively-correlated pair: signed variance < flat
        sigma = np.array([[0.04, 0.03], [0.03, 0.09]])
        a = 1.0 / np.diag(sigma)
        flat = a / a.sum()
        signed = np.array([1.0, -1.0]) * flat
        v_flat = flat @ sigma @ flat
        v_signed = signed @ sigma @ signed
        assert v_signed < v_flat

    def test_zero_signal_equal_splits(self):
        sigma = random_spd(4, 2)
        tree = build_tree(to_correlation(sigma), "ward")
        w = hrp_mu(sigma, Signal(np.zeros(4)), tree, 0.5)
        # zero signal: every node takes the equal split, signs default positive
        assert np.all(w.values > 0)
        assert np.abs(w.values).sum() == pytest.approx(1.0, abs=1e-12)


class TestHsp:
    def test_flat_signal_is_hrp(self, base100):
        tree = build_tree(to_correlation(base100), "ward")
        w = hsp(base100, Signal(np.ones(100)), tree).values
        assert np.allclose(w, hrp(base100, tree).values, atol=1e-12)

    def test_matches_hrp_mu_at_gamma_zero(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            sigma = random_spd(9, seed)
            tree = build_tree(to_correlation(sigma), "ward")
            mu = Signal(rng.normal(0, 0.02, 9))
            w1 = hsp(sigma, mu, tree).values
            w2 = hrp_mu(sigma, mu, tree, 0.0).values
            assert np.linalg.norm(w1 - w2) / np.linalg.norm(w2) < 1e-12

    def test_symmetric_magnitudes(self):
        sigma = CovarianceMatrix(np.diag([0.04, 0.04, 0.04, 0.04]))
        tree = balanced_tree(4)
        mu = Signal(np.array([0.02, -0.02, 0.02, -0.02]))
        w = hsp(sigma, mu, tree).values
        assert np.allclose(np.abs(w), 0.25, atol=1e-12)


class TestHrpSigmaMu:
    def test_four_asset_weights(self, four_asset):
        sigma, mu, tree = four_asset
        w = hrp_sigma_mu(sigma, mu, tree, 0.5)
        assert np.allclose(w.values, [0.2299, -0.1108, 0.1504, -0.5089], atol=5e-4)
        assert w.norm_tag == "l1_one"

    def test_diagonal_exactness(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            d = rng.uniform(0.01, 0.25, 11)
            sigma = CovarianceMatrix(np.diag(d))
            mu = Signal(rng.normal(0, 0.02, 11))
            target = mu.values / d
            for rule in ("ward", "single"):
                tree = build_tree(to_correlation(random_spd(11, seed)), rule)
                for gamma in (0.0, 0.5, 1.0):
                    w = hrp_sigma_mu(sigma, mu, tree, gamma).values
                    assert dir_error(w, target) < 1e-10

    def test_depth_two_recovery_exact(self, four_asset):
        sigma, _, tree = four_asset
        ones = Signal(np.ones(4))
        w = hrp_sigma_mu(sigma, ones, tree, 0.0).values
        assert np.allclose(w, hrp(sigma, tree).values, atol=1e-14)

    def test_recovery_cosine_band(self):
        # draw-averaged cosine against plain HRP at the signal-blind point
        vals = []
        for seed in range(1, 9):
            sigma = gen_regime(RegimeSpec("block_sector", n=100, seed=seed))
            tree = build_tree(to_correlation(sigma), "ward")
            w = hrp_sigma_mu(sigma, Signal(np.ones(100)), tree, 0.0).values
            vals.append(signed_cosine(w, hrp(sigma, tree).values))
        assert np.mean(vals) == pytest.approx(0.992, abs=0.005)

    def test_ray_invariance_under_child_rescaling(self):
        # scaling one child's representative leaves the stacked direction fixed
        rng = np.random.default_rng(9)
        for _ in range(20):
            v_l, v_r = rng.uniform(0.01, 0.2, 2)
            s_l, s_r = rng.normal(0, 0.05, 2)
            c = rng.uniform(-1, 1) * np.sqrt(v_l * v_r) * 0.9
            k = rng.uniform(0.1, 10.0)
            w_l, w_r = rng.normal(size=3), rng.normal(size=2)
            for gamma in (0.3, 1.0):
                a_l, a_r, _ = raw_budgets(v_l, v_r, s_l, s_r, c, gamma)
                base = np.concatenate([a_l * w_l, a_r * w_r])
                a_l2, a_r2, _ = raw_budgets(
                    k * k * v_l, v_r, k * s_l, s_r, k * c, gamma
                )
                scaled = np.concatenate([a_l2 * (k * w_l), a_r2 * w_r])
                assert dir_error(base, scaled) < 1e-12
                assert float(base @ scaled) > 0.0

    def test_sign_preservation(self):
        # the L1 denominator is positive, so normalization keeps both signs
        rng = np.random.default_rng(2)
        for _ in range(200):
            a_l, a_r, _ = raw_budgets(
                rng.uniform(0.01, 0.2),
                rng.uniform(0.01, 0.2),
                rng.normal(0, 0.05),
                rng.normal(0, 0.05),
                rng.normal(0, 0.05),
                rng.uniform(0, 1),
            )
            z = abs(a_l) + abs(a_r)
            assert np.sign(a_l / z) == np.sign(a_l)
            assert np.sign(a_r / z) == np.sign(a_r)
        # and every traced node budget satisfies the L1 identity
        for seed in range(20):
            sigma = random_spd(12, seed)
            tree = build_tree(to_correlation(sigma), "ward")
            mu = Signal(rng.normal(0, 0.02, 12))
            trace = {}
            hrp_sigma_mu(sigma, mu, tree, 0.8, trace=trace)
            for node in range(tree.n, 2 * tree.n - 1):
                nb = trace[node]
                assert abs(abs(nb.alpha_l) + abs(nb.alpha_r) - 1.0) <= 1e-12

    def test_generic_stability(self):
        sigma = random_spd(16, 0)
        tree = build_tree(to_correlation(sigma), "ward")
        rng = np.random.default_rng(5)
        for _ in range(1000):
            mu = Signal(rng.normal(0, 0.02, 16))
            trace = {}
            w = hrp_sigma_mu(sigma, mu, tree, 0.6, trace=trace)
            assert np.all(np.isfinite(w.values))
            for nb in trace.values():
                assert abs(nb.alpha_l) + abs(nb.alpha_r) > 0.0

    def test_l1_norm_at_root(self):
        sigma = random_spd(14, 7)
        tree = build_tree(to_correlation(sigma), "ward")
        mu = Signal(np.random.default_rng(7).normal(0, 0.02, 14))
        w = hrp_sigma_mu(sigma, mu, tree, 0.5)
        assert np.abs(w.values).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", TREE_PASSES)
    def test_quadratic_cost_doubling(self, name, doubling_inputs, monkeypatch):
        # counts covariance entries read rather than seconds, so the O(N^2)
        # claim is checked without depending on the host's memory timing. A
        # fixed pass reads Sigma twice, scaling every row and summing every
        # row segment; a stacked pass reads each leaf pair once, at its lowest
        # common ancestor
        run = TREE_PASSES[name]
        stacked = name in ("a1", "hrp_sigma_mu")
        counters = []

        def counting_permuted(sigma, tree):
            sp, order = _permuted(sigma, tree)
            m = sp.view(_ReadCounter)
            m.tally = [0]
            counters.append(m)
            return m, order

        reads = {}
        for n, (sigma, tree, mu) in doubling_inputs.items():
            plain = run(sigma, mu, tree, 0.5).values
            with monkeypatch.context() as mp:
                mp.setattr(baselines, "_permuted", counting_permuted)
                counted = run(sigma, mu, tree, 0.5).values
            assert np.array_equal(counted, plain)
            reads[n] = counters.pop().tally[0]
            assert reads[n] == (n * (n - 1) // 2 if stacked else 2 * n * n), f"{reads[n]} reads at N={n}"
        factor = reads[4096] / reads[2048]
        assert 3.5 <= factor <= 4.5, f"doubling factor {factor:.3f} from {reads}"
