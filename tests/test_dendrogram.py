import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from crisp_alloc import (
    CorrelationMatrix,
    DegenerateUniverseError,
    ParameterError,
    RegimeSpec,
    Signal,
    balanced_tree,
    build_tree,
    corr_distance,
    gen_regime,
    sample_cov,
    sample_returns,
    to_correlation,
)
from crisp_alloc.dendrogram import _assemble
from tests.conftest import chain_tree, peak_matrices, random_spd

RULES = ("ward", "single", "complete", "average")
REGIMES = ("block_sector", "factor", "equicorr", "spiked", "hedged_tight_blocks", "wide_vol")


def reference_tree(corr, rule):
    """The O(N^3) merge loop ``build_tree`` replaced: a masked minimum over the
    whole matrix at every merge, ties to the lowest sorted (id, id) pair.
    Kept as the oracle for the merges, tie rule and heights."""
    n = corr.n
    d = corr_distance(corr)
    work = d**2 if rule == "ward" else d.copy()

    ids = list(range(n))
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    children, heights = {}, {}
    for step in range(n - 1):
        masked = np.where(active[:, None] & active[None, :], work, np.inf)
        np.fill_diagonal(masked, np.inf)
        m = masked.min()
        best = None
        for i, j in np.argwhere(masked == m):
            if i >= j:
                continue
            pair = tuple(sorted((ids[i], ids[j])))
            if best is None or pair < best[0]:
                best = (pair, (int(i), int(j)))
        (id_a, id_b), (si, sj) = best
        if ids[si] != id_a:
            si, sj = sj, si

        new_id = n + step
        children[new_id] = (id_a, id_b)
        heights[new_id] = float(np.sqrt(m)) if rule == "ward" else float(m)

        na, nb = sizes[si], sizes[sj]
        others = active.copy()
        others[si] = others[sj] = False
        k = np.flatnonzero(others)
        if k.size:
            dak, dbk = work[si, k], work[sj, k]
            if rule == "ward":
                nk = sizes[k]
                new = ((na + nk) * dak + (nb + nk) * dbk - nk * work[si, sj]) / (na + nb + nk)
            elif rule == "single":
                new = np.minimum(dak, dbk)
            elif rule == "complete":
                new = np.maximum(dak, dbk)
            else:
                new = (na * dak + nb * dbk) / (na + nb)
            work[si, k] = new
            work[k, si] = new

        ids[si] = new_id
        sizes[si] = na + nb
        active[sj] = False
    return _assemble(n, list(children.values()), list(heights.values()))


def merges(tree):
    """Children and leaf order: everything the merge loop decides."""
    return tree.pairs, tree.leaf_order


def heights(tree):
    return np.array(tree.heights)


def leaves(tree, node):
    """Sorted assets beneath a node id, read off its span."""
    lo, hi = tree.spans[node]
    return tuple(sorted(tree.leaf_order[lo:hi]))


def tie_free(corr):
    """Whether the input distances are pairwise distinct, which sends
    ``build_tree`` to scipy's linkage instead of the loop."""
    cond = squareform(corr_distance(corr), checks=False)
    return np.unique(cond).size == cond.size


def assert_same_tree(tree, ref, corr):
    """Merges and the tie rule exact. Heights exact where a distance ties
    (the loop ran); within 8 eps of the largest height otherwise, where they
    are scipy's arithmetic (worst case over this file's sampled inputs:
    4 eps, 8.9e-16)."""
    assert merges(tree) == merges(ref)
    h, h_ref = heights(tree), heights(ref)
    if tie_free(corr):
        assert np.abs(h - h_ref).max() <= 8 * np.finfo(float).eps * h_ref.max()
    else:
        assert np.array_equal(h, h_ref)


def sampled_corr(regime, n, t, seed):
    sigma = gen_regime(RegimeSpec(regime, n=n, seed=seed))
    return to_correlation(sample_cov(sample_returns(sigma, Signal(np.zeros(n)), t, seed)))


def duplicated_asset(corr):
    """``corr`` with asset n // 2 replaced by a copy of asset 0: distance 0
    between the two and every distance from either to a third asset tied."""
    c = corr.entries.copy()
    dup = corr.n // 2
    c[dup, :], c[:, dup] = c[0, :], c[:, 0]
    c[dup, dup] = 1.0
    return CorrelationMatrix(c)


def regime_corrs(regime, n, seed=0):
    """The population correlation of a regime (exact ties in the block kinds)
    and a sampled one (T = 2N + 5 draws, tie-free)."""
    sigma = gen_regime(RegimeSpec(regime, n=n, seed=seed))
    return to_correlation(sigma), sampled_corr(regime, n, 2 * n + 5, seed)


class TestCorrDistance:
    def test_values(self):
        c = CorrelationMatrix(np.array([[1.0, 0.8], [0.8, 1.0]]))
        d = corr_distance(c)
        assert d[0, 1] == pytest.approx(np.sqrt(0.1), abs=1e-12)
        assert d[0, 0] == 0.0

    def test_extremes(self):
        c = CorrelationMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert corr_distance(c)[0, 1] == pytest.approx(1.0, abs=1e-12)
        c = CorrelationMatrix(np.ones((2, 2)))
        assert corr_distance(c)[0, 1] == 0.0


class TestBuildTree:
    def test_four_asset_structure(self, four_asset):
        sigma, _, _ = four_asset
        tree = build_tree(to_correlation(sigma), "ward")
        assert tree.leaf_order == (0, 1, 2, 3)
        left, right = tree.pairs[-1]  # the root's children
        assert leaves(tree, left) == (0, 1)
        assert leaves(tree, right) == (2, 3)
        assert tree.heights[left - tree.n] == pytest.approx(0.3162, abs=5e-4)
        assert tree.heights[right - tree.n] == pytest.approx(0.3162, abs=5e-4)

    def test_two_assets(self):
        c = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        tree = build_tree(c)
        assert max(tree.pairs[-1]) < tree.n  # both root children are leaves
        assert tree.n == 2

    def test_degenerate_universe(self):
        with pytest.raises(DegenerateUniverseError):
            build_tree(CorrelationMatrix(np.array([[1.0]])))

    def test_unknown_rule(self):
        c = CorrelationMatrix(np.eye(3))
        with pytest.raises(ParameterError):
            build_tree(c, "centroid")

    def test_block_diagonal_contiguity(self):
        # three blocks must each appear as some node's exact leaf set
        blocks = [(0, 1, 2), (3, 4), (5, 6, 7, 8)]
        c = np.eye(9) * 0.0
        for b in blocks:
            for i in b:
                for j in b:
                    c[i, j] = 0.7
        np.fill_diagonal(c, 1.0)
        tree = build_tree(CorrelationMatrix(c), "ward")
        leaf_sets = {n.leaves for n in tree.internal_nodes}
        for b in blocks:
            assert tuple(sorted(b)) in leaf_sets

    def test_determinism(self):
        sigma = random_spd(20, 3)
        corr = to_correlation(sigma)
        t1 = build_tree(corr, "average")
        t2 = build_tree(corr, "average")
        assert t1.pairs == t2.pairs
        assert t1.heights == t2.heights
        assert t1.leaf_order == t2.leaf_order

    @pytest.mark.parametrize("rule", ["ward", "single", "complete", "average"])
    def test_all_rules_produce_valid_trees(self, rule):
        sigma = random_spd(12, 8)
        tree = build_tree(to_correlation(sigma), rule)
        assert sorted(tree.leaf_order) == list(range(12))

    def test_spans_nest_and_give_the_leaf_sets(self):
        for seed in range(4):
            tree = build_tree(to_correlation(random_spd(15, seed)), "ward")
            assert len(tree.pairs) == len(tree.heights) == 14
            assert len(tree.spans) == 29
            assert tree.spans[28] == (0, 15)  # the root spans the whole order
            for leaf in range(15):
                lo, hi = tree.spans[leaf]
                assert hi - lo == 1 and tree.leaf_order[lo] == leaf
                assert leaves(tree, leaf) == (leaf,)
            for k, (a, b) in enumerate(tree.pairs, 15):
                # merge order: every child precedes its parent, smaller id left
                assert a < b < k
                assert tree.spans[a][1] == tree.spans[b][0]
                assert tree.spans[k] == (tree.spans[a][0], tree.spans[b][1])
                assert leaves(tree, k) == tuple(sorted(leaves(tree, a) + leaves(tree, b)))
                assert tree.internal_nodes[k - 15] == (leaves(tree, k), tree.heights[k - 15])

    def test_near_symmetric_correlation(self):
        # CorrelationMatrix accepts asymmetry up to 1e-12; the tree is that of
        # the symmetric part (the masked loop used to find no pair and crash)
        a = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        a[1, 0] = 0.5 + 1e-14
        d = corr_distance(CorrelationMatrix(a))
        assert np.array_equal(d, d.T)
        for rule in RULES:
            tree = build_tree(CorrelationMatrix(a), rule)
            sym = build_tree(CorrelationMatrix(0.5 * (a + a.T)), rule)
            assert merges(tree) == merges(sym)
            assert np.array_equal(heights(tree), heights(sym))

    def test_leaf_order_preserves_spectrum(self):
        sigma = random_spd(10, 5)
        tree = build_tree(to_correlation(sigma), "ward")
        order = np.array(tree.leaf_order)
        permuted = sigma.entries[np.ix_(order, order)]
        assert np.allclose(
            np.linalg.eigvalsh(permuted), np.linalg.eigvalsh(sigma.entries), atol=1e-10
        )


@pytest.mark.parametrize("population", (True, False), ids=("tie-loop", "scipy"))
def test_build_tree_holds_one_distance_square(population):
    # at N = 1000, in N x N double matrices: the square and its condensed copy,
    # each released once read; the tied population runs the loop, a sample scipy
    corr = regime_corrs("block_sector", 1000)[0 if population else 1]
    assert peak_matrices(lambda: build_tree(corr), 1000) < 1.6


class TestBalancedTree:
    def test_structure(self):
        tree = balanced_tree(8)
        assert tree.n == 8
        assert tree.spans[14] == (0, 8)  # the root
        lo, hi = tree.spans[tree.pairs[-1][0]]
        assert hi - lo == 4
        assert tree.pairs == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13))
        assert tree.heights == (1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            balanced_tree(6)


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("rule", RULES)
    def test_same_merges_ties_and_heights(self, rule, regime):
        # N = 4, 5 and 17 retire the last live slot at some merges and move
        # the last one into an inner slot at others
        for n in (2, 3, 4, 5, 17, 50, 200):
            if regime == "hedged_tight_blocks" and n < RegimeSpec(regime).sectors:
                continue  # the regime needs one asset per sector
            for corr in regime_corrs(regime, n):
                assert_same_tree(build_tree(corr, rule), reference_tree(corr, rule), corr)
        for n in (30, 120):
            corr = duplicated_asset(sampled_corr(regime, n, 2 * n + 5, 0))
            assert not tie_free(corr)
            assert_same_tree(build_tree(corr, rule), reference_tree(corr, rule), corr)

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("rule", RULES)
    def test_sampled_inputs_take_scipy_with_the_same_merges(self, rule, regime):
        for seed, ratio in ((1, 0.6), (2, 2.0)):
            for n in (2, 3, 50, 200):
                if regime == "hedged_tight_blocks" and n < RegimeSpec(regime).sectors:
                    continue
                corr = sampled_corr(regime, n, max(2, round(ratio * n)), seed)
                assert tie_free(corr), (seed, n)
                assert_same_tree(build_tree(corr, rule), reference_tree(corr, rule), corr)

    @pytest.mark.slow
    def test_population_block_sector_n1000(self):
        # every within-sector and every cross-sector distance ties exactly
        corr, _ = regime_corrs("block_sector", 1000)
        assert not tie_free(corr)
        assert_same_tree(build_tree(corr), reference_tree(corr, "ward"), corr)

    @pytest.mark.slow
    def test_sampled_factor_n1000(self):
        corr = sampled_corr("factor", 1000, 2000, 3)
        assert tie_free(corr)
        assert_same_tree(build_tree(corr), reference_tree(corr, "ward"), corr)

    @pytest.mark.parametrize("rule", RULES)
    def test_one_duplicated_distance_runs_the_loop(self, rule, monkeypatch):
        corr = sampled_corr("spiked", 40, 80, 4)
        c = corr.entries.copy()
        c[3, 17] = c[17, 3] = c[5, 9]  # the only tie among the 780 distances
        corr = CorrelationMatrix(c)
        cond = squareform(corr_distance(corr), checks=False)
        assert cond.size - np.unique(cond).size == 1

        def no_scipy(*args, **kwargs):
            raise AssertionError("a tied input reached scipy's linkage")

        monkeypatch.setattr(sch, "linkage", no_scipy)
        tree, ref = build_tree(corr, rule), reference_tree(corr, rule)
        assert merges(tree) == merges(ref)
        assert np.array_equal(heights(tree), heights(ref))

    @pytest.mark.parametrize("rule", RULES)
    def test_two_assets_have_one_condensed_distance(self, rule):
        corr = CorrelationMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]))
        tree = build_tree(corr, rule)
        assert merges(tree) == merges(reference_tree(corr, rule)) == (((0, 1),), (0, 1))
        assert tree.heights[-1] == corr_distance(corr)[0, 1]


class TestAgainstScipy:
    @pytest.mark.parametrize("rule", RULES)
    def test_same_clusters_and_heights(self, rule):
        # sampled matrices are tie-free, so the greedy merge sequence is unique
        for regime, n, seed in (("block_sector", 60, 1), ("factor", 200, 2), ("spiked", 120, 3)):
            _, corr = regime_corrs(regime, n, seed)
            z = sch.linkage(squareform(corr_distance(corr), checks=False), rule)
            members = [frozenset([i]) for i in range(n)]
            theirs = {}
            for a, b, h, _ in z:
                members.append(members[int(a)] | members[int(b)])
                theirs[members[-1]] = h
            tree = build_tree(corr, rule)
            ours = {frozenset(node.leaves): node.height for node in tree.internal_nodes}
            # a tie-free input takes scipy's linkage, heights to the bit
            assert tie_free(corr)
            assert ours == theirs
            # and the stored layout is scipy's table row for row, ids sorted
            assert np.array_equal(np.array(tree.pairs), np.sort(z[:, :2].astype(int), axis=1))
            assert np.array_equal(np.array(tree.heights), z[:, 2])


@st.composite
def merge_tables(draw):
    """A tree over 2..64 leaves: random merges through ``_assemble``, or a
    balanced or chain tree."""
    kind = draw(st.sampled_from(("random", "balanced", "chain")))
    if kind == "balanced":
        return balanced_tree(2 ** draw(st.integers(1, 6)))
    n = draw(st.integers(2, 64))
    if kind == "chain":
        return chain_tree(n)
    live, pairs = list(range(n)), []
    for k in range(n - 1):
        a = live.pop(draw(st.integers(0, len(live) - 1)))
        b = live.pop(draw(st.integers(0, len(live) - 1)))
        pairs.append(sorted((a, b)))
        live.append(n + k)
    return _assemble(n, pairs, [float(h) for h in range(1, n)])


class TestRowSegments:
    @settings(deadline=None, max_examples=60)
    @given(merge_tables())
    def test_segments_tile_each_row_by_lowest_common_ancestor(self, tree):
        n, order = tree.n, tree.leaf_order
        parent = {c: n + k for k, pair in enumerate(tree.pairs) for c in pair}

        def ancestors(u):
            while u in parent:
                u = parent[u]
                yield u

        def lca(u, v):
            up = set(ancestors(v))
            return next(a for a in ancestors(u) if a in up)

        starts, merges = tree.row_segments
        assert starts[0] == 0 and np.all(np.diff(starts) > 0)
        ends = np.append(starts[1:], n * n)
        hits = np.zeros((n, n), dtype=int)
        extra = []
        for lo, hi, k in zip(starts, ends, merges):
            p = lo // n
            assert (hi - 1) // n == p, "a segment stays inside its row"
            cols = range(lo - p * n, hi - p * n)
            if k == n - 1:
                extra.append((p, cols))
                continue
            for q in cols:
                assert q > p
                assert lca(order[p], order[q]) == n + k
                hits[p, q] += 1
        assert np.array_equal(hits, np.triu(np.ones((n, n), dtype=int), 1))
        assert extra == [(p, range(p + 1)) for p in range(n)]
