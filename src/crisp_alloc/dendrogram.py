"""Correlation-distance agglomerative clustering into a binary tree.

The tree is the scaffold for every hierarchical allocator. Linkage operates
on the correlation distances via the Lance-Williams update (Muellner,
arXiv:1109.2378). When no two input distances are equal, the greedy merge
sequence is unique and scipy's compiled ``linkage`` builds it. Otherwise a
Python loop takes each merge from one row minimum over the live block of the
distance matrix (O(N^3) in all: a merge reads every live pair) and breaks
distance ties by the lowest (id, id) cluster pair, so the construction is
deterministic across platforms. The tree is stored as scipy's merge table:
merge k (node id N + k) joins two ids at a height, and every node's leaf set
is a span of the quasi-diagonal leaf order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, NamedTuple

import numpy as np

from .core import CorrelationMatrix
from .errors import DegenerateUniverseError, ParameterError

LinkageRule = Literal["ward", "single", "complete", "average"]

_RULES = ("ward", "single", "complete", "average")


class Merge(NamedTuple):
    """One merge as read outside the tree kernels: its sorted leaf set and height."""

    leaves: tuple[int, ...]
    height: float


@dataclass(frozen=True)
class Dendrogram:
    """Binary cluster tree in scipy's merge layout, plus its leaf order.

    Node ids 0..n-1 are the assets; merge k is node n + k, so a merge's id
    exceeds its children's and the merges run children first. ``pairs[k]``
    holds merge k's two child ids, the smaller (the left child) first, and
    ``heights[k]`` its height. ``spans[i]`` is node i's half-open range in
    ``leaf_order``, the quasi-diagonal order, for all 2n - 1 nodes; the root
    is node 2n - 2 and spans the whole order.
    """

    pairs: tuple[tuple[int, int], ...]
    heights: tuple[float, ...]
    spans: tuple[tuple[int, int], ...] = field(repr=False)
    leaf_order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.leaf_order)

    @property
    def internal_nodes(self) -> tuple[Merge, ...]:
        """Each merge's (leaves, height), in merge order; derived per call."""
        order = self.leaf_order
        return tuple(
            Merge(tuple(sorted(order[lo:hi])), h)
            for (lo, hi), h in zip(self.spans[self.n :], self.heights)
        )

    @cached_property
    def row_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, merges): row-major segments of the leaf-ordered matrix. Merge k gives each
        row of its left span its right span's columns; n - 1, no merge, gives row i columns 0..i."""
        n = self.n
        l0, l1 = np.array(self.spans)[np.array(self.pairs)[:, 0]].T
        lo, size, col = np.append(l0, 0), np.append(l1 - l0, n), np.append(l1, 0)
        merges = np.repeat(np.arange(n), size)
        starts = (np.arange(merges.size) - (np.cumsum(size) - size - lo)[merges]) * n + col[merges]
        by_start = np.argsort(starts)
        return starts[by_start], merges[by_start]


def corr_distance(corr: CorrelationMatrix) -> np.ndarray:
    """d_ij = sqrt((1 - C_ij) / 2), symmetric like C; zero diagonal, in [0, 1]."""
    d = np.subtract(1.0, corr.entries)  # the one N x N array, worked in place
    d *= 0.5
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def build_tree(corr: CorrelationMatrix, rule: LinkageRule = "ward") -> Dendrogram:
    """Agglomerate the correlation-distance matrix into a binary dendrogram.

    Deterministic: ties are broken by the lexicographically smallest pair of
    cluster ids, and the left child of every merge is the smaller id.

    If the N(N-1)/2 input distances are all distinct, scipy's compiled
    ``linkage`` computes the merges; heights then carry its rounding, not the
    loop's. Any tied (or NaN) distance runs the Python loop instead, which
    reads all live pairs at every merge, about N^3 / 3 reads in all (0.25 s
    at N = 1000 on one Xeon core). Distinct input distances make an exact tie
    among the Lance-Williams updates unlikely, not impossible; such a tie is
    broken by scipy's rule.
    """
    if rule not in _RULES:
        raise ParameterError(f"unknown linkage rule {rule!r}")
    n = corr.n
    if n < 2:
        raise DegenerateUniverseError("need at least two assets to build a tree")

    work = corr_distance(corr)
    # squareform's row-major order without importing scipy.spatial
    cond = np.concatenate([work[i, i + 1 :] for i in range(n - 1)])
    ranked = np.sort(cond)
    if (ranked[1:] > ranked[:-1]).all():
        # imported here: the module costs ~30 ms, which every import of the
        # package would otherwise pay
        from scipy.cluster.hierarchy import linkage

        z = linkage(cond, rule)
        pairs = np.sort(z[:, :2].astype(np.intp), axis=1).tolist()
        return _assemble(n, pairs, z[:, 2].tolist())

    # Ward's update runs on squared distances, the other rules on raw ones,
    # squared in place so one n x n array is alive. The live clusters fill
    # slots 0..size-1 and the diagonal holds inf, so no row needs a mask.
    if rule == "ward":
        np.square(work, out=work)
    np.fill_diagonal(work, np.inf)

    ids = np.arange(n)  # cluster id occupying each slot
    sizes = np.ones(n)
    pairs: list[tuple[int, int]] = []
    heights: list[float] = []
    for step in range(n - 1):
        size = n - step  # live slots
        # the smallest (distance, id, id) pair: its lower id is the lowest id
        # among the rows at the minimum, its partner the lowest id in that row
        live = work[:size, :size]
        row_min = live.min(axis=1)
        m = row_min.min()
        rows = np.flatnonzero(row_min == m)
        si = int(rows[ids[rows].argmin()])
        cols = np.flatnonzero(live[si] == m)
        sj = int(cols[ids[cols].argmin()])
        pairs.append((int(ids[si]), int(ids[sj])))
        heights.append(float(np.sqrt(m)) if rule == "ward" else float(m))

        # updated over every live slot; the entries at the pair's own two
        # slots are junk: the diagonal is reset to inf below, and the retired
        # slot is refilled or leaves the live block
        na, nb = sizes[si], sizes[sj]
        dak, dbk = work[si, :size], work[sj, :size]
        if rule == "ward":
            nk = sizes[:size]
            new = ((na + nk) * dak + (nb + nk) * dbk - nk * work[si, sj]) / (na + nb + nk)
        elif rule == "single":
            new = np.minimum(dak, dbk)
        elif rule == "complete":
            new = np.maximum(dak, dbk)
        else:  # average
            new = (na * dak + nb * dbk) / (na + nb)

        # the merge takes the lower of the two slots; the last live slot
        # moves into the other one (a no-op when that is the last)
        keep, gone = min(si, sj), max(si, sj)
        work[keep, :size] = new
        work[:size, keep] = new
        work[keep, keep] = np.inf
        ids[keep] = n + step
        sizes[keep] = na + nb
        last = size - 1
        work[gone, :last] = work[last, :last]
        work[:last, gone] = work[:last, last]
        work[gone, gone] = np.inf
        ids[gone], sizes[gone] = ids[last], sizes[last]

    return _assemble(n, pairs, heights)


def _assemble(n: int, pairs: list, heights: list) -> Dendrogram:
    """The tree of scipy's merge layout: merge i (id n + i) joins ``pairs[i]``,
    the smaller id first (the left child), at ``heights[i]``."""
    pairs = tuple(map(tuple, pairs))
    # leaf order: iterative left-to-right traversal (smaller child id first)
    order: list[int] = []
    stack = [2 * n - 2]
    while stack:
        nid = stack.pop()
        if nid < n:
            order.append(nid)
        else:
            a, b = pairs[nid - n]
            stack.append(b)
            stack.append(a)

    spans: list = [None] * n  # indexed by id
    for p, leaf in enumerate(order):
        spans[leaf] = (p, p + 1)
    for a, b in pairs:
        spans.append((spans[a][0], spans[b][1]))
    return Dendrogram(pairs, tuple(heights), tuple(spans), tuple(order))


def balanced_tree(n: int) -> Dendrogram:
    """Perfectly balanced synthetic tree over assets 0..n-1 (n a power of two).

    Used to study allocator identities and costs independently of any
    clustering; heights are the merge level.
    """
    if n < 2 or n & (n - 1):
        raise ParameterError("balanced_tree needs a power-of-two asset count >= 2")
    # each level's nodes hold consecutive ids and the next level's ids follow,
    # so merge i joins ids 2i and 2i + 1, at level floor(log2(n / (n - i))) + 1
    pairs = [(2 * i, 2 * i + 1) for i in range(n - 1)]
    heights = [float((n // (n - i)).bit_length()) for i in range(n - 1)]
    return _assemble(n, pairs, heights)
