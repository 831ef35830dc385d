"""Correlation-distance agglomerative clustering into a binary tree.

The tree is the scaffold for every hierarchical allocator. Linkage operates
on the correlation distances via the Lance-Williams update (Muellner,
arXiv:1109.2378). When no two input distances are equal, the greedy merge
sequence is unique and scipy's compiled ``linkage`` builds it. Otherwise a
Python loop finds each merge from per-row nearest-neighbour caches (Muellner's
generic algorithm; O(N^2) on typical inputs) and breaks distance ties by the
lowest (id, id) cluster pair, so the construction is deterministic across
platforms. Each node stores its span in the quasi-diagonal leaf order; its
leaf set and size are read off that span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np
from scipy.spatial.distance import squareform

from .core import CorrelationMatrix
from .errors import DegenerateUniverseError, ParameterError

LinkageRule = Literal["ward", "single", "complete", "average"]

_RULES = ("ward", "single", "complete", "average")


@dataclass(frozen=True)
class TreeNode:
    """One node of the binary cluster tree.

    ``span`` is the half-open range the node occupies in ``order``, the
    dendrogram's quasi-diagonal leaf order (one tuple shared by every node).
    """

    id: int
    span: tuple[int, int]
    height: float
    order: tuple[int, ...] = field(repr=False)
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    leaf: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    @property
    def leaves(self) -> tuple[int, ...]:
        """Sorted original asset indices beneath the node."""
        return tuple(sorted(self.order[self.span[0] : self.span[1]]))

    @property
    def size(self) -> int:
        return self.span[1] - self.span[0]


@dataclass(frozen=True)
class Dendrogram:
    """Binary cluster tree plus the quasi-diagonal leaf order.

    ``internal_nodes`` lists the merges in id order; a merge's id exceeds its
    children's, so the sequence visits children before their parent.
    """

    root: TreeNode
    leaf_order: tuple[int, ...]
    internal_nodes: tuple[TreeNode, ...] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.leaf_order)


def corr_distance(corr: CorrelationMatrix) -> np.ndarray:
    """d_ij = sqrt((1 - C_ij) / 2) on the symmetric part of C; zero diagonal, in [0, 1]."""
    c = corr.entries  # CorrelationMatrix allows 1e-12 of asymmetry
    d = np.sqrt(0.5 * (1.0 - 0.5 * (c + c.T)))
    np.fill_diagonal(d, 0.0)
    return d


def build_tree(corr: CorrelationMatrix, rule: LinkageRule = "ward") -> Dendrogram:
    """Agglomerate the correlation-distance matrix into a binary dendrogram.

    Deterministic: ties are broken by the lexicographically smallest pair of
    cluster ids, and the left child of every merge is the smaller id.

    If the N(N-1)/2 input distances are all distinct, scipy's compiled
    ``linkage`` computes the merges; heights then carry its rounding, not the
    loop's. Any tied (or NaN) distance runs the Python loop instead. Distinct
    input distances make an exact tie among the Lance-Williams updates
    unlikely, not impossible; such a tie is broken by scipy's rule.
    """
    if rule not in _RULES:
        raise ParameterError(f"unknown linkage rule {rule!r}")
    n = corr.n
    if n < 2:
        raise DegenerateUniverseError("need at least two assets to build a tree")

    work = corr_distance(corr)
    cond = squareform(work, checks=False)
    ranked = np.sort(cond)
    if (ranked[1:] > ranked[:-1]).all():
        # imported here: the module costs ~30 ms, which every import of the
        # package would otherwise pay
        from scipy.cluster.hierarchy import linkage

        z = linkage(cond, rule)
        pairs = np.sort(z[:, :2].astype(np.intp), axis=1).tolist()
        merged = range(n, 2 * n - 1)
        return _assemble(n, dict(zip(merged, map(tuple, pairs))), dict(zip(merged, z[:, 2].tolist())))

    # Ward's update runs on squared distances, the other rules on raw ones,
    # squared in place so one n x n array is alive. The diagonal and retired
    # slots hold inf, so no row needs a mask.
    if rule == "ward":
        np.square(work, out=work)
    np.fill_diagonal(work, np.inf)

    ids = np.arange(n)  # cluster id occupying each slot
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    children: dict[int, tuple[int, int]] = {}
    heights: dict[int, float] = {}

    # nearest-neighbour cache: nn_d[i] = min of row i, nn_j[i] = the slot there
    # with the lowest cluster id (argmin's first hit while ids are slots)
    nn_j = work.argmin(axis=1)
    nn_d = work.min(axis=1)

    def rescan(i: int) -> None:
        tied = np.flatnonzero(work[i] == work[i].min())
        nn_j[i] = tied[ids[tied].argmin()]
        nn_d[i] = work[i, nn_j[i]]

    for step in range(n - 1):
        # the smallest (distance, id, id) pair is cached in the row of its
        # lower id, which is the lowest id among the rows at the minimum
        m = nn_d.min()
        rows = np.flatnonzero(nn_d == m)
        si = int(rows[ids[rows].argmin()])
        sj = int(nn_j[si])
        new_id = n + step
        children[new_id] = (int(ids[si]), int(ids[sj]))
        heights[new_id] = float(np.sqrt(m)) if rule == "ward" else float(m)

        active[sj] = False
        k = np.flatnonzero(active)
        k = k[k != si]
        na, nb = sizes[si], sizes[sj]
        dak, dbk = work[si, k], work[sj, k]
        if rule == "ward":
            nk = sizes[k]
            new = ((na + nk) * dak + (nb + nk) * dbk - nk * work[si, sj]) / (na + nb + nk)
        elif rule == "single":
            new = np.minimum(dak, dbk)
        elif rule == "complete":
            new = np.maximum(dak, dbk)
        else:  # average
            new = (na * dak + nb * dbk) / (na + nb)
        work[si, k] = new
        work[k, si] = new
        work[:, sj] = np.inf
        nn_d[sj] = np.inf
        ids[si] = new_id
        sizes[si] = na + nb

        # other rows changed in columns si, sj only: rescan those cached there,
        # update the rest when strictly closer (new_id is largest, loses ties)
        stale = k[(nn_j[k] == si) | (nn_j[k] == sj)]
        closer = k[new < nn_d[k]]
        nn_d[closer], nn_j[closer] = work[closer, si], si
        for i in (si, *stale):
            rescan(i)

    return _assemble(n, children, heights)


def _assemble(n: int, children: dict[int, tuple[int, int]], heights: dict[int, float]) -> Dendrogram:
    root_id = 2 * n - 2
    # leaf order: iterative left-to-right traversal (smaller child id first)
    order: list[int] = []
    stack = [root_id]
    while stack:
        nid = stack.pop()
        if nid < n:
            order.append(nid)
        else:
            a, b = children[nid]
            stack.append(b)
            stack.append(a)
    leaf_order = tuple(order)

    nodes: dict[int, TreeNode] = {
        leaf: TreeNode(id=leaf, span=(p, p + 1), height=0.0, order=leaf_order, leaf=leaf)
        for p, leaf in enumerate(order)
    }
    for nid in range(n, root_id + 1):
        a, b = children[nid]
        left, right = nodes[a], nodes[b]
        nodes[nid] = TreeNode(
            id=nid,
            span=(left.span[0], right.span[1]),
            height=heights[nid],
            order=leaf_order,
            left=left,
            right=right,
        )
    internal = tuple(nodes[nid] for nid in range(n, root_id + 1))
    return Dendrogram(root=nodes[root_id], leaf_order=leaf_order, internal_nodes=internal)


def balanced_tree(n: int) -> Dendrogram:
    """Perfectly balanced synthetic tree over assets 0..n-1 (n a power of two).

    Used to study allocator identities and costs independently of any
    clustering; heights are the merge level.
    """
    if n < 2 or n & (n - 1):
        raise ParameterError("balanced_tree needs a power-of-two asset count >= 2")
    children: dict[int, tuple[int, int]] = {}
    heights: dict[int, float] = {}
    level = list(range(n))
    next_id = n
    depth = 1.0
    while len(level) > 1:
        nxt = []
        for a, b in zip(level[::2], level[1::2]):
            children[next_id] = (a, b)
            heights[next_id] = depth
            nxt.append(next_id)
            next_id += 1
        level = nxt
        depth += 1.0
    return _assemble(n, children, heights)
