"""Demand-cost evaluation of host trees.

``evaluate`` charges every demand edge (u, v) with the number of links on the
u-v path in the host tree and groups the result by parent vertex.  Each child
v climbs the host toward its parent u, all pairs at once, so on a host where
every parent is an ancestor of its children (every host this pipeline builds)
the work is proportional to the cost it reports.  A pair that meets its
parent, or falls off a root, is parked at a sink that is its own parent, and
the pairs still climbing are gathered out only once half of them are parked,
so a step costs one gather and one compare per pair, not a compaction.  Only
the pairs the climb leaves are scored by vectorized binary lifting, in
O(m log m) on m host nodes.  When the climb leaves none, the demand root
climbs to a host root as well, so a host whose vertices sit on a parent cycle
is refused either way.  The demand edges are read off the tree's child arrays
on every call, in child order, so each vertex's cost is one ``reduceat``
segment; nothing is cached on the tree.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DemandTree, HostTree, HostTreeError, UnknownVertexError


@dataclass
class CostBreakdown:
    """Total demand cost plus the per-parent-vertex contributions.

    A breakdown from ``evaluate`` holds them as the int64 array ``costs``
    and makes the list ``per_vertex`` on its first read; a solve reads only
    the array."""

    total: int
    per_vertex: list[int]
    # per_vertex as an int64 array, set by ``evaluate``
    costs: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __getattr__(self, name: str):
        # only reached while the attribute is unset
        if name != "per_vertex" or self.costs is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self.per_vertex = self.costs.tolist()
        return self.per_vertex


def _breakdown(total: int, per: np.ndarray) -> CostBreakdown:
    breakdown = object.__new__(CostBreakdown)  # per_vertex on first read
    breakdown.total, breakdown.costs = total, per
    return breakdown


def _lifting_tables(par: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Depth array and binary-lifting ancestor tables (int32).

    Index ``N`` acts as an absorbing "no node" sink so that negative parents
    never appear as indices.  The depth rounds' pointer jumps are the
    tables: after round k every node points 2^k links up.  A pointer that
    is not at the sink after ``N.bit_length()`` rounds is on a parent cycle.
    """
    n_nodes = len(par)
    ext = np.empty(n_nodes + 1, dtype=np.int32)
    np.copyto(ext[:n_nodes], np.where(par < 0, n_nodes, par),
              casting="unsafe")
    ext[n_nodes] = n_nodes

    depth = (ext != n_nodes).astype(np.int32)
    depth[n_nodes] = 0
    up = [ext]
    while (up[-1][:n_nodes] != n_nodes).any():
        if len(up) > n_nodes.bit_length():
            raise HostTreeError("host tree has a parent cycle")
        depth += depth[up[-1]]
        up.append(up[-1][up[-1]])
    if len(up) > 1:
        up.pop()  # the last round's pointers are all at the sink
    return depth, up, n_nodes


def _lifted_distances(par: np.ndarray, us: np.ndarray,
                      vs: np.ndarray) -> np.ndarray:
    """Host distance of every pair (us[i], vs[i]) by binary lifting."""
    depth, up, sink = _lifting_tables(par)
    a, b = us.copy(), vs.copy()
    da, db = depth[a], depth[b]
    diff = da - db
    for k in range(len(up)):
        bit = 1 << k
        lift_a = (diff > 0) & ((diff & bit) != 0)
        lift_b = (diff < 0) & (((-diff) & bit) != 0)
        if lift_a.any():
            a[lift_a] = up[k][a[lift_a]]
        if lift_b.any():
            b[lift_b] = up[k][b[lift_b]]

    # descend only the pairs whose endpoints are not ancestor-related
    lca = a.copy()
    idx = np.nonzero(a != b)[0]
    if idx.size:
        aa = a[idx]
        bb = b[idx]
        for k in range(len(up) - 1, -1, -1):
            ua = up[k][aa]
            ub = up[k][bb]
            move = ua != ub
            aa[move] = ua[move]
            bb[move] = ub[move]
        lca[idx] = up[0][aa]
    if (lca == sink).any():
        raise HostTreeError("host tree does not connect all demand vertices")
    return da + db - 2 * depth[lca]


def evaluate(demand: DemandTree, host: HostTree) -> CostBreakdown:
    """Exact cost of the host tree against every demand edge."""
    n = demand.n
    if host.n_vertices != n:
        raise UnknownVertexError(
            f"host covers {host.n_vertices} vertices, demand has {n}")
    if n <= 1:
        return _breakdown(0, np.zeros(n, dtype=np.int64))

    us = np.repeat(np.arange(n), np.diff(demand.child_off))

    # Every child climbs toward its parent, one link a step; a pair that
    # meets after k links is k apart.  The cap is one level more than the
    # lifting tables can need, so that a final host, which keeps only the
    # n vertices of its phase-1 host's n + S < 2n nodes, climbs at least as
    # far as that host; the pairs the climb leaves (the parent is no
    # ancestor within the cap) take the lifting.  A pair that meets its
    # parent, or falls off a root, is parked at the sink, which is its own
    # parent and no pair's target; the pairs still climbing are gathered
    # out only once half of them are parked.
    sink = host.num_nodes()
    par = np.append(host._links(), 2 * sink)
    par >>= 1
    par[par < 0] = sink
    cap = (2 * sink).bit_length()
    dist = np.full(len(us), -1, dtype=np.int32)
    # pair None: every pair, in order
    pair, cur, target = None, demand.child_flat, us
    for step in range(1, cap + 1):
        cur = par[cur]
        met = np.flatnonzero(cur == target)
        dist[met if pair is None else pair[met]] = step
        cur[met] = sink
        climbing = cur != sink
        if 2 * np.count_nonzero(climbing) <= len(cur):
            keep = np.flatnonzero(climbing)
            pair = keep if pair is None else pair[keep]
            cur, target = cur[keep], target[keep]
            if not len(cur):
                break
    left = np.flatnonzero(dist < 0)
    if left.size:
        dist[left] = _lifted_distances(par[:sink], us[left],
                                       demand.child_flat[left])
    else:
        # every child met its parent, so the host is a tree over the
        # vertices once the demand root, too, reaches a host root; if it
        # does not within the cap, the lifting tables refuse a cycle
        node = demand.root
        for _ in range(cap):
            node = par[node]
            if node == sink:
                break
        else:
            _lifting_tables(par[:sink])

    # each vertex's children are one run of the pairs
    per = np.zeros(n, dtype=np.int64)
    has = np.flatnonzero(np.diff(demand.child_off))
    per[has] = np.add.reduceat(dist, demand.child_off[has], dtype=np.int64)
    return _breakdown(int(per.sum()), per)
