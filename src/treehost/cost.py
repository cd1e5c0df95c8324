"""Demand-cost evaluation of host trees.

``evaluate`` charges every demand edge (u, v) with the number of links on the
u-v path in the host tree and groups the result by parent vertex.  It runs in
O(n log n) via vectorized binary lifting, which keeps million-node instances
comfortably inside the benchmark budget.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEAD, DemandTree, HostTree, HostTreeError, UnknownVertexError


@dataclass
class CostBreakdown:
    """Total demand cost plus the per-parent-vertex contributions."""

    total: int
    per_vertex: list[int]


def _lifting_tables(par: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Depth array and binary-lifting ancestor tables (int32).

    Index ``N`` acts as an absorbing "no node" sink so that -1/-2 sentinels
    never appear as indices.
    """
    n_nodes = len(par)
    ext = np.empty(n_nodes + 1, dtype=np.int32)
    np.copyto(ext[:n_nodes], np.where(par < 0, n_nodes, par),
              casting="unsafe")
    ext[n_nodes] = n_nodes

    depth = (ext != n_nodes).astype(np.int32)
    depth[n_nodes] = 0
    jump = ext.copy()
    while (jump[:n_nodes] != n_nodes).any():
        depth += depth[jump]
        jump = jump[jump]

    max_depth = int(depth[:n_nodes].max(initial=0))
    levels = max(1, max_depth.bit_length())
    up = [ext]
    for _ in range(1, levels):
        up.append(up[-1][up[-1]])
    return depth, up, n_nodes


def evaluate(demand: DemandTree, host: HostTree) -> CostBreakdown:
    """Exact cost of the host tree against every demand edge."""
    n = demand.n
    if host.n_vertices < n:
        raise UnknownVertexError(
            f"host covers {host.n_vertices} vertices, demand has {n}")
    missing = host.parent[:n] == DEAD
    if missing.any():
        raise UnknownVertexError(
            f"demand vertex {int(missing.argmax())} missing from host")
    if n <= 1:
        return CostBreakdown(0, [0] * n)

    depth, up, sink = _lifting_tables(host.parent)

    cached = demand._cache.get("edge_queries")
    if cached is None:
        off, flat = demand.child_off, demand.child_flat
        vs = flat.astype(np.int32)
        us = np.repeat(np.arange(n, dtype=np.int32),
                       np.diff(off)).astype(np.int32)
        cached = (us, vs)
        demand._cache["edge_queries"] = cached
    us, vs = cached

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
    # (none at all for trees built by this pipeline)
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

    dist = da + db - 2 * depth[lca]
    per = np.bincount(us, weights=dist, minlength=n)
    per_vertex = per.astype(np.int64).tolist()
    return CostBreakdown(int(dist.sum(dtype=np.int64)), per_vertex)
