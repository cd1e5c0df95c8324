"""Exhaustive optimum over all degree-<=3 host trees on small vertex sets.

The feasible hosts are exactly the labeled trees with maximum degree 3 (root
any such tree at a leaf and every node has at most two children).  They are
enumerated through Prüfer sequences in which no label occurs more than twice;
each qualifying sequence decodes to a distinct tree and vice versa.

``opt_cost`` scans every host: a cached bank of all-pairs distances (one
int8 row per vertex pair, one column per host) turns each instance into
n - 1 contiguous row additions and an argmin.  Instances above n = 9 are
rejected with ``ResourceCapError``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cost import evaluate
from .generate import prufer_edges
from .model import (NONE, DemandTree, HostTree, InvariantViolation, Labels,
                    ResourceCapError, UnrootedTree, root_at)

MAX_N = 9
_CHUNK = 1 << 18


def _pair_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu, iv = np.triu_indices(n, k=1)
    return iu.astype(np.int64), iv.astype(np.int64)


def _seq_chunk(start: int, stop: int, n: int) -> np.ndarray:
    """Sequences with indices [start, stop) in lexicographic order."""
    idx = np.arange(start, stop, dtype=np.int64)
    k = n - 2
    seqs = np.empty((stop - start, k), dtype=np.int8)
    for pos in range(k - 1, -1, -1):
        seqs[:, pos] = idx % n
        idx //= n
    return seqs


def _label_counts(seqs: np.ndarray, n: int) -> np.ndarray:
    """Occurrences of each label per sequence row, shape (m, n) int8."""
    return (seqs[:, :, None] == np.arange(n, dtype=np.int8)).sum(
        axis=1, dtype=np.int8)


def _decode_chunk(seqs: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Vectorized Prüfer decode: (m, n-1, 2) edge array per row."""
    m = seqs.shape[0]
    rows = np.arange(m)
    deg = counts + 1
    labels = np.arange(n, dtype=np.int8)
    big = np.int8(n)
    edges = np.empty((m, n - 1, 2), dtype=np.int8)
    for t in range(n - 2):
        leaf = np.where(deg == 1, labels, big).min(axis=1)
        other = seqs[:, t]
        edges[:, t, 0] = leaf
        edges[:, t, 1] = other
        deg[rows, leaf.astype(np.int64)] -= 1
        deg[rows, other.astype(np.int64)] -= 1
    is_leaf = deg == 1
    first = is_leaf.argmax(axis=1)
    is_leaf[rows, first] = False
    second = is_leaf.argmax(axis=1)
    edges[:, n - 2, 0] = first
    edges[:, n - 2, 1] = second
    return edges


def _all_pairs_dist(edges: np.ndarray, n: int) -> np.ndarray:
    """Per-host distance matrices (int8), by undoing the Prüfer decode.

    The decode's last edge joins the final two vertices, and edge t removed
    leaf ``edges[:, t, 0]`` from neighbour ``edges[:, t, 1]``.  Re-attaching
    the leaves in reverse gives each one its neighbour's row and column
    plus one, in O(n^2) per host.  Entries of not yet attached vertices are
    overwritten when those vertices attach.
    """
    m = edges.shape[0]
    rows = np.arange(m)
    dist = np.zeros((m, n, n), dtype=np.int8)
    u = edges[:, n - 2, 0].astype(np.int64)
    v = edges[:, n - 2, 1].astype(np.int64)
    dist[rows, u, v] = 1
    dist[rows, v, u] = 1
    for t in range(n - 3, -1, -1):
        leaf = edges[:, t, 0].astype(np.int64)
        row = dist[rows, edges[:, t, 1].astype(np.int64)] + 1
        row[rows, leaf] = 0
        dist[rows, leaf] = row
        dist[rows, :, leaf] = row
    return dist


@dataclass
class _HostBank:
    n: int
    seqs: np.ndarray        # (M, n-2) int8, lexicographic order
    pair_dists: np.ndarray  # (n*(n-1)//2, M) int8: a row per vertex pair

    @property
    def count(self) -> int:
        return self.seqs.shape[0]


@lru_cache(maxsize=None)
def _bank(n: int) -> _HostBank:
    """Every qualifying Prüfer sequence in lexicographic order and the pair
    distances of the hosts they encode, built chunk by chunk."""
    iu, iv = _pair_columns(n)
    seq_blocks = []
    dist_blocks = []
    total = n ** (n - 2)
    for start in range(0, total, _CHUNK):
        seqs = _seq_chunk(start, min(start + _CHUNK, total), n)
        counts = _label_counts(seqs, n)
        keep = (counts <= 2).all(axis=1)
        if keep.any():
            seqs = seqs[keep]
            seq_blocks.append(seqs)
            dist = _all_pairs_dist(_decode_chunk(seqs, counts[keep], n), n)
            dist_blocks.append(dist[:, iu, iv].T)
    return _HostBank(n, np.concatenate(seq_blocks),
                     np.concatenate(dist_blocks, axis=1))


def _host_from_edges(edges: list[tuple[int, int]], n: int,
                     labels: Labels | None) -> HostTree:
    """Root a degree-<=3 tree at its smallest leaf to get a binary host."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    root = min(v for v in range(n) if deg[v] == 1) if n > 1 else 0
    rooted = root_at(UnrootedTree.from_edges(edges, n=n, labels=labels), root)
    first, kids = rooted.child_off[:-1], np.diff(rooted.child_off)
    left, right = (np.full(n, NONE, dtype=np.int64) for _ in range(2))
    left[kids > 0] = rooted.child_flat[first[kids > 0]]
    right[kids > 1] = rooted.child_flat[first[kids > 1] + 1]
    return HostTree(n, root, rooted.parent, left, right, [])


def _demand_pair_cols(demand: DemandTree) -> np.ndarray:
    """Each demand edge's row in the bank, in ``np.triu_indices`` order."""
    n, kid = demand.n, demand.child_flat
    lo = np.minimum(demand.parent[kid], kid)
    hi = np.maximum(demand.parent[kid], kid)
    return lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)


def opt_cost(demand: DemandTree) -> tuple[int, HostTree]:
    """Exact minimum cost over all binary hosts on V(G), plus one argmin host.

    Deterministic: returns the first minimum in enumeration order.
    """
    n = demand.n
    if n > MAX_N:
        raise ResourceCapError(
            f"exhaustive optimum capped at n={MAX_N}, got {n}")
    if n == 1:
        return 0, _host_from_edges([], 1, demand.labels)
    if n == 2:
        return 1, _host_from_edges([(0, 1)], 2, demand.labels)

    bank = _bank(n)
    cols = _demand_pair_cols(demand)
    # a cost is at most (n - 1)^2 = 64, so int8 sums do not wrap
    costs = bank.pair_dists[cols[0]].copy()
    for col in cols[1:].tolist():
        costs += bank.pair_dists[col]
    best = int(costs.argmin())
    opt = int(costs[best])
    edges = prufer_edges(bank.seqs[best].tolist(), n)
    host = _host_from_edges(edges, n, demand.labels)
    breakdown = evaluate(demand, host)
    if breakdown.total != opt:
        raise InvariantViolation(
            "oracle-argmin",
            f"argmin host costs {breakdown.total}, the scan found {opt}")
    return opt, host
