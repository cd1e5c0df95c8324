"""Seeded input generator of the benchmark, one function per workload shape.

It does not import ``treehost.generate``, so a change there cannot change the
workloads.  Every function takes a ``numpy.random.Generator`` and is
deterministic for a given seed.  A tree is returned as a :class:`Instance`:
edge endpoints as label indices, in the order and orientation of the text the
program reads, plus the label strings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALNUM_PREFIXES = ("h", "node", "r", "x")
SMALL_MIN_N = 8
SMALL_MAX_N = 20_000   # exclusive; below the program's list/numpy thresholds
HUB_MAX_FANOUT = 100_000
HUB_PARETO_SHAPE = 0.6


@dataclass
class Instance:
    """One demand tree as the edge-list text spells it."""

    n: int
    a: np.ndarray          # first token of each line (label index)
    b: np.ndarray          # second token of each line (label index)
    labels: list[str]

    def text(self) -> str:
        lab = self.labels
        return "".join([f"{lab[u]} {lab[v]}\n"
                        for u, v in zip(self.a.tolist(), self.b.tolist())])

    def root(self) -> int:
        """The vertex the program roots at: the first token of the text."""
        return int(self.a[0]) if self.n > 1 else 0


def prufer_edges(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random labelled tree on 0..n-1 by linear-time Prüfer decoding."""
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    seq = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    us = [0] * (n - 1)
    vs = [0] * (n - 1)
    ptr = degree.index(1)
    leaf = ptr
    for i, x in enumerate(seq):
        us[i] = leaf
        vs[i] = x
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    us[n - 2] = leaf
    vs[n - 2] = n - 1
    return np.asarray(us, np.int64), np.asarray(vs, np.int64)


def mixed_labels(rng: np.random.Generator, n: int) -> list[str]:
    """Distinct labels, half numeric and half alphanumeric, seeded.

    Numeric labels have no leading zeros, so their integer values are
    distinct as well.
    """
    codes = rng.permutation(n).tolist()
    numeric = (rng.random(n) < 0.5).tolist()
    prefix = rng.integers(0, len(ALNUM_PREFIXES), size=n).tolist()
    return [str(c) if num else f"{ALNUM_PREFIXES[p]}{c:x}"
            for c, num, p in zip(codes, numeric, prefix)]


def _scramble(rng: np.random.Generator, u: np.ndarray, v: np.ndarray,
              n: int, first: int | None = None) -> Instance:
    """Shuffle edge order and orientation; optionally put ``first`` first."""
    order = rng.permutation(u.size)
    u, v = u[order], v[order]
    flip = rng.random(u.size) < 0.5
    a = np.where(flip, v, u)
    b = np.where(flip, u, v)
    if first is not None and a.size:
        i = int(np.flatnonzero((a == first) | (b == first))[0])
        ai, bi = int(a[i]), int(b[i])
        a[i], b[i] = a[0], b[0]
        a[0], b[0] = first, (bi if ai == first else ai)
    return Instance(n, a, b, mixed_labels(rng, n))


def random_tree(rng: np.random.Generator, n: int) -> Instance:
    """Uniform random tree, shuffled edges, random orientation, mixed labels."""
    u, v = prufer_edges(rng, n)
    return _scramble(rng, u, v, n)


def hub_groups(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sizes of the hub groups (a hub plus its leaves) of an n-vertex tree.

    Fan-outs follow a Pareto law (minimum 2, shape HUB_PARETO_SHAPE, capped
    at HUB_MAX_FANOUT), drawn once per equal-probability stratum so that the
    profile, and with it the work per solve, varies little between seeds.
    The groups fill about 95% of the vertices; the rest hang off the centre.
    """
    u = np.linspace(0.0, 1.0, 100_001)[1:]
    mean = np.minimum(2.0 * u ** (-1.0 / HUB_PARETO_SHAPE), HUB_MAX_FANOUT).mean()
    hubs = max(1, int(0.95 * (n - 1) / (mean + 1)))
    q = (np.arange(hubs) + rng.random(hubs)) / hubs
    fan = np.minimum(2.0 * q ** (-1.0 / HUB_PARETO_SHAPE), HUB_MAX_FANOUT)
    sizes = rng.permutation(fan.astype(np.int64) + 1)
    keep = np.cumsum(sizes) <= n - 1
    return sizes[keep]


def hub_tree(rng: np.random.Generator, n: int) -> Instance:
    """A centre holding a few thousand hubs with Zipf-like fan-out.

    Almost every vertex is a hub's leaf, so the steiner count is close to n
    and bracket depths range from 1 to ceil(log2 HUB_MAX_FANOUT) = 17.  The
    centre is the first token of the text, so the program roots there.
    """
    sizes = hub_groups(rng, n)
    hub_pos = 1 + np.concatenate(([0], np.cumsum(sizes)))[:-1]
    pos = np.arange(1, n, dtype=np.int64)
    # positions past the last group are leaves of the centre (position 0)
    owner = np.zeros(n - 1, np.int64)
    owner[:int(sizes.sum())] = hub_pos[np.repeat(np.arange(sizes.size), sizes)]
    leaf = pos != owner
    u = np.concatenate((np.zeros(sizes.size, np.int64), owner[leaf]))
    v = np.concatenate((hub_pos, pos[leaf]))
    ids = rng.permutation(n)
    return _scramble(rng, ids[u], ids[v], n, first=int(ids[0]))


def small_sizes(rng: np.random.Generator, count: int) -> list[int]:
    """Stratified log-uniform sizes in [SMALL_MIN_N, SMALL_MAX_N), shuffled.

    One draw per equal-width stratum of log(n) keeps each size log-uniform
    while the batch total varies little between seeds.
    """
    lo, hi = np.log(SMALL_MIN_N), np.log(SMALL_MAX_N)
    q = (np.arange(count) + rng.random(count)) / count
    sizes = np.floor(np.exp(lo + q * (hi - lo))).astype(np.int64)
    sizes = np.clip(sizes, SMALL_MIN_N, SMALL_MAX_N - 1)
    return rng.permutation(sizes).tolist()


def small_batch(rng: np.random.Generator, count: int) -> list[Instance]:
    """A batch of labelled random trees with log-uniform sizes."""
    return [random_tree(rng, n) for n in small_sizes(rng, count)]
