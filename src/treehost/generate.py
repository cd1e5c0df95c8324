"""Instance generators: canonical shapes, seeded random trees, keyed paths.

Random trees are sampled uniformly over all labeled trees via random Prüfer
sequences, so high-degree vertices (the interesting regime) appear naturally.
The keyed path assigns keys in the alternating order 1, n/2+1, 2, n/2+2, ...
which forces every vertex to have a neighbor whose key differs by exactly
n/2; it is the instance on which search-tree-shaped hosts are provably bad
while the path itself costs only n-1.  ``exhaustive_bst_min`` scores every
search tree on the keys at once from one table of key depths (n <= 12).
``gen`` and ``bst_adversarial`` refuse n above ``MAX_GEN_N`` before they
allocate.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .cost import evaluate
from .model import (NONE, DemandTree, HostTree, ParameterError,
                    ResourceCapError, UnrootedTree, root_at)

KINDS = ("path", "star", "caterpillar", "complete_binary", "random")
BST_ENUM_CAP = 12
MAX_GEN_N = 10**7  # gen peaks at about 260 MB for n = 10^6 (random)


def prufer_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the tree on 0..n-1 (n >= 2) that the Prüfer sequence
    ``seq`` of length n-2 encodes; linear-time smallest-leaf-first decode."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        deg[leaf] -= 1
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    u, v = (w for w in range(n) if deg[w] == 1)
    edges.append((u, v))
    return edges


def gen(kind: str, n: int, seed: int | None = None) -> DemandTree:
    """Deterministic demand-tree generator, rooted at vertex 0."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > MAX_GEN_N:
        raise ResourceCapError(f"generators capped at n={MAX_GEN_N}, got {n}")
    if kind not in KINDS:
        raise ParameterError(f"unknown kind {kind!r}; pick one of {KINDS}")
    if kind == "random" and seed is None:
        raise ParameterError("random generation requires a seed")
    if kind == "random":
        rng = random.Random(seed)
        edges = prufer_edges([rng.randrange(n) for _ in range(n - 2)],
                             n) if n > 1 else []
    else:  # edge i - 1 joins vertex i to the vertex above it
        kid = np.arange(1, n)
        if kind == "path":
            up = kid - 1
        elif kind == "star":
            up = np.zeros_like(kid)
        elif kind == "caterpillar":
            # the spine 0..spine-1, then leg spine + i hangs from vertex i
            spine = (n + 1) // 2
            up = np.append(np.arange(spine - 1), np.arange(n - spine))
        else:  # complete_binary
            up = (kid - 1) // 2
        edges = np.stack((up, kid), axis=1)
    # generator output is a tree by construction; skip re-validation
    return root_at(UnrootedTree.from_tree_edges_unchecked(edges, n), 0)


@dataclass
class KeyedPath:
    """A path demand tree (vertex i at position i) with keys 1..n."""

    tree: DemandTree
    keys: list[int]

    def vertex_of_key(self) -> list[int]:
        inv = [0] * (len(self.keys) + 1)
        for v, k in enumerate(self.keys):
            inv[k] = v
        return inv


def bst_adversarial(n: int) -> KeyedPath:
    """Path on n vertices with the alternating key pattern (even n >= 4)."""
    if n % 2 != 0:
        raise ParameterError(f"the alternating key pattern needs even n, got {n}")
    if n < 4:
        raise ParameterError(f"need n >= 4, got {n}")
    tree = gen("path", n)  # checks the size cap before keys are allocated
    return KeyedPath(tree, [v // 2 + 1 + v % 2 * (n // 2) for v in range(n)])


def balanced_bst_host(keyed: KeyedPath) -> HostTree:
    """Search-tree host over the keyed path: midpoint-root recursion."""
    n = keyed.tree.n
    vert = keyed.vertex_of_key()
    link = [NONE] * n

    def hang(lo: int, hi: int, up: int) -> int:
        """Hang the keys lo..hi on link ``up``; the vertex at their top."""
        if lo > hi:
            return NONE
        mid = (lo + hi) // 2
        v = vert[mid]
        link[v] = up
        hang(lo, mid - 1, 2 * v)
        hang(mid + 1, hi, 2 * v + 1)
        return v

    return HostTree(n, hang(1, n, NONE), link, [])


def exhaustive_bst_min(keyed: KeyedPath) -> int:
    """Exact minimum cost over every search tree on the instance's keys.

    One int8 table holds the key depths of every search tree on n keys,
    built bottom-up: the trees on k keys are, for each root r, every tree
    on the r keys below it beside every tree on the k - 1 - r keys above
    it, both one level down.  In a search tree keys a < b meet at the
    shallowest key in a..b, so each demand edge scores all trees at once.
    """
    n = keyed.tree.n
    if n > BST_ENUM_CAP:
        raise ResourceCapError(
            f"exhaustive search-tree scan capped at n={BST_ENUM_CAP}")
    tables = [np.zeros((1, 0), dtype=np.int8)]
    for k in range(1, n + 1):
        blocks = []
        for r in range(k):
            below, above = tables[r], tables[k - 1 - r]
            block = np.zeros((len(below) * len(above), k), dtype=np.int8)
            block[:, :r] = np.repeat(below + 1, len(above), axis=0)
            block[:, r + 1:] = np.tile(above + 1, (len(below), 1))
            blocks.append(block)
        tables.append(np.concatenate(blocks))
    depth = tables[n]
    keys = np.asarray(keyed.keys) - 1
    cost = np.zeros(len(depth), dtype=np.int64)
    for a, b in zip(np.minimum(keys[:-1], keys[1:]),
                    np.maximum(keys[:-1], keys[1:])):
        cost += depth[:, a] + depth[:, b] - 2 * depth[:, a:b + 1].min(axis=1)
    return int(cost.min())


@dataclass
class BstDemoResult:
    n: int
    balanced_cost: int
    path_cost: int
    ratio: float
    exhaustive_min: int | None


def bst_demo(n: int) -> BstDemoResult:
    """Cost of the balanced search-tree host on the adversarial keyed path.

    Requires n to be a power of two >= 4.  For n within the enumeration cap
    the true search-tree minimum is computed as well.
    """
    if n < 4 or n & (n - 1):
        raise ParameterError(f"n must be a power of two >= 4, got {n}")
    keyed = bst_adversarial(n)
    host = balanced_bst_host(keyed)
    cost = evaluate(keyed.tree, host).total
    exh = exhaustive_bst_min(keyed) if n <= BST_ENUM_CAP else None
    return BstDemoResult(n, cost, n - 1, cost / (n - 1), exh)
