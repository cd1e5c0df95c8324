"""Instance generators: canonical shapes, seeded random trees, keyed paths.

Random trees are sampled uniformly over all labeled trees via random Prüfer
sequences, so high-degree vertices (the interesting regime) appear naturally.
The keyed path assigns keys in the alternating order 1, n/2+1, 2, n/2+2, ...
which forces every vertex to have a neighbor whose key differs by exactly
n/2; it is the instance on which search-tree-shaped hosts are provably bad
while the path itself costs only n-1.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .cost import evaluate
from .model import (NONE, DemandTree, HostTree, ParameterError,
                    ResourceCapError, UnrootedTree, root_at)

KINDS = ("path", "star", "caterpillar", "complete_binary", "random")
BST_ENUM_CAP = 12


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
    if kind not in KINDS:
        raise ParameterError(f"unknown kind {kind!r}; pick one of {KINDS}")
    if kind == "random" and seed is None:
        raise ParameterError("random generation requires a seed")
    if n == 1:
        edges = []
    elif kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "caterpillar":
        spine = (n + 1) // 2
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [(i % spine, spine + i) for i in range(n - spine)]
    elif kind == "complete_binary":
        edges = [((i - 1) // 2, i) for i in range(1, n)]
    else:
        rng = random.Random(seed)
        edges = prufer_edges([rng.randrange(n) for _ in range(n - 2)], n)
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
    keys = [0] * n
    half = n // 2
    for k in range(half):
        keys[2 * k] = k + 1
        keys[2 * k + 1] = half + k + 1
    return KeyedPath(gen("path", n), keys)


def balanced_bst_host(keyed: KeyedPath) -> HostTree:
    """Search-tree host over the keyed path: midpoint-root recursion."""
    n = keyed.tree.n
    vert = keyed.vertex_of_key()
    root = vert[(1 + n) // 2]
    up, left, right = ([NONE] * n for _ in range(3))
    stack = [(1, n, -1, False)]
    while stack:
        lo, hi, parent, is_right = stack.pop()
        if lo > hi:
            continue
        mid = (lo + hi) // 2
        v = vert[mid]
        if parent >= 0:
            if is_right:
                right[parent] = v
            else:
                left[parent] = v
            up[v] = parent
        stack.append((mid + 1, hi, v, True))
        stack.append((lo, mid - 1, v, False))
    return HostTree(n, root, up, left, right, [NONE] * n)


def _all_bst_parents(par: list[int], lo: int, hi: int, parent: int):
    """Yield once per search-tree shape on keys lo..hi, with ``par`` filled.

    ``par`` maps key -> parent key (root key maps to 0) and is mutated in
    place; consume it before advancing the generator.
    """
    if lo > hi:
        yield None
        return
    for root in range(lo, hi + 1):
        par[root] = parent
        for _ in _all_bst_parents(par, lo, root - 1, root):
            yield from _all_bst_parents(par, root + 1, hi, root)


def exhaustive_bst_min(keyed: KeyedPath) -> int:
    """Exact minimum cost over every search tree on the instance's keys."""
    n = keyed.tree.n
    if n > BST_ENUM_CAP:
        raise ResourceCapError(
            f"exhaustive search-tree scan capped at n={BST_ENUM_CAP}")
    demand_key_pairs = [(keyed.keys[v], keyed.keys[v + 1]) for v in range(n - 1)]
    par = [0] * (n + 1)
    depth = [0] * (n + 1)
    best = None
    for _ in _all_bst_parents(par, 1, n, 0):
        depth[0] = -1
        done = [False] * (n + 1)
        done[0] = True
        for k in range(1, n + 1):
            chain = []
            node = k
            while not done[node]:
                chain.append(node)
                node = par[node]
            d = depth[node]
            for node in reversed(chain):
                d += 1
                depth[node] = d
                done[node] = True
        cost = 0
        for ka, kb in demand_key_pairs:
            a, b = ka, kb
            da, db = depth[a], depth[b]
            while da > db:
                a = par[a]
                da -= 1
            while db > da:
                b = par[b]
                db -= 1
            while a != b:
                a = par[a]
                b = par[b]
                da -= 1
            cost += depth[ka] + depth[kb] - 2 * da
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best


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
