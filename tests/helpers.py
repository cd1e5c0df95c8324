"""Independent oracles and small utilities shared by the tests.

The BFS evaluator here is written against the host-tree arrays only and
knows nothing about the library's LCA-based evaluator; it is the second
route for every cost assertion.  ``reference_parse_edge_list``,
``reference_root_at`` and ``reference_label_rank`` are the line-by-line
parser, the BFS orientation and the key-function label sort as the library
had them before ingest was vectorized; the property tests hold the library
to them.
"""
from __future__ import annotations

import sys
from collections import deque

import numpy as np

from treehost import (DemandTree, EdgeListError, HostTree, UnknownVertexError,
                      UnrootedTree)

NONE = -1
DEAD = -2


def add_steiner(host: HostTree, owner_vertex: int) -> int:
    """Append one unlinked steiner node owned by ``owner_vertex``."""
    i = host.num_nodes()
    host.parent = np.append(host.parent, NONE)
    host.left = np.append(host.left, NONE)
    host.right = np.append(host.right, NONE)
    host.owner = np.append(host.owner, owner_vertex)
    return i


def copy_host(host: HostTree) -> HostTree:
    return HostTree(host.n_vertices, host.root, host.parent.copy(),
                    host.left.copy(), host.right.copy(), host.owner.copy())


def leaf_slots_in_order(leaf_count: int) -> list[int]:
    """Heap slots of a bracket's leaves in left-to-right order of the shape.

    The bracket of c children is the heap on 2c-1 slots; children fill the
    last-level slots first, then the second-to-last-level leaf slots, both
    in slot order.  A slot's depth below the bracket root is
    ``slot.bit_length() - 1``.
    """
    if leaf_count < 1:
        raise ValueError("bracket needs at least one leaf")
    depth = (leaf_count - 1).bit_length()
    first_bottom = 1 << depth
    return (list(range(first_bottom, 2 * leaf_count))
            + list(range(leaf_count, first_bottom)))


def bracket_host_by_slot_rule(demand: DemandTree) -> HostTree:
    """Phase-1 host built bracket by bracket from the written-out slot rule.

    Vertices are visited in id order; vertex v's bracket takes the next c-1
    steiner ids for its inner slots 1..c-1 in slot order, its children fill
    the leaf slots, and inner slot i links slot 2i left and 2i+1 right.
    """
    host = HostTree.empty(demand.n, demand.root)
    for v in range(demand.n):
        ch = demand.children(v)
        if not ch:
            continue
        node = dict(zip(leaf_slots_in_order(len(ch)), ch))
        for i in range(1, len(ch)):
            node[i] = add_steiner(host, v)
        host.link(v, node[1])
        for i in range(1, len(ch)):
            host.link(node[i], node[2 * i])
            host.link(node[i], node[2 * i + 1])
    return host


def play_match(host: HostTree, demand: DemandTree, s: int,
               keys) -> tuple[int, int, int]:
    """Play the knockout match at steiner node s in place, by the rule.

    Both children of s must be vertices.  The one with fewer demand children
    wins, ties going to the smaller key.  The winner takes s's place below
    s's parent and keeps the loser as its only child; the loser adopts the
    winner's former child, then keeps its own; s is removed.  Returns
    (winner, loser, charge), the charge being the loser's child count.
    """
    players = host.children(s)
    assert len(players) == 2 and not any(map(host.is_steiner, players))
    x, y = sorted(players, key=lambda v: (demand.child_count(v), keys[v]))
    adopted = host.children(x) + host.children(y)
    q = int(host.parent[s])
    if host.left[q] == s:
        host.left[q] = x
    else:
        host.right[q] = x
    host.parent[x] = q
    host.left[x], host.right[x] = y, NONE
    host.parent[y] = x
    host.left[y], host.right[y] = (adopted + [NONE, NONE])[:2]
    for ch in adopted:
        host.parent[ch] = y
    host.parent[s], host.left[s], host.right[s] = DEAD, NONE, NONE
    return x, y, demand.child_count(y)


def host_adjacency(host: HostTree) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {i: [] for i in host.live_nodes()}
    for i in host.live_nodes():
        p = int(host.parent[i])
        if p >= 0:
            adj[i].append(p)
            adj[p].append(i)
    return adj


def bfs_distance(adj: dict[int, list[int]], s: int, t: int) -> int:
    if s == t:
        return 0
    dist = {s: 0}
    q = deque([s])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                if w == t:
                    return dist[w]
                q.append(w)
    raise AssertionError(f"no path {s}->{t}")


def bfs_cost(demand: DemandTree, host: HostTree) -> tuple[int, list[int]]:
    """Per-edge BFS evaluation: (total, per-parent-vertex)."""
    adj = host_adjacency(host)
    per = [0] * demand.n
    for u, v in demand.edges():
        per[u] += bfs_distance(adj, u, v)
    return sum(per), per


def host_shape(host: HostTree, node: int | None = None):
    """Canonical nested-tuple form: vertices keep ids, steiner nodes become
    '*', children sorted by their canonical form (sibling-order free)."""
    if node is None:
        node = host.root
    label = "*" if host.is_steiner(node) else node
    kids = tuple(sorted((host_shape(host, ch) for ch in host.children(node)),
                        key=repr))
    return (label, kids)


def parent_map(host: HostTree) -> dict[int, int]:
    """Vertex-only parent map (host must be steiner-free)."""
    assert host.steiner_count() == 0
    return {v: int(host.parent[v]) for v in range(host.n_vertices)
            if v != host.root}


def fig_phase1_host() -> HostTree:
    """The worked example's bracket host tree, built link by link.

    Vertex ids follow first appearance in the example edge list; the eight
    steiner nodes are anonymous (compare via ``host_shape``).
    """
    h = HostTree.empty(14, 0)
    s = {k: add_steiner(h, -1) for k in range(1, 9)}
    links = [
        (0, s[1]), (s[1], s[2]), (s[2], 1), (s[2], 2), (s[1], 3),
        (1, s[3]), (s[3], s[4]), (s[4], 4), (s[4], 5),
        (s[3], s[5]), (s[5], 6), (s[5], 7),
        (2, 8),
        (3, s[6]), (s[6], s[7]), (s[7], 9), (s[7], 10), (s[6], 11),
        (11, s[8]), (s[8], 12), (s[8], 13),
    ]
    for p, c in links:
        h.link(p, c)
    return h


# Final tree of the worked example: vertex -> host parent.
FIG_FINAL_PARENTS = {2: 0, 3: 2, 1: 3, 9: 3, 4: 1, 8: 1, 6: 4, 5: 6, 7: 6,
                     11: 9, 10: 11, 12: 11, 13: 12}


def max_degree(host: HostTree) -> int:
    deg = {i: 0 for i in host.live_nodes()}
    for i in host.live_nodes():
        p = int(host.parent[i])
        if p >= 0:
            deg[i] += 1
            deg[p] += 1
    return max(deg.values())


def reference_parse_edge_list(text: str) -> UnrootedTree:
    """One edge per line, two tokens; ``#`` starts a comment; ids by first
    appearance; empty input is the single-vertex tree."""
    ids: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise EdgeListError(
                f"line {lineno}: expected two tokens 'u v', got {len(toks)}")
        pair = []
        for t in toks:
            if t not in ids:
                ids[t] = len(ids)
                labels.append(t)
            pair.append(ids[t])
        edges.append((pair[0], pair[1]))
    if not edges:
        return _reference_csr([], 1, ["0"])
    return reference_from_edges(edges, n=len(ids), labels=labels)


def reference_from_edges(edges: list[tuple[int, int]], n: int | None = None,
                         labels: list[str] | None = None) -> UnrootedTree:
    """Validate with union-find, then build the CSR in edge-input order."""
    if n is None:
        n = max((max(u, v) for u, v in edges), default=-1) + 1
        n = max(n, 1)
    if labels is not None and len(labels) != n:
        raise EdgeListError(f"expected {n} labels, got {len(labels)}")

    def name(v: int) -> str:
        return labels[v] if labels is not None else str(v)

    uf = list(range(n))

    def find(a: int) -> int:
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    seen: set[int] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise EdgeListError(f"self-loop edge '{name(u)} {name(v)}'")
        key = (u * n + v) if u < v else (v * n + u)
        if key in seen:
            raise EdgeListError(f"duplicate edge '{name(u)} {name(v)}'")
        seen.add(key)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise EdgeListError(
                f"cycle detected when adding edge '{name(u)} {name(v)}'")
        uf[ru] = rv
    roots = len({find(v) for v in range(n)})
    if roots != 1:
        raise EdgeListError(f"disconnected input: {roots} components")
    return _reference_csr(edges, n, labels)


def _reference_csr(edges, n: int, labels) -> UnrootedTree:
    n = max(n, 1)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = e.ravel()
    dst = e[:, ::-1].ravel()
    flat = dst[np.argsort(src, kind="stable")]
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=off[1:])
    return UnrootedTree(n, off, flat, labels)


def reference_root_at(tree: UnrootedTree, root: int) -> DemandTree:
    """BFS from ``root``; children keep adjacency order minus the parent."""
    n = tree.n
    if not 0 <= root < n:
        raise UnknownVertexError(f"unknown root id {root}")
    adj_off, adj_flat = tree.adj_off.tolist(), tree.adj_flat.tolist()
    parent = [NONE] * n
    parent[root] = root
    order = [root]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in adj_flat[adj_off[v]:adj_off[v + 1]]:
            if parent[w] == NONE:
                parent[w] = v
                order.append(w)
    parent[root] = NONE
    par = np.asarray(parent, dtype=np.int64)
    deg = np.diff(tree.adj_off)
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    child_flat = tree.adj_flat[par[tree.adj_flat] == owner]
    counts = deg - 1
    counts[root] += 1
    child_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=child_off[1:])
    return DemandTree(n, root, par, child_off, child_flat, tree.labels)


def reference_label_rank(labels: list[str]) -> np.ndarray:
    """"lex" rank: ASCII-digit labels by integer value (ties by id) before
    all other labels in string order."""
    n = len(labels)

    def sort_key(v: int):
        lbl = labels[v]
        if lbl.isascii() and lbl.isdecimal():
            return (0, int(lbl), "")
        return (1, 0, lbl)

    rank = np.empty(n, dtype=np.int64)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # int() of numerals above 4300 digits
    try:
        order = sorted(range(n), key=sort_key)
    finally:
        sys.set_int_max_str_digits(limit)
    rank[order] = np.arange(n, dtype=np.int64)
    return rank
