"""Independent oracles and small utilities shared by the tests.

The BFS evaluator here is written against the host-tree arrays only and
knows nothing about the library's evaluator; it is the second route for
every cost assertion.  ``reference_evaluate`` is the evaluator as it was
before demand edges climbed the host: binary lifting over every edge.
``reference_parse_edge_list``,
``reference_root_at`` and ``reference_label_rank`` are the line-by-line
parser, the BFS orientation and the key-function label sort as the library
had them before ingest was vectorized; ``reference_serialize``,
``reference_ledger`` and ``reference_eval_listing`` are the host writer,
the ``solve --json`` ledger and the ``eval`` listings as they were before
egress went through one column writer; ``reference_parse_host`` is the
node-by-node host reader as it was before its checks became arrays;
``reference_validate`` and ``reference_check_invariants`` are the host and
invariant checkers as they were before they read one ranked Euler tour;
``reference_parent0`` hangs a tree from vertex 0 by one Euler tour over
every edge, as the parser did before its leaves were hung apart;
``reference_preorder`` walks a host with a stack, apart from the
library's tour, for the host references.
The property tests hold the library to them.  ``enumerate_hosts`` is the
recursive Prüfer enumeration that the oracle's host bank is held to, and
``reference_exhaustive_bst_min`` the shape-by-shape search-tree scan, with
a depth pass and an LCA walk per shape, that ``exhaustive_bst_min``'s
table of key depths is held to.
"""
from __future__ import annotations

import json
import sys
from collections import deque
from json.encoder import encode_basestring_ascii
from typing import Iterator

import numpy as np
from hypothesis import example

from treehost import (CostBreakdown, DemandTree, EdgeListError, HostTree,
                      HostTreeError, InvariantViolation, ResourceCapError,
                      TreeHostError, UnknownVertexError, UnrootedTree, gen)
from treehost.generate import BST_ENUM_CAP, KeyedPath, prufer_edges
from treehost.model import Labels, _decode, _list_ranks, _parse_node_name
from treehost.oracle import MAX_N

NONE = -1


def add_steiner(host: HostTree, owner_vertex: int) -> int:
    """Append one unlinked steiner node owned by ``owner_vertex``."""
    i = host.num_nodes()
    host.parent = np.append(host.parent, NONE)
    host.left = np.append(host.left, NONE)
    host.right = np.append(host.right, NONE)
    host.owner = np.append(host.owner, owner_vertex)
    return i


def empty_host(n_vertices: int, root: int) -> HostTree:
    """Host with all demand vertices present and no links yet."""
    return HostTree(n_vertices, root, *(np.full(n_vertices, NONE, np.int64)
                                        for _ in range(3)), [])


def link(host: HostTree, parent: int, child: int) -> None:
    """Hang ``child`` under ``parent``, left first, then right."""
    if host.left[parent] == NONE:
        host.left[parent] = child
    elif host.right[parent] == NONE:
        host.right[parent] = child
    else:
        raise HostTreeError(f"node {parent} already has two children")
    host.parent[child] = parent


def copy_host(host: HostTree) -> HostTree:
    return HostTree(host.n_vertices, host.root, host.parent.copy(),
                    host.left.copy(), host.right.copy(), host.owner.copy())


def steiner_nodes(host: HostTree) -> list[int]:
    return list(range(host.n_vertices, host.num_nodes()))


def host_children(host: HostTree, i: int) -> list[int]:
    return [int(ch) for ch in (host.left[i], host.right[i]) if ch != NONE]


def demand_children(demand: DemandTree, v: int) -> list[int]:
    return demand.child_flat[demand.child_off[v]:
                             demand.child_off[v + 1]].tolist()


def demand_edges(demand: DemandTree):
    """Iterate (parent, child) pairs in child-array order."""
    owner = np.repeat(np.arange(demand.n), np.diff(demand.child_off))
    return zip(owner.tolist(), demand.child_flat.tolist())


def child_count(demand: DemandTree, v: int) -> int:
    return int(demand.child_off[v + 1] - demand.child_off[v])


def reference_preorder(host: HostTree) -> list[int]:
    """The host's nodes in preorder, left child first, by a stack walk."""
    left, right = host.left.tolist(), host.right.tolist()
    order, stack = [], [host.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += [c for c in (right[v], left[v]) if c != NONE]
    return order


def host_depths(host: HostTree) -> dict[int, int]:
    """Depth of every node reachable from the root."""
    depth = {host.root: 0}
    stack = [host.root]
    left, right = host.left.tolist(), host.right.tolist()
    while stack:
        v = stack.pop()
        d = depth[v] + 1
        for w in (left[v], right[v]):
            if w != NONE:
                depth[w] = d
                stack.append(w)
    return depth


def label_list(labels: Labels, ids=None) -> list[str]:
    """The labels of ``ids`` (all, by default) as strings, cut from one
    decode of the code units."""
    ids = np.arange(len(labels)) if ids is None else np.asarray(ids, np.int64)
    text = _decode(labels.units)
    return [text[a:b] for a, b in zip(labels.off[ids].tolist(),
                                      labels.off[ids + 1].tolist())]


def bfs_order(demand: DemandTree) -> list[int]:
    order = [demand.root]
    head = 0
    flat, off = demand.child_flat.tolist(), demand.child_off.tolist()
    while head < len(order):
        v = order[head]
        head += 1
        order.extend(flat[off[v]:off[v + 1]])
    return order


def validate_demand(demand: DemandTree) -> None:
    """Raise TreeHostError unless the parent and child arrays describe one
    tree hung from ``demand.root``."""
    n = demand.n
    if demand.parent[demand.root] != NONE:
        raise TreeHostError("root has a parent")
    if demand.child_off[n] != n - 1 and n > 0:
        raise TreeHostError("child count sum != n-1")
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(demand.child_off))
    bad = np.flatnonzero(demand.parent[demand.child_flat] != owner)
    if bad.size:
        w = int(demand.child_flat[bad[0]])
        raise TreeHostError(f"parent[{w}] inconsistent with children")
    if len(demand.child_flat) != n - 1:
        raise TreeHostError("edge count != n-1")
    if len(bfs_order(demand)) != n:
        raise TreeHostError("tree not connected from root")


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
    host = empty_host(demand.n, demand.root)
    for v in range(demand.n):
        ch = demand_children(demand, v)
        if not ch:
            continue
        node = dict(zip(leaf_slots_in_order(len(ch)), ch))
        for i in range(1, len(ch)):
            node[i] = add_steiner(host, v)
        link(host, v, node[1])
        for i in range(1, len(ch)):
            link(host, node[i], node[2 * i])
            link(host, node[i], node[2 * i + 1])
    return host


def play_match(host: HostTree, demand: DemandTree, s: int,
               keys) -> tuple[int, int, int]:
    """Play the knockout match at steiner node s in place, by the rule.

    Both children of s must be vertices, and s must be the last node, as
    it is when the matches are played in descending id order.  The one with
    fewer demand children wins, ties going to the smaller key.  The winner
    takes s's place below s's parent and keeps the loser as its only child;
    the loser adopts the winner's former child, then keeps its own; s is
    removed.  Returns (winner, loser, charge), the charge being the loser's
    child count.
    """
    assert s == host.num_nodes() - 1
    players = host_children(host, s)
    assert len(players) == 2 and not any(map(host.is_steiner, players))
    x, y = sorted(players, key=lambda v: (child_count(demand, v), keys[v]))
    adopted = host_children(host, x) + host_children(host, y)
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
    host.parent, host.left, host.right = (host.parent[:s], host.left[:s],
                                          host.right[:s])
    host.owner = host.owner[:s - host.n_vertices]
    return x, y, child_count(demand, y)


def enumerate_hosts(n: int) -> Iterator[list[tuple[int, int]]]:
    """Yield every labeled tree on 0..n-1 with maximum degree <= 3.

    Trees come out as edge lists, one per qualifying Prüfer sequence in
    lexicographic order, each exactly once: the oracle's bank, one tree at
    a time by recursion.
    """
    if n > MAX_N:
        raise ResourceCapError(f"host enumeration capped at n={MAX_N}, got {n}")
    if n < 2:
        raise ValueError("host enumeration needs n >= 2")
    seq = [0] * (n - 2)
    counts = [0] * n

    def rec(pos: int) -> Iterator[list[tuple[int, int]]]:
        if pos == n - 2:
            yield prufer_edges(seq, n)
            return
        for label in range(n):
            if counts[label] == 2:
                continue
            counts[label] += 1
            seq[pos] = label
            yield from rec(pos + 1)
            counts[label] -= 1

    yield from rec(0)


def _reference_bst_parents(par: list[int], lo: int, hi: int, parent: int):
    """Yield once per search-tree shape on keys lo..hi, with ``par`` filled.

    ``par`` maps key -> parent key (root key maps to 0) and is mutated in
    place; consume it before advancing the generator.
    """
    if lo > hi:
        yield None
        return
    for root in range(lo, hi + 1):
        par[root] = parent
        for _ in _reference_bst_parents(par, lo, root - 1, root):
            yield from _reference_bst_parents(par, root + 1, hi, root)


def reference_exhaustive_bst_min(keyed: KeyedPath) -> int:
    """Exact minimum cost over every search tree on the instance's keys."""
    n = keyed.tree.n
    if n > BST_ENUM_CAP:
        raise ResourceCapError(
            f"exhaustive search-tree scan capped at n={BST_ENUM_CAP}")
    demand_key_pairs = [(keyed.keys[v], keyed.keys[v + 1]) for v in range(n - 1)]
    par = [0] * (n + 1)
    depth = [0] * (n + 1)
    best = None
    for _ in _reference_bst_parents(par, 1, n, 0):
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


def host_adjacency(host: HostTree) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {i: [] for i in range(host.num_nodes())}
    for i in range(host.num_nodes()):
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
    for u, v in demand_edges(demand):
        per[u] += bfs_distance(adj, u, v)
    return sum(per), per


def _reference_lifting_tables(par: np.ndarray):
    n_nodes = len(par)
    ext = np.empty(n_nodes + 1, dtype=np.int32)
    np.copyto(ext[:n_nodes], np.where(par < 0, n_nodes, par),
              casting="unsafe")
    ext[n_nodes] = n_nodes

    depth = (ext != n_nodes).astype(np.int32)
    depth[n_nodes] = 0
    jump = ext.copy()
    for _ in range(n_nodes.bit_length() + 1):
        if not (jump[:n_nodes] != n_nodes).any():
            break
        depth += depth[jump]
        jump = jump[jump]
    else:
        raise HostTreeError("host tree has a parent cycle")

    max_depth = int(depth[:n_nodes].max(initial=0))
    levels = max(1, max_depth.bit_length())
    up = [ext]
    for _ in range(1, levels):
        up.append(up[-1][up[-1]])
    return depth, up, n_nodes


def reference_evaluate(demand: DemandTree, host: HostTree) -> CostBreakdown:
    """``evaluate`` by binary lifting over every demand edge.  It refuses
    a parent cycle anywhere in the host, where ``evaluate`` refuses those
    that some vertex's path to the root runs into."""
    n = demand.n
    if host.n_vertices != n:
        raise UnknownVertexError(
            f"host covers {host.n_vertices} vertices, demand has {n}")
    if n <= 1:
        return CostBreakdown(0, [0] * n)

    depth, up, sink = _reference_lifting_tables(host.parent)
    off, flat = demand.child_off, demand.child_flat
    vs = flat.astype(np.int32)
    us = np.repeat(np.arange(n, dtype=np.int32),
                   np.diff(off)).astype(np.int32)

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


def host_shape(host: HostTree, node: int | None = None):
    """Canonical nested-tuple form: vertices keep ids, steiner nodes become
    '*', children sorted by their canonical form (sibling-order free)."""
    if node is None:
        node = host.root
    label = "*" if host.is_steiner(node) else node
    kids = tuple(sorted((host_shape(host, ch)
                         for ch in host_children(host, node)), key=repr))
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
    h = empty_host(14, 0)
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
        link(h, p, c)
    return h


# Final tree of the worked example: vertex -> host parent.
FIG_FINAL_PARENTS = {2: 0, 3: 2, 1: 3, 9: 3, 4: 1, 8: 1, 6: 4, 5: 6, 7: 6,
                     11: 9, 10: 11, 12: 11, 13: 12}


def max_degree(host: HostTree) -> int:
    deg = {i: 0 for i in range(host.num_nodes())}
    for i in range(host.num_nodes()):
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
        return UnrootedTree(1, [], ["0"])
    return reference_from_edges(edges, n=len(ids), labels=labels)


def reference_from_edges(edges: list[tuple[int, int]], n: int | None = None,
                         labels: list[str] | None = None) -> UnrootedTree:
    """Validate with union-find, then keep the edges in input order."""
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
    return UnrootedTree(n, edges, labels)


def reference_parent0(edges, n: int) -> np.ndarray | None:
    """Parent of every vertex with the edges hung from vertex 0 (-1 there),
    or None if they do not connect the n vertices, by one Euler tour over
    the CSR adjacency of every edge.

    The CSR position p holds arc ``perm[p]`` of the edge list, whose arcs
    2i and 2i + 1 are edge i both ways.  The tour leaves each vertex by the
    arc after the one it came in by; an arc ranked before its twin points
    away from vertex 0.
    """
    n = max(n, 1)
    src = np.asarray(edges, dtype=np.int64).ravel()
    bits = len(src).bit_length()
    perm = np.sort(src << bits | np.arange(len(src))) & ((1 << bits) - 1)
    flat = src[perm ^ 1]
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=off[1:])
    parent = np.full(n, NONE, dtype=np.int64)
    if off[1] == 0:  # vertex 0 has no edge
        return parent if n == 1 else None
    twin = np.empty_like(perm)
    twin[perm] = np.arange(len(perm))
    twin = twin[perm ^ 1]
    # the position after each in its vertex's adjacency, cyclically
    after = np.arange(1, len(perm) + 1)
    some = np.flatnonzero(off[1:] > off[:-1])
    after[off[some + 1] - 1] = off[some]
    succ = after[twin]
    succ[twin[off[1] - 1]] = -1  # the tour ends where it would restart
    ranks = _list_ranks(succ, 0)
    if ranks is None:
        return None
    away = np.flatnonzero(ranks < ranks[twin])
    parent[flat[away]] = flat[twin[away]]
    if np.count_nonzero(parent == NONE) != 1:  # a vertex without edges
        return None
    return parent


def reference_root_at(tree: UnrootedTree, root: int) -> DemandTree:
    """BFS from ``root`` over adjacency lists filled in edge order; the
    children of each vertex are the child ends of its edges, in edge
    order."""
    n = tree.n
    if not 0 <= root < n:
        raise UnknownVertexError(f"unknown root id {root}")
    edges = tree.edges.tolist()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [NONE] * n
    parent[root] = root
    order = [root]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in adj[v]:
            if parent[w] == NONE:
                parent[w] = v
                order.append(w)
    parent[root] = NONE
    children: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if parent[v] == u:
            children[u].append(v)
        else:
            children[v].append(u)
    child_off = [0]
    for kids in children:
        child_off.append(child_off[-1] + len(kids))
    child_flat = [w for kids in children for w in kids]
    return DemandTree(n, root, parent, child_off, child_flat, tree.labels)


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


def examples(values):
    """One ``hypothesis.example`` per value, as a single decorator."""
    def decorate(test):
        for value in reversed(values):
            test = example(value)(test)
        return test
    return decorate


# Labels around the 8-byte words the label sort reads: 8, 9, 16 and 17 code
# units, labels equal in their first word at some unit width (1, 2 or 4
# bytes) and apart after it, and numerals of 18-21 and of more than 4300
# digits, with leading zeros.
WORD_LABELS = ["abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefghabcdefgh",
               "abcdefghabcdefgi", "abcdefghabcdefghi", "ééa", "éé\x00",
               "ééb", "中文中文x", "中文中文y", "😀😀x", "😀😀y",
               "123456789012345678",
               "0001234567890123456789", "12345678901234567890",
               "000000123456789012345678901", "1" * 4301, "00" + "1" * 4301,
               "1" * 4300 + "2"]


def _word_label_tree(kind: str) -> str:
    """A 300-vertex tree named by WORD_LABELS with a numbered suffix, every
    fourth vertex by a numeral."""
    d = gen(kind, 300, seed=3)
    names = [WORD_LABELS[v % len(WORD_LABELS)] + str(v) if v % 4
             else str(v * 7919) for v in range(d.n)]
    return "".join(f"{names[u]} {names[v]}\n" for u, v in demand_edges(d))


def _long_label_path(fill: str, last: str) -> str:
    """Labels of 65 536 code units apart only in their last unit, the
    second of them repeated."""
    a, b = (fill * 65_535 + c for c in last)
    return f"{a} {b}\n{b} 7\n"


# Edge lists for the parser and the lex rank to match the references on.
LABEL_TEXTS = ["7 007\n007 a\x00\na\x00 a\n",
               "\n".join(f"é {w}" for w in WORD_LABELS),
               _word_label_tree("random"), _word_label_tree("star"),
               _long_label_path("x", "ab"), _long_label_path("1", "12"),
               _long_label_path("中", "ab")]


def _reference_rows(*columns) -> str:
    """One text row per node, the concatenation of the columns: a str is
    written on every row, a pair (ids, n_vertices) as the nodes' names (the
    id, after an "s" for a steiner node)."""
    widths, digits = [], []
    for col in columns:
        if isinstance(col, str):
            widths.append(len(col))
            digits.append(None)
            continue
        ids, n = col
        count = np.ones(len(ids), dtype=np.int64)
        power = 10
        while power <= ids.max(initial=0):
            count += ids >= power
            power *= 10
        widths.append(count + (ids >= n))
        digits.append(count)
    row_len = sum(widths)
    pos = np.cumsum(row_len) - row_len
    buf = np.empty(int(row_len.sum()), dtype=np.uint8)
    for col, width, count in zip(columns, widths, digits):
        if count is None:
            for j, byte in enumerate(col.encode("ascii")):
                buf[pos + j] = byte
        else:
            ids, n = col
            buf[pos[ids >= n]] = ord("s")
            last, value = pos + width - 1, ids.copy()
            for k in range(int(count.max(initial=0))):
                more = count > k
                buf[last[more] - k] = ord("0") + value[more] % 10
                value //= 10
        pos = pos + width
    return buf.tobytes().decode("ascii")


def _reference_block(rows: str, open_: str, close: str) -> str:
    return f"{open_}\n{rows[:-2]}\n  {close}" if rows else open_ + close


def reference_serialize(host: HostTree, form: str = "text") -> str:
    """``node:parent`` lines in preorder, or the JSON document in the
    layout of ``json.dumps(indent=2)``."""
    n = host.n_vertices
    order = np.array(reference_preorder(host), dtype=np.int64)
    par = host.parent[order]
    par[0] = order[0]
    if form == "text":
        return _reference_rows((order, n), ":", (par, n), "\n")
    nodes = _reference_rows('    "', (order, n), '",\n')
    parents = _reference_rows('    "', (order[1:], n), '": "', (par[1:], n),
                              '",\n')
    steiners = _reference_rows('    "', (order[order >= n], n), '",\n')
    root = _reference_rows('"', (order[:1], n), '"')
    return (f'{{\n  "nodes": {_reference_block(nodes, "[", "]")},\n'
            f'  "parent": {_reference_block(parents, "{", "}")},\n'
            f'  "steiner": {_reference_block(steiners, "[", "]")},\n'
            f'  "root": {root}\n}}\n')


def reference_ledger(names: list[str], charges: list[int]) -> str:
    """The ``charge_ledger`` value of the ``solve --json`` report, one
    formatted row per match."""
    return _reference_block("".join(map(
        "    [\n      {},\n      {}\n    ],\n".format,
        map(encode_basestring_ascii, names), charges)), "[", "]")


def reference_eval_listing(names: list[str], per_vertex: list[int],
                           total: int, as_json: bool) -> str:
    """What ``treehost eval`` prints, one ``print`` per row."""
    if as_json:
        return json.dumps({"total": total,
                           "per_vertex": dict(zip(names, per_vertex))},
                          indent=2) + "\n"
    lines = [f"total {total}"]
    lines += [f"{name} {c}" for name, c in zip(names, per_vertex) if c]
    return "\n".join(lines) + "\n"


def reference_parse_host(text: str) -> HostTree:
    """A text host read node by node into lists sized by the largest id,
    as ``parse_host`` read it before it numbered the listed ids densely;
    the host it returns then holds the listed ids densely, in id order.
    Each check raises at the first node that fails it, in listing order."""
    nodes = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            a, b = line.split(":", 1)
            nodes.append((*_parse_node_name(a.strip()),
                          *_parse_node_name(b.strip())))
    if not nodes:
        raise HostTreeError("empty host tree")
    n_vertices = 1 + max([i for i, st, _p, _pst in nodes if not st]
                         + [p for _i, _st, p, pst in nodes if not pst],
                         default=-1)
    size = 1 + max(max(i, p) for i, _st, p, _pst in nodes)
    listed = [False] * size
    parent, left, right = [NONE] * size, [NONE] * size, [NONE] * size
    root = NONE
    for i, st, p, _pst in nodes:
        if st and i < n_vertices:
            raise HostTreeError(f"steiner id s{i} collides with vertex id "
                                f"range 0..{n_vertices - 1}")
        if listed[i]:
            raise HostTreeError(f"node {i} listed twice")
        listed[i] = True
        parent[i] = p
        if p == i:
            if root != NONE:
                raise HostTreeError("multiple roots")
            root = i
            parent[i] = NONE
    if root == NONE:
        raise HostTreeError("no root (node with itself as parent)")
    for i, _st, p, _pst in nodes:
        if p != i:
            if not listed[p]:
                raise HostTreeError(f"unknown parent {p} of node {i}")
            if left[p] == NONE:
                left[p] = i
            elif right[p] == NONE:
                right[p] = i
            else:
                raise HostTreeError(f"node {p} has more than two children")
    for v in range(n_vertices):
        if not listed[v]:
            raise HostTreeError(f"missing demand vertex {v}")
    ids = [i for i in range(size) if listed[i]]
    slot = {i: k for k, i in enumerate(ids)}
    slot[NONE] = NONE
    host = HostTree(n_vertices, slot[root],
                    *([slot[a[i]] for i in ids] for a in (parent, left, right)),
                    [NONE] * (len(ids) - n_vertices))
    reference_validate(host)
    owner, n = host.owner, n_vertices
    for i in reference_preorder(host):
        if i >= n:
            p = host.parent[i]
            owner[i - n] = p if p < n else owner[p - n]
    return host


def reference_validate(host: HostTree) -> None:
    """``HostTree.validate`` as it was before its checks became masks over
    the tour: one Python pass over the nodes in id order, then a dict walk
    from the root for connectivity.  It raises a bare ``IndexError`` for a
    child id at or past the end, reads a child id below -1 from the end,
    and passes a node that lists one child twice."""
    par = host.parent.tolist()
    left, right = host.left.tolist(), host.right.tolist()
    if not 0 <= host.root < len(par) or par[host.root] != NONE:
        raise HostTreeError("bad root")
    for i in range(len(par)):
        for ch in (left[i], right[i]):
            if ch != NONE and par[ch] != i:
                raise HostTreeError(f"child link {i}->{ch} not mirrored")
        if i != host.root:
            p = par[i]
            if not 0 <= p < len(par):
                raise HostTreeError(f"node {i} has no parent in the host")
            if left[p] != i and right[p] != i:
                raise HostTreeError(f"parent of {i} does not list it")
    if len(host_depths(host)) != len(par):
        raise HostTreeError("host not connected from root")


def reference_euler_intervals(host: HostTree):
    """``tin``: the preorder index of every node reached from the root;
    ``tout``: the next index once its subtree is done, one past the
    subtree's last."""
    tin: dict[int, int] = {}
    tout: dict[int, int] = {}
    clock = 0
    stack: list[tuple[int, bool]] = [(host.root, False)]
    left, right = host.left.tolist(), host.right.tolist()
    while stack:
        node, done = stack.pop()
        if done:
            tout[node] = clock
            continue
        tin[node] = clock
        clock += 1
        stack.append((node, True))
        for ch in (right[node], left[node]):
            if ch != NONE:
                stack.append((ch, False))
    return tin, tout


def reference_check_invariants(demand: DemandTree, host: HostTree) -> None:
    """``check_invariants`` as it was before it read the tour's ranks: a
    Python loop over the steiner nodes, then a dict DFS for the ancestry
    intervals.  Its test ``tin[u] < tin[v] <= tout[u]`` is off by one: it
    also passes the vertex entered just after u's subtree."""
    n = demand.n
    if host.n_vertices != n:
        raise UnknownVertexError(
            f"host covers {host.n_vertices} vertices, demand has {n}")
    reference_validate(host)
    left, right = host.left.tolist(), host.right.tolist()
    owner, dpar = host.owner.tolist(), demand.parent.tolist()
    for s in steiner_nodes(host):
        if left[s] == NONE or right[s] == NONE:
            raise InvariantViolation("(i) steiner-degree",
                                     f"steiner node {s} has < 2 children")
        u = owner[s - n]
        if u == NONE:
            raise InvariantViolation("(iii) bracket-membership",
                                     f"steiner node {s} has no owner vertex")
        for ch in (left[s], right[s]):
            if host.is_steiner(ch):
                continue
            if dpar[ch] != u:
                raise InvariantViolation(
                    "(iii) bracket-membership",
                    f"vertex {ch} sits in the bracket of {u}, not of its parent")
            if right[ch] != NONE:
                raise InvariantViolation(
                    "(iii) single-child",
                    f"vertex {ch} under a steiner node has two children")
    tin, tout = reference_euler_intervals(host)
    for v in range(n):
        u = dpar[v]
        if u == NONE:
            continue
        if not (tin[u] < tin[v] <= tout[u]):
            raise InvariantViolation(
                "(ii) ancestry",
                f"demand parent {u} of vertex {v} is not a host ancestor")
