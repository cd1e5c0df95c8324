"""Independent oracles and small utilities shared by the tests.

The BFS evaluator here is written against the host-tree arrays only and
knows nothing about the library's LCA-based evaluator; it is the second
route for every cost assertion.
"""
from __future__ import annotations

from collections import deque

from treehost import DemandTree, HostTree

NONE = -1


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
            node[i] = host.add_steiner(v)
        host.link(v, node[1])
        for i in range(1, len(ch)):
            host.link(node[i], node[2 * i])
            host.link(node[i], node[2 * i + 1])
    return host


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
    s = {k: h.add_steiner(-1) for k in range(1, 9)}
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
