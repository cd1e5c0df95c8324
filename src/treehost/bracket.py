"""Phase 1: hang a balanced bracket of each vertex's children below it.

For every vertex v with children ``w_1..w_c`` we build a complete binary tree
with the children as leaves and fresh steiner nodes as the c-1 inner slots,
then link v above its root.  The bracket uses the heap (level-order) layout
on 2c-1 slots, so every inner slot has exactly two child slots and leaf
depths are ceil(log2 c) or one less.  Children fill the leaf slots in
left-to-right order of the shape: last-level slots first, then the
second-to-last-level leaf slots, both in slot order.

Per child the distance to v is 1 + leaf depth <= ceil(log2 c) + 1, so each
vertex pays at most ``c * (ceil(log2 c) + 1)`` and the whole construction
introduces exactly (#childless vertices - 1) steiner nodes in linear time.
"""
from __future__ import annotations

import numpy as np

from .model import NONE, DemandTree, HostTree


def _bracket_slots(demand: DemandTree):
    """Shared slot geometry of every bracket with >= 2 leaves.

    Returns (verts, rep, gs_entry, slot, cc, node, bases): per grouped heap
    position its bracket owner, group start, 1-based slot index, owner child
    count and occupant (player vertex at leaf slots, steiner id at inner
    slots).  ``bases`` is the first steiner id per vertex.
    """
    cached = demand._cache.get("bracket_slots")
    if cached is not None:
        return cached
    n = demand.n
    off, flat = demand.child_off, demand.child_flat
    c = np.diff(off)
    s_counts = np.where(c >= 2, c - 1, 0)
    bases = n + np.concatenate(([0], np.cumsum(s_counts)))[:-1]
    verts = np.nonzero(c >= 2)[0]
    if not verts.size:
        empty = np.empty(0, dtype=np.int64)
        out = (verts, empty, empty, empty, empty, empty, bases)
        demand._cache["bracket_slots"] = out
        return out
    m = 2 * c[verts] - 1
    gstart = np.concatenate(([0], np.cumsum(m)))[:-1]
    rep = np.repeat(verts, m)
    gs_entry = np.repeat(gstart, m)
    slot = np.arange(int(m.sum()), dtype=np.int64) - gs_entry + 1
    cc = c[rep]
    depth_v = np.frexp((c[verts] - 1).astype(np.float64))[1].astype(np.int64)
    first_bottom = np.repeat(np.left_shift(1, depth_v), m)
    is_leaf = slot >= cc
    j = np.where(slot >= first_bottom, slot - first_bottom,
                 slot - cc + 2 * cc - first_bottom)
    leaf_nodes = flat[off[rep] + np.where(is_leaf, j, 0)]
    node = np.where(is_leaf, leaf_nodes, bases[rep] + slot - 1)
    out = (verts, rep, gs_entry, slot, cc, node, bases)
    demand._cache["bracket_slots"] = out
    return out


def run_bracket_builder(demand: DemandTree) -> HostTree:
    """Build the bracket host tree for every vertex of the demand tree.

    The result is binary, keeps the demand root as host root, gives every
    vertex with children a single host child (its bracket root), and contains
    exactly ``demand.leaf_count() - 1`` steiner nodes for n >= 2.  All slots
    of all brackets are linked at once from the shared slot geometry.
    """
    n = demand.n
    off, flat = demand.child_off, demand.child_flat
    c = np.diff(off)
    verts, rep, gs_entry, slot, cc, node, bases = _bracket_slots(demand)
    total = n + int(np.where(c >= 2, c - 1, 0).sum())
    par = np.full(total, NONE, dtype=np.int64)
    left = np.full(total, NONE, dtype=np.int64)
    right = np.full(total, NONE, dtype=np.int64)
    owner = np.full(total, NONE, dtype=np.int64)

    ones = np.nonzero(c == 1)[0]
    if ones.size:
        w = flat[off[ones]]
        left[ones] = w
        par[w] = ones

    if verts.size:
        is_leaf = slot >= cc
        deep = slot >= 2
        parent_node = node[gs_entry + (slot >> 1) - 1]
        par[node[deep]] = parent_node[deep]
        even = deep & ((slot & 1) == 0)
        odd = deep & ((slot & 1) == 1)
        left[parent_node[even]] = node[even]
        right[parent_node[odd]] = node[odd]

        roots = node[slot == 1]
        par[roots] = verts
        left[verts] = roots
        owner[node[~is_leaf]] = rep[~is_leaf]

    return HostTree(n, demand.root, par, left, right, owner)

