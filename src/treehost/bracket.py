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
The builder does one step of numpy work per steiner node and per child,
none per heap slot: a node's slot is its offset in its bracket's steiner
ids or in its parent's children, and gives its link ``2 * parent + side``
by arithmetic.  The heap layout is known only here: phase 2 plays the
links it is given.
"""
from __future__ import annotations

import numpy as np

from .model import NONE, DemandTree, HostTree


def run_bracket_builder(demand: DemandTree) -> HostTree:
    """Build the bracket host tree for every vertex of the demand tree.

    The result is binary, keeps the demand root as host root, gives every
    vertex with children a single host child (its bracket root), and contains
    exactly ``demand.leaf_count() - 1`` steiner nodes for n >= 2.  Every
    node below a vertex gets its link ``2 * parent + side``, its parent's
    id and its side (0 left, 1 right), from its heap slot.
    """
    n = demand.n
    off, flat = demand.child_off, demand.child_flat
    c = np.diff(off)
    s_counts = np.maximum(c - 1, 0)
    bases = np.cumsum(s_counts)  # v's steiner ids: bases[v] + 0..c-2
    total = n + int(bases[-1])
    bases -= s_counts
    bases += n

    # Child j of v takes leaf slot fb + j while j < 2c - fb, else
    # j - c + fb, where fb = 1 << bitlen(c - 1) is the first bottom slot;
    # slot t hangs below slot t >> 1 (id bases[v] + (t >> 1) - 1) on side
    # t & 1.  So 2 * parent + side is the child's position in flat plus a
    # constant of each of v's two runs of children; a single child hangs
    # left of v.
    fb = np.left_shift((c > 0).astype(np.int64), np.frexp(c - 0.5)[1])
    runs = np.empty((n, 2), dtype=np.int64)
    np.subtract(2 * c, fb, out=runs[:, 0])
    np.subtract(fb, c, out=runs[:, 1])
    step = np.empty((n, 2), dtype=np.int64)
    first = step[:, 0]
    np.multiply(bases, 2, out=first)
    first -= 2
    ones = np.flatnonzero(c == 1)
    first[ones] = 2 * ones - 1
    first += fb
    first -= off[:-1]
    np.subtract(first, c, out=step[:, 1])
    del fb, first
    below = np.repeat(step.ravel(), runs.ravel())
    below += np.arange(len(below))
    del runs, step

    # Steiner node s at slot k = s - bases[v] + 1 hangs below slot k >> 1,
    # so 2 * parent + side = s + bases[v] - 1; slot 1 hangs left of v.
    verts = np.flatnonzero(c >= 2)
    tops = bases[verts]
    inner = np.repeat(tops - 1, c[verts] - 1)
    inner += np.arange(n, total)
    inner[tops - n] = 2 * verts

    link = np.full(total, NONE, dtype=np.int64)
    link[flat] = below
    link[n:] = inner
    del below, inner
    return HostTree(n, demand.root, link, np.repeat(verts, c[verts] - 1))
