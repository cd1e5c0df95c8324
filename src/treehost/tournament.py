"""Phase 2: remove every steiner node by running knockout matches.

Each steiner node hosts a match between its two children once both are real
vertices.  The child with fewer demand-tree children wins (ties go to the
configured tiebreak); it replaces the steiner node, keeps the loser as its
single child, and the loser inherits the winner's previous subtree.  A vertex
loses at most once, and a match raises only the winner's distances to its own
children, so the total cost increase is bounded by n-1.

Three structural facts hold after phase 1 and survive every rewrite:

  (i)   every steiner node has exactly two children;
  (ii)  each vertex's demand-tree parent stays one of its host ancestors;
  (iii) a vertex that is the child of a steiner node belongs to the bracket
        of its demand parent and has at most one host child.

``check_invariants`` verifies all three on a full tree; ``debug=True`` adds
local checks after every single rewrite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (DEAD, NONE, DemandTree, HostTree, InvariantViolation,
                    TreeHostError, is_ascii_int)


def _label_rank(demand: DemandTree, mode: str) -> np.ndarray:
    """Rank of each vertex under the tiebreak order.

    "lex" sorts labels lexicographically with numeric awareness (labels made
    of ASCII digits compare as integers and before all other labels); "id"
    keeps the input id order.  With default labels both coincide.
    """
    if mode not in ("id", "lex"):
        raise ValueError(f"unknown tiebreak {mode!r}")
    n = demand.n
    rank = np.arange(n, dtype=np.int64)
    if mode == "id" or demand.labels is None:
        return rank
    labels = demand.labels

    def sort_key(v: int):
        lbl = labels[v]
        return (0, int(lbl), "") if is_ascii_int(lbl) else (1, 0, lbl)

    order = np.fromiter(sorted(range(n), key=sort_key), dtype=np.int64,
                        count=n)
    rank[order] = np.arange(n, dtype=np.int64)
    return rank


def match_keys(demand: DemandTree, tiebreak: str = "lex") -> np.ndarray:
    """Single-integer match priority per vertex: child count, then tiebreak."""
    return np.diff(demand.child_off) * demand.n + _label_rank(demand, tiebreak)


@dataclass(frozen=True)
class MatchRewrite:
    """Record of one applied match: the removed steiner node, the player
    that advanced, the eliminated player, and the charge c_loser."""

    steiner: int
    winner: int
    loser: int
    charge: int


@dataclass
class TournamentResult:
    """Steiner-free host plus the charge ledger (one entry per match)."""

    host: HostTree
    losers: list[int] = field(default_factory=list)
    charges: list[int] = field(default_factory=list)

    @property
    def total_charge(self) -> int:
        return sum(self.charges)


def _rewrite(par, left, right, s: int, x: int, y: int) -> tuple[int, int, int]:
    """Apply one match at steiner node s with winner x, loser y.

    Works on the host's arrays or on list copies of them.  Returns the
    steiner node's parent q and the players' former host children a (of x)
    and b (of y).
    """
    q = par[s]
    a = left[x]
    b = left[y]
    if left[q] == s:
        left[q] = x
    else:
        right[q] = x
    par[x] = q
    left[x] = y
    par[y] = x
    if a != NONE:
        left[y] = a
        right[y] = b
        par[a] = y
    par[s] = DEAD
    left[s] = NONE
    right[s] = NONE
    return q, a, b


def match(host: HostTree, demand: DemandTree, s: int,
          tiebreak: str = "lex",
          keys: np.ndarray | None = None) -> MatchRewrite:
    """Apply the single match at steiner node ``s`` in place.

    Requires both children of ``s`` to be demand vertices already (matches
    fire bottom-up within a bracket).
    """
    if not host.is_live(s) or not host.is_steiner(s):
        raise TreeHostError(f"node {s} is not a live steiner node")
    xl, yr = int(host.left[s]), int(host.right[s])
    if xl == NONE or yr == NONE:
        raise InvariantViolation("(i) steiner-degree",
                                 f"steiner node {s} lacks two children")
    if host.is_steiner(xl) or host.is_steiner(yr):
        raise TreeHostError(
            f"match at {s} not ready: a child is still a steiner node")
    if keys is None:
        keys = match_keys(demand, tiebreak)
    if keys[xl] <= keys[yr]:
        x, y = xl, yr
    else:
        x, y = yr, xl
    _rewrite(host.parent, host.left, host.right, s, x, y)
    return MatchRewrite(s, x, y, demand.child_count(y))


def _check_after_match(par, left, right, host: HostTree, demand: DemandTree,
                       s: int, x: int, y: int, a: int, b: int, q: int) -> None:
    """Local invariant checks for the region touched by one rewrite.

    ``par``/``left``/``right`` are the sweep's working copies of the host.
    """
    if par[s] != DEAD:
        raise InvariantViolation("(i) steiner-degree",
                                 f"steiner {s} still live after its match")
    if par[x] != q or left[x] != y or right[x] != NONE:
        raise InvariantViolation("(iii) single-child",
                                 f"winner {x} not in expected post-match shape")
    expected = (a, b) if a != NONE else (b, NONE)
    if (left[y], right[y]) != expected:
        raise InvariantViolation("(iii) single-child",
                                 f"loser {y} did not inherit children {expected}")
    if q >= 0 and host.is_steiner(q):
        if left[q] == NONE or right[q] == NONE:
            raise InvariantViolation("(i) steiner-degree",
                                     f"parent steiner {q} lost a child")
        if demand.parent[x] != host.owner[q]:
            raise InvariantViolation(
                "(iii) bracket-membership",
                f"vertex {x} advanced into a bracket not owned by its parent")
    # Ancestry: the demand parent of every relocated vertex must still sit
    # above it.  Walks are short because the parent owns the local bracket.
    for v in (x, y, a, b):
        if v == NONE or host.is_steiner(v):
            continue
        target = demand.parent[v]
        if target == NONE:
            continue
        node = par[v]
        while node != NONE and node != target:
            node = par[node]
        if node != target:
            raise InvariantViolation(
                "(ii) ancestry", f"demand parent of {v} is no longer above it")


def _run_numpy(host: HostTree, demand: DemandTree,
               tiebreak: str) -> TournamentResult:
    """Vectorized elimination: replay every bracket analytically.

    The winner of a whole bracket is simply its key-minimal player, and each
    match outcome depends only on static keys, so the final links can be
    assembled layer by layer over all brackets at once.  Produces exactly the
    arrays and the ledger of the sequential sweep (verified by tests), in
    O(n) numpy work.
    """
    from .bracket import _bracket_slots

    n = demand.n
    off, flat = demand.child_off, demand.child_flat
    c = np.diff(off)
    keys = match_keys(demand, tiebreak)
    total = host.num_nodes()
    par = np.full(total, NONE, dtype=np.int64)
    left = np.full(total, NONE, dtype=np.int64)
    right = np.full(total, NONE, dtype=np.int64)
    if total > n:
        par[n:] = DEAD

    # key-minimal child of every vertex: its host child before it plays,
    # and the eventual winner of its own bracket
    base = np.full(n, NONE, dtype=np.int64)
    has = np.nonzero(c > 0)[0]
    if has.size:
        krank = np.empty(n, dtype=np.int64)
        krank[np.argsort(keys, kind="stable")] = np.arange(n, dtype=np.int64)
        combo = krank[flat] * n + flat
        winners = np.minimum.reduceat(combo, off[has]) % n
        base[has] = winners
        left[has] = winners
        par[winners] = has

    losers_arr = np.empty(0, dtype=np.int64)
    verts, rep, gs_entry, slot, cc, node, _bases = _bracket_slots(demand)
    if verts.size:
        current = node.copy()
        loser_at = np.full(node.size, NONE, dtype=np.int64)
        int_pos = np.nonzero(slot < cc)[0]
        sdepth = np.frexp(slot[int_pos].astype(np.float64))[1] - 1
        for d in range(int(sdepth.max()), -1, -1):
            pos = int_pos[sdepth == d]
            if not pos.size:
                continue
            pl = gs_entry[pos] + 2 * slot[pos] - 1
            pr = pl + 1
            wl = current[pl]
            wr = current[pr]
            takeleft = keys[wl] <= keys[wr]
            x = np.where(takeleft, wl, wr)
            y = np.where(takeleft, wr, wl)
            px = np.where(takeleft, pl, pr)
            py = np.where(takeleft, pr, pl)
            x_slot = 2 * slot[pos] + np.where(takeleft, 0, 1)
            y_slot = 2 * slot[pos] + np.where(takeleft, 1, 0)
            a = np.where(x_slot < cc[pos], loser_at[px], base[x])
            b = np.where(y_slot < cc[pos], loser_at[py], base[y])
            left[x] = y
            par[y] = x
            got_a = a != NONE
            ya = y[got_a]
            left[ya] = a[got_a]
            right[ya] = b[got_a]
            par[a[got_a]] = ya
            left[y[~got_a]] = b[~got_a]
            got_b = b != NONE
            par[b[got_b]] = y[got_b]
            current[pos] = x
            loser_at[pos] = y
        # ledger in the sweep's firing order: steiner ids grow with int_pos
        losers_arr = loser_at[int_pos[::-1]]

    host.parent = par
    host.left = left
    host.right = right
    return TournamentResult(host, losers_arr.tolist(), c[losers_arr].tolist())


def run_tournament(host: HostTree, demand: DemandTree, tiebreak: str = "lex",
                   debug: bool = False) -> TournamentResult:
    """Eliminate every steiner node of a phase-1 host tree, in place.

    Steiner ids are allocated bracket-by-bracket in heap order, so sweeping
    them in reverse id order fires every match only when both children are
    already vertices.  The win rule depends only on static child counts,
    hence any valid firing order yields this same tree.

    A fresh phase-1 host takes the vectorized replay.  ``debug=True``, or a
    host on which some matches were already played, takes the sequential
    sweep, the literal reference; with ``debug`` it checks every match.
    """
    n = host.n_vertices
    if not debug and not (host.parent[n:] == DEAD).any():
        return _run_numpy(host, demand, tiebreak)
    par = host.parent.tolist()
    left, right = host.left.tolist(), host.right.tolist()
    keys = match_keys(demand, tiebreak).tolist()
    counts = demand.child_counts()
    losers: list[int] = []
    charges: list[int] = []
    for s in range(len(par) - 1, n - 1, -1):
        if par[s] == DEAD:
            continue
        xl = left[s]
        yr = right[s]
        if debug:
            if xl == NONE or yr == NONE:
                raise InvariantViolation("(i) steiner-degree",
                                         f"steiner {s} lacks two children")
            if host.is_steiner(xl) or host.is_steiner(yr):
                raise TreeHostError(f"match at {s} fired before its children")
            if right[xl] != NONE or right[yr] != NONE:
                raise InvariantViolation("(iii) single-child",
                                         f"player below {s} has two children")
        if keys[xl] <= keys[yr]:
            x, y = xl, yr
        else:
            x, y = yr, xl
        q, a, b = _rewrite(par, left, right, s, x, y)
        losers.append(y)
        charges.append(counts[y])
        if debug:
            _check_after_match(par, left, right, host, demand, s, x, y, a, b, q)
    host.parent = np.asarray(par, dtype=np.int64)
    host.left = np.asarray(left, dtype=np.int64)
    host.right = np.asarray(right, dtype=np.int64)
    if debug:
        check_invariants(demand, host)
    return TournamentResult(host, losers, charges)


def _euler_intervals(host: HostTree) -> tuple[dict[int, int], dict[int, int]]:
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


def check_invariants(demand: DemandTree, host: HostTree) -> None:
    """Full structural check of invariants (i)-(iii) against the demand tree.

    Works on phase-1 output, any mid-tournament state, and the final tree
    (where the steiner clauses are vacuous).  Raises
    :class:`InvariantViolation` naming the violated invariant.
    """
    host.validate()
    n = demand.n
    left, right = host.left.tolist(), host.right.tolist()
    owner, dpar = host.owner.tolist(), demand.parent.tolist()
    for s in host.steiner_nodes():
        if left[s] == NONE or right[s] == NONE:
            raise InvariantViolation("(i) steiner-degree",
                                     f"steiner node {s} has < 2 children")
        u = owner[s]
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
    tin, tout = _euler_intervals(host)
    for v in range(n):
        u = dpar[v]
        if u == NONE:
            continue
        if not (tin[u] < tin[v] <= tout[u]):
            raise InvariantViolation(
                "(ii) ancestry",
                f"demand parent {u} of vertex {v} is not a host ancestor")
