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

``check_invariants`` verifies all three on a full tree, as array predicates
over the steiner nodes and over the demand edges: ancestry is read off the
ranked Euler tour of the host that ``HostTree.validate`` returns, the same
tour ``serialize`` writes in preorder.

``run_tournament`` plays the host it is given.  By default the replay reads
each steiner node's two children from the links and plays the matches one
depth below the brackets' vertices at a time, all brackets at once; it
knows nothing of the builder's heap layout.  ``debug=True`` runs the
sequential sweep, which checks the host before its first match and the
bracket each winner enters.  No match can break ancestry: the match at s
puts the winner x in s's place, the loser y under x and x's former child
under y, so host ancestors lose only s, which is never a demand parent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (NONE, DemandTree, HostTree, HostTreeError,
                    InvariantViolation, TreeHostError, UnknownVertexError)


def match_keys(demand: DemandTree, tiebreak: str = "lex") -> np.ndarray:
    """Single-integer match priority per vertex: child count, then tiebreak.

    "lex" ranks the labels by ``Labels.lex_rank``, which reads the rank a
    parsed tree's labels keep from the parser's sort; "id" keeps the input
    id order.  With default labels both coincide.
    """
    if tiebreak not in ("id", "lex"):
        raise ValueError(f"unknown tiebreak {tiebreak!r}")
    if tiebreak == "id" or demand.labels is None:
        rank = np.arange(demand.n, dtype=np.int64)
    else:
        rank = demand.labels.lex_rank()
    return np.diff(demand.child_off) * demand.n + rank


@dataclass
class TournamentResult:
    """Steiner-free host plus the charge ledger (one entry per match), as
    int64 arrays: the loser of each match and its charge."""

    host: HostTree
    losers: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    charges: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def total_charge(self) -> int:
        return int(np.sum(self.charges))


def _replay(host: HostTree, demand: DemandTree,
            tiebreak: str) -> TournamentResult:
    """Vectorized elimination: play every steiner node's match from the
    host's links, over all brackets at once.

    A match depends only on the static keys of its two players, the
    vertices that come up from its child slots, so the matches are played
    one depth below the brackets' vertices at a time, deepest first.  Then
    every link of the final host, n vertices long, is set at once from the
    winners and losers.  Produces exactly the arrays and the ledger of the
    sequential sweep (verified by tests), in O(n) numpy work per bracket
    depth.
    """
    n, total = demand.n, host.num_nodes()
    kid_l, kid_r = host.left[n:], host.right[n:]
    keys = match_keys(demand, tiebreak)
    # each steiner node's depth below its vertex, by pointer doubling over
    # the parents; index m is the sink above every bracket root
    m = total - n
    up = np.append(host.parent[n:] - n, m)
    up[up < 0] = m
    depth = np.ones(m + 1, dtype=np.int64)
    depth[m] = 0
    for _ in range(m.bit_length() + 1):
        if (up == m).all():
            break
        depth += depth[up]
        up = up[up]
    else:
        raise HostTreeError("steiner nodes on a parent cycle")
    del up
    # the player that comes up from each node: a vertex is its own, a
    # steiner node's is the winner of its match; index -1 reads NONE
    champ = np.append(np.arange(total, dtype=np.int64), NONE)
    champ[n:total] = NONE
    for d in range(int(depth.max()), 0, -1):
        i = np.flatnonzero(depth[:m] == d)
        pl, pr = champ[kid_l[i]], champ[kid_r[i]]
        early = (pl == NONE) | (pr == NONE)
        if early.any():
            raise TreeHostError(
                f"match at {n + i[early.argmax()]} fired before its children")
        champ[n + i] = np.where(keys[pl] <= keys[pr], pl, pr)
    del keys

    # each working array is freed once last read, to lower the peak
    winner = champ[n:total]
    pl, pr = champ[kid_l], champ[kid_r]
    takeleft = winner == pl
    loser = np.where(takeleft, pr, pl)
    top = depth[:m] == 1
    top_winner, top_loser = winner[top], loser[top]
    del pl, pr, depth, winner, top
    # a player's host child before it plays: the loser of its last match,
    # or the winner of its own bracket, or its single child
    held = np.concatenate([champ[host.left[:n]], loser, [NONE]])
    del champ
    a = held[np.where(takeleft, kid_l, kid_r)]
    b = held[np.where(takeleft, kid_r, kid_l)]
    left = held[:n].copy()
    del takeleft, held
    right = np.full(n, NONE, dtype=np.int64)
    # the loser inherits the winner's former child next to its own; the
    # winner of a whole bracket keeps the loser of its last match
    got_a = a != NONE
    left[loser] = np.where(got_a, a, b)
    right[loser] = np.where(got_a, b, NONE)
    del a, b, got_a
    left[top_winner] = top_loser
    par = np.full(n, NONE, dtype=np.int64)
    for side in (left, right):
        has = np.flatnonzero(side >= 0)
        par[side[has]] = has

    host.parent, host.left, host.right = par, left, right
    host.owner = host.owner[:0]
    losers = loser[::-1].copy()  # the sweep's order: descending steiner ids
    return TournamentResult(host, losers, np.diff(demand.child_off)[losers])


def run_tournament(host: HostTree, demand: DemandTree, tiebreak: str = "lex",
                   debug: bool = False) -> TournamentResult:
    """Eliminate every steiner node of a fresh phase-1 host tree, in place:
    each played match removes its steiner node, so the host ends with its
    n vertices alone and no owner entry.

    By default this is the vectorized replay, which plays the matches that
    the links lay out, deepest first.  ``debug=True`` runs the sequential
    sweep instead, the literal reference, which runs ``check_invariants``
    before and after its matches and checks at each that the winner enters
    its demand parent's bracket; no match can break ancestry.  Steiner
    ids are allocated bracket-by-bracket in heap order, so sweeping them in
    reverse id order fires every match only when both children are already
    vertices, and the match at s removes the last node.  The win rule
    depends only on static child counts, hence any valid firing order
    yields this same tree.

    A host in which some vertex has a right child is refused: phase 1
    never makes one, every match whose winner had a child gives its loser
    one, and a played host without one replays to the tree a fresh run
    makes.  Then both paths refuse the highest-id steiner node without two
    children, the first the sweep would meet.
    """
    n = host.n_vertices
    two = np.flatnonzero(host.right[:n] != NONE)
    if two.size:
        raise TreeHostError("tournament needs a fresh phase-1 host; some "
                            "matches were already played: vertex "
                            f"{two[0]} has two children")
    bad = np.flatnonzero((host.left[n:] < 0) | (host.right[n:] < 0))
    if bad.size:
        raise InvariantViolation("(i) steiner-degree",
                                 f"steiner {n + bad[-1]} lacks two children")
    if not debug:
        return _replay(host, demand, tiebreak)
    check_invariants(demand, host)
    par = host.parent.tolist()
    left, right = host.left.tolist(), host.right.tolist()
    keys = match_keys(demand, tiebreak).tolist()
    counts = demand.child_counts()
    losers: list[int] = []
    charges: list[int] = []
    for s in range(len(par) - 1, n - 1, -1):
        xl = left[s]
        yr = right[s]
        if xl >= n or yr >= n:
            raise TreeHostError(f"match at {s} fired before its children")
        if keys[xl] <= keys[yr]:
            x, y = xl, yr
        else:
            x, y = yr, xl
        # the winner x takes s's place and keeps the loser y as its one
        # child; y inherits x's former child a next to its own b
        q = par[s]
        if q >= n and demand.parent[x] != host.owner[q - n]:
            raise InvariantViolation(
                "(iii) bracket-membership",
                f"vertex {x} advanced into a bracket not owned by its parent")
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
        del par[s], left[s], right[s]
        losers.append(y)
        charges.append(counts[y])
    host.parent = np.asarray(par, dtype=np.int64)
    host.left = np.asarray(left, dtype=np.int64)
    host.right = np.asarray(right, dtype=np.int64)
    host.owner = host.owner[:0]
    check_invariants(demand, host)
    return TournamentResult(host, np.asarray(losers, dtype=np.int64),
                            np.asarray(charges, dtype=np.int64))


# check_invariants' clauses at a steiner node s owned by u, in the order
# checked; the last two are checked for its left, then its right child ch
_STEINER_CLAUSES = [
    ("(i) steiner-degree", "steiner node {s} has < 2 children"),
    ("(iii) bracket-membership", "steiner node {s} has no owner vertex"),
    ("(iii) bracket-membership",
     "vertex {ch} sits in the bracket of {u}, not of its parent"),
    ("(iii) single-child", "vertex {ch} under a steiner node has two children"),
]


def check_invariants(demand: DemandTree, host: HostTree) -> None:
    """Full structural check of invariants (i)-(iii) against the demand tree.

    Works on phase-1 output, any mid-tournament state (the steiner nodes
    of the played matches removed), and the final tree (where the steiner
    clauses are vacuous).  Raises :class:`InvariantViolation` naming the
    violated invariant, and :class:`UnknownVertexError` if the host's
    vertex set is not the demand's.  Each check is a mask: over the steiner nodes, (i) and (iii) name the
    first bad one; over the vertices, (ii) names the first whose demand
    parent's tour interval does not hold its own.
    """
    n = demand.n
    if host.n_vertices != n:
        raise UnknownVertexError(
            f"host covers {host.n_vertices} vertices, demand has {n}")
    enter, leave = host.validate()
    dpar = demand.parent
    owner = host.owner
    kids = (host.left[n:], host.right[n:])
    faults = [(kids[0] == NONE) | (kids[1] == NONE), owner == NONE]
    for ch in kids:  # each vertex child: its bracket, then its children
        at = np.where((ch >= 0) & (ch < n), ch, -1)
        faults += [(at >= 0) & (dpar[at] != owner),
                   (at >= 0) & (host.right[at] != NONE)]
    faults = np.stack(faults)
    bad = faults.any(axis=0)
    if bad.any():
        k = int(bad.argmax())
        which = int(faults[:, k].argmax())
        code, text = _STEINER_CLAUSES[min(which, 2 + which % 2)]
        raise InvariantViolation(code, text.format(
            s=n + k, u=owner[k], ch=kids[which // 2 - 1][k]))
    v = np.flatnonzero(dpar != NONE)
    u = dpar[v]
    bad = (enter[v] <= enter[u]) | (leave[u] <= leave[v])
    if bad.any():
        k = int(bad.argmax())
        raise InvariantViolation(
            "(ii) ancestry",
            f"demand parent {u[k]} of vertex {v[k]} is not a host ancestor")
