import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehost import (DemandTree, HostTree, HostTreeError, InvariantViolation,
                      TreeHostError, check_invariants, evaluate, gen,
                      lb_instance, match_keys, parse_edge_list, root_at,
                      run_bracket_builder, run_tournament, serialize)
from treehost.generate import prufer_edges
from treehost.model import _SPACE_CHARS, NONE, Labels

import helpers
from helpers import FIG_FINAL_PARENTS


def test_fig_tournament_reproduces_figure(fig_demand):
    h = run_bracket_builder(fig_demand)
    before = evaluate(fig_demand, h).total
    res = run_tournament(h, fig_demand, tiebreak="lex", debug=True)
    assert h.steiner_count() == 0
    assert h.num_nodes() == 14 and len(h.owner) == 0
    assert helpers.parent_map(h) == FIG_FINAL_PARENTS
    after = evaluate(fig_demand, h).total
    assert (before, after) == (33, 27)
    assert after - before <= 13  # may be negative; bounded above by n-1
    assert len(set(res.losers)) == len(res.losers)
    assert res.total_charge == 9


def test_match_single_rewrite_semantics():
    # two leaf players, no subtrees: tie, lexicographically smaller label wins
    d = root_at(parse_edge_list("u 1\nu 2"), 0)
    h = run_bracket_builder(d)
    s = h.left[0]
    assert h.is_steiner(s)
    res = run_tournament(h, d, debug=True)
    assert (res.losers, res.charges) == ([2], [0])
    assert h.left[0] == 1 and h.parent[1] == 0
    assert h.left[1] == 2 and h.right[1] == -1
    assert h.left[2] == -1 and h.right[2] == -1
    assert h.num_nodes() == s and len(h.owner) == 0  # s is removed


def test_match_loser_inherits_winner_subtree():
    # u with children a (1 child) and b (3 children): a wins, b inherits a's
    # child p next to the winner q of its own bracket (q < r < s)
    text = "u a\nu b\na p\nb q\nb r\nb s"
    d = root_at(parse_edge_list(text), 0)
    ids = {d.label(v): v for v in range(d.n)}
    h = run_bracket_builder(d)
    assert h.left[ids["a"]] == ids["p"]
    res = run_tournament(h, d, debug=True)
    ledger = dict(zip(res.losers, res.charges))
    assert ledger[ids["b"]] == 3
    assert h.left[ids["u"]] == ids["a"] and h.right[ids["u"]] == -1
    assert h.left[ids["a"]] == ids["b"] and h.right[ids["a"]] == -1
    assert helpers.host_children(h, ids["b"]) == [ids["p"], ids["q"]]
    assert h.parent[ids["p"]] == ids["b"]


def _play_all(h, d, tiebreak="lex"):
    """Step the reference rule through every match in sweep order."""
    keys = match_keys(d, tiebreak)
    return [helpers.play_match(h, d, s, keys)
            for s in range(h.num_nodes() - 1, d.n - 1, -1)]


def test_run_tournament_equals_stepwise_match(rng):
    for _ in range(25):
        n = rng.randint(2, 60)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h_step = run_bracket_builder(d)
        played = _play_all(h_step, d)
        for debug in (False, True):
            h = run_bracket_builder(d)
            res = run_tournament(h, d, debug=debug)
            assert np.array_equal(h_step.parent, h.parent)
            assert np.array_equal(h_step.left, h.left)
            assert np.array_equal(h_step.right, h.right)
            assert [(y, c) for _, y, c in played] == list(
                zip(res.losers, res.charges))


# Label forms: numeric, leading-zero ("01" ties "1" as an integer),
# alphanumeric, and with non-ASCII digits ("²", "١"), which rank as text.
_LABEL_FORMS = (str, "0{}".format, "v{}".format, "{}²".format, "١{}".format)


@st.composite
def _labelled_edge_lists(draw):
    """Edge-list text of a tree drawn from its Prüfer sequence, with
    distinct labels of mixed forms, shuffled edges and flipped pairs."""
    n = draw(st.integers(2, 200))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2,
                        max_size=n - 2))
    rnd = draw(st.randoms(use_true_random=False))
    # (form, number) pairs are distinct, and so are the labels they spell
    names = [_LABEL_FORMS[c // n](c % n)
             for c in rnd.sample(range(len(_LABEL_FORMS) * n), n)]
    edges = prufer_edges(seq, n)
    rnd.shuffle(edges)
    return "".join(f"{names[u]} {names[v]}\n"
                   for u, v in (e if rnd.random() < 0.5 else e[::-1]
                                for e in edges))


@settings(database=None, derandomize=True, deadline=None)
@given(_labelled_edge_lists())
def test_replay_sweep_and_stepped_rule_agree(text):
    d = root_at(parse_edge_list(text), 0)
    for tiebreak in ("lex", "id"):
        h_step = run_bracket_builder(d)
        played = [(y, c) for _, y, c in _play_all(h_step, d, tiebreak)]
        for debug in (False, True):
            h = run_bracket_builder(d)
            res = run_tournament(h, d, tiebreak, debug=debug)
            assert np.array_equal(h.parent, h_step.parent)
            assert np.array_equal(h.left, h_step.left)
            assert np.array_equal(h.right, h_step.right)
            assert list(zip(res.losers, res.charges)) == played


def test_vectorized_tournament_equals_sweep(rng):
    """The analytic (numpy) elimination must reproduce the in-place sweep,
    host arrays and ledger alike."""
    cases = [gen("path", 2), gen("path", 12), gen("star", 9),
             gen("caterpillar", 31), gen("complete_binary", 33)]
    for _ in range(60):
        n = rng.randint(2, 350)
        kind = rng.choice(("random", "star", "caterpillar"))
        cases.append(gen(kind, n, seed=rng.randrange(2 ** 30)))
    for tiebreak in ("lex", "id"):
        for d in cases:
            h_ref = run_bracket_builder(d)
            ref = run_tournament(h_ref, d, tiebreak, debug=True)
            h_vec = run_bracket_builder(d)
            vec = run_tournament(h_vec, d, tiebreak)
            assert np.array_equal(h_vec.parent, h_ref.parent)
            assert np.array_equal(h_vec.left, h_ref.left)
            assert np.array_equal(h_vec.right, h_ref.right)
            assert vec.losers.tolist() == ref.losers.tolist()
            assert vec.charges.tolist() == ref.charges.tolist()


def _reshaped_phase1(d, rnd):
    """A phase-1 host of ``d`` whose vertices are shuffled among the leaf
    slots of their own bracket, with mirrored parents: still a valid
    phase-1 host, but not the builder's layout."""
    h = run_bracket_builder(d)
    slots = [(s, side) for s in helpers.steiner_nodes(h)
             for side in (h.left, h.right) if side[s] < d.n]
    for v in range(d.n):
        mine = [(s, side) for s, side in slots if h.owner[s - d.n] == v]
        players = [side[s] for s, side in mine]
        rnd.shuffle(players)
        for (s, side), w in zip(mine, players):
            side[s] = w
            h.parent[w] = s
    check_invariants(d, h)
    return h


@pytest.mark.parametrize("tiebreak", ["lex", "id"])
@pytest.mark.parametrize("kind", ["star", "random", "caterpillar"])
def test_replay_plays_the_host_it_is_given(kind, tiebreak):
    for seed in range(5):
        d = gen(kind, 300, seed=seed)
        h_ref = _reshaped_phase1(d, random.Random(seed))
        h_vec = helpers.copy_host(h_ref)
        ref = run_tournament(h_ref, d, tiebreak, debug=True)
        vec = run_tournament(h_vec, d, tiebreak)
        assert np.array_equal(h_vec.parent, h_ref.parent)
        assert np.array_equal(h_vec.left, h_ref.left)
        assert np.array_equal(h_vec.right, h_ref.right)
        assert vec.losers.tolist() == ref.losers.tolist()
        assert vec.charges.tolist() == ref.charges.tolist()


@pytest.mark.parametrize("debug", [False, True])
def test_steiner_node_missing_a_child_is_refused(fig_demand, debug):
    h = run_bracket_builder(fig_demand)
    s = helpers.steiner_nodes(h)[0]
    h.parent[h.right[s]] = NONE
    h.right[s] = NONE
    with pytest.raises(InvariantViolation, match=f"steiner {s} ") as err:
        run_tournament(h, fig_demand, debug=debug)
    assert err.value.code == "(i) steiner-degree"


@pytest.mark.parametrize("debug", [False, True])
def test_both_paths_name_the_highest_steiner_node_missing_a_child(fig_demand,
                                                                  debug):
    h = run_bracket_builder(fig_demand)
    steiner = helpers.steiner_nodes(h)
    for s in (steiner[0], steiner[-1]):
        h.parent[h.right[s]] = NONE
        h.right[s] = NONE
    with pytest.raises(InvariantViolation,
                       match=f"steiner {steiner[-1]} lacks"):
        run_tournament(h, fig_demand, debug=debug)


def test_sweep_refuses_a_winner_advancing_into_a_foreign_bracket():
    """Steiner 9, the root of vertex 0's bracket, re-owned by vertex 1: it
    has no vertex child, so the host passes ``check_invariants``, and the
    sweep refuses the first winner that advances into it."""
    d = root_at(parse_edge_list("0 1\n0 2\n0 3\n0 4\n1 5\n1 6\n2 7\n2 8"), 0)
    h = run_bracket_builder(d)
    assert h.left[0] == 9
    h.owner[0] = 1
    check_invariants(d, h)
    with pytest.raises(InvariantViolation, match="vertex 3 advanced into a "
                       "bracket not owned by its parent") as err:
        run_tournament(h, d, debug=True)
    assert err.value.code == "(iii) bracket-membership"


def test_sweep_refuses_a_host_that_a_match_would_mend():
    """Vertex 3 sits in steiner 5, vertex 0's bracket, though its demand
    parent is 1.  Played, 1 beats 3 on id and ends above it, and the final
    host passes every check; the sweep refuses the host before any match."""
    d = root_at(parse_edge_list("0 1\n0 2\n1 3\n3 4"), 0)
    h = HostTree(5, 0, [NONE, 5, 1, 5, 3, 0], [5, 2, NONE, 4, NONE, 1],
                 [NONE] * 5 + [3], [0])
    with pytest.raises(InvariantViolation, match="vertex 3 sits in the "
                       "bracket of 0, not of its parent") as err:
        run_tournament(h, d, tiebreak="id", debug=True)
    assert err.value.code == "(iii) bracket-membership"


def test_sweep_refuses_a_match_that_fires_before_its_children():
    """The phase-1 host of a 5-star with steiner ids 5 and 6 swapped: the
    bracket root 6 now has a higher id than its steiner child 5, yet the
    host passes ``check_invariants`` and the replay, which orders matches
    by depth, plays it to a fresh run's host.  The sweep, which fires the
    matches in reverse id order, meets 6 while its child 5 is unplayed."""
    d = gen("star", 5)
    owner = run_bracket_builder(d).owner

    def swapped():
        return HostTree(5, 0, [NONE, 5, 5, 7, 7, 6, 0, 6],
                        [6, NONE, NONE, NONE, NONE, 1, 5, 3],
                        [NONE] * 5 + [2, 7, 4], owner.copy())

    check_invariants(d, swapped())
    assert (serialize(run_tournament(swapped(), d).host)
            == "0:0\n1:0\n3:1\n2:3\n4:3\n")
    with pytest.raises(TreeHostError,
                       match="match at 6 fired before its children"):
        run_tournament(swapped(), d, debug=True)


def test_replay_refuses_steiner_parents_it_cannot_order():
    """The replay orders the matches by the steiner nodes' parents: a
    steiner child whose parent is a vertex would play after its parent's
    match, and steiner nodes on a parent cycle have no depth."""
    d = gen("star", 9)
    h = run_bracket_builder(d)
    root = h.left[0]
    h.parent[h.left[root]] = 0
    with pytest.raises(TreeHostError,
                       match=f"match at {root} fired before its children"):
        run_tournament(h, d)
    h = run_bracket_builder(d)
    h.parent[root] = h.left[root]
    with pytest.raises(HostTreeError, match="parent cycle"):
        run_tournament(h, d)


def test_invariants_hold_after_every_match(rng):
    """Full structural re-check after each individual rewrite (small n)."""
    for _ in range(25):
        n = rng.randint(3, 40)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h = run_bracket_builder(d)
        keys = match_keys(d)
        for s in range(h.num_nodes() - 1, n - 1, -1):
            helpers.play_match(h, d, s, keys)
            check_invariants(d, h)


def test_per_match_cost_delta_bounded(rng):
    for _ in range(20):
        n = rng.randint(3, 28)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h = run_bracket_builder(d)
        keys = match_keys(d)
        cost = helpers.bfs_cost(d, h)[0]
        for s in range(h.num_nodes() - 1, n - 1, -1):
            winner, _, charge = helpers.play_match(h, d, s, keys)
            new_cost = helpers.bfs_cost(d, h)[0]
            delta = new_cost - cost
            assert delta <= helpers.child_count(d, winner) <= charge
            cost = new_cost


def test_elimination_cost_bound_and_single_charge(rng):
    cases = []
    for _ in range(250):
        n = rng.randint(2, 120)
        cases.append(gen("random", n, seed=rng.randrange(2 ** 30)))
    cases += [gen("complete_binary", n) for n in (7, 31, 127, 255)]
    for d in cases:
        n = d.n
        h = run_bracket_builder(d)
        before = evaluate(d, h).total
        res = run_tournament(h, d, debug=True)
        after = evaluate(d, h).total
        assert after - before <= n - 1
        assert len(set(res.losers)) == len(res.losers)
        assert after - before <= res.total_charge


def test_individual_matches_can_raise_cost():
    """Deep matches of a complete binary demand pit two 2-child players
    against each other; the winner's advance costs +1, within its charge."""
    d = gen("complete_binary", 15)
    h = run_bracket_builder(d)
    keys = match_keys(d)
    cost = helpers.bfs_cost(d, h)[0]
    deltas = []
    for s in range(h.num_nodes() - 1, d.n - 1, -1):
        winner, _, charge = helpers.play_match(h, d, s, keys)
        new_cost = helpers.bfs_cost(d, h)[0]
        deltas.append(new_cost - cost)
        assert new_cost - cost <= helpers.child_count(d, winner) <= charge
        cost = new_cost
    assert max(deltas) == 1
    assert sum(deltas) <= d.n - 1


def test_final_tree_shape_properties(rng):
    for _ in range(40):
        n = rng.randint(2, 150)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h = run_bracket_builder(d)
        run_tournament(h, d)
        h.validate()
        assert h.steiner_count() == 0
        assert h.num_nodes() == n and len(h.owner) == 0
        assert helpers.max_degree(h) <= 3
        assert len(helpers.host_children(h, h.root)) <= 1
        check_invariants(d, h)  # ancestry still holds; steiner clauses vacuous
        assert evaluate(d, h).total <= 3 * lb_instance(d) + (n - 1)


@pytest.mark.parametrize("debug", [False, True])
def test_played_host_is_refused(debug):
    d = gen("random", 30, seed=3)
    h = run_bracket_builder(d)
    run_tournament(h, d)
    with pytest.raises(TreeHostError, match="already played"):
        run_tournament(h, d, debug=debug)


@pytest.mark.parametrize("debug", [False, True])
def test_host_with_a_vertex_of_two_children_is_refused(debug):
    """A caterpillar's phase-1 host with vertex 13 re-hung as vertex 0's
    right child is one valid binary tree, but not a phase-1 host: both
    paths refuse it, where the replay once returned a broken host."""
    d = gen("caterpillar", 14, seed=0)
    h = run_bracket_builder(d)
    p = h.parent[13]
    (h.left if h.left[p] == 13 else h.right)[p] = NONE
    h.right[0], h.parent[13] = 13, 0
    h.validate()
    with pytest.raises(TreeHostError, match="already played: vertex 0 has "
                       "two children"):
        run_tournament(h, d, debug=debug)


def test_played_prefixes_are_refused_or_finish_as_a_fresh_run():
    """After every prefix of the matches in sweep order, either a vertex
    has two children and both paths refuse the host, or both finish it to
    the fresh run's host and the rest of its ledger."""
    cases = [gen(kind, n, seed=seed) for kind in ("random", "caterpillar")
             for n in (5, 17, 40) for seed in range(4)]
    cases += [gen("star", 9), gen("complete_binary", 31)]
    outcomes = set()
    for d in cases:
        fresh = run_bracket_builder(d)
        ledger = run_tournament(helpers.copy_host(fresh), d).losers.tolist()
        run_tournament(fresh, d)
        stepped = run_bracket_builder(d)
        keys = match_keys(d)
        for k, s in enumerate(range(stepped.num_nodes() - 1, d.n - 1, -1)):
            helpers.play_match(stepped, d, s, keys)
            for debug in (False, True):
                h = helpers.copy_host(stepped)
                try:
                    res = run_tournament(h, d, debug=debug)
                except TreeHostError as e:
                    assert "already played" in str(e)
                    outcomes.add("refused")
                    continue
                outcomes.add("finished")
                assert serialize(h) == serialize(fresh)
                assert res.losers.tolist() == ledger[k + 1:]
    assert outcomes == {"refused", "finished"}


def test_path_tournament_is_noop():
    d = gen("path", 30)
    h = run_bracket_builder(d)
    res = run_tournament(h, d)
    assert res.losers.tolist() == []
    assert evaluate(d, h).total == 29


def test_tiebreak_modes_differ_on_reordered_labels():
    # children appear as c,b in input order but b < c lexicographically
    d = root_at(parse_edge_list("a c\na b"), 0)
    ids = {d.label(v): v for v in range(d.n)}
    h_lex = run_bracket_builder(d)
    run_tournament(h_lex, d, tiebreak="lex")
    assert h_lex.left[ids["a"]] == ids["b"]
    h_id = run_bracket_builder(d)
    run_tournament(h_id, d, tiebreak="id")
    assert h_id.left[ids["a"]] == ids["c"]


def _violating_hosts(fig_demand):
    # (i): collapse one steiner match by hand, leaving the steiner in place
    # with a single child (structure stays a valid binary tree)
    h1 = run_bracket_builder(fig_demand)
    s = next(s for s in helpers.steiner_nodes(h1)
             if not h1.is_steiner(h1.left[s]) and not h1.is_steiner(h1.right[s])
             and h1.left[h1.left[s]] == -1 and h1.left[h1.right[s]] == -1)
    a, b = h1.left[s], h1.right[s]
    h1.right[s] = -1
    h1.left[a] = b
    h1.parent[b] = a
    yield "(i)", h1

    # (ii): hoist leaf "5" (demand child of v) above the root bracket,
    # so its demand parent is no longer an ancestor
    h2 = run_bracket_builder(fig_demand)
    v5 = 8
    h2.left[2] = -1          # detach from v
    top = h2.left[0]
    h2.left[0] = v5
    h2.parent[v5] = 0
    h2.left[v5] = top
    h2.parent[top] = v5
    yield "(ii)", h2

    # (iii): move leaf "5" under x, giving a steiner child two host children
    h3 = run_bracket_builder(fig_demand)
    v_x = 11
    h3.left[2] = -1
    h3.right[v_x] = 8
    h3.parent[8] = v_x
    yield "(iii)", h3


def test_checker_names_violated_invariant(fig_demand):
    for code, host in _violating_hosts(fig_demand):
        with pytest.raises(InvariantViolation) as err:
            check_invariants(fig_demand, host)
        assert err.value.code.startswith(code)


@st.composite
def _damaged_arrays(draw):
    """A demand tree and its phase-1, part-played or final host, with up
    to four entries of its arrays or its root overwritten, nodes re-hung
    with mirrored links, or a node's children swapped."""
    d = gen(draw(st.sampled_from(["random", "star", "path", "caterpillar",
                                  "complete_binary"])),
            draw(st.integers(1, 12)), seed=draw(st.integers(0, 99)))
    host = run_bracket_builder(d)
    steiner = range(host.num_nodes() - 1, d.n - 1, -1)
    keys = match_keys(d)
    for s in steiner[:draw(st.integers(0, len(steiner)))]:
        helpers.play_match(host, d, s, keys)
    size = host.num_nodes()
    node = st.sampled_from(range(size))
    for op in draw(st.lists(st.integers(0, 7), max_size=4)):
        if op < 3:
            array = getattr(host, draw(st.sampled_from(
                ["parent", "left", "right", "owner"])))
            if len(array):
                at = draw(st.integers(0, len(array) - 1))
                array[at] = draw(st.integers(-3, size + 1))
        elif op == 3:
            host.root = draw(st.integers(-1, size))
        elif op < 7:  # x moves under p, into p's first free slot or right
            x, p = draw(node), draw(node)
            if x == host.root:
                continue
            q = host.parent[x]
            for side in (host.left, host.right):
                if 0 <= q < size and side[q] == x:
                    side[q] = NONE
            host.parent[x] = p
            (host.left if host.left[p] == NONE else host.right)[p] = x
        else:
            v = draw(node)
            host.left[v], host.right[v] = host.right[v], host.left[v]
    return d, host


def _outcome(check, *args):
    """The type and message of what ``check`` raises, or None; the
    references can also crash with IndexError or KeyError."""
    try:
        check(*args)
    except (TreeHostError, IndexError, KeyError) as e:
        return type(e), str(e)
    return None


def _outside_or_twice(host) -> bool:
    """Whether a node has a child id outside [-1, size) or lists one child
    twice: the hosts that the reference checkers crash on or pass."""
    left, right = host.left, host.right
    size = len(host.parent)
    return bool(((left < NONE) | (left >= size) | (right < NONE)
                 | (right >= size) | ((left != NONE) & (left == right))).any())


def _entered_just_after(host, message: str) -> bool:
    """Whether ``message`` names a vertex v and a demand parent u such that
    the tour enters v just after it leaves u's subtree: the pair that the
    reference's ancestry test ``tin[v] <= tout[u]`` lets pass."""
    named = re.search(r"demand parent (\d+) of vertex (\d+) is not", message)
    tin, tout = helpers.reference_euler_intervals(host)
    return bool(named) and tin[int(named[2])] == tout[int(named[1])]


@settings(database=None, derandomize=True, deadline=None, max_examples=2000)
@given(_damaged_arrays())
def test_tour_checks_match_the_reference_checkers(case):
    """``validate`` and ``check_invariants`` name the same first fault as
    the node-by-node checkers, with two kinds of exception.  Where a node
    links outside the nodes or lists one child twice, they raise a
    ``HostTreeError`` of their own, and the references crash, pass or name
    a later fault.  Where a vertex is entered just after its demand
    parent's subtree, they name it, and the reference does not."""
    d, host = case
    for new, ref, args in (
            (HostTree.validate, helpers.reference_validate, (host,)),
            (check_invariants, helpers.reference_check_invariants, (d, host))):
        got, want = _outcome(new, *args), _outcome(ref, *args)
        assert got is None or issubclass(got[0], TreeHostError)
        if got == want:
            continue
        if _outside_or_twice(host):
            assert got[0] is HostTreeError
            assert re.fullmatch(r"child link \d+->-?\d+ not mirrored|"
                                r"node \d+ lists child \d+ twice", got[1])
        else:
            assert got[0] is InvariantViolation
            assert _entered_just_after(host, got[1])


def test_check_invariants_refuses_a_vertex_entered_after_its_parent():
    """Host 0(1, 2) for the path 0-1-2: vertex 2 is entered just after its
    demand parent 1 is left, which an off-by-one interval test accepts."""
    d = root_at(parse_edge_list("0 1\n1 2"), 0)
    host = HostTree(3, 0, [NONE, 0, 0], [1, NONE, NONE], [2, NONE, NONE], [])
    with pytest.raises(InvariantViolation, match="demand parent 1 of vertex "
                       "2 is not a host ancestor"):
        check_invariants(d, host)


_RANK_LABELS = st.one_of(
    st.integers(0, 10 ** 30).map(str),
    # leading zeros: "007" has the value of "7" and ties break by id
    st.tuples(st.integers(1, 3), st.integers(0, 999)).map(
        lambda t: "0" * t[0] + str(t[1])),
    # around 2**63 and 2**64, where int64 would overflow
    st.integers(2 ** 63 - 3, 2 ** 64 + 3).map(str),
    st.sampled_from(["7", "007", "0", "00", "7\x00", "\x00", "a", "a\x00",
                     "²", "١", "١٢", "7²", "k7"]),
    st.text(min_size=1, max_size=4),
    # 18-21 digits, and more than 4300, apart only in the last word
    st.tuples(st.integers(0, 3), st.integers(10 ** 17, 10 ** 21 - 1)).map(
        lambda t: "0" * t[0] + str(t[1])),
    st.tuples(st.integers(0, 2), st.sampled_from([4299, 4300, 4308]),
              st.integers(0, 99)).map(
        lambda t: "0" * t[0] + "9" * t[1] + f"{t[2]:02d}"),
    # 8, 9, 16 and 17 code units: equal in the first word (8 one-byte,
    # four two-byte or two four-byte units), apart after it
    st.tuples(st.sampled_from(["abcdefgh", "abcdefghabcdefgh", "éé", "中文",
                               "中文中文", "😀😀", "12345678",
                               "1234567812345678"]),
              st.text(alphabet="ab0\x00é", max_size=3)).map("".join),
)


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_RANK_LABELS, min_size=1, max_size=60, unique=True))
@helpers.examples([list(dict.fromkeys(text.split()))
                   for text in helpers.LABEL_TEXTS])
def test_lex_rank_matches_the_key_function_sort(labels):
    assert np.array_equal(Labels.of(labels).lex_rank(),
                          helpers.reference_label_rank(labels))


# _RANK_LABELS as edge-list tokens: no whitespace and no "#"
_TOKENS = _RANK_LABELS.map(lambda label: "".join(
    "x" if c in _SPACE_CHARS or c == "#" else c for c in label))
# numerals apart only in leading zeros, and labels apart only in trailing
# NULs, in every order of first appearance
_FIRST_APPEARANCES = [
    list(p) for group in (["7", "07", "007"], ["0", "00", "000"],
                          ["a", "a\x00", "a\x00\x00"])
    for p in itertools.permutations(group)]


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(st.tuples(st.lists(_TOKENS, min_size=2, max_size=40, unique=True),
                 st.integers(0, 2 ** 32)))
@helpers.examples([(labels + ["x" * 17, "1" * 19], seed)
                   for seed, labels in enumerate(_FIRST_APPEARANCES)])
def test_parsed_labels_carry_their_lex_rank(case):
    """The parser's one sort of the tokens leaves the labels' ``lex`` rank
    with them, and ``match_keys`` reads the same keys off it as off the
    labels given as a list."""
    labels, seed = case
    rnd = random.Random(seed)
    lines = []
    for i in range(1, len(labels)):
        pair = [labels[rnd.randrange(i)], labels[i]]
        if i > 1:  # an earlier label first or second: the same ids
            rnd.shuffle(pair)
        lines.append(" ".join(pair))
    tree = parse_edge_list("\n".join(lines))
    assert helpers.label_list(tree.labels) == labels
    assert tree.labels.rank is not None
    assert np.array_equal(tree.labels.lex_rank(),
                          helpers.reference_label_rank(labels))
    demand = root_at(tree, seed % len(labels))
    listed = DemandTree(demand.n, demand.root, demand.parent,
                        demand.child_off, demand.child_flat, labels)
    assert listed.labels.rank is None
    assert np.array_equal(match_keys(demand, "lex"),
                          match_keys(listed, "lex"))
