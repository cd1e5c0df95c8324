import numpy as np
import pytest

from treehost import (InvariantViolation, TreeHostError, check_invariants,
                      evaluate, gen, lb_instance, match, parse_edge_list,
                      root_at, run_bracket_builder, run_tournament)

import helpers
from helpers import FIG_FINAL_PARENTS


def test_fig_tournament_reproduces_figure(fig_demand):
    h = run_bracket_builder(fig_demand)
    before = evaluate(fig_demand, h).total
    res = run_tournament(h, fig_demand, tiebreak="lex", debug=True)
    assert h.steiner_count() == 0
    assert sorted(h.live_nodes()) == list(range(14))
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
    rec = match(h, d, s)
    assert (rec.winner, rec.loser, rec.charge) == (1, 2, 0)
    assert h.left[0] == 1 and h.parent[1] == 0
    assert h.left[1] == 2 and h.right[1] == -1
    assert h.left[2] == -1 and h.right[2] == -1
    assert not h.is_live(s)


def test_match_loser_inherits_winner_subtree():
    # u with children a (1 child) and b (3 children): a wins, b inherits
    text = "u a\nu b\na p\nb q\nb r\nb s"
    d = root_at(parse_edge_list(text), 0)
    ids = {d.label(v): v for v in range(d.n)}
    h = run_bracket_builder(d)
    s = h.left[ids["u"]]
    a_child = h.left[ids["a"]]
    b_child = h.left[ids["b"]]
    rec = match(h, d, s)
    assert rec.winner == ids["a"] and rec.loser == ids["b"]
    assert rec.charge == 3
    assert h.left[ids["a"]] == ids["b"]
    assert set(h.children(ids["b"])) == {a_child, b_child}
    assert h.parent[a_child] == ids["b"]


def test_match_errors():
    d = root_at(parse_edge_list("u 1\nu 2\nu 3\nu 4"), 0)
    h = run_bracket_builder(d)
    with pytest.raises(TreeHostError, match="not a live steiner"):
        match(h, d, 0)
    top = h.left[0]
    with pytest.raises(TreeHostError, match="not ready"):
        match(h, d, top)  # both children still steiner


def test_run_tournament_equals_stepwise_match(rng):
    for _ in range(25):
        n = rng.randint(2, 60)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h_fast = run_bracket_builder(d)
        run_tournament(h_fast, d)
        h_step = run_bracket_builder(d)
        for s in range(h_step.num_nodes() - 1, n - 1, -1):
            match(h_step, d, s)
        assert np.array_equal(h_step.parent, h_fast.parent)
        assert np.array_equal(h_step.left, h_fast.left)
        assert np.array_equal(h_step.right, h_fast.right)


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
            assert vec.losers == ref.losers
            assert vec.charges == ref.charges


def test_invariants_hold_after_every_match(rng):
    """Full structural re-check after each individual rewrite (small n)."""
    for _ in range(25):
        n = rng.randint(3, 40)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h = run_bracket_builder(d)
        for s in range(h.num_nodes() - 1, n - 1, -1):
            match(h, d, s)
            check_invariants(d, h)


def test_per_match_cost_delta_bounded(rng):
    for _ in range(20):
        n = rng.randint(3, 28)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h = run_bracket_builder(d)
        cost = helpers.bfs_cost(d, h)[0]
        for s in range(h.num_nodes() - 1, n - 1, -1):
            rec = match(h, d, s)
            new_cost = helpers.bfs_cost(d, h)[0]
            delta = new_cost - cost
            assert delta <= d.child_count(rec.winner) <= rec.charge
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
    cost = helpers.bfs_cost(d, h)[0]
    deltas = []
    for s in range(h.num_nodes() - 1, d.n - 1, -1):
        rec = match(h, d, s)
        new_cost = helpers.bfs_cost(d, h)[0]
        deltas.append(new_cost - cost)
        assert new_cost - cost <= d.child_count(rec.winner) <= rec.charge
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
        assert sorted(h.live_nodes()) == list(range(n))
        assert helpers.max_degree(h) <= 3
        assert len(h.children(h.root)) <= 1
        check_invariants(d, h)  # ancestry still holds; steiner clauses vacuous
        assert evaluate(d, h).total <= 3 * lb_instance(d) + (n - 1)


def test_path_tournament_is_noop():
    d = gen("path", 30)
    h = run_bracket_builder(d)
    res = run_tournament(h, d)
    assert res.losers == []
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
    s = next(s for s in h1.steiner_nodes()
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
