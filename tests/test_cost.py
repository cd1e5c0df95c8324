import random

import pytest

from treehost import (HostTree, UnknownVertexError, balanced_bst_host,
                      bst_adversarial, evaluate, gen, opt_cost,
                      parse_edge_list, root_at, run_bracket_builder,
                      run_tournament)

import helpers


def test_evaluate_path_identity():
    for n in (2, 5, 17):
        d = gen("path", n)
        h = run_bracket_builder(d)
        assert evaluate(d, h).total == n - 1


def _hosts_under_test(d, rng):
    h1 = run_bracket_builder(d)
    yield helpers.copy_host(h1)
    run_tournament(h1, d)
    yield h1
    if d.n <= 8 and d.n >= 2:
        yield opt_cost(d)[1]


def test_evaluate_equals_bfs_oracle(rng):
    """Dual-route check: LCA evaluator vs per-edge BFS on n <= 64."""
    for _ in range(60):
        n = rng.randint(2, 64)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        for host in _hosts_under_test(d, rng):
            got = evaluate(d, host)
            total, per = helpers.bfs_cost(d, host)
            assert got.total == total
            assert got.per_vertex == per
            assert got.total == sum(got.per_vertex)
            assert got.total >= n - 1


def test_evaluate_on_non_ancestor_host():
    """Search-tree hosts put demand endpoints in separate subtrees."""
    keyed = bst_adversarial(12)
    host = balanced_bst_host(keyed)
    got = evaluate(keyed.tree, host)
    total, per = helpers.bfs_cost(keyed.tree, host)
    assert got.total == total and got.per_vertex == per


def test_evaluate_fig_values(fig_demand):
    h = run_bracket_builder(fig_demand)
    got = evaluate(fig_demand, h)
    assert (got.total, got.per_vertex[:4]) == (33, [8, 12, 1, 8])
    assert helpers.bfs_cost(fig_demand, h)[0] == 33
    run_tournament(h, fig_demand)
    got = evaluate(fig_demand, h)
    assert got.total == 27
    by_label = {fig_demand.label(v): c for v, c in enumerate(got.per_vertex)}
    assert by_label["r"] == 6 and by_label["u"] == 9
    assert by_label["v"] == 3 and by_label["w"] == 6 and by_label["x"] == 3
    assert helpers.bfs_cost(fig_demand, h)[0] == 27


def test_evaluate_invariant_under_steiner_relabeling(fig_demand):
    h = run_bracket_builder(fig_demand)
    base = evaluate(fig_demand, h).total
    n = h.n_vertices
    ids = list(range(n)) + list(range(h.num_nodes() - 1, n - 1, -1))
    remap = {old: new for new, old in enumerate(ids)}
    new_size = h.num_nodes()
    par = [0] * new_size
    left = [0] * new_size
    right = [0] * new_size
    owner = [0] * new_size
    for old in range(new_size):
        i = remap[old]
        par[i] = remap.get(h.parent[old], h.parent[old])
        left[i] = remap.get(h.left[old], h.left[old])
        right[i] = remap.get(h.right[old], h.right[old])
        owner[i] = h.owner[old]
    shuffled = HostTree(n, remap[h.root], par, left, right, owner)
    shuffled.validate()
    assert evaluate(fig_demand, shuffled).total == base


def test_evaluate_missing_vertex():
    d = root_at(parse_edge_list("0 1\n1 2"), 0)
    small = run_bracket_builder(root_at(parse_edge_list("0 1"), 0))
    with pytest.raises(UnknownVertexError):
        evaluate(d, small)
    big = run_bracket_builder(root_at(parse_edge_list("0 1\n1 2\n2 3"), 0))
    with pytest.raises(UnknownVertexError):
        evaluate(d, big)


def test_evaluate_single_vertex():
    d = gen("path", 1)
    h = run_bracket_builder(d)
    assert evaluate(d, h).total == 0
