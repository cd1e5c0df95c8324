import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehost import (KeyedPath, balanced_bst_host, bst_adversarial,
                      bst_demo, evaluate, exhaustive_bst_min, gen,
                      run_bracket_builder)

import helpers


def test_gen_path():
    d = gen("path", 5)
    assert list(helpers.demand_edges(d)) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_gen_star():
    d = gen("star", 4)
    assert helpers.child_count(d, 0) == 3
    assert helpers.demand_children(d, 0) == [1, 2, 3]


def test_gen_caterpillar():
    d = gen("caterpillar", 9)
    helpers.validate_demand(d)
    spine = (9 + 1) // 2
    assert all(d.parent[i] == i - 1 for i in range(1, spine))


def test_gen_complete_binary():
    d = gen("complete_binary", 7)
    assert helpers.demand_children(d, 0) == [1, 2]
    assert helpers.demand_children(d, 1) == [3, 4]
    assert helpers.demand_children(d, 2) == [5, 6]


def test_gen_random_deterministic():
    a = gen("random", 50, seed=42)
    b = gen("random", 50, seed=42)
    assert list(helpers.demand_edges(a)) == list(helpers.demand_edges(b))
    c = gen("random", 50, seed=43)
    assert list(helpers.demand_edges(a)) != list(helpers.demand_edges(c))


def test_gen_errors():
    with pytest.raises(ValueError, match="unknown kind"):
        gen("mystery", 5)
    with pytest.raises(ValueError, match="seed"):
        gen("random", 5)
    with pytest.raises(ValueError):
        gen("path", 0)


def test_gen_single_vertex_all_kinds():
    for kind in ("path", "star", "caterpillar", "complete_binary"):
        d = gen(kind, 1)
        assert d.n == 1


def test_random_trees_uniform_over_labeled_trees():
    """Each of the 16 labeled trees on 4 vertices within 3 sigma of 1/16."""
    rng = random.Random(777)
    samples = 100_000
    counts: dict[frozenset, int] = {}
    for _ in range(samples):
        d = gen("random", 4, seed=rng.randrange(2 ** 31))
        key = frozenset(frozenset(e) for e in helpers.demand_edges(d))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 16
    p = 1 / 16
    sigma = (p * (1 - p) / samples) ** 0.5
    for c in counts.values():
        assert abs(c / samples - p) <= 3 * sigma


def test_adversarial_keys_n12():
    kp = bst_adversarial(12)
    assert kp.keys == [1, 7, 2, 8, 3, 9, 4, 10, 5, 11, 6, 12]


def test_adversarial_keys_n4():
    assert bst_adversarial(4).keys == [1, 3, 2, 4]


def test_adversarial_rejects_bad_n():
    with pytest.raises(ValueError):
        bst_adversarial(13)
    with pytest.raises(ValueError):
        bst_adversarial(2)


def test_adversarial_key_structure(rng):
    for n in (4, 8, 20, 64):
        kp = bst_adversarial(n)
        assert sorted(kp.keys) == list(range(1, n + 1))
        half = n // 2
        for v in range(n - 1):
            assert abs(kp.keys[v] - kp.keys[v + 1]) in (half, half - 1)
        for v in range(n):
            neigh = [w for w in (v - 1, v + 1) if 0 <= w < n]
            assert any(abs(kp.keys[v] - kp.keys[w]) == half for w in neigh)


def test_path_host_costs_n_minus_one_on_adversarial():
    kp = bst_adversarial(12)
    host = run_bracket_builder(kp.tree)
    assert evaluate(kp.tree, host).total == 11


def test_balanced_host_is_a_search_tree():
    kp = bst_adversarial(16)
    host = balanced_bst_host(kp)
    host.validate()
    left, right = host.children()
    # in-order traversal of keys must be sorted
    def inorder(node):
        if node == -1:
            return []
        return (inorder(left[node]) + [kp.keys[node]]
                + inorder(right[node]))
    assert inorder(host.root) == list(range(1, 17))


def test_bst_demo_small_values():
    res = bst_demo(4)
    # verified against the per-edge BFS evaluator below
    kp = bst_adversarial(4)
    assert res.balanced_cost == helpers.bfs_cost(kp.tree, balanced_bst_host(kp))[0] == 5
    assert res.path_cost == 3
    assert res.exhaustive_min == 4
    assert res.exhaustive_min > res.path_cost
    assert res.exhaustive_min <= res.balanced_cost


def test_bst_demo_eight():
    res = bst_demo(8)
    assert res.exhaustive_min is not None
    assert res.path_cost == 7
    assert res.path_cost < res.exhaustive_min <= res.balanced_cost


def test_bst_demo_rejects_non_powers():
    for bad in (6, 12, 2, 0):
        with pytest.raises(ValueError):
            bst_demo(bad)


def test_bst_demo_ratio_grows():
    assert bst_demo(32).ratio > bst_demo(16).ratio


def test_exhaustive_bst_min_cap():
    with pytest.raises(ValueError):
        exhaustive_bst_min(bst_adversarial(14))


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_exhaustive_bst_min_matches_the_shape_by_shape_scan(keys):
    keyed = KeyedPath(gen("path", len(keys)), list(keys))
    assert (exhaustive_bst_min(keyed)
            == helpers.reference_exhaustive_bst_min(keyed))


@pytest.mark.parametrize("n, minimum",
                         [(4, 4), (6, 10), (8, 18), (10, 26), (12, 36)])
def test_exhaustive_bst_min_on_the_adversarial_path(n, minimum):
    assert exhaustive_bst_min(bst_adversarial(n)) == minimum
