import numpy as np
import pytest

from treehost import (bracket_cost_bound, ceil_log2, check_invariants,
                      evaluate, gen, run_bracket_builder)

import helpers
from helpers import leaf_slots_in_order


def _child_depths(d, v):
    """Depth of each child of v below v in the bracket host."""
    depths = run_bracket_builder(d).depths()
    return [depths[w] - depths[v] for w in d.children(v)]


def test_bracket_single_child():
    assert leaf_slots_in_order(1) == [1]
    d = gen("path", 2)
    assert _child_depths(d, 0) == [1]  # linked directly, no steiner node
    assert run_bracket_builder(d).steiner_count() == 0


def test_bracket_three_children():
    # first two children on the bottom level, third one level higher
    assert leaf_slots_in_order(3) == [4, 5, 3]
    assert _child_depths(gen("star", 4), 0) == [3, 3, 2]


def test_bracket_four_children_perfect():
    assert leaf_slots_in_order(4) == [4, 5, 6, 7]
    assert _child_depths(gen("star", 5), 0) == [3, 3, 3, 3]


def test_bracket_rejects_empty():
    with pytest.raises(ValueError):
        leaf_slots_in_order(0)


@pytest.mark.parametrize("ell", list(range(1, 40)) + [63, 64, 65, 200])
def test_bracket_shape_invariants(ell):
    order = leaf_slots_in_order(ell)
    assert sorted(order) == list(range(ell, 2 * ell))
    leaf_depths = [s.bit_length() - 1 for s in order]
    assert max(leaf_depths) == ceil_log2(ell)
    assert min(leaf_depths) >= ceil_log2(ell) - 1
    for i in range(1, ell):
        assert 2 * i + 1 < 2 * ell  # every inner slot has two child slots
    # the builder hangs child j at 1 + the depth of the j-th leaf slot
    assert _child_depths(gen("star", ell + 1), 0) == [1 + d for d in leaf_depths]


def test_fig_phase1_structure(fig_demand):
    h = run_bracket_builder(fig_demand)
    assert h.steiner_count() == 8
    assert fig_demand.leaf_count() - 1 == 8
    assert h.root == 0
    assert helpers.host_shape(h) == helpers.host_shape(helpers.fig_phase1_host())


def test_fig_phase1_direct_child_links(fig_demand):
    h = run_bracket_builder(fig_demand)
    for v in range(fig_demand.n):
        c = fig_demand.child_count(v)
        if c == 0:
            assert h.left[v] == -1
            continue
        child = h.left[v]
        assert h.right[v] == -1  # single host child: the bracket root
        if c == 1:
            assert child == fig_demand.children(v)[0]
        else:
            assert h.is_steiner(child)
            assert h.owner[child] == v


def test_path_is_fixed_point():
    d = gen("path", 50)
    h = run_bracket_builder(d)
    assert h.steiner_count() == 0
    assert evaluate(d, h).total == 49


def test_star_nine_children_cost():
    d = gen("star", 10)
    h = run_bracket_builder(d)
    got = evaluate(d, h)
    # 7 leaves at depth 3 and 2 at depth 4 below the bracket root
    assert got.per_vertex[0] == 38 == helpers.bfs_cost(d, h)[0]
    assert got.per_vertex[0] <= 9 * (ceil_log2(9) + 1) == 45


def test_child_distance_is_one_plus_slot_depth(rng):
    for _ in range(15):
        n = rng.randint(2, 80)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h = run_bracket_builder(d)
        depths = h.depths()
        for v in range(n):
            ch = d.children(v)
            if len(ch) < 2:
                continue
            for w, slot in zip(ch, leaf_slots_in_order(len(ch))):
                assert depths[w] - depths[v] == slot.bit_length()  # 1 + depth


def test_per_vertex_bound_and_steiner_count(rng):
    from treehost import lb_instance
    for _ in range(120):
        n = rng.randint(2, 300)
        kind = rng.choice(("random", "star", "caterpillar", "complete_binary"))
        d = gen(kind, n, seed=rng.randrange(2 ** 30))
        h = run_bracket_builder(d)
        got = evaluate(d, h)
        counts = d.child_counts()
        for v in range(n):
            assert got.per_vertex[v] <= bracket_cost_bound(counts[v])
        assert h.steiner_count() == d.leaf_count() - 1
        assert got.total <= 3 * lb_instance(d)


def test_phase1_invariants_hold(rng):
    for _ in range(40):
        n = rng.randint(2, 150)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h = run_bracket_builder(d)
        h.validate()
        check_invariants(d, h)


def test_builder_matches_slot_rule(rng):
    cases = [gen("path", 1), gen("path", 2), gen("star", 3)]
    for _ in range(60):
        n = rng.randint(2, 400)
        kind = rng.choice(("random", "star", "path", "caterpillar",
                           "complete_binary"))
        cases.append(gen(kind, n, seed=rng.randrange(2 ** 30)))
    for d in cases:
        a = run_bracket_builder(d)
        b = helpers.bracket_host_by_slot_rule(d)
        for name in ("parent", "left", "right", "owner"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.root == b.root and a.n_vertices == b.n_vertices
