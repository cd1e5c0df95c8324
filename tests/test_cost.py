import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehost import (HostTree, HostTreeError, TreeHostError,
                      UnknownVertexError, balanced_bst_host, bst_adversarial,
                      evaluate, gen, opt_cost, parse_edge_list, root_at,
                      run_bracket_builder, run_tournament, solve_instance)
from treehost import cost
from treehost.generate import KINDS
from treehost.model import NONE

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
    link = [NONE] * new_size
    owner = [0] * (new_size - n)
    for old, up in enumerate(h.link.tolist()):
        i = remap[old]
        if up != NONE:
            link[i] = 2 * remap[up >> 1] + (up & 1)
        if old >= n:
            owner[i - n] = h.owner[old - n]
    shuffled = HostTree(n, remap[h.root], link, owner)
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


def _path_host(order) -> HostTree:
    """A path host hanging order[i] below order[i - 1]."""
    link = np.full(len(order), NONE, dtype=np.int64)
    link[order[1:]] = 2 * order[:-1]
    return HostTree(len(order), int(order[0]), link, [])


def _damage(draw, demand, host) -> HostTree:
    """A copy of the host with one node on the path from a vertex v up to
    the root damaged, so that v's climb or one above it runs into it: a
    link below -1 (out of range) or of -1, a two-cycle with a child, or
    a cycle from a steiner node down to v."""
    host = helpers.copy_host(host)
    link = host.link
    v = draw(st.integers(0, demand.n - 1))
    path = [v]
    while link[path[-1]] >= 0:
        path.append(int(link[path[-1]] >> 1))
    how = draw(st.sampled_from(["below-none", "root", "two-cycle",
                                "steiner-cycle"]))
    at = draw(st.sampled_from(path))
    if how == "below-none":
        link[at] = -2
    elif how == "root":
        link[at] = -1
    elif how == "two-cycle" and at != v:
        link[at] = 2 * path[path.index(at) - 1]
    elif how == "steiner-cycle":
        above = [s for s in path if s >= demand.n]
        if above:
            link[draw(st.sampled_from(above))] = 2 * v
    return host


@st.composite
def _scored_hosts(draw):
    """A demand tree and a host to score: a phase-1 or final host of a
    ``gen`` tree, intact or damaged, a search-tree host (non-ancestral),
    or a path host in a random order, deeper than the climb's cap."""
    family = draw(st.sampled_from(["phase1", "final", "bst", "path"]))
    if family == "bst":
        keyed = bst_adversarial(2 * draw(st.integers(2, 100)))
        return keyed.tree, balanced_bst_host(keyed)
    demand = gen(draw(st.sampled_from(KINDS)), draw(st.integers(2, 300)),
                 seed=draw(st.integers(0, 2 ** 30)))
    if family == "path":
        order = np.random.default_rng(draw(st.integers(0, 2 ** 30))
                                      ).permutation(demand.n)
        return demand, _path_host(order)
    host = run_bracket_builder(demand)
    if family == "final":
        run_tournament(host, demand, draw(st.sampled_from(["lex", "id"])))
    if draw(st.booleans()):
        host = _damage(draw, demand, host)
    return demand, host


@settings(database=None, derandomize=True, deadline=None, max_examples=400)
@given(_scored_hosts())
def test_evaluate_matches_the_lifting_reference(case):
    """The parked climb scores every host as the lifting over every edge
    does, and refuses the damaged ones with the same error."""
    demand, host = case
    try:
        want = helpers.reference_evaluate(demand, host)
    except TreeHostError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            evaluate(demand, host)
        return
    got = evaluate(demand, host)
    assert got.total == want.total
    assert got.per_vertex == want.per_vertex


def test_path_host_takes_the_climb_the_cap_and_the_fallback(monkeypatch):
    """On a path host 0-1-...-63 the climb scores the edges whose parent is
    at most (2 * 64).bit_length() = 8 links above the child; the others,
    parent further up or below the child, go to the lifting, in one call."""
    demand = gen("random", 64, seed=5)
    lifted = []
    real = cost._lifted_distances

    def spy(par, us, vs):
        lifted.append(len(us))
        return real(par, us, vs)

    monkeypatch.setattr(cost, "_lifted_distances", spy)
    host = _path_host(np.arange(64))
    got = evaluate(demand, host)
    up = np.array([v - u for u, v in helpers.demand_edges(demand)])
    assert (up < 0).any() and (up > 8).any() and ((up >= 1) & (up <= 8)).any()
    assert lifted == [int(np.count_nonzero((up < 0) | (up > 8)))]
    assert got.total == int(np.abs(up).sum())
    assert got == helpers.reference_evaluate(demand, host)


def test_evaluate_disconnected_host():
    """Vertex 2 is a second root: the path 0-1-2 is not connected."""
    d = root_at(parse_edge_list("0 1\n1 2"), 0)
    host = HostTree(3, 0, [NONE, 0, NONE], [])
    with pytest.raises(HostTreeError, match="does not connect"):
        evaluate(d, host)


@pytest.mark.parametrize("link", [[NONE, 4, 2], [NONE, 6, 2, 4]],
                         ids=["two-vertex-cycle", "cycle-through-steiner"])
def test_evaluate_cyclic_host(link):
    """A parent cycle away from the root raises instead of looping."""
    d = root_at(parse_edge_list("0 1\n1 2"), 0)
    host = HostTree(3, 0, link, [NONE] * (len(link) - 3))
    with pytest.raises(HostTreeError, match="cycle"):
        evaluate(d, host)


def test_evaluate_refuses_a_demand_root_on_a_parent_cycle():
    """Each child's climb meets its parent in one link, but the vertices
    sit on the cycle 0 -> 2 -> 1 -> 0 and none reaches a root."""
    host = HostTree(3, 0, [4, 0, 2], [])
    with pytest.raises(HostTreeError, match="cycle"):
        evaluate(gen("path", 3), host)


def test_evaluate_scores_a_demand_root_below_a_long_steiner_chain(
        monkeypatch):
    """The demand root hangs 20 steiner links below the host root, more
    than the climb's cap of (2 * 23).bit_length() = 6: the lifting tables
    find no cycle, and the climbs' cost stands."""
    calls = []
    real = cost._lifting_tables
    monkeypatch.setattr(cost, "_lifting_tables",
                        lambda par: calls.append(len(par)) or real(par))
    m = 23
    par = np.arange(1, m + 1)  # steiner k hangs below k + 1
    par[:3] = [3, 0, 1]
    link = 2 * par  # each on side 0
    link[m - 1] = NONE
    host = HostTree(3, m - 1, link, [NONE] * (m - 3))
    demand = gen("path", 3)
    got = evaluate(demand, host)
    assert calls == [m]
    assert got.total == 2
    assert got == helpers.reference_evaluate(demand, host)


def _raise(*args):
    raise AssertionError("a pipeline host took the lifting fallback")


@pytest.mark.parametrize("tiebreak", ["lex", "id"])
def test_pipeline_hosts_never_take_the_lifting(monkeypatch, tiebreak):
    """Every demand parent is a host ancestor of its children, within the
    climb's cap, in the phase-1 and the final host."""
    monkeypatch.setattr(cost, "_lifting_tables", _raise)
    rng = random.Random(9)
    cases = [(kind, n) for kind in KINDS for n in (2, 3, 9, 100, 1000)]
    cases += [("star", 4097), ("star", 5000), ("path", 5000),
              ("caterpillar", 5000), ("random", 20000)]
    for kind, n in cases:
        solve_instance(gen(kind, n, seed=rng.randrange(2 ** 30)), tiebreak)
