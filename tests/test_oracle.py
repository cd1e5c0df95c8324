import subprocess
import sys

import pytest

from treehost import (ResourceCapError, evaluate, gen, lb_instance, opt_cost,
                      parse_edge_list, root_at, solve_instance)
from treehost.oracle import _bank

import helpers
from helpers import enumerate_hosts


@pytest.mark.parametrize("n,count", [(3, 3), (4, 16), (5, 120)])
def test_enumeration_counts(n, count):
    assert sum(1 for _ in enumerate_hosts(n)) == count


def test_enumeration_yields_distinct_valid_trees():
    seen = set()
    for edges in enumerate_hosts(6):
        deg = [0] * 6
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        assert max(deg) <= 3
        assert len(edges) == 5
        key = frozenset(frozenset(e) for e in edges)
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bank_matches_pure_enumeration_count(n):
    assert _bank(n).count == sum(1 for _ in enumerate_hosts(n))


def test_enumeration_limits():
    with pytest.raises(ResourceCapError):
        list(enumerate_hosts(10))
    with pytest.raises(ValueError):
        list(enumerate_hosts(1))


def test_opt_path_is_itself():
    d = gen("path", 5)
    opt, host = opt_cost(d)
    assert opt == 4
    assert evaluate(d, host).total == 4


def test_opt_star_with_three_leaves():
    # K_{1,3} has max degree 3, so it is itself a feasible host: OPT = n-1.
    d = gen("star", 4)
    opt, host = opt_cost(d)
    assert opt == 3
    assert helpers.bfs_cost(d, host)[0] == 3
    # independent route: minimum over the pure enumeration stream
    best = min(_stream_cost(d, edges) for edges in enumerate_hosts(4))
    assert best == 3


def _stream_cost(demand, edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return sum(helpers.bfs_distance(adj, u, v)
               for u, v in helpers.demand_edges(demand))


def test_opt_star_with_four_leaves_needs_spreading():
    d = gen("star", 5)
    opt, _ = opt_cost(d)
    assert opt > 4               # K_{1,4} itself is infeasible (degree 4)
    assert opt >= lb_instance(d)


def test_opt_equals_trivial_iff_low_degree(rng):
    for _ in range(30):
        n = rng.randint(3, 7)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        opt, _ = opt_cost(d)
        max_deg = max(helpers.child_count(d, v) + (0 if v == d.root else 1)
                      for v in range(n))
        if max_deg <= 3:
            assert opt == n - 1
        else:
            assert opt > n - 1


def test_opt_matches_pure_scan(rng):
    for _ in range(25):
        n = rng.randint(3, 6)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        opt, host = opt_cost(d)
        pure = min(_stream_cost(d, edges) for edges in enumerate_hosts(n))
        assert opt == pure
        assert helpers.bfs_cost(d, host)[0] == opt


def test_opt_deterministic_argmin(fig_demand):
    d = gen("random", 7, seed=99)
    opt1, h1 = opt_cost(d)
    opt2, h2 = opt_cost(d)
    assert opt1 == opt2
    assert h1.link.tolist() == h2.link.tolist()


def test_fig_w_subtree_within_four_times_opt():
    text = "w 6\nw 7\nw x\nx 8\nx 9"
    d = root_at(parse_edge_list(text), 0)
    opt, _ = opt_cost(d)
    result = solve_instance(d)
    assert result.report.final_cost <= 4 * opt
    assert lb_instance(d) <= opt


def test_lb_sound_against_opt(rng):
    for _ in range(60):
        n = rng.randint(2, 8)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        opt, _ = opt_cost(d)
        assert lb_instance(d) <= opt
        assert opt >= n - 1


def test_opt_cap():
    d = gen("path", 11)
    with pytest.raises(ResourceCapError):
        opt_cost(d)


def test_opt_tiny_instances():
    assert opt_cost(gen("path", 1))[0] == 0
    opt, host = opt_cost(gen("path", 2))
    assert opt == 1
    assert host.num_nodes() == 2


@pytest.mark.parametrize("command", [["oracle"], ["check"]])
def test_argmin_cross_check_survives_python_O(command, tmp_path):
    """The oracle re-scores its argmin host; a scorer that disagrees with
    the scan is an invariant violation (exit 2), also under ``python -O``,
    which strips assert statements."""
    edges = tmp_path / "in.edges"
    edges.write_text("a b\nb c\nc d\nc e\n")
    script = (
        "import dataclasses, sys\n"
        "assert False, 'this run must strip asserts'\n"
        "import treehost.oracle as oracle\n"
        "from treehost.cli import main\n"
        "real = oracle.evaluate\n"
        "def off_by_one(demand, host):\n"
        "    breakdown = real(demand, host)\n"
        "    return dataclasses.replace(breakdown,\n"
        "                               total=breakdown.total + 1)\n"
        "oracle.evaluate = off_by_one\n"
        f"sys.exit(main({command + [str(edges)]!r}))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "oracle-argmin" in proc.stderr
