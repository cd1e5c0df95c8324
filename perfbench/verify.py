"""Independent check of a solve's output, built on numpy and the benchmark's
own generator only (no ``treehost`` import).

The program names host vertices by internal id, which is the order of first
appearance in the edge-list text; :class:`Demand` recomputes that mapping
from the generated instance.  A host passes when it is a binary tree over
exactly the n vertices with no steiner node, every demand parent is a host
ancestor (checked with Euler intervals), the cost recomputed as a sum of
depth differences equals the reported ``final_cost``, and the report obeys
``lb <= final <= phase1 + n - 1`` and ``steiner_count = leaves - 1``.
"""
from __future__ import annotations

import json

import numpy as np

from benchgen import Instance


class Demand:
    """The generated tree in the program's id space, rooted like the program.

    ``parent[v]`` is the demand parent of id ``v`` (-1 at the root, id 0).
    """

    def __init__(self, inst: Instance):
        n = inst.n
        self.n = n
        self.root_label = inst.labels[inst.root()]
        if n == 1:
            self.parent = np.full(1, -1, np.int64)
            self.leaves = 1
            return
        tokens = np.column_stack((inst.a, inst.b)).ravel()
        first = np.full(n, tokens.size, np.int64)
        np.minimum.at(first, tokens, np.arange(tokens.size))
        id_of = np.empty(n, np.int64)
        id_of[np.argsort(first, kind="stable")] = np.arange(n)
        u, v = id_of[inst.a], id_of[inst.b]
        self.parent = _bfs_parents(n, u, v, 0)
        deg = np.bincount(np.concatenate((u, v)), minlength=n)
        self.leaves = int((deg == 1).sum()) - int(deg[0] == 1)


def _bfs_parents(n: int, u: np.ndarray, v: np.ndarray, root: int) -> np.ndarray:
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    order = np.argsort(src, kind="stable")
    nbr = dst[order]
    off = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    parent = np.full(n, -2, np.int64)
    parent[root] = -1
    frontier = np.array([root], np.int64)
    while frontier.size:
        counts = off[frontier + 1] - off[frontier]
        owner = np.repeat(frontier, counts)
        starts = np.repeat(off[frontier] - np.cumsum(counts) + counts, counts)
        cand = nbr[np.arange(owner.size) + starts]
        fresh = parent[cand] == -2
        parent[cand[fresh]] = owner[fresh]
        frontier = cand[fresh]
    if (parent == -2).any():
        raise ValueError("generated instance is not connected")
    return parent


def host_from_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(node, parent) name pairs of a ``node:parent`` host text, as ids.

    Raises ValueError when a name is not a plain vertex id (e.g. ``s7``).
    """
    flat = text.replace(":", " ").split()
    if len(flat) % 2:
        raise ValueError("host text has an unpaired name")
    return _ids(flat[0::2]), _ids(flat[1::2])


def host_from_json(text: str) -> tuple[np.ndarray, np.ndarray]:
    doc = json.loads(text)
    if doc.get("steiner"):
        raise ValueError(f"{len(doc['steiner'])} steiner nodes left")
    nodes = doc["nodes"]
    par = doc["parent"]
    return _ids(nodes), _ids([par.get(x, x) for x in nodes])


def _ids(names: list[str]) -> np.ndarray:
    if not all(x.isascii() and x.isdigit() for x in names):
        bad = next(x for x in names if not (x.isascii() and x.isdigit()))
        raise ValueError(f"host node {bad!r} is not a demand vertex id")
    return np.array(names).astype(np.int64) if names else np.empty(0, np.int64)


def host_depths(n: int, nodes: np.ndarray, parents: np.ndarray):
    """Validate the host shape; return (parent, depth, root) by id."""
    if nodes.size != n or not (np.bincount(nodes, minlength=n) == 1).all():
        raise ValueError(f"host does not list each of the {n} vertices once")
    if parents.size and (parents.min() < 0 or parents.max() >= n):
        raise ValueError("host parent outside the vertex range")
    par = np.empty(n, np.int64)
    par[nodes] = parents
    roots = np.flatnonzero(par == np.arange(n))
    if roots.size != 1:
        raise ValueError(f"host has {roots.size} roots")
    if n > 1 and np.bincount(np.delete(par, roots[0]), minlength=n).max() > 2:
        raise ValueError("host node with more than two children")
    sink = n
    jump = np.append(np.where(par == np.arange(n), sink, par), sink)
    depth = np.append(np.ones(n, np.int64), 0)
    depth[roots[0]] = 0
    for _ in range(int(n).bit_length() + 1):
        if (jump == sink).all():
            break
        depth = depth + depth[jump]
        jump = jump[jump]
    if not (jump == sink).all():
        raise ValueError("host has a cycle")
    return par, depth[:n], int(roots[0])


def euler_intervals(par: np.ndarray, depth: np.ndarray, root: int):
    """Preorder entry index and subtree size of every host node."""
    n = par.size
    by_depth = np.argsort(depth, kind="stable")
    cuts = np.searchsorted(depth[by_depth], np.arange(int(depth.max()) + 2))
    levels = [by_depth[cuts[d]:cuts[d + 1]] for d in range(cuts.size - 1)]
    size = np.ones(n, np.int64)
    for nodes in reversed(levels[1:]):
        np.add.at(size, par[nodes], size[nodes])
    # the lower-id child of each node comes first in the preorder
    offset = np.zeros(n, np.int64)
    kids = np.delete(np.arange(n), root)
    kids = kids[np.argsort(par[kids], kind="stable")]
    second = np.flatnonzero(par[kids[1:]] == par[kids[:-1]]) + 1
    offset[kids[second]] = size[kids[second - 1]]
    tin = np.zeros(n, np.int64)
    for nodes in levels[1:]:
        tin[nodes] = tin[par[nodes]] + 1 + offset[nodes]
    return tin, size


def host_cost(demand: Demand, host_text: str, form: str = "text") -> int:
    """Cost of a correct host as the sum of demand-edge depth differences.

    Raises ValueError when the host is not a binary tree over exactly the
    demand vertices rooted at the demand root, or when a demand parent is
    not a host ancestor.
    """
    nodes, parents = (host_from_json if form == "json"
                      else host_from_text)(host_text)
    par, depth, root = host_depths(demand.n, nodes, parents)
    if root != 0:
        raise ValueError(f"host root is id {root}, demand root is id 0")
    tin, size = euler_intervals(par, depth, root)
    child = np.flatnonzero(demand.parent >= 0)
    dpar = demand.parent[child]
    inside = (tin[dpar] <= tin[child]) & (tin[child] < tin[dpar] + size[dpar])
    if not inside.all():
        bad = int(child[np.argmin(inside)])
        raise ValueError(f"demand parent of id {bad} is not a host ancestor")
    return int((depth[child] - depth[dpar]).sum())


def check_report(demand: Demand, cost: int, report: dict) -> list[str]:
    """Problems of a report against its host's recomputed ``cost``."""
    n = demand.n
    problems = [f"report lacks integer {key!r}"
                for key in ("n", "final_cost", "phase1_cost", "lb", "steiner_count")
                if not isinstance(report.get(key), int)]
    if problems:
        return problems
    if report["n"] != n:
        problems.append(f"report n {report['n']} != {n}")
    if report.get("root") != demand.root_label:
        problems.append(f"report root {report.get('root')!r} != "
                        f"{demand.root_label!r}")
    final, phase1, lb = report["final_cost"], report["phase1_cost"], report["lb"]
    if final != cost:
        problems.append(f"reported final_cost {final} != recomputed {cost}")
    if not lb <= final <= phase1 + max(n - 1, 0):
        problems.append(f"bounds fail: lb {lb}, final {final}, phase1 {phase1}")
    ledger = report.get("charge_ledger")
    if ledger is not None and (
            len(ledger) != report["steiner_count"]
            or sum(c for _, c in ledger) != report.get("charge_total")):
        problems.append("charge ledger disagrees with steiner_count or "
                        "charge_total")
    expect = max(demand.leaves - 1, 0)
    if report["steiner_count"] != expect:
        problems.append(f"steiner_count {report['steiner_count']} != "
                        f"leaves - 1 = {expect}")
    return problems


def check(demand: Demand, host_text: str, report: dict, form: str = "text") -> list[str]:
    """Every problem found in one solve's output; empty when it is correct."""
    try:
        cost = host_cost(demand, host_text, form)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"host: {exc}"]
    return check_report(demand, cost, report)
