"""Tree data model: demand trees, binary host trees, parsing, serialization.

Vertices of a parsed tree get dense integer ids ``0..n-1`` in order of first
appearance in the input; the original tokens are kept as labels.  Host trees
live on the same ids and may additionally contain synthetic *steiner* nodes
with ids ``>= n``, rendered as ``s<id>`` in text form.

Every tree holds its structure in flat numpy int64 arrays (CSR adjacency or
child lists, parent/left/right arrays for the host tree) at any size; the few
sequential walks run over local ``tolist()`` copies, which Python indexes
faster than numpy scalars.
"""
from __future__ import annotations

import json

import numpy as np

NONE = -1   # "no node" sentinel in parent/left/right arrays
DEAD = -2   # parent value of a removed node


class TreeHostError(ValueError):
    """Base class for library errors."""


class EdgeListError(TreeHostError):
    """Malformed edge-list input."""


class UnknownVertexError(TreeHostError):
    """A vertex id or label that does not exist."""


class HostTreeError(TreeHostError):
    """Structurally invalid host tree."""


class InvariantViolation(TreeHostError):
    """A structural invariant of the construction failed.

    ``code`` names the invariant, e.g. ``"(i) steiner-degree"``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"invariant {code} violated: {message}")
        self.code = code


class ResourceCapError(TreeHostError):
    """Instance exceeds a hard resource cap (e.g. exhaustive-search size)."""


class ParameterError(TreeHostError):
    """An argument outside its domain (size, seed, degree, size list)."""


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class UnrootedTree:
    """Connected acyclic graph over dense vertex ids, adjacency in input order."""

    __slots__ = ("n", "adj_off", "adj_flat", "labels")

    def __init__(self, n: int, adj_off, adj_flat, labels: list[str] | None):
        self.n = n
        self.adj_off = _int64(adj_off)
        self.adj_flat = _int64(adj_flat)
        self.labels = labels

    @classmethod
    def from_edges(cls, edges: list[tuple[int, int]], n: int | None = None,
                   labels: list[str] | None = None) -> "UnrootedTree":
        """Build and validate a tree from a list of (u, v) id pairs.

        Raises :class:`EdgeListError` with a distinct diagnostic for
        self-loops, duplicate edges, cycles and disconnected input.
        """
        if n is None:
            n = max((max(u, v) for u, v in edges), default=-1) + 1
            n = max(n, 1)
        if labels is not None and len(labels) != n:
            raise EdgeListError(f"expected {n} labels, got {len(labels)}")

        def name(v: int) -> str:
            return labels[v] if labels is not None else str(v)

        uf = list(range(n))

        def find(a: int) -> int:
            while uf[a] != a:
                uf[a] = uf[uf[a]]
                a = uf[a]
            return a

        seen: set[int] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeListError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise EdgeListError(f"self-loop edge '{name(u)} {name(v)}'")
            key = (u * n + v) if u < v else (v * n + u)
            if key in seen:
                raise EdgeListError(f"duplicate edge '{name(u)} {name(v)}'")
            seen.add(key)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise EdgeListError(
                    f"cycle detected when adding edge '{name(u)} {name(v)}'")
            uf[ru] = rv
        roots = len({find(v) for v in range(n)})
        if roots != 1:
            raise EdgeListError(f"disconnected input: {roots} components")
        return cls.from_tree_edges_unchecked(edges, n, labels)

    @classmethod
    def from_tree_edges_unchecked(cls, edges: list[tuple[int, int]], n: int,
                                  labels: list[str] | None = None) -> "UnrootedTree":
        """CSR adjacency in edge-input order, without validation: for edges
        already known to be a tree (validated input, generator output)."""
        n = max(n, 1)
        e = _int64(edges).reshape(-1, 2)
        src = e.ravel()
        dst = e[:, ::-1].ravel()
        flat = dst[np.argsort(src, kind="stable")]
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=off[1:])
        return cls(n, off, flat, labels)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def label_to_id(self) -> dict[str, int]:
        if self.labels is None:
            return {str(v): v for v in range(self.n)}
        return {lbl: v for v, lbl in enumerate(self.labels)}


def parse_edge_list(text: str) -> UnrootedTree:
    """Parse whitespace-separated edge pairs into an unrooted tree.

    One edge per line, two tokens; ``#`` starts a comment.  Tokens become
    vertex labels; ids are assigned densely by first appearance.  Empty input
    yields the single-vertex tree (the only tree the format cannot spell).
    """
    ids: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise EdgeListError(
                f"line {lineno}: expected two tokens 'u v', got {len(toks)}")
        pair = []
        for t in toks:
            if t not in ids:
                ids[t] = len(ids)
                labels.append(t)
            pair.append(ids[t])
        edges.append((pair[0], pair[1]))
    if not edges:
        return UnrootedTree.from_tree_edges_unchecked([], 1, ["0"])
    return UnrootedTree.from_edges(edges, n=len(ids), labels=labels)


class DemandTree:
    """Rooted tree over dense vertex ids with ordered children (CSR layout).

    ``parent[root] == -1``; ``children(v)`` preserves the stable input order,
    so constructions built from it are reproducible.  ``labels is None`` means
    vertex ``v`` is labelled ``str(v)``.
    """

    __slots__ = ("n", "root", "parent", "child_off", "child_flat", "labels",
                 "_cache")

    def __init__(self, n: int, root: int, parent, child_off, child_flat,
                 labels: list[str] | None):
        self.n = n
        self.root = root
        self.parent = _int64(parent)
        self.child_off = _int64(child_off)
        self.child_flat = _int64(child_flat)
        self.labels = labels
        self._cache: dict = {}

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def children(self, v: int) -> list[int]:
        return self.child_flat[self.child_off[v]:self.child_off[v + 1]].tolist()

    def child_count(self, v: int) -> int:
        return int(self.child_off[v + 1] - self.child_off[v])

    def child_counts(self) -> list[int]:
        return np.diff(self.child_off).tolist()

    def edges(self):
        """Iterate (parent, child) pairs in child-array order."""
        owner = np.repeat(np.arange(self.n, dtype=np.int64),
                          np.diff(self.child_off))
        return zip(owner.tolist(), self.child_flat.tolist())

    def leaf_count(self) -> int:
        """Number of childless vertices."""
        return int(np.count_nonzero(np.diff(self.child_off) == 0))

    def bfs_order(self) -> list[int]:
        order = [self.root]
        head = 0
        flat, off = self.child_flat.tolist(), self.child_off.tolist()
        while head < len(order):
            v = order[head]
            head += 1
            order.extend(flat[off[v]:off[v + 1]])
        return order

    def validate(self) -> None:
        n = self.n
        if self.parent[self.root] != NONE:
            raise TreeHostError("root has a parent")
        if self.child_off[n] != n - 1 and n > 0:
            raise TreeHostError("child count sum != n-1")
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.child_off))
        bad = np.flatnonzero(self.parent[self.child_flat] != owner)
        if bad.size:
            w = int(self.child_flat[bad[0]])
            raise TreeHostError(f"parent[{w}] inconsistent with children")
        if len(self.child_flat) != n - 1:
            raise TreeHostError("edge count != n-1")
        if len(self.bfs_order()) != n:
            raise TreeHostError("tree not connected from root")


def root_at(tree: UnrootedTree, root: int) -> DemandTree:
    """Orient an unrooted tree away from ``root``.

    Children of each vertex keep the adjacency (input) order, minus the
    parent, which makes repeated runs byte-for-byte reproducible.
    """
    n = tree.n
    if not 0 <= root < n:
        raise UnknownVertexError(f"unknown root id {root}")
    adj_off, adj_flat = tree.adj_off.tolist(), tree.adj_flat.tolist()
    parent = [NONE] * n
    parent[root] = root  # temporary marker so root is never re-parented
    order = [root]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in adj_flat[adj_off[v]:adj_off[v + 1]]:
            if parent[w] == NONE:
                parent[w] = v
                order.append(w)
    parent[root] = NONE

    # child CSR: keep adjacency order, drop the parent entry
    par = _int64(parent)
    deg = np.diff(tree.adj_off)
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    child_flat = tree.adj_flat[par[tree.adj_flat] == owner]
    counts = deg - 1
    counts[root] += 1
    child_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=child_off[1:])
    return DemandTree(n, root, par, child_off, child_flat, tree.labels)


class HostTree:
    """Binary tree over the demand vertices plus optional steiner nodes.

    Node ids ``< n_vertices`` are demand vertices; ids ``>= n_vertices`` are
    steiner nodes.  ``parent[i]`` is -1 for the root and -2 for removed nodes.
    Children are stored as ``left``/``right`` (-1 = absent); a node with one
    child keeps it in ``left``.  ``owner[s]`` records, for a steiner node,
    the vertex whose bracket created it.
    """

    __slots__ = ("n_vertices", "root", "parent", "left", "right", "owner")

    def __init__(self, n_vertices: int, root: int, parent, left, right, owner):
        self.n_vertices = n_vertices
        self.root = root
        self.parent = _int64(parent)
        self.left = _int64(left)
        self.right = _int64(right)
        self.owner = _int64(owner)

    @classmethod
    def empty(cls, n_vertices: int, root: int) -> "HostTree":
        """Host with all demand vertices present and no links yet."""
        return cls(n_vertices, root, *(np.full(n_vertices, NONE, dtype=np.int64)
                                       for _ in range(4)))

    def num_nodes(self) -> int:
        return len(self.parent)

    def is_steiner(self, i: int) -> bool:
        return i >= self.n_vertices

    def is_live(self, i: int) -> bool:
        return 0 <= i < len(self.parent) and bool(self.parent[i] != DEAD)

    def add_steiner(self, owner_vertex: int) -> int:
        i = len(self.parent)
        self.parent = np.append(self.parent, NONE)
        self.left = np.append(self.left, NONE)
        self.right = np.append(self.right, NONE)
        self.owner = np.append(self.owner, owner_vertex)
        return i

    def link(self, parent: int, child: int) -> None:
        if self.left[parent] == NONE:
            self.left[parent] = child
        elif self.right[parent] == NONE:
            self.right[parent] = child
        else:
            raise HostTreeError(f"node {parent} already has two children")
        self.parent[child] = parent

    def children(self, i: int) -> list[int]:
        return [int(ch) for ch in (self.left[i], self.right[i]) if ch != NONE]

    def live_nodes(self) -> list[int]:
        return np.flatnonzero(self.parent != DEAD).tolist()

    def steiner_nodes(self) -> list[int]:
        n = self.n_vertices
        return (np.flatnonzero(self.parent[n:] != DEAD) + n).tolist()

    def steiner_count(self) -> int:
        return int(np.count_nonzero(self.parent[self.n_vertices:] != DEAD))

    def depths(self) -> dict[int, int]:
        """Depth of every node reachable from the root."""
        depth = {self.root: 0}
        stack = [self.root]
        left, right = self.left.tolist(), self.right.tolist()
        while stack:
            v = stack.pop()
            d = depth[v] + 1
            for w in (left[v], right[v]):
                if w != NONE:
                    depth[w] = d
                    stack.append(w)
        return depth

    def copy(self) -> "HostTree":
        return HostTree(self.n_vertices, self.root, self.parent.copy(),
                        self.left.copy(), self.right.copy(), self.owner.copy())

    def validate(self) -> None:
        """Check binary shape, link consistency, connectivity, acyclicity."""
        par = self.parent.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        if not self.is_live(self.root) or par[self.root] != NONE:
            raise HostTreeError("bad root")
        live = self.live_nodes()
        for v in range(self.n_vertices):
            if par[v] == DEAD:
                raise HostTreeError(f"demand vertex {v} removed from host")
        for i in live:
            for ch in (left[i], right[i]):
                if ch != NONE and par[ch] != i:
                    raise HostTreeError(f"child link {i}->{ch} not mirrored")
            if i != self.root:
                p = par[i]
                if p == NONE or not (0 <= p < len(par) and par[p] != DEAD):
                    raise HostTreeError(f"node {i} has no live parent")
                if left[p] != i and right[p] != i:
                    raise HostTreeError(f"parent of {i} does not list it")
        if len(self.depths()) != len(live):
            raise HostTreeError("host not connected from root")


def _node_name(host: HostTree, i: int) -> str:
    return str(i) if i < host.n_vertices else f"s{i}"


def _preorder(host: HostTree) -> list[int]:
    order = []
    stack = [host.root]
    left, right = host.left.tolist(), host.right.tolist()
    while stack:
        v = stack.pop()
        order.append(v)
        if right[v] != NONE:
            stack.append(right[v])
        if left[v] != NONE:
            stack.append(left[v])
    return order


def serialize(host: HostTree, form: str = "text") -> str:
    """Render a host tree as parent-array text or JSON.

    Text form: one ``node:parent`` line per node in preorder, the root
    pointing at itself.  JSON form: ``{nodes, parent, steiner, root}``.
    Both round-trip through :func:`parse_host` preserving node ids.
    """
    order = _preorder(host)
    par = host.parent.tolist()
    if form == "text":
        lines = []
        for i in order:
            p = par[i]
            pname = _node_name(host, p if p != NONE else i)
            lines.append(f"{_node_name(host, i)}:{pname}")
        return "\n".join(lines) + "\n"
    if form == "json":
        doc = {
            "nodes": [_node_name(host, i) for i in order],
            "parent": {_node_name(host, i): _node_name(host, par[i])
                       for i in order if i != host.root},
            "steiner": [_node_name(host, i) for i in order
                        if host.is_steiner(i)],
            "root": _node_name(host, host.root),
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown serialization form {form!r}")


def is_ascii_int(s: str) -> bool:
    """True for a non-empty run of ASCII digits: what ``int`` should read.

    ``str.isdigit`` also accepts characters such as '²' (which ``int``
    rejects) and '١' (which ``int`` reads as 1).
    """
    return s.isascii() and s.isdecimal()


def _parse_node_name(tok: str) -> tuple[int, bool]:
    """Return (id, is_steiner) for a serialized node name."""
    if not isinstance(tok, str):
        raise HostTreeError(f"bad node name {tok!r}")
    if tok.startswith("s") and is_ascii_int(tok[1:]):
        return int(tok[1:]), True
    if is_ascii_int(tok) or (tok.startswith("-") and is_ascii_int(tok[1:])):
        return int(tok), False
    raise HostTreeError(f"bad node name {tok!r}")


def parse_host(text: str) -> HostTree:
    """Inverse of :func:`serialize` (detects JSON by a leading '{')."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        names, parents = doc.get("nodes"), doc.get("parent")
        steiner = doc.get("steiner", [])
        if not (isinstance(names, list) and isinstance(parents, dict)
                and isinstance(steiner, list)):
            raise HostTreeError("JSON host needs 'nodes' (list), 'parent' "
                                "(object) and optional 'steiner' (list)")
        if not all(isinstance(name, str) for name in names + steiner):
            raise HostTreeError("JSON host node names must be strings")
        pairs = [(name, parents.get(name, name)) for name in names]
        for name in steiner:
            if not name.startswith("s"):
                raise HostTreeError(f"steiner node {name!r} lacks 's' prefix")
    else:
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise HostTreeError(f"line {lineno}: expected 'node:parent'")
            a, b = line.split(":", 1)
            pairs.append((a.strip(), b.strip()))

    nodes: list[tuple[int, bool, int, bool]] = []
    max_vertex = -1
    max_id = -1
    for name, pname in pairs:
        i, st = _parse_node_name(name)
        p, pst = _parse_node_name(pname)
        if i < 0 or p < 0:
            raise HostTreeError(f"negative node id in '{name}:{pname}'")
        nodes.append((i, st, p, pst))
        max_id = max(max_id, i, p)
        if not st:
            max_vertex = max(max_vertex, i)
        if not pst:
            max_vertex = max(max_vertex, p)
    if not nodes:
        raise HostTreeError("empty host tree")
    n_vertices = max_vertex + 1

    size = max_id + 1
    parent = [DEAD] * size
    left = [NONE] * size
    right = [NONE] * size
    owner = [NONE] * size
    root = NONE
    present = [False] * size
    for i, st, p, _pst in nodes:
        if st and i < n_vertices:
            raise HostTreeError(
                f"steiner id s{i} collides with vertex id range 0..{n_vertices - 1}")
        if present[i]:
            raise HostTreeError(f"node {i} listed twice")
        present[i] = True
        if p == i:
            if root != NONE:
                raise HostTreeError("multiple roots")
            root = i
            parent[i] = NONE
        else:
            parent[i] = p
    if root == NONE:
        raise HostTreeError("no root (node with itself as parent)")
    for i, _st, p, _pst in nodes:
        if p != i:
            if not (0 <= p < size) or not present[p]:
                raise HostTreeError(f"unknown parent {p} of node {i}")
            if left[p] == NONE:
                left[p] = i
            elif right[p] == NONE:
                right[p] = i
            else:
                raise HostTreeError(f"node {p} has more than two children")
    for v in range(n_vertices):
        if not present[v]:
            raise HostTreeError(f"missing demand vertex {v}")

    host = HostTree(n_vertices, root, parent, left, right, owner)
    host.validate()
    # Recover steiner owners: nearest non-steiner ancestor.
    for i in _preorder(host):
        if host.is_steiner(i):
            p = parent[i]
            owner[i] = p if p < n_vertices else owner[p]
    host.owner = _int64(owner)
    return host
