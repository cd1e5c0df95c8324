import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehost import (EdgeListError, HostTree, HostTreeError,
                      UnknownVertexError, UnrootedTree, check_invariants,
                      evaluate, gen, opt_cost, parse_edge_list, parse_host,
                      root_at, run_bracket_builder, run_tournament, serialize)
from treehost import model
from treehost.generate import prufer_edges
from treehost.model import _BREAK_CHARS, _SPACE_CHARS, NONE, Labels

import helpers


def test_parse_path():
    t = parse_edge_list("0 1\n1 2")
    assert t.n == 3
    assert helpers.label_list(t.labels) == ["0", "1", "2"]
    d = root_at(t, 1)
    assert helpers.demand_children(d, 1) == [0, 2]
    assert helpers.child_count(d, 1) == 2
    assert d.parent[0] == 1 and d.parent[2] == 1


def test_parse_fig_tree(fig_text):
    t = parse_edge_list(fig_text)
    assert t.n == 14
    d = root_at(t, 0)
    by_label = {d.label(v): helpers.child_count(d, v) for v in range(d.n)}
    assert by_label["r"] == 3
    assert by_label["u"] == 4
    assert by_label["v"] == 1
    assert by_label["w"] == 3
    assert by_label["x"] == 2
    assert sum(by_label.values()) == 13


@pytest.mark.parametrize("text,needle", [
    ("0 1\n0 1", "duplicate edge"),
    ("1 0\n0 1", "duplicate edge"),
    ("0 0", "self-loop"),
    ("0 1\n2 3", "disconnected"),
    ("0 1\n1 2\n2 0", "cycle"),
    ("0 1 2", "two tokens"),
])
def test_parse_errors_are_distinct(text, needle):
    with pytest.raises(EdgeListError, match=needle):
        parse_edge_list(text)


def test_parse_comments_and_blanks():
    t = parse_edge_list("# a comment\n\na b  # trailing\nb c\n")
    assert t.n == 3
    assert helpers.label_list(t.labels) == ["a", "b", "c"]


def test_empty_input_is_single_vertex():
    t = parse_edge_list("")
    assert t.n == 1
    d = root_at(t, 0)
    assert helpers.child_count(d, 0) == 0
    assert d.leaf_count() == 1


def test_reroot_star_changes_child_counts():
    n = 8
    star = UnrootedTree.from_edges([(0, i) for i in range(1, n)])
    at_center = root_at(star, 0)
    assert helpers.child_count(at_center, 0) == n - 1
    at_leaf = root_at(star, 3)
    assert helpers.child_count(at_leaf, 3) == 1
    assert helpers.child_count(at_leaf, 0) == n - 2


def test_root_at_unknown_root():
    t = parse_edge_list("0 1")
    with pytest.raises(UnknownVertexError):
        root_at(t, 7)


def test_child_sum_random(rng):
    for _ in range(40):
        n = rng.randint(1, 120)
        d = gen("random", n, seed=rng.randrange(2 ** 30)) if n > 1 else gen("path", 1)
        helpers.validate_demand(d)
        assert sum(d.child_counts()) == n - 1
        assert d.leaf_count() >= 1


def test_serialize_single_vertex():
    d = gen("path", 1)
    h = run_bracket_builder(d)
    assert serialize(h) == "0:0\n"


def test_serialize_refuses_a_node_that_lists_one_child_twice():
    """A path host whose node 4998 lists 4999 as left and right child: the
    tour walks into 4999 twice, which must end in an error, not a loop."""
    n = 5000
    parent = np.arange(-1, n - 1)
    left = np.append(np.arange(1, n), NONE)
    right = np.full(n, NONE)
    right[n - 2] = n - 1
    host = HostTree(n, 0, parent, left, right, [])
    with pytest.raises(HostTreeError, match="not connected from root"):
        serialize(host)


# 500 000 elements: the ruler spacing k is at its cap, 32, from 492 032 on
@pytest.mark.parametrize("size", [5, 5000, 500_000])
def test_list_ranks_gives_up_off_a_simple_list(size):
    """A list in shuffled order is ranked, with thousands of rulers at the
    larger sizes, so the segment bases gathered in place over the walkers
    are checked; with one successor redirected (a cut, a cycle or two
    predecessors of one element) it is refused.
    So it is when two rulers' walks land on one element in the same step
    and go on together."""
    rnd = random.Random(size)
    order = list(range(size))
    rnd.shuffle(order)
    succ = np.full(size, NONE)
    succ[order[:-1]] = order[1:]
    ranks = model._list_ranks(succ, order[0])
    assert np.array_equal(ranks[order], np.arange(size))
    for _ in range(30):
        bent = succ.copy()
        bent[rnd.randrange(size)] = rnd.choice([NONE, rnd.randrange(size)])
        got = model._list_ranks(bent, order[0])
        assert (got is None) == (not np.array_equal(bent, succ))
    ruler = np.zeros(size, dtype=bool)
    ruler[model._rulers(size, order[0])] = True
    # rulers (not the head) whose successors are neither rulers nor the end
    walks = [r for r in order[1:-1] if ruler[r] and not ruler[succ[r]]]
    for first, second in zip(walks[:10], walks[1:11]):
        bent = succ.copy()
        bent[second] = succ[first]  # both walks reach it in their first step
        assert model._list_ranks(bent, order[0]) is None
    if size > 5:
        assert len(walks) > 10


def _assert_roundtrip(host):
    for form in ("text", "json"):
        back = parse_host(serialize(host, form))
        assert back.root == host.root
        assert back.n_vertices == host.n_vertices
        assert back.num_nodes() == host.num_nodes()
        for i in range(host.num_nodes()):
            assert back.parent[i] == host.parent[i]
            assert back.left[i] == host.left[i]
            assert back.right[i] == host.right[i]
            assert back.is_steiner(i) == host.is_steiner(i)


def test_serialize_roundtrip_random(rng):
    for _ in range(25):
        n = rng.randint(2, 60)
        d = gen("random", n, seed=rng.randrange(2 ** 30))
        h1 = run_bracket_builder(d)
        _assert_roundtrip(h1)
        run_tournament(h1, d)
        _assert_roundtrip(h1)
    _, opt_host = opt_cost(gen("random", 7, seed=5))
    _assert_roundtrip(opt_host)


def test_roundtrip_preserves_steiner_owner(fig_demand):
    h = run_bracket_builder(fig_demand)
    back = parse_host(serialize(h))
    for s in helpers.steiner_nodes(h):
        assert back.owner[s - h.n_vertices] == h.owner[s - h.n_vertices]


def test_parse_host_rejects_garbage():
    with pytest.raises(HostTreeError):
        parse_host("0:0\n0:0")          # node listed twice
    with pytest.raises(HostTreeError):
        parse_host("0:1")               # unknown parent, no root
    with pytest.raises(HostTreeError):
        parse_host("0:0\n1:0\n2:0\n3:0")  # ternary node
    with pytest.raises(HostTreeError):
        parse_host("0:0\n2:0")          # missing vertex 1
    with pytest.raises(HostTreeError):
        parse_host("")


@pytest.mark.parametrize("parent, left, right", [
    ([NONE], [NONE], [-2]),            # a child id below NONE
    ([NONE, 0], [1, NONE], [7, NONE]),  # a child id past the last node
], ids=["below-none", "past-the-end"])
def test_validate_refuses_a_child_id_outside_the_nodes(parent, left, right):
    host = HostTree(len(parent), 0, parent, left, right, [])
    with pytest.raises(HostTreeError,
                       match=rf"^child link 0->{right[0]} not mirrored$"):
        host.validate()


@pytest.mark.parametrize("n_vertices, left, owner", [
    (2, [1], []), (3, [1, NONE], []),
    (2, [1, NONE], [NONE]),  # an owner entry with no steiner node
], ids=["short-left", "short-of-vertices", "owner-of-no-steiner"])
def test_validate_refuses_arrays_of_the_wrong_length(n_vertices, left, owner):
    host = HostTree(n_vertices, 0, [NONE, 0], left, [NONE, NONE], owner)
    with pytest.raises(HostTreeError, match="host arrays of unequal lengths"):
        host.validate()


def test_validate_refuses_a_node_that_lists_one_child_twice():
    d = root_at(parse_edge_list("0 1"), 0)
    host = HostTree(2, 0, [NONE, 0], [1, NONE], [1, NONE], [])
    with pytest.raises(HostTreeError, match="^node 0 lists child 1 twice$"):
        host.validate()
    with pytest.raises(HostTreeError, match="^node 0 lists child 1 twice$"):
        check_invariants(d, host)


def test_parse_host_numbers_sparse_steiner_ids_densely(fig_demand):
    """Steiner ids take the slots after the vertices in id order, so a
    sparse steiner name, of any size up to 18 digits, loads and scores
    like a dense one."""
    text = serialize(run_bracket_builder(fig_demand))
    sparse = re.sub(r"s(\d+)", lambda m: f"s{int(m[1]) * 7919 + 10 ** 15}",
                    text)
    assert sparse != text
    dense, back = parse_host(text), parse_host(sparse)
    assert back.root == dense.root and back.n_vertices == dense.n_vertices
    for field in ("parent", "left", "right", "owner"):
        assert getattr(back, field).tolist() == getattr(dense, field).tolist()
    assert evaluate(fig_demand, back) == evaluate(fig_demand, dense)
    leaf = parse_host("0:0\n1:0\ns111111111111:0\n")
    assert leaf.parent.tolist() == [NONE, 0, 0]
    assert helpers.steiner_nodes(leaf) == [2]


def _host_outcome(parse, text: str):
    """The message of the HostTreeError that ``parse(text)`` raises, or the
    host's vertex count, root and arrays."""
    try:
        host = parse(text)
    except HostTreeError as e:
        return str(e)
    return (host.n_vertices, host.root,
            *(getattr(host, f).tolist()
              for f in ("parent", "left", "right", "owner")))


@st.composite
def _damaged_hosts(draw):
    """Serialized hosts of small trees, with lines copied, dropped,
    re-pointed (also at a node with two children), renamed, made roots,
    given sparse steiner ids or shuffled."""
    d = gen(draw(st.sampled_from(["random", "star", "path", "caterpillar"])),
            draw(st.integers(1, 12)), seed=draw(st.integers(0, 99)))
    host = run_bracket_builder(d)
    if draw(st.booleans()):
        run_tournament(host, d)
    lines = [line.split(":") for line in serialize(host).splitlines()]
    name = st.one_of(st.sampled_from(sorted({a for a, _ in lines})),
                     st.integers(0, 30).map(str),
                     st.integers(0, 30).map("s{}".format))
    for op in draw(st.lists(st.integers(0, 7), max_size=3)):
        k = draw(st.integers(0, len(lines) - 1))
        if op == 0:
            lines.insert(draw(st.integers(0, len(lines))), list(lines[k]))
        elif op == 1 and len(lines) > 1:
            del lines[k]
        elif op in (2, 3):
            lines[k][op - 2] = draw(name)
        elif op == 4:
            lines[k][1] = lines[k][0]
        elif op == 5 and lines[k][0].startswith("s"):
            was, big = lines[k][0], f"s{draw(st.integers(40, 400))}"
            lines = [[big if x == was else x for x in line] for line in lines]
        elif op == 6:
            lines = draw(st.permutations(lines))
        elif op == 7:
            full = [b for a, b in lines if a != b]
            full = sorted({b for b in full if full.count(b) == 2})
            lines[k][1] = draw(st.sampled_from(full or [lines[k][1]]))
    return "".join(f"{a}:{b}\n" for a, b in lines)


@settings(database=None, derandomize=True, deadline=None, max_examples=400)
@given(_damaged_hosts())
def test_parse_host_matches_the_node_by_node_reference(text):
    """The array checks name the same first fault as the node-by-node
    reader, and a valid host loads as it does, its steiner ids numbered
    densely."""
    assert (_host_outcome(parse_host, text)
            == _host_outcome(helpers.reference_parse_host, text))


@pytest.mark.parametrize("name", ["²", "١", "s²", "-١"])
def test_parse_host_rejects_unicode_digits(name):
    # '²' and '١' pass str.isdigit; int() rejects the first and reads the
    # second as 1, which would silently name vertex 1
    with pytest.raises(HostTreeError, match="bad node name"):
        parse_host(f"0:0\n{name}:0\n")
    with pytest.raises(HostTreeError, match="bad node name"):
        parse_host(f'{{"nodes": ["0", "{name}"], "parent": {{"{name}": "0"}}}}')


@pytest.mark.parametrize("text,message", [
    ("# a host\n\n0:0  # the root\n   \n1 : 0\n", None),
    ("0:0\n\n1 0\n", "line 3: expected 'node:parent'"),
    ("0:0\n-1:0\n", "negative node id in '-1:0'"),
    ('{"nodes": ["0", "1", "2"], "parent": {"1": "0", "2": "0"}, '
     '"steiner": ["2"]}', "steiner node '2' lacks 's' prefix"),
])
def test_parse_host_reads_lines_and_names(text, message):
    """Blank and comment lines are skipped, and a bad line or name is
    named."""
    if message is None:
        host = parse_host(text)
        assert (host.root, host.parent.tolist()) == (0, [NONE, 0])
        return
    with pytest.raises(HostTreeError) as err:
        parse_host(text)
    assert str(err.value) == message


def test_parse_host_json_shape_errors():
    with pytest.raises(HostTreeError):
        parse_host('{"nodes": ["0", "1"], "root": "0"}')        # no parent
    with pytest.raises(HostTreeError):
        parse_host('{"nodes": ["0", "1"], "parent": {"1": "0"}, "steiner": 5}')
    with pytest.raises(HostTreeError):
        parse_host('{"nodes": ["0", [1]], "parent": {}}')        # bad name


def test_fig_final_host_parent_text(fig_demand):
    h = run_bracket_builder(fig_demand)
    run_tournament(h, fig_demand)
    text = serialize(h)
    lines = dict(line.split(":") for line in text.strip().splitlines())
    ids = {"r": "0", "u": "1", "v": "2", "w": "3", "x": "11",
           **{str(k): str(v) for k, v in
              zip(range(1, 10), [4, 5, 6, 7, 8, 9, 10, 12, 13])}}
    assert lines[ids["r"]] == ids["r"]          # root
    assert lines[ids["v"]] == ids["r"]
    assert lines[ids["w"]] == ids["v"]
    assert lines[ids["u"]] == ids["w"]
    assert lines[ids["9"]] == ids["8"]


def test_character_classes_match_the_str_methods():
    space = [c for c in range(0x110000) if chr(c).isspace()]
    breaks = [c for c in range(0x110000)
              if len(f"a{chr(c)}b".splitlines()) == 2]
    assert sorted(map(ord, _SPACE_CHARS)) == space
    assert sorted(map(ord, _BREAK_CHARS)) == breaks


# Labels that numpy string arrays or int64 would get wrong: a trailing NUL
# (dropped by the U dtype), non-ASCII digits, leading zeros next to the
# same value, and non-ASCII text.
_TRICKY_LABELS = ["7", "007", "²", "١", "a", "a\x00", "a\x00\x00", "\x00",
                  "é", "0", "s1", "18446744073709551617"]
_INNER_SPACE = [" ", "\t", " \t ", "\x1f", "\xa0", "\u3000"]
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029"]
_DAMAGE = ("none", "none", "none", "duplicate", "reversed-duplicate",
           "self-loop", "drop", "extra", "one-token", "three-tokens")


@st.composite
def _edge_list_texts(draw):
    """A tree's edge list, maybe damaged, spelled with tricky labels,
    separators, line ends, blank lines and comments."""
    n = draw(st.integers(1, 24))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0),
                        max_size=max(n - 2, 0)))
    rnd = draw(st.randoms(use_true_random=False))
    names = rnd.sample(_TRICKY_LABELS + helpers.WORD_LABELS
                       + [f"v{i}" for i in range(n)], n)
    lines = [[names[u], names[v]] for u, v in
             (prufer_edges(seq, n) if n > 1 else [])]
    rnd.shuffle(lines)
    damage = draw(st.sampled_from(_DAMAGE))
    if lines and damage in ("duplicate", "reversed-duplicate"):
        pair = rnd.choice(lines)
        lines.insert(rnd.randrange(len(lines) + 1),
                     pair if damage == "duplicate" else pair[::-1])
    elif damage == "self-loop":
        lines.insert(rnd.randrange(len(lines) + 1), [names[0]] * 2)
    elif lines and damage == "drop":
        lines.pop(rnd.randrange(len(lines)))
    elif damage == "extra":
        lines.append([rnd.choice(names), rnd.choice(names + ["new"])])
    elif lines and damage in ("one-token", "three-tokens"):
        line = rnd.choice(lines)
        if damage == "one-token":
            line.pop()
        else:
            line.append(rnd.choice(names))
    out = []
    for line in lines:
        while rnd.random() < 0.2:
            out.append(rnd.choice(["", " ", "\t", "# only a comment",
                                   "  #", "#a b c"]))
        text = rnd.choice(_INNER_SPACE).join(line)
        if rnd.random() < 0.3:
            text = rnd.choice(["", " ", "\t"]) + text + rnd.choice(["", " "])
        if rnd.random() < 0.2:
            text += rnd.choice(["#", " # x y z", "#\t1 2"])
        out.append(text)
    ends = [rnd.choice(_LINE_ENDS) for _ in out]
    text = "".join(line + end for line, end in zip(out, ends))
    return text if rnd.random() < 0.8 else text.rstrip("".join(_LINE_ENDS))


def _parsed(parse, text):
    try:
        t = parse(text)
    except EdgeListError as exc:
        return str(exc)
    return t.n, helpers.label_list(t.labels), t.edges.tolist()


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(_edge_list_texts())
@helpers.examples(helpers.LABEL_TEXTS)
def test_parser_matches_the_line_by_line_reference(text):
    got = _parsed(parse_edge_list, text)
    assert got == _parsed(helpers.reference_parse_edge_list, text)
    if isinstance(got, str):
        return
    tree = parse_edge_list(text)
    for v, name in enumerate(got[1]):
        assert tree.labels.find(name) == v
    assert tree.labels.find("absent") == -1
    for r in range(tree.n):
        new, ref = root_at(tree, r), helpers.reference_root_at(tree, r)
        assert new.root == ref.root == r
        for name in ("parent", "child_off", "child_flat"):
            assert np.array_equal(getattr(new, name), getattr(ref, name))


@pytest.mark.parametrize("text,message", [
    ("a b\r\nb c x\r\n", "line 2: expected two tokens 'u v', got 3"),
    ("a b\n\n  # c d e\nc\n", "line 4: expected two tokens 'u v', got 1"),
    ("a b\x85b c d", "line 2: expected two tokens 'u v', got 3"),
    # an even number of tokens, with four on a line
    ("a b c d\n", "line 1: expected two tokens 'u v', got 4"),
    ("a b\r\n\r\nb c d e\r\nd f", "line 3: expected two tokens 'u v', got 4"),
    ("a\x00 a\x00\x00\na\x00 a\x00\x00", "duplicate edge 'a\x00 a\x00\x00'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(EdgeListError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


def test_labels_differing_by_a_trailing_nul_stay_distinct():
    t = parse_edge_list("a a\x00\na\x00 7\n7 007\n")
    assert helpers.label_list(t.labels) == ["a", "a\x00", "7", "007"]


def test_labels_are_made_into_strings_only_on_request():
    for labels in (["a", "", "a\x00", "é", "10"], ["x", "y"], [],
                   ["中", "x", "\ud800"], ["😀", "\ud83d\ude00", "\udc80x"]):
        held = Labels.of(labels)
        assert len(held) == len(labels)
        assert helpers.label_list(held) == labels
        assert [held[v] for v in range(len(labels))] == labels
        assert (helpers.label_list(held, [1, 0] if labels else [])
                == labels[1::-1])
        for v, name in enumerate(labels):
            assert held.find(name) == labels.index(name)
        for absent in {"中", "😁", "b"} - set(labels):
            assert held.find(absent) == -1


def test_root_at_reverses_the_path_to_vertex_0():
    t = parse_edge_list("a b\nb c\nc d\n")
    assert t.parent0.tolist() == [-1, 0, 1, 2]
    assert root_at(t, 3).parent.tolist() == [1, 2, 3, -1]
    assert t.parent0.tolist() == [-1, 0, 1, 2]


def test_unchecked_edges_that_do_not_connect_cannot_be_rooted():
    for edges, n in (([(0, 1), (2, 3)], 4), ([(0, 1)], 3), ([(1, 2)], 3),
                     ([], 2)):
        t = UnrootedTree.from_tree_edges_unchecked(edges, n)
        assert t.parent0 is None
        with pytest.raises(EdgeListError):
            root_at(t, 0)


def test_more_than_n_minus_1_edges_cannot_be_rooted():
    """Three copies of the edge 0-2 leave vertex 1 alone; a tree with one
    edge repeated is no tree either."""
    for edges, n in (([(0, 2)] * 3, 3), ([(0, 1), (1, 2), (1, 2)], 3),
                     ([(0, 1), (0, 1)], 2), ([(0, 0)], 1)):
        t = UnrootedTree.from_tree_edges_unchecked(edges, n)
        assert t.parent0 is None
        with pytest.raises(EdgeListError):
            root_at(t, 0)


@pytest.mark.parametrize("kind", ["path", "star", "caterpillar",
                                  "complete_binary", "random"])
def test_tour_orientation_matches_bfs_at_scale(kind):
    d = gen(kind, 30_001, seed=5)
    edges = list(helpers.demand_edges(d))
    random_order = np.random.default_rng(1).permutation(len(edges))
    t = UnrootedTree.from_tree_edges_unchecked(
        [edges[i][::-1] if i % 3 else edges[i] for i in random_order.tolist()],
        d.n)
    for r in (0, 1, d.n // 2, d.n - 1):  # n - 1 ends the path
        new, ref = root_at(t, r), helpers.reference_root_at(t, r)
        for name in ("parent", "child_off", "child_flat"):
            assert np.array_equal(getattr(new, name), getattr(ref, name))


@st.composite
def _edge_lists(draw):
    """n - 1 edges on n vertices, each either way round, in any order: a
    tree, relabelled so that vertex 0 may be a leaf, the hub or anything
    between, or any n - 1 pairs, which give cycles, self-loops, duplicate
    edges, isolated vertices and components of two leaves."""
    n = draw(st.integers(1, 12))
    if n > 1 and draw(st.booleans()):
        seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2,
                            max_size=n - 2))
        name = draw(st.permutations(range(n)))
        edges = [(name[u], name[v]) for u, v in prufer_edges(seq, n)]
    else:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = draw(st.lists(pair, min_size=n - 1, max_size=n - 1))
    edges = draw(st.permutations(edges))
    flip = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flip)]


@settings(database=None, derandomize=True, deadline=None, max_examples=400)
@given(_edge_lists())
@helpers.examples([
    (1, []), (2, [(0, 1)]), (2, [(1, 0)]),
    (3, [(0, 1), (1, 2)]), (3, [(1, 0), (0, 2)]), (3, [(2, 1), (0, 2)]),
    (6, [(0, i) for i in range(1, 6)]),               # vertex 0 the hub
    (4, [(1, 0), (1, 2), (3, 1)]),                    # vertex 0 a leaf
    (2, [(1, 1)]), (2, [(0, 0)]), (3, [(1, 1), (1, 0)]),   # self-loops
    (3, [(0, 1), (1, 0)]), (4, [(0, 1), (0, 1), (3, 2)]),  # duplicates
    (4, [(0, 1), (1, 2), (2, 0)]),                    # an isolated vertex
    (5, [(0, 1), (1, 2), (2, 0), (3, 4)]),            # two leaves apart
    (5, [(3, 4), (0, 1), (1, 1), (1, 2)]),
    (5, [(0, 4), (1, 2), (2, 3), (3, 1)]),            # 0 hangs one leaf
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (3, 5)]),    # leaves of no tour
    (6, [(4, 3), (3, 5), (0, 1), (1, 2), (2, 0)]),
])
def test_leaves_hang_apart_as_the_whole_tour_hangs_them(case):
    """``parent0`` matches one Euler tour over every edge, on trees and on
    n - 1 edges that are none, and the parser words the same diagnostic as
    the line-by-line reference."""
    n, edges = case
    got = UnrootedTree.from_tree_edges_unchecked(edges, n).parent0
    want = helpers.reference_parent0(edges, n)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)
    text = "".join(f"{u} {v}\n" for u, v in edges)
    assert (_parsed(parse_edge_list, text)
            == _parsed(helpers.reference_parse_edge_list, text))


@st.composite
def _byte_spans(draw):
    """Spans of one unit width, 0-17 units from a few values, NUL among
    them, some repeated, and a ``first`` key 2, 17, 21 or 63 bits wide."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    unit = st.sampled_from([0, 1, 2, int(np.iinfo(dtype).max)])
    spans = draw(st.lists(st.lists(unit, max_size=17), max_size=30))
    if spans:
        spans += draw(st.lists(st.sampled_from(spans), max_size=15))
    spans = draw(st.permutations(spans))
    wide = draw(st.sampled_from([3, 1 << 16, 1 << 20, (1 << 63) - 1]))
    keys = draw(st.lists(st.integers(0, wide), min_size=1, max_size=3))
    first = [draw(st.sampled_from(keys)) for _ in spans]
    return dtype, spans, first, wide


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(_byte_spans())
def test_span_order_matches_a_sorted_tuple_reference(case):
    """``_span_order`` is Python's stable sort by ``first``, then by the
    span's big-endian bytes zero-padded to one length, so "a" and "a\\0"
    tie; ``tied`` marks each span equal to the one before it in that key."""
    dtype, spans, first, wide = case
    length = np.array([len(span) for span in spans], dtype=np.int64)
    start = np.cumsum(length) - length
    units = np.array([u for span in spans for u in span], dtype=dtype)
    size = units.itemsize
    order, tied = model._span_order(
        model._word_view(units), start * size, length * size,
        np.array(first, np.uint16 if wide < 1 << 16 else np.int64))
    pad = size * int(length.max(initial=0))
    key = [(f, np.array(span, dtype).astype(np.dtype(dtype).newbyteorder(">"))
            .tobytes().ljust(pad, b"\0")) for f, span in zip(first, spans)]
    want = sorted(range(len(spans)), key=key.__getitem__)
    assert order.tolist() == want
    assert tied.tolist() == [i > 0 and key[want[i]] == key[want[i - 1]]
                             for i in range(len(want))]


def test_lex_rank_orders_numerals_past_16_bit_digit_counts():
    """Numerals of more than 65 535 digits, some with leading zeros, put
    the digit count that ``_span_order`` sorts first above 16 bits."""
    big = "1" * 65_536
    labels = [big, "0" + big, "9" * 65_535, big[:-1] + "2", "00" + big,
              "7", "007", "a", big + "a", "0", "000", "2" + "0" * 70_000]
    assert np.array_equal(Labels.of(labels).lex_rank(),
                          helpers.reference_label_rank(labels))


def _reference_serialize(host, form: str) -> str:
    """The host as a preorder walk and ``json.dumps`` write it."""
    def name(i):
        return str(i) if i < host.n_vertices else f"s{i}"
    order = helpers.reference_preorder(host)
    if form == "text":
        up = [i if i == host.root else int(host.parent[i]) for i in order]
        return "".join(f"{name(i)}:{name(p)}\n" for i, p in zip(order, up))
    doc = {
        "nodes": [name(i) for i in order],
        "parent": {name(i): name(int(host.parent[i]))
                   for i in order if i != host.root},
        "steiner": [name(i) for i in order if host.is_steiner(i)],
        "root": name(host.root),
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("kind,n", [("path", 1), ("path", 2), ("star", 9),
                                    ("random", 40), ("caterpillar", 31),
                                    ("path", 3000), ("random", 5000)])
def test_serialize_writes_the_preorder_walk(kind, n):
    d = gen(kind, n, seed=n)
    host = run_bracket_builder(d)
    for phase in (1, 2):
        if phase == 2:
            run_tournament(host, d)
        for form in ("text", "json"):
            assert serialize(host, form) == _reference_serialize(host, form)
    if n == 1:
        assert '"parent": {}' in serialize(host, "json")
        assert '"steiner": []' in serialize(host, "json")
