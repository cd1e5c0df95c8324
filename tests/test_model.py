import pytest

from treehost import (EdgeListError, HostTreeError, UnknownVertexError,
                      UnrootedTree, gen, opt_cost, parse_edge_list,
                      parse_host, root_at, run_bracket_builder,
                      run_tournament, serialize)


def test_parse_path():
    t = parse_edge_list("0 1\n1 2")
    assert t.n == 3
    assert t.labels == ["0", "1", "2"]
    d = root_at(t, 1)
    assert d.children(1) == [0, 2]
    assert d.child_count(1) == 2
    assert d.parent[0] == 1 and d.parent[2] == 1


def test_parse_fig_tree(fig_text):
    t = parse_edge_list(fig_text)
    assert t.n == 14
    d = root_at(t, 0)
    by_label = {d.label(v): d.child_count(v) for v in range(d.n)}
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
    assert t.labels == ["a", "b", "c"]


def test_empty_input_is_single_vertex():
    t = parse_edge_list("")
    assert t.n == 1
    d = root_at(t, 0)
    assert d.child_count(0) == 0
    assert d.leaf_count() == 1


def test_reroot_star_changes_child_counts():
    n = 8
    star = UnrootedTree.from_edges([(0, i) for i in range(1, n)])
    at_center = root_at(star, 0)
    assert at_center.child_count(0) == n - 1
    at_leaf = root_at(star, 3)
    assert at_leaf.child_count(3) == 1
    assert at_leaf.child_count(0) == n - 2


def test_root_at_unknown_root():
    t = parse_edge_list("0 1")
    with pytest.raises(UnknownVertexError):
        root_at(t, 7)


def test_child_sum_random(rng):
    for _ in range(40):
        n = rng.randint(1, 120)
        d = gen("random", n, seed=rng.randrange(2 ** 30)) if n > 1 else gen("path", 1)
        d.validate()
        assert sum(d.child_counts()) == n - 1
        assert d.leaf_count() >= 1


def test_serialize_single_vertex():
    d = gen("path", 1)
    h = run_bracket_builder(d)
    assert serialize(h) == "0:0\n"


def _assert_roundtrip(host):
    for form in ("text", "json"):
        back = parse_host(serialize(host, form))
        assert back.root == host.root
        assert back.n_vertices == host.n_vertices
        live = sorted(host.live_nodes())
        assert sorted(back.live_nodes()) == live
        for i in live:
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
    for s in h.steiner_nodes():
        assert back.owner[s] == h.owner[s]


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


@pytest.mark.parametrize("name", ["²", "١", "s²", "-١"])
def test_parse_host_rejects_unicode_digits(name):
    # '²' and '١' pass str.isdigit; int() rejects the first and reads the
    # second as 1, which would silently name vertex 1
    with pytest.raises(HostTreeError, match="bad node name"):
        parse_host(f"0:0\n{name}:0\n")
    with pytest.raises(HostTreeError, match="bad node name"):
        parse_host(f'{{"nodes": ["0", "{name}"], "parent": {{"{name}": "0"}}}}')


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
