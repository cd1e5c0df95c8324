"""Static checks over the package source (no linter is a dependency)."""
import ast
from pathlib import Path

import pytest

import treehost

SRC = Path(treehost.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports that the module never names and does not
    list in ``__all__``."""
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used and name not in exported]


def test_unused_import_scan_finds_a_dead_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport sys as system\n"
                     "from a import b, c\n__all__ = ['c']\nsystem.exit(0)\n")
    assert _unused_imports(tree) == ["os (line 2)", "b (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


# The public API.  A name joins or leaves it only through an edit here.
PUBLIC = [
    "BoundRow", "BstDemoResult", "CostBreakdown", "DemandTree",
    "EdgeListError", "HostTree", "HostTreeError", "InvariantViolation",
    "KeyedPath", "ParameterError", "ResourceCapError", "SolveReport",
    "SolveResult", "TournamentResult", "TreeHostError", "UnknownVertexError",
    "UnrootedTree", "balanced_bst_host", "best_case_height",
    "bracket_cost_bound", "bst_adversarial", "bst_demo", "ceil_log2",
    "check_invariants", "evaluate", "exhaustive_bst_min",
    "format_table", "gen", "lb_exact", "lb_instance", "lb_simple",
    "match_keys", "opt_cost", "parse_edge_list", "parse_host", "root_at",
    "run_bracket_builder", "run_tournament", "serialize", "solve_instance",
    "table1",
]


def test_public_surface_is_pinned():
    assert sorted(treehost.__all__) == PUBLIC
    assert all(hasattr(treehost, name) for name in PUBLIC)


# The model classes' public attributes, next to the public API: a helper
# that only the tests use belongs in tests/helpers.py, and comes back into
# the model only through an edit here.
MODEL_SURFACE = {
    "DemandTree": ["child_counts", "child_flat", "child_off", "label",
                   "labels", "leaf_count", "n", "parent", "root"],
    "HostTree": ["is_steiner", "left", "n_vertices", "num_nodes", "owner",
                 "parent", "right", "root", "steiner_count", "validate"],
    "UnrootedTree": ["edges", "from_edges", "from_tree_edges_unchecked",
                     "labels", "n", "parent0"],
}


@pytest.mark.parametrize("name", sorted(MODEL_SURFACE))
def test_model_class_surface_is_pinned(name):
    cls = getattr(treehost, name)
    public = sorted(a for a in dir(cls) if not a.startswith("_"))
    assert public == MODEL_SURFACE[name]


def _private_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) of every relative import of a private name, at any
    depth, function bodies included."""
    return sorted((node.module or "", alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names if alias.name.startswith("_"))


def test_private_import_scan_finds_a_nested_import():
    tree = ast.parse("from .model import NONE, _span_order\nimport _thread\n"
                     "from os import _exit\n"
                     "def f():\n    from .bracket import _slots\n")
    assert _private_imports(tree) == [("bracket", "_slots"),
                                      ("model", "_span_order")]


# The package's modules that reach into another module's private names.
# A new coupling joins only through an edit here.
PRIVATE_IMPORTS = {}


def test_cross_module_private_imports_are_pinned():
    found = {path.stem: _private_imports(ast.parse(
        path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))}
    pinned = {name: pairs for name, pairs in found.items() if pairs}
    assert pinned == PRIVATE_IMPORTS


def _unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level private functions and classes that nothing names
    outside their own definition: not their own module, not a relative
    import from it, not an attribute access anywhere."""
    defined, named, attrs = [], set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            names = {(module, n.id) for n in ast.walk(node)
                     if isinstance(n, ast.Name)}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.discard((module, node.name))
                if node.name.startswith("_"):
                    defined.append((module, node.name))
            named |= names
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level:
                named |= {(n.module or "", a.name) for a in n.names}
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return [f"{module}.{name}" for module, name in defined
            if (module, name) not in named and name not in attrs]


def test_unreferenced_private_scan_finds_a_left_behind_routine():
    trees = {"a": ast.parse("def _walk(n):\n    return _walk(n - 1)\n"
                            "def _used():\n    pass\n"
                            "class _Spare:\n    pass\n"
                            "def _imported():\n    pass\n"
                            "def _looked_up():\n    pass\n"
                            "def public():\n    return _used()\n"),
             "b": ast.parse("from .a import _imported\n"
                            "def _used():\n    pass\n"
                            "x = a._looked_up\n")}
    assert _unreferenced_privates(trees) == ["a._walk", "a._Spare",
                                             "b._used"]


def test_no_private_routine_is_left_behind():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_privates(trees) == []
