"""Binary host-tree synthesis for tree-shaped demand graphs.

Given a tree of unit communication demands, build a binary host tree on the
same vertices that keeps demanding pairs close: phase 1 hangs a balanced
bracket of each vertex's children below it (introducing temporary steiner
nodes), phase 2 removes every steiner node through knockout matches whose
total cost impact is at most n-1.  Closed-form lower bounds and an
exhaustive small-instance optimum make the quality measurable.
"""
from .bounds import (BoundRow, best_case_height, bracket_cost_bound,
                     ceil_log2, format_table, lb_exact, lb_instance,
                     lb_simple, table1)
from .bracket import run_bracket_builder
from .cost import CostBreakdown, evaluate
from .generate import (BstDemoResult, KeyedPath, balanced_bst_host,
                       bst_adversarial, bst_demo, exhaustive_bst_min, gen)
from .model import (DemandTree, EdgeListError, HostTree, HostTreeError,
                    InvariantViolation, ParameterError, ResourceCapError,
                    TreeHostError, UnknownVertexError, UnrootedTree,
                    parse_edge_list, parse_host, root_at, serialize)
from .oracle import opt_cost
from .pipeline import SolveReport, SolveResult, solve_instance
from .tournament import (TournamentResult, check_invariants, match_keys,
                         run_tournament)

__version__ = "0.1.0"

__all__ = [
    "BoundRow", "BstDemoResult", "CostBreakdown",
    "DemandTree", "EdgeListError", "HostTree", "HostTreeError",
    "InvariantViolation", "KeyedPath", "ParameterError",
    "ResourceCapError", "SolveReport", "SolveResult", "TournamentResult",
    "TreeHostError", "UnknownVertexError", "UnrootedTree", "balanced_bst_host",
    "best_case_height", "bracket_cost_bound", "bst_adversarial", "bst_demo",
    "ceil_log2", "check_invariants",
    "evaluate", "exhaustive_bst_min",
    "format_table", "gen", "lb_exact", "lb_instance", "lb_simple",
    "match_keys", "opt_cost", "parse_edge_list", "parse_host",
    "root_at", "run_bracket_builder", "run_tournament", "serialize",
    "solve_instance", "table1",
]
