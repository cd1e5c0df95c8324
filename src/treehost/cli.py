"""Command-line interface.

Subcommands: gen, solve, eval, lb, table, oracle, check, bst-demo.
Exit codes: 0 success, 1 input error, 2 invariant violation, 3 resource cap
or memory exhausted.
"""
from __future__ import annotations

import argparse
import io
import json
import random
import sys

import numpy as np

from .bounds import format_table, lb_instance, table1
from .cost import CostBreakdown, evaluate
from .generate import KINDS, bst_demo, gen
from .model import (DemandTree, InvariantViolation, ParameterError,
                    ResourceCapError, TreeHostError, UnknownVertexError,
                    is_ascii_int, json_block, parse_edge_list, parse_host,
                    root_at, serialize, serialize_pieces, write_rows)
from .oracle import MAX_N, opt_cost
from .pipeline import solve_instance
from .tournament import TournamentResult, check_invariants

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_RESOURCE = 3


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        raise TreeHostError(f"usage error: {message}")


def _read_input(path: str) -> str:
    """The UTF-8 text of the file, or of standard input's bytes for
    ``-``, decoded alike."""
    try:
        if path == "-":
            stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
            try:
                return stdin.read()
            finally:
                stdin.detach()  # sys.stdin stays open
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise TreeHostError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                            f"{exc.start})") from None


def _load_demand(path: str, root_label: str | None) -> DemandTree:
    unrooted = parse_edge_list(_read_input(path))
    root = 0
    if root_label is not None:
        root = unrooted.labels.find(root_label)
        if root < 0:
            raise UnknownVertexError(f"unknown root label {root_label!r}")
    return root_at(unrooted, root)


def _int_list(text: str, flag: str) -> list[int]:
    parts = text.split(",")
    if not all(is_ascii_int(p.strip()) for p in parts):
        raise ParameterError(
            f"{flag} needs a comma list of non-negative integers, got {text!r}")
    return [int(p) for p in parts]


def _write_out(pieces: list[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(pieces)


def cmd_gen(args) -> int:
    tree = gen(args.kind, args.n, args.seed)
    kid = tree.child_flat  # one "parent child" row per edge
    _write_out([f"# kind={args.kind} n={args.n} seed={args.seed}\n",
                *write_rows((None, tree.parent[kid]), " ", (None, kid), "\n")],
               args.out)
    return EXIT_OK


def _ledger(demand: DemandTree, tournament: TournamentResult) -> list[str]:
    """The report's ``charge_ledger``, in pieces: a [label, charge] pair
    per match."""
    return json_block(write_rows(
        '    [\n      "', (demand.labels, tournament.losers), '",\n      ',
        (tournament.charges, None), '\n    ],\n'), "[", "]")


def _eval_listing(demand: DemandTree, breakdown: CostBreakdown,
                  as_json: bool) -> list[str]:
    """The total, then the cost of every vertex as a JSON object, or of
    every vertex that has one as ``label cost`` lines, in pieces."""
    cost = np.asarray(breakdown.per_vertex, dtype=np.int64)
    if as_json:
        rows = write_rows('    "', (demand.labels, np.arange(demand.n)), '": ',
                          (cost, None), ",\n")
        return [f'{{\n  "total": {breakdown.total},\n  "per_vertex": ',
                *json_block(rows, "{", "}"), "\n}\n"]
    paid = np.flatnonzero(cost)
    return [f"total {breakdown.total}\n", *write_rows(
        (demand.labels, paid), " ", (cost[paid], None), "\n", raw=True)]


def cmd_solve(args) -> int:
    demand = _load_demand(args.input, args.root)
    result = solve_instance(demand, tiebreak=args.tiebreak,
                            phase1_only=args.phase1_only,
                            debug=args.debug_checks,
                            with_oracle=args.oracle)
    rep = result.report
    if args.out:
        _write_out(serialize_pieces(result.host,
                                    "json" if args.json else "text"), args.out)
    if args.json:
        # the report in json.dumps(indent=2) layout, its big members
        # written directly: the ledger, and the host indented in place
        parts = [json.dumps(rep.to_json_dict(), indent=2)[:-2]]
        if result.tournament is not None:
            parts.append(',\n  "charge_ledger": ')
            parts += _ledger(demand, result.tournament)
        if args.out:
            parts.append(f',\n  "host_file": {json.dumps(args.out)}')
        else:
            parts.append(',\n  "host": ')
            parts += serialize_pieces(result.host, "json", level=1)
        parts.append("\n}\n")
        sys.stdout.writelines(parts)
    else:
        print(f"n              {rep.n}")
        print(f"root           {rep.root}")
        print(f"phase1 cost    {rep.phase1_cost}")
        if rep.final_cost is not None:
            print(f"final cost     {rep.final_cost}")
        print(f"steiner count  {rep.steiner_count}")
        if rep.charge_total is not None:
            print(f"charge total   {rep.charge_total}")
        print(f"lower bound    {rep.lb}")
        print(f"trivial bound  {rep.trivial_lb}")
        if rep.ratio_vs_lb is not None:
            print(f"cost/lb        {rep.ratio_vs_lb:.3f}")
        if rep.oracle_opt is not None:
            print(f"oracle opt     {rep.oracle_opt}")
        if rep.ratio_vs_opt is not None:
            print(f"cost/opt       {rep.ratio_vs_opt:.3f}")
        for phase, t in rep.wall_times.items():
            print(f"time {phase:<9} {t:.3f}s")
        if not args.out:
            sys.stdout.writelines(serialize_pieces(result.host))
    return EXIT_OK


def cmd_eval(args) -> int:
    demand = _load_demand(args.input, args.root)
    host = parse_host(_read_input(args.host))
    sys.stdout.writelines(_eval_listing(demand, evaluate(demand, host),
                                        args.json))
    return EXIT_OK


def cmd_lb(args) -> int:
    demand = _load_demand(args.input, args.root)
    lb = lb_instance(demand, args.delta)
    trivial = max(demand.n - 1, 0)
    if args.json:
        print(json.dumps({"n": demand.n, "delta": args.delta, "lb": lb,
                          "trivial_lb": trivial}))
    else:
        print(f"n            {demand.n}")
        print(f"delta        {args.delta}")
        print(f"lower bound  {lb}")
        print(f"trivial      {trivial}")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = table1()
    sys.stdout.write(format_table(rows, "tsv" if args.tsv else "text"))
    return EXIT_OK


def cmd_oracle(args) -> int:
    demand = _load_demand(args.input, args.root)
    opt, host = opt_cost(demand)
    result = solve_instance(demand)
    alg = result.report.final_cost
    ratio = alg / opt if opt else (0.0 if alg == 0 else float("inf"))
    if args.json:
        print(json.dumps({"n": demand.n, "opt": opt, "alg": alg,
                          "ratio": ratio}))
    else:
        print(f"opt    {opt}")
        print(f"alg    {alg}")
        print(f"ratio  {ratio:.3f}")
        sys.stdout.write(serialize(host))
    return EXIT_OK


def cmd_check(args) -> int:
    if args.host is not None:
        if args.input is None:
            raise TreeHostError("--host needs the demand tree as INPUT")
        demand = _load_demand(args.input, args.root)
        host = parse_host(_read_input(args.host))
        check_invariants(demand, host)
        print("host ok")
        return EXIT_OK

    if args.random is not None:
        max_n, seed, count = args.random
        if count < 1:
            raise ParameterError(f"--random COUNT must be >= 1, got {count}")
        rng = random.Random(seed)
        # one instance at a time: made, solved, let go
        instances = (gen("random", rng.randint(3, max(3, max_n)),
                         seed=rng.randrange(2 ** 31)) for _ in range(count))
    elif args.input is not None:
        instances = [_load_demand(args.input, args.root)]
    else:
        raise TreeHostError("check needs INPUT or --random N SEED COUNT")

    checked, max_ratio = 0, 0.0
    for demand in instances:
        # on by default here, the oracle scores the instances it can
        result = solve_instance(demand, debug=True, with_oracle=(
            not args.no_oracle and demand.n <= MAX_N))
        ratio = result.report.ratio_vs_opt
        if ratio is not None:
            max_ratio = max(max_ratio, ratio)
        checked += 1
    print(f"checked {checked} instance(s): all invariants hold")
    if max_ratio:
        print(f"max observed cost/opt ratio: {max_ratio:.4f}")
    return EXIT_OK


def cmd_bst_demo(args) -> int:
    results = [bst_demo(n) for n in _int_list(args.n, "--n")]
    print("n\tbalanced_cost\tpath_cost\tratio" +
          ("\texhaustive_min" if args.exhaustive else ""))
    for res in results:
        line = f"{res.n}\t{res.balanced_cost}\t{res.path_cost}\t{res.ratio:.4f}"
        if args.exhaustive:
            line += f"\t{res.exhaustive_min if res.exhaustive_min is not None else '-'}"
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _CliParser(prog="treehost",
                   description="Binary host-tree synthesis for tree demands")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a demand tree edge list")
    g.add_argument("--kind", choices=KINDS, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run the two-phase construction")
    s.add_argument("input", help="edge-list file or - for stdin")
    s.add_argument("--root", default=None, help="root label (default: first)")
    s.add_argument("--tiebreak", choices=("lex", "id"), default="lex")
    s.add_argument("--phase1-only", action="store_true")
    s.add_argument("--debug-checks", action="store_true")
    s.add_argument("--oracle", action="store_true",
                   help=f"also compute the exact optimum (n <= {MAX_N})")
    s.add_argument("--json", action="store_true")
    s.add_argument("--out", default=None, help="write host tree here")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("eval", help="evaluate a host tree against a demand tree")
    e.add_argument("input")
    e.add_argument("--host", required=True)
    e.add_argument("--root", default=None)
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("lb", help="instance lower bound")
    b.add_argument("input")
    b.add_argument("--root", default=None)
    b.add_argument("--delta", type=int, default=3)
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_lb)

    t = sub.add_parser("table", help="emit the bound-ratio table (c=1..127)")
    t.add_argument("--tsv", action="store_true")
    t.set_defaults(func=cmd_table)

    o = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    o.add_argument("input")
    o.add_argument("--root", default=None)
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_oracle)

    c = sub.add_parser("check", help="run the structural property suite")
    c.add_argument("input", nargs="?", default=None)
    c.add_argument("--root", default=None)
    c.add_argument("--host", default=None,
                   help="validate this host tree against INPUT")
    c.add_argument("--random", nargs=3, type=int, default=None,
                   metavar=("N", "SEED", "COUNT"),
                   help="check COUNT random trees with n in [3, N]")
    c.add_argument("--no-oracle", action="store_true")
    c.set_defaults(func=cmd_check)

    d = sub.add_parser("bst-demo",
                       help="cost of balanced search-tree hosts on keyed paths")
    d.add_argument("--n", required=True, help="comma list of powers of two")
    d.add_argument("--exhaustive", action="store_true",
                   help="also report the true search-tree minimum (n <= 12)")
    d.set_defaults(func=cmd_bst_demo)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:  # numpy's allocation failures included
        print(f"error: out of memory: {exc or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_RESOURCE
    except (TreeHostError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
