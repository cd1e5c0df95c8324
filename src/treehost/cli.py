"""Command-line interface.

Subcommands: gen, solve, eval, lb, table, oracle, check, bench, bst-demo.
Exit codes: 0 success, 1 input error, 2 invariant violation, 3 resource cap.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .bounds import bracket_cost_bound, format_table, lb_instance, table1
from .bracket import run_bracket_builder
from .cost import evaluate
from .generate import KINDS, bst_demo, gen
from .model import (DemandTree, InvariantViolation, ParameterError,
                    ResourceCapError, TreeHostError, UnknownVertexError,
                    is_ascii_int, parse_edge_list, parse_host, root_at,
                    serialize)
from .oracle import MAX_N, opt_cost
from .pipeline import solve_instance
from .tournament import check_invariants, run_tournament

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_RESOURCE = 3


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        raise TreeHostError(f"usage error: {message}")


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise TreeHostError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                            f"{exc.start})") from None


def _load_demand(path: str, root_label: str | None) -> DemandTree:
    unrooted = parse_edge_list(_read_input(path))
    root = 0
    if root_label is not None:
        mapping = unrooted.label_to_id()
        if root_label not in mapping:
            raise UnknownVertexError(f"unknown root label {root_label!r}")
        root = mapping[root_label]
    return root_at(unrooted, root)


def _int_list(text: str, flag: str) -> list[int]:
    parts = text.split(",")
    if not all(is_ascii_int(p.strip()) for p in parts):
        raise ParameterError(
            f"{flag} needs a comma list of non-negative integers, got {text!r}")
    return [int(p) for p in parts]


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def cmd_gen(args) -> int:
    tree = gen(args.kind, args.n, args.seed)
    lines = [f"# kind={args.kind} n={args.n} seed={args.seed}"]
    lines += [f"{tree.label(u)} {tree.label(v)}" for u, v in tree.edges()]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    demand = _load_demand(args.input, args.root)
    result = solve_instance(demand, tiebreak=args.tiebreak,
                            phase1_only=args.phase1_only,
                            debug=args.debug_checks,
                            with_oracle=args.oracle)
    rep = result.report
    host_text = serialize(result.host, "json" if args.json else "text")
    if args.out:
        _write_out(host_text, args.out)
    if args.json:
        doc = rep.to_json_dict()
        if result.tournament is not None:
            doc["charge_ledger"] = [
                [demand.label(v), c]
                for v, c in zip(result.tournament.losers,
                                result.tournament.charges)]
        if args.out:
            doc["host_file"] = args.out
        else:
            doc["host"] = json.loads(host_text)
        print(json.dumps(doc, indent=2))
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
            print(f"cost/opt       {rep.ratio_vs_opt:.3f}")
        for phase, t in rep.wall_times.items():
            print(f"time {phase:<9} {t:.3f}s")
        if not args.out:
            sys.stdout.write(host_text)
    return EXIT_OK


def cmd_eval(args) -> int:
    demand = _load_demand(args.input, args.root)
    host = parse_host(_read_input(args.host))
    breakdown = evaluate(demand, host)
    if args.json:
        print(json.dumps({
            "total": breakdown.total,
            "per_vertex": {demand.label(v): c
                           for v, c in enumerate(breakdown.per_vertex)},
        }, indent=2))
    else:
        print(f"total {breakdown.total}")
        for v, c in enumerate(breakdown.per_vertex):
            if c:
                print(f"{demand.label(v)} {c}")
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


def _check_one(demand: DemandTree, use_oracle: bool) -> float | None:
    """All structural checks for one instance; returns ALG/OPT when known."""
    host = run_bracket_builder(demand)
    phase1 = evaluate(demand, host)
    n = demand.n
    counts = demand.child_counts()
    for v in range(n):
        if phase1.per_vertex[v] > bracket_cost_bound(counts[v]):
            raise InvariantViolation(
                "bracket-cost",
                f"vertex {v} pays {phase1.per_vertex[v]} > bound")
    expected_steiner = max(demand.leaf_count() - 1, 0) if n >= 2 else 0
    if host.steiner_count() != expected_steiner:
        raise InvariantViolation(
            "steiner-count",
            f"{host.steiner_count()} steiner nodes, expected {expected_steiner}")
    check_invariants(demand, host)
    result = run_tournament(host, demand, debug=True)
    final = evaluate(demand, host)
    if final.total - phase1.total > n - 1:
        raise InvariantViolation(
            "elimination-cost",
            f"tournament added {final.total - phase1.total} > n-1")
    if len(set(result.losers)) != len(result.losers):
        raise InvariantViolation("single-charge", "a vertex lost twice")
    lb = lb_instance(demand, 3)
    if final.total < lb:
        raise InvariantViolation("lower-bound",
                                 f"final {final.total} below bound {lb}")
    if use_oracle and 2 <= n <= 9:
        opt, _ = opt_cost(demand)
        if final.total > 4 * opt:
            raise InvariantViolation(
                "4x-optimum", f"final {final.total} > 4*OPT = {4 * opt}")
        return final.total / opt if opt else None
    return None


def cmd_check(args) -> int:
    if args.host is not None:
        if args.input is None:
            raise TreeHostError("--host needs the demand tree as INPUT")
        demand = _load_demand(args.input, args.root)
        host = parse_host(_read_input(args.host))
        check_invariants(demand, host)
        print("host ok")
        return EXIT_OK

    instances: list[DemandTree] = []
    if args.random is not None:
        max_n, seed, count = args.random
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(3, max(3, max_n))
            instances.append(gen("random", n, seed=rng.randrange(2 ** 31)))
    elif args.input is not None:
        instances.append(_load_demand(args.input, args.root))
    else:
        raise TreeHostError("check needs INPUT or --random N SEED COUNT")

    max_ratio = 0.0
    with_oracle = not args.no_oracle
    for demand in instances:
        ratio = _check_one(demand, with_oracle)
        if ratio is not None:
            max_ratio = max(max_ratio, ratio)
    print(f"checked {len(instances)} instance(s): all invariants hold")
    if max_ratio:
        print(f"max observed cost/opt ratio: {max_ratio:.4f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = _int_list(args.sizes, "--sizes")
    if sizes != sorted(sizes):
        raise ParameterError("sizes must be ascending")
    if args.reps < 1:
        raise ParameterError(f"--reps must be >= 1, got {args.reps}")
    rows = []
    for n in sizes:
        times = []
        for rep in range(args.reps):
            demand = (gen(args.kind, n, seed=args.seed + rep)
                      if args.kind == "random" else gen(args.kind, n))
            t0 = time.perf_counter()
            solve_instance(demand, tiebreak=args.tiebreak)
            times.append(time.perf_counter() - t0)
        rows.append((n, sum(times) / len(times), min(times)))
    print("n\tmean_s\tmin_s")
    for n, mean, best in rows:
        print(f"{n}\t{mean:.4f}\t{best:.4f}")
    if len(rows) > 1:
        ratios = [rows[i][2] / rows[i - 1][2] for i in range(1, len(rows))
                  if rows[i - 1][2] > 0]
        if ratios:
            print(f"# avg step ratio: {sum(ratios) / len(ratios):.3f}")
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
                   help=f"also compute the exact optimum "
                        f"(n <= {MAX_N}; n = {MAX_N} takes minutes)")
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

    k = sub.add_parser("bench", help="wall-time scaling on generated instances")
    k.add_argument("--sizes", required=True, help="comma list, ascending")
    k.add_argument("--kind", choices=KINDS, default="random")
    k.add_argument("--seed", type=int, default=1)
    k.add_argument("--reps", type=int, default=3)
    k.add_argument("--tiebreak", choices=("lex", "id"), default="lex")
    k.set_defaults(func=cmd_bench)

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
    except (TreeHostError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
