import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehost import (CostBreakdown, DemandTree, InvariantViolation,
                      TournamentResult, cli, evaluate, gen, model,
                      parse_edge_list, parse_host, root_at, serialize,
                      solve_instance)
from treehost.bounds import best_case_height, ceil_log2, format_table, table1
from treehost.cli import _eval_listing, _ledger, main
from treehost.pipeline import REPORT_SCHEMA, SolveReport, check_accounting
from treehost.tournament import match_keys

import helpers


def test_solve_instance_fig_report(fig_demand):
    result = solve_instance(fig_demand, with_oracle=False)
    rep = result.report
    assert rep.n == 14
    assert rep.root == "r"
    assert rep.phase1_cost == 33
    assert rep.final_cost == 27
    assert rep.steiner_count == 8
    assert rep.charge_total == 9
    assert rep.lb == 14
    assert rep.trivial_lb == 13
    assert rep.ratio_vs_lb == pytest.approx(27 / 14)
    assert set(rep.wall_times) == {"phase1", "phase2", "evaluate", "total"}


def test_solve_instance_phase1_only(fig_demand):
    result = solve_instance(fig_demand, phase1_only=True)
    assert result.report.final_cost is None
    assert result.host.steiner_count() == 8
    assert result.tournament is None


def test_solve_instance_with_oracle():
    from treehost import gen
    d = gen("random", 7, seed=3)
    result = solve_instance(d, with_oracle=True)
    rep = result.report
    assert rep.oracle_opt is not None
    assert rep.final_cost <= 4 * rep.oracle_opt


def _run(args, stdin_text=None, capsys=None, monkeypatch=None):
    """``main(args)``'s exit code, output and error output; ``stdin_text``
    (str, or bytes as they are) is standard input, held as the interpreter
    holds it under a POSIX locale: text over a byte buffer."""
    if stdin_text is not None:
        if isinstance(stdin_text, str):
            stdin_text = stdin_text.encode("utf-8")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(stdin_text), encoding="utf-8",
            errors="surrogateescape"))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_gen_solve_roundtrip(tmp_path, capsys, monkeypatch):
    tree_file = tmp_path / "t.edges"
    code, _, _ = _run(["gen", "--kind", "random", "--n", "40", "--seed", "7",
                       "--out", str(tree_file)], capsys=capsys)
    assert code == 0
    code, out, _ = _run(["solve", str(tree_file), "--json"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == REPORT_SCHEMA
    for key in ("n", "root", "phase1_cost", "final_cost", "steiner_count",
                "charge_total", "lb", "trivial_lb", "ratio_vs_lb",
                "oracle_opt", "ratio_vs_opt", "wall_times", "charge_ledger",
                "host"):
        assert key in doc
    assert doc["final_cost"] <= doc["phase1_cost"] + doc["n"] - 1
    assert doc["final_cost"] >= doc["lb"]
    losers = [v for v, _c in doc["charge_ledger"]]
    assert len(set(losers)) == len(losers)


def test_cli_solve_text_report(fig_text, tmp_path, capsys, monkeypatch):
    f = tmp_path / "fig.edges"
    f.write_text(fig_text)
    host_file = tmp_path / "host.txt"
    code, out, _ = _run(["solve", str(f), "--out", str(host_file)],
                        capsys=capsys)
    assert code == 0
    assert "phase1 cost    33" in out
    assert "final cost     27" in out
    assert "steiner count  8" in out
    assert host_file.exists()


def test_cli_solve_phase1_only_emits_steiner_ids(fig_text, tmp_path, capsys,
                                                 monkeypatch):
    f = tmp_path / "fig.edges"
    f.write_text(fig_text)
    code, out, _ = _run(["solve", str(f), "--phase1-only"], capsys=capsys)
    assert code == 0
    assert "s14:" in out or ":s14" in out.replace("\n", " ") or "s14" in out


def test_cli_solve_stdin(fig_text, capsys, monkeypatch):
    code, out, _ = _run(["solve", "-"], stdin_text=fig_text, capsys=capsys,
                        monkeypatch=monkeypatch)
    assert code == 0
    assert "final cost     27" in out


@pytest.mark.parametrize("data", [b"\xff 1\n1 2\n", b"0 1\n1 \xe9\n",
                                  b"0 1\n\xed\xa0\x80 1\n"],
                         ids=["start-byte", "latin-1", "surrogate"])
def test_cli_stdin_is_decoded_like_a_path(data, tmp_path, capsys,
                                          monkeypatch):
    """Bytes that are not UTF-8 exit 1 from standard input as from a
    file, with the same message; before, standard input decoded them with
    ``surrogateescape`` and the --json ledger carried lone surrogates."""
    path = tmp_path / "in.edges"
    path.write_bytes(data)
    code, out, err = _run(["solve", str(path), "--json"], capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not UTF-8 text (")
    code, out, err_stdin = _run(["solve", "-", "--json"], stdin_text=data,
                                capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err_stdin == err.replace(str(path), "-")
    assert not sys.stdin.closed


def test_cli_stdin_reads_utf8_and_crlf_as_a_path_does(tmp_path, capsys,
                                                      monkeypatch):
    data = "é ü\r\nü 😀\r\n".encode("utf-8")
    path = tmp_path / "in.edges"
    path.write_bytes(data)
    code, out, _ = _run(["solve", str(path), "--json"], capsys=capsys)
    assert code == 0
    code, out_stdin, _ = _run(["solve", "-", "--json"], stdin_text=data,
                              capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    report, report_stdin = json.loads(out), json.loads(out_stdin)
    for doc in (report, report_stdin):
        del doc["wall_times"]
    assert report == report_stdin
    assert report["root"] == "é"
    assert report["host"]["nodes"] == ["0", "1", "2"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm")
def test_memory_exhaustion_exits_3(tmp_path):
    """A solve that outgrows its address space exits 3 with a typed
    message, not a traceback: the child caps its own address space at
    what it holds after the imports plus 32 MB, and solves a path of
    300 000 edges, which needs more."""
    edges = tmp_path / "path.edges"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(300_000)))
    child = (
        "import resource, sys\n"
        "from treehost.cli import main\n"
        "with open('/proc/self/statm') as f:\n"
        "    held = int(f.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (held + (32 << 20), hard))\n"
        "sys.exit(main(['solve', sys.argv[1]]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child, str(edges)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: out of memory: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_cli_solve_star_json_schema(tmp_path, capsys, monkeypatch):
    f = tmp_path / "star.edges"
    f.write_text("\n".join(f"0 {i}" for i in range(1, 10)))
    code, out, _ = _run(["solve", str(f), "--json"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 10
    assert all(k in doc for k in
               ("phase1_cost", "final_cost", "steiner_count", "charge_total",
                "lb", "trivial_lb", "ratio_vs_lb", "oracle_opt",
                "ratio_vs_opt", "wall_times", "host", "charge_ledger"))
    assert doc["oracle_opt"] is None  # not asked for, and past the n = 9 cap


def test_cli_solve_oracle_flag(tmp_path, capsys, monkeypatch):
    f = tmp_path / "star.edges"
    f.write_text("\n".join(f"0 {i}" for i in range(1, 9)))
    code, out, _ = _run(["solve", str(f), "--json", "--oracle"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_opt"] is not None
    assert doc["final_cost"] <= 4 * doc["oracle_opt"]


def test_cli_solve_oracle_above_the_cap(tmp_path, capsys, monkeypatch):
    """Asked for above its cap, the oracle fails as ``treehost oracle``
    does, instead of reporting no optimum."""
    f = tmp_path / "star.edges"
    f.write_text("\n".join(f"0 {i}" for i in range(1, 10)))
    code, out, err = _run(["solve", str(f), "--json", "--oracle"],
                          capsys=capsys)
    assert (code, out) == (3, "")
    assert "exhaustive optimum capped at n=9" in err
    assert _run(["oracle", str(f)], capsys=capsys)[2] == err


@pytest.mark.parametrize("text,flags", [
    ("", []),                                   # n = 1: the optimum is 0
    ("0 1\n0 2\n0 3\n", ["--phase1-only"]),     # no final cost
])
def test_cli_solve_oracle_without_a_ratio(text, flags, tmp_path, capsys,
                                          monkeypatch):
    """With no cost/opt ratio, the text report prints the optimum alone and
    the JSON report holds null."""
    f = tmp_path / "t.edges"
    f.write_text(text)
    code, out, _ = _run(["solve", str(f), "--oracle", *flags], capsys=capsys)
    assert code == 0
    assert "oracle opt" in out and "cost/opt" not in out
    code, out, _ = _run(["solve", str(f), "--oracle", "--json", *flags],
                        capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_opt"] is not None and doc["ratio_vs_opt"] is None


@pytest.mark.parametrize("argv,code,expected", [
    (["check"], 1, "error: check needs INPUT or --random N SEED COUNT\n"),
    (["gen", "--kind", "path", "--n", "3"], 0,
     "# kind=path n=3 seed=None\n0 1\n1 2\n"),
    (["oracle", "{star}"], 0, "opt    11\nalg    21\nratio  1.909\n"),
    (["solve", "{star}", "--oracle"], 0,
     "oracle opt     11\ncost/opt       1.909\n"),
])
def test_cli_text_outputs(argv, code, expected, tmp_path, capsys):
    """Text-mode output: on standard error for a failure, on standard
    output otherwise."""
    star = tmp_path / "star.edges"
    star.write_text("".join(f"0 {i}\n" for i in range(1, 8)))
    got, out, err = _run([a.format(star=star) for a in argv], capsys=capsys)
    assert got == code
    assert expected in (err if code else out)
    if argv[0] == "oracle":  # then the argmin host, a valid one
        host = parse_host(out.split("\n", 3)[3])
        assert evaluate(root_at(parse_edge_list(star.read_text()), 0),
                        host).total == 11


def test_cli_solve_root_flag(fig_text, tmp_path, capsys, monkeypatch):
    f = tmp_path / "fig.edges"
    f.write_text(fig_text)
    code, out, _ = _run(["solve", str(f), "--root", "x", "--json"],
                        capsys=capsys)
    assert code == 0
    assert json.loads(out)["root"] == "x"
    code, _, err = _run(["solve", str(f), "--root", "zz"], capsys=capsys)
    assert code == 1 and "unknown root" in err


def test_cli_eval(fig_text, tmp_path, capsys, monkeypatch):
    f = tmp_path / "fig.edges"
    f.write_text(fig_text)
    host_file = tmp_path / "host.txt"
    assert _run(["solve", str(f), "--phase1-only", "--out", str(host_file)],
                capsys=capsys)[0] == 0
    code, out, _ = _run(["eval", str(f), "--host", str(host_file), "--json"],
                        capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 33
    assert doc["per_vertex"]["u"] == 12


def test_cli_lb(tmp_path, capsys, monkeypatch):
    f = tmp_path / "star.edges"
    f.write_text("\n".join(f"0 {i}" for i in range(1, 10)))
    code, out, _ = _run(["lb", str(f), "--json"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["lb"] == 15


def test_cli_table(capsys, monkeypatch):
    code, out, _ = _run(["table", "--tsv"], capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 128
    assert lines[9] == "9\t15\t45\t3"
    assert lines[127] == "127\t591\t1016\t1.71"
    code, out, _ = _run(["table"], capsys=capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 44


def test_cli_oracle(tmp_path, capsys, monkeypatch):
    f = tmp_path / "p.edges"
    f.write_text("0 1\n1 2\n2 3\n3 4\n")
    code, out, _ = _run(["oracle", str(f), "--json"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["opt"] == 4 and doc["alg"] == 4 and doc["ratio"] == 1.0


def test_cli_oracle_resource_cap(tmp_path, capsys, monkeypatch):
    f = tmp_path / "p.edges"
    f.write_text("\n".join(f"{i} {i + 1}" for i in range(9)))
    code, _, err = _run(["oracle", str(f)], capsys=capsys)
    assert code == 3
    assert "capped" in err


def test_cli_check_instance(fig_text, tmp_path, capsys, monkeypatch):
    f = tmp_path / "fig.edges"
    f.write_text(fig_text)
    code, out, _ = _run(["check", str(f)], capsys=capsys)
    assert code == 0
    assert "all invariants hold" in out


def test_cli_check_random(capsys, monkeypatch):
    code, out, _ = _run(["check", "--random", "8", "11", "25"], capsys=capsys)
    assert code == 0
    assert "checked 25 instance(s)" in out
    assert "max observed cost/opt" in out


def test_cli_check_random_solves_each_instance_as_it_is_made(capsys,
                                                             monkeypatch):
    """``check --random`` makes an instance, solves it and only then makes
    the next, so its memory does not grow with COUNT; the instances are
    the ones the seed's RNG draws, in order."""
    calls = []

    def traced(name, fn):
        def call(*args, **kwargs):
            calls.append((name, args[:2] if name == "gen" else None,
                          kwargs.get("seed")))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "gen", traced("gen", cli.gen))
    monkeypatch.setattr(cli, "solve_instance",
                        traced("solve", cli.solve_instance))
    code, out, _ = _run(["check", "--random", "8", "11", "4"], capsys=capsys)
    assert code == 0
    assert "checked 4 instance(s): all invariants hold" in out
    rng = random.Random(11)
    drawn = [(rng.randint(3, 8), rng.randrange(2 ** 31)) for _ in range(4)]
    assert calls == [call for n, seed in drawn
                     for call in (("gen", ("random", n), seed),
                                  ("solve", None, None))]


def test_cli_check_rejects_bad_host(fig_text, tmp_path, capsys, monkeypatch):
    f = tmp_path / "fig.edges"
    f.write_text(fig_text)
    host_file = tmp_path / "host.txt"
    assert _run(["solve", str(f), "--phase1-only", "--out", str(host_file)],
                capsys=capsys)[0] == 0
    # corrupt: drop one child of a two-leaf steiner node, chain the leaves
    lines = host_file.read_text().strip().splitlines()
    parents = dict(line.split(":") for line in lines)
    # find a steiner whose two children are childless vertices
    kids: dict[str, list[str]] = {}
    for node, par in parents.items():
        kids.setdefault(par, []).append(node)
    target = next(s for s, ch in kids.items()
                  if s.startswith("s")
                  and len(ch) == 2
                  and all(not c.startswith("s") and c not in kids for c in ch))
    a, b = kids[target]
    parents[b] = a
    host_file.write_text("\n".join(f"{k}:{v}" for k, v in parents.items()))
    code, _, err = _run(["check", str(f), "--host", str(host_file)],
                        capsys=capsys)
    assert code == 2
    assert "(i)" in err


def test_cli_check_good_host(fig_text, tmp_path, capsys, monkeypatch):
    f = tmp_path / "fig.edges"
    f.write_text(fig_text)
    host_file = tmp_path / "host.txt"
    assert _run(["solve", str(f), "--out", str(host_file)],
                capsys=capsys)[0] == 0
    code, out, _ = _run(["check", str(f), "--host", str(host_file)],
                        capsys=capsys)
    assert code == 0 and "host ok" in out


def test_cli_bst_demo(capsys, monkeypatch):
    code, out, _ = _run(["bst-demo", "--n", "4,8", "--exhaustive"],
                        capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n\t")
    assert lines[1].startswith("4\t5\t3\t")
    assert lines[1].endswith("\t4")


def test_cli_parse_error_exit_code(tmp_path, capsys, monkeypatch):
    f = tmp_path / "bad.edges"
    f.write_text("0 1\n0 1\n")
    code, _, err = _run(["solve", str(f)], capsys=capsys)
    assert code == 1
    assert "duplicate edge" in err


def test_cli_usage_error_is_input_error(capsys, monkeypatch):
    code, _, err = _run(["solve"], capsys=capsys)
    assert code == 1
    assert "usage error" in err


def test_cli_json_report_deterministic(fig_text, tmp_path, capsys,
                                       monkeypatch):
    f = tmp_path / "fig.edges"
    f.write_text(fig_text)
    docs = []
    for _ in range(2):
        code, out, _ = _run(["solve", str(f), "--json"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        doc.pop("wall_times")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_solve_million_node_path():
    """A path is a fixed point of both phases at any scale."""
    import time
    from treehost import gen
    demand = gen("path", 10 ** 6)
    t0 = time.perf_counter()
    result = solve_instance(demand)
    elapsed = time.perf_counter() - t0
    rep = result.report
    assert rep.phase1_cost == rep.final_cost == 10 ** 6 - 1
    assert rep.steiner_count == 0
    assert rep.lb == 10 ** 6 - 1
    assert elapsed < 5.0


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "treehost", "table", "--tsv"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[64] == "64\t242\t448\t1.85"


@pytest.mark.parametrize("argv", [
    ["eval", "{edges}", "--host", "{no_parent}"],
    ["eval", "{edges}", "--host", "{int_steiner}"],
    ["eval", "{edges}", "--host", "{superscript_host}"],
    ["gen", "--kind", "path", "--n", "0"],
    ["gen", "--kind", "random", "--n", "5"],
    ["lb", "{edges}", "--delta", "2"],
    ["bst-demo", "--n", "6"],
    ["solve", "{not_utf8}"],
    ["check", "--random", "5", "1", "0"],
    ["check", "--random", "5", "1", "-1"],
    ["eval", "{edges}", "--host", "{three_vertex_host}"],
    ["check", "{edges}", "--host", "{three_vertex_host}"],
    ["eval", "{edges}", "--host", "{long_name_host}"],
    ["eval", "{edges}", "--host", "{far_vertex_host}"],
    ["check", "{edges}", "--host", "{far_vertex_host}"],
    ["check", "--host", "{three_vertex_host}"],
    ["bst-demo", "--n", "4,x"],
    ["eval", "{edges}", "--host", "{int_name_host}"],
])
def test_cli_bad_arguments_are_typed_errors(argv, tmp_path, capsys):
    files = {
        "edges": "0 1\n",
        "no_parent": '{"nodes": ["0", "1"], "root": "0"}',
        "int_steiner": '{"nodes": ["0", "1"], "parent": {"1": "0"}, '
                       '"steiner": 5, "root": "0"}',
        "superscript_host": "0:0\n²:0\n",
        "three_vertex_host": "0:0\n1:0\n2:1\n",
        "long_name_host": "0:0\n1:0\n" + "1" * 5001 + ":0\n",
        "far_vertex_host": "0:0\n1:0\n111111111111:0\n",
        "int_name_host": '{"nodes": ["0", "1"], "parent": {"1": 0}}',
        "not_utf8": "\udcff 1\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(text.encode("utf-8", "surrogateescape"))
    code, out, err = _run([a.format(**paths) for a in argv], capsys=capsys)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("call, error, message", [
    (lambda: model.UnrootedTree.from_edges([(0, 5)], n=3), model.EdgeListError,
     "edge (0, 5) out of range for n=3"),
    (lambda: model.UnrootedTree.from_edges([(0, 1)], n=2, labels=["a"]),
     model.EdgeListError, "expected 2 labels, got 1"),
    (lambda: serialize(parse_host("0:0\n1:0\n"), "xml"), ValueError,
     "unknown serialization form 'xml'"),
    (lambda: match_keys(gen("star", 5), "bogus"), ValueError,
     "unknown tiebreak 'bogus'"),
    (lambda: best_case_height(-1), ValueError,
     "child count must be non-negative"),
    (lambda: ceil_log2(0), ValueError, "c must be >= 1"),
    (lambda: format_table(table1(), "csv"), ValueError,
     "unknown table form 'csv'"),
], ids=["edge-range", "label-count", "serialize-form", "tiebreak",
        "height-count", "ceil-log2", "table-form"])
def test_library_calls_refuse_bad_arguments(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "path", "--n", "100000000000"],
    ["bst-demo", "--n", "1099511627776"],
    ["check", "--random", "100000000000", "1", "1"],
], ids=["gen", "bst-demo", "check-random"])
def test_cli_generators_refuse_n_above_the_cap(argv, capsys):
    """An n past ``MAX_GEN_N`` exits 3 before the generator allocates, and
    nothing is written."""
    code, out, err = _run(argv, capsys=capsys)
    assert code == 3
    assert err.startswith("error: generators capped at n=10000000, got ")
    assert out == ""


@pytest.mark.parametrize("command", ["eval", "check"])
def test_cli_deeply_nested_json_host_is_an_input_error(command, tmp_path,
                                                       capsys):
    """``json.loads`` gives up on deep nesting with a ``RecursionError``."""
    edges, host = tmp_path / "t.edges", tmp_path / "host.json"
    edges.write_text("0 1\n")
    host.write_text('{"a":' * 100_000)
    code, out, err = _run([command, str(edges), "--host", str(host)],
                          capsys=capsys)
    assert code == 1
    assert err == "error: JSON host nested too deeply\n"
    assert out == ""


@pytest.mark.parametrize("label", ["²", "١"])
def test_cli_solve_unicode_digit_labels(label, tmp_path, capsys):
    """'²' passes str.isdigit but int() rejects it; int() reads '١' as 1.
    Both are plain non-numeric labels, ranked after the numeric '3'."""
    f = tmp_path / "digits.edges"
    f.write_text(f"r {label}\nr 3\n", encoding="utf-8")
    code, out, _ = _run(["solve", str(f), "--json"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["charge_ledger"] == [[label, 0]]  # tie on child count: 3 wins
    assert doc["host"]["parent"] == {"2": "0", "1": "2"}


def test_cli_solve_ranks_numerals_beyond_int_conversion_limit(tmp_path,
                                                              capsys):
    """int() refuses numerals above 4300 digits; the lex rank orders them by
    value all the same, so the 5001-digit label loses to '7'."""
    big = "1" + "0" * 5000
    f = tmp_path / "big.edges"
    f.write_text(f"r {big}\nr 7\n", encoding="utf-8")
    code, out, _ = _run(["solve", str(f), "--json"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["charge_ledger"] == [[big, 0]]


def _solve_counting_label_strings(tmp_path, capsys, monkeypatch, seed,
                                  flags):
    """Solve a 3000-vertex labelled tree with --root and ``flags``; the
    output, the root's label and every label made into a str."""
    from treehost.model import Labels
    d = gen("random", 3000, seed=seed)
    names = [f"v{v}é" if v % 3 else str(v * 7) for v in range(d.n)]
    f = tmp_path / "labelled.edges"
    f.write_text("".join(f"{names[u]} {names[v]}\n"
                         for u, v in helpers.demand_edges(d)),
                 encoding="utf-8")
    made = []
    item = Labels.__getitem__

    def counted_item(self, v):
        made.append(item(self, v))
        return made[-1]

    monkeypatch.setattr(Labels, "__getitem__", counted_item)
    code, out, _ = _run(["solve", str(f), "--root", names[1234]] + flags,
                        capsys=capsys)
    assert code == 0
    return out, names[1234], made


def test_cli_text_solve_makes_no_label_list(tmp_path, capsys, monkeypatch):
    """A text-mode solve of a labelled tree holds its labels as arrays: the
    one label made into a str is the report's root, found by --root."""
    out, root, made = _solve_counting_label_strings(
        tmp_path, capsys, monkeypatch, 4,
        ["--out", str(tmp_path / "host.txt")])
    assert f"root           {root}\n" in out
    assert made == [root]


def test_cli_json_solve_makes_no_label_strings(tmp_path, capsys,
                                               monkeypatch):
    """The --json report writes its ledger and host from the label arrays:
    the one label made into a str is the report's root."""
    out, root, made = _solve_counting_label_strings(
        tmp_path, capsys, monkeypatch, 5, ["--json"])
    doc = json.loads(out)
    assert doc["root"] == root
    assert len(doc["charge_ledger"]) == doc["steiner_count"]
    assert made == [root]


def _tampered(fig_demand, monkeypatch, tamper):
    import treehost.pipeline as pipeline
    real = pipeline.run_tournament

    def run(*args, **kwargs):
        result = real(*args, **kwargs)
        tamper(result)
        return result

    monkeypatch.setattr(pipeline, "run_tournament", run)
    return solve_instance(fig_demand)


def test_solve_rejects_a_vertex_that_loses_twice(fig_demand, monkeypatch):
    def lose_twice(result):
        result.losers[1] = result.losers[0]

    with pytest.raises(InvariantViolation, match="lost twice"):
        _tampered(fig_demand, monkeypatch, lose_twice)


def test_solve_rejects_a_charge_total_above_n_minus_one(fig_demand,
                                                       monkeypatch):
    def overcharge(result):
        result.charges[0] += fig_demand.n  # total 9 + 14 > n - 1

    with pytest.raises(InvariantViolation, match="charge_total"):
        _tampered(fig_demand, monkeypatch, overcharge)


def test_report_rejects_a_charge_total_below_the_cost_increase(fig_demand):
    rep = solve_instance(fig_demand).report
    rep.charge_total = rep.final_cost - rep.phase1_cost - 1
    with pytest.raises(InvariantViolation, match="charge_total"):
        rep.validate()


@pytest.mark.parametrize("final, lb, opt, code", [
    (9, 9, 2, "4x-optimum"),    # final = 4*opt + 1
    (8, 8, 2, None),            # final = 4*opt
    (8, 9, None, "lower-bound"),  # final = lb - 1
    (9, 9, 3, None),            # final = lb
    (19, 9, None, "elimination-cost"),  # final = phase1 + n
    (18, 9, None, None),        # final = phase1 + n - 1
])
def test_report_bounds_refuse_one_past_and_pass_at_the_bound(final, lb, opt,
                                                              code):
    rep = SolveReport(n=10, root="0", tiebreak="id", phase1_cost=9,
                      steiner_count=0, lb=lb, trivial_lb=9, final_cost=final,
                      oracle_opt=opt)
    if code is None:
        rep.validate()
        return
    with pytest.raises(InvariantViolation) as err:
        rep.validate()
    assert err.value.code == code


def test_phase1_only_debug_checks_the_phase1_host(monkeypatch):
    """With no tournament to follow, ``--phase1-only --debug-checks``
    checks the bracket host itself."""
    import treehost.pipeline as pipeline
    real = pipeline.run_bracket_builder

    def misowned(demand):
        host = real(demand)
        host.owner[1] = 3  # steiner 6, in vertex 0's bracket
        return host

    monkeypatch.setattr(pipeline, "run_bracket_builder", misowned)
    demand = gen("star", 5)
    assert solve_instance(demand, phase1_only=True).report.phase1_cost == 12
    with pytest.raises(InvariantViolation,
                       match="vertex 1 sits in the bracket of 3") as err:
        solve_instance(demand, phase1_only=True, debug=True)
    assert err.value.code == "(iii) bracket-membership"


def test_solve_rejects_a_wrong_steiner_count(fig_demand):
    rep = solve_instance(fig_demand).report
    check_accounting(rep, fig_demand.leaf_count(), [])
    rep.steiner_count += 1
    with pytest.raises(InvariantViolation, match="steiner"):
        check_accounting(rep, fig_demand.leaf_count(), [])


def test_solve_and_check_certify_each_phase1_cost(fig_demand, fig_text,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    import treehost.pipeline as pipeline
    real = pipeline.evaluate

    def off_by_one(demand, host):
        breakdown = real(demand, host)
        breakdown.costs[0] += 1  # the array the solve certifies
        return breakdown

    monkeypatch.setattr(pipeline, "evaluate", off_by_one)
    with pytest.raises(InvariantViolation, match="bracket-cost") as exc:
        solve_instance(fig_demand)
    assert exc.value.code == "bracket-cost"
    f = tmp_path / "fig.edges"
    f.write_text(fig_text)
    code, out, err = _run(["check", str(f)], capsys=capsys)
    assert code == 2
    assert "bracket-cost" in err
    assert out == ""


def test_a_solve_never_lists_its_costs(monkeypatch):
    """Both evaluations of a solve hand their costs over as an array; the
    10^6-entry list ``per_vertex`` is made only when something reads it."""
    import treehost.pipeline as pipeline
    real, made = pipeline.evaluate, []

    def kept(demand, host):
        made.append(real(demand, host))
        return made[-1]

    monkeypatch.setattr(pipeline, "evaluate", kept)
    result = solve_instance(gen("random", 2000, seed=4))
    assert len(made) == 2
    assert not any("per_vertex" in vars(breakdown) for breakdown in made)
    final = made[-1]
    assert final.total == result.report.final_cost
    assert final.per_vertex == final.costs.tolist() == helpers.bfs_cost(
        gen("random", 2000, seed=4), result.host)[1]
    assert "per_vertex" in vars(final)


# Labels json.dumps escapes: quote, backslash, control characters (none of
# them whitespace, which would split the token), DEL, and non-ASCII text,
# one of it outside the BMP (written as a surrogate pair).
_ESCAPED_LABELS = ['"', "\\", 'a"b\\c', "\x00", "\x01", "\x1b[0m", "\x7f",
                   "é", "中文", "😀", "a\x00"]


@pytest.mark.parametrize("extra", [[], ["--out", "host.json"],
                                   ["--phase1-only"], ["--tiebreak", "id"]])
def test_cli_json_report_is_the_json_dumps_layout(extra, tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    leaves = _ESCAPED_LABELS + [f"x{i}" for i in range(6)]
    with open("in.edges", "w", encoding="utf-8") as f:
        f.write("".join(f"hub {leaf}\n" for leaf in leaves))
    code, out, _ = _run(["solve", "in.edges", "--json"] + extra,
                        capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    if "--phase1-only" not in extra:
        losers = {label for label, _ in doc["charge_ledger"]}
        assert len(set(_ESCAPED_LABELS) - losers) <= 1  # the hub's heir
    if "--out" in extra:
        with open("host.json", encoding="utf-8") as f:
            host = f.read()
        assert host == json.dumps(json.loads(host), indent=2) + "\n"


def test_cli_json_report_of_a_single_vertex(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("in.edges", "w", encoding="utf-8") as f:
        f.write("# no edges\n")
    code, out, _ = _run(["solve", "in.edges", "--json"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert doc["charge_ledger"] == []
    assert doc["host"] == {"nodes": ["0"], "parent": {}, "steiner": [],
                           "root": "0"}


# Labels the writer copies: every escape json.dumps makes, and labels of
# 8, 9, 16 and 17 code units (a word, a word and a unit, ...) in text of
# one-, two- and four-byte code units, next to one of 5000 units.
_WRITER_LABELS = (_ESCAPED_LABELS + ["\n\t\r\b\f", "\x1f ~"]
                  + [c * k for c in "aé中😀" for k in (8, 9, 16, 17)]
                  + ["y" * 5000])
_NUMBERS = st.one_of(st.just(0), st.integers(0, 99),
                     st.integers(10 ** 6, 10 ** 15))


@st.composite
def _labelled_instances(draw):
    n = draw(st.integers(1, 25))
    d = gen("random", n, seed=draw(st.integers(0, 99))) if n > 1 else \
        gen("path", 1)
    labels = draw(st.none() | st.lists(
        st.sampled_from(_WRITER_LABELS) | st.text(min_size=1, max_size=9),
        min_size=n, max_size=n, unique=True))
    demand = DemandTree(d.n, d.root, d.parent, d.child_off, d.child_flat,
                        labels)
    losers = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    charges = draw(st.lists(_NUMBERS, min_size=len(losers),
                            max_size=len(losers)))
    costs = draw(st.lists(_NUMBERS, min_size=n, max_size=n))
    return demand, labels or list(map(str, range(n))), losers, charges, costs


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(_labelled_instances(), st.booleans(), st.sampled_from([1, 3, 1 << 16]))
def test_row_writer_matches_the_row_by_row_references(instance, phase1_only,
                                                      piece_rows):
    """The host files, the --json ledger and both eval listings equal
    what the per-row code wrote before the column writer, in pieces of
    any number of rows."""
    demand, names, losers, charges, costs = instance
    host = solve_instance(demand, phase1_only=phase1_only).host  # steiners
    breakdown = CostBreakdown(sum(costs), costs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_PIECE_ROWS", piece_rows)
        for form in ("text", "json"):
            assert (serialize(host, form)
                    == helpers.reference_serialize(host, form))
        inline = helpers.reference_serialize(host, "json")[:-1]
        assert (serialize(host, "json", level=1)
                == inline.replace("\n", "\n  "))
        assert ("".join(_ledger(demand, TournamentResult(host, losers,
                                                         charges)))
                == helpers.reference_ledger([names[v] for v in losers],
                                            charges))
        for as_json in (False, True):
            assert ("".join(_eval_listing(demand, breakdown, as_json))
                    == helpers.reference_eval_listing(
                        names, costs, breakdown.total, as_json))


# label stems: plain, escaped by JSON, two-byte, three-byte and above
# U+FFFF, long enough for every run width and past 16 units
_EDGE_STEMS = ["", "a", 'q"', "b\\", "\n", "\x7f", "\x00", "ab", "abcd",
               "abcdefg", "abcdefghijklmn", "a" * 17, "é", "\u2028", "中文",
               "😀", "x😀y" * 3]


@pytest.mark.parametrize("rows", [65_535, 65_536, 65_537])
@pytest.mark.parametrize("wide", [False, True], ids=["bytes", "wide"])
def test_labelled_rows_around_the_piece_size(rows, wide):
    """The ledger and both eval listings at one row below, at and one row
    above the piece size, over labels of every width class, escaped or
    not, with one-byte units only or with units above U+FFFF."""
    assert model._PIECE_ROWS == 65_536
    stems = [s for s in _EDGE_STEMS if wide or s.isascii()]
    names = [f"{stems[v % len(stems)]}{v}" for v in range(rows)]
    d = gen("path", rows)
    demand = DemandTree(rows, d.root, d.parent, d.child_off, d.child_flat,
                        names)
    rng = np.random.default_rng(rows)
    losers = rng.permutation(rows).tolist()
    charges = rng.integers(0, 10 ** 7, rows).tolist()
    costs = rng.integers(0, 3, rows).tolist()  # a third of them 0
    _same_text("".join(_ledger(demand, TournamentResult(None, losers,
                                                         charges))),
               helpers.reference_ledger([names[v] for v in losers], charges))
    breakdown = CostBreakdown(sum(costs), costs)
    for as_json in (False, True):
        _same_text("".join(_eval_listing(demand, breakdown, as_json)),
                   helpers.reference_eval_listing(names, costs,
                                                  breakdown.total, as_json))


def _same_text(got: str, want: str) -> None:
    """got == want, told by the first place they differ (a diff of
    megabytes would take minutes)."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        near = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"texts of {len(got)} and {len(want)} characters differ "
                    f"at {at}: {got[near]!r} against {want[near]!r}")


def test_ledger_memory_follows_its_output_not_its_longest_label():
    """No label is padded: one label of 10^6 code units among 10^4 rows
    keeps the writer's peak a small multiple of the output's size."""
    n = 10 ** 4
    d = gen("path", n)
    labels = [f"v{v}" for v in range(n)]
    labels[17] = "x" * 10 ** 6
    demand = DemandTree(n, d.root, d.parent, d.child_off, d.child_flat,
                        labels)
    losers = list(range(n - 1, -1, -1))
    tournament = TournamentResult(None, losers, [v % 7 for v in losers])
    tracemalloc.start()
    try:
        pieces = _ledger(demand, tournament)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ledger = "".join(pieces)
    assert json.loads(ledger)[n - 1 - 17] == ["x" * 10 ** 6, 17 % 7]
    assert peak < 6 * len(ledger)
