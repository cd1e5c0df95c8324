import io
import json
import subprocess
import sys

import pytest

from treehost import InvariantViolation, solve_instance
from treehost.cli import main
from treehost.pipeline import REPORT_SCHEMA, check_accounting


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
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
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
    assert doc["oracle_opt"] is None  # n = 10 optimum only on request


def test_cli_solve_oracle_flag(tmp_path, capsys, monkeypatch):
    f = tmp_path / "star.edges"
    f.write_text("\n".join(f"0 {i}" for i in range(1, 9)))
    code, out, _ = _run(["solve", str(f), "--json", "--oracle"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_opt"] is not None
    assert doc["final_cost"] <= 4 * doc["oracle_opt"]


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
    f.write_text("\n".join(f"{i} {i + 1}" for i in range(11)))
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


def test_cli_bench_single_size(capsys, monkeypatch):
    code, out, _ = _run(["bench", "--sizes", "4096", "--reps", "2",
                         "--seed", "5"], capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tmean_s\tmin_s"
    assert len(lines) == 2
    code, out, _ = _run(["bench", "--sizes", "1024,2048", "--reps", "1"],
                        capsys=capsys)
    assert code == 0
    assert "# avg step ratio" in out


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
    ["bench", "--sizes", ""],
    ["bench", "--sizes", "64", "--reps", "0"],
    ["bst-demo", "--n", "6"],
    ["solve", "{not_utf8}"],
])
def test_cli_bad_arguments_are_typed_errors(argv, tmp_path, capsys):
    files = {
        "edges": "0 1\n",
        "no_parent": '{"nodes": ["0", "1"], "root": "0"}',
        "int_steiner": '{"nodes": ["0", "1"], "parent": {"1": "0"}, '
                       '"steiner": 5, "root": "0"}',
        "superscript_host": "0:0\n²:0\n",
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


def test_solve_rejects_a_wrong_steiner_count(fig_demand):
    rep = solve_instance(fig_demand).report
    check_accounting(rep, fig_demand.leaf_count(), [])
    rep.steiner_count += 1
    with pytest.raises(InvariantViolation, match="steiner"):
        check_accounting(rep, fig_demand.leaf_count(), [])
