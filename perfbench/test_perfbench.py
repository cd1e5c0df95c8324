"""Tests of the benchmark itself: generator, verifier, tracing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""
import contextlib
import io
import json

import numpy as np
import pytest

import benchgen
import run
import tracing
import verify
import treehost
import treehost.cli


def _same(x: benchgen.Instance, y: benchgen.Instance) -> bool:
    return (x.n == y.n and np.array_equal(x.a, y.a)
            and np.array_equal(x.b, y.b) and x.labels == y.labels)


@pytest.mark.parametrize("shape", [benchgen.random_tree, benchgen.hub_tree])
def test_generator_deterministic_per_seed(shape):
    one = shape(np.random.default_rng(5), 3000)
    assert _same(one, shape(np.random.default_rng(5), 3000))
    assert not _same(one, shape(np.random.default_rng(6), 3000))
    assert one.text() == shape(np.random.default_rng(5), 3000).text()


def test_small_batch_deterministic_and_in_range():
    a = benchgen.small_batch(np.random.default_rng(9), 30)
    b = benchgen.small_batch(np.random.default_rng(9), 30)
    assert all(_same(x, y) for x, y in zip(a, b))
    sizes = [x.n for x in a]
    assert all(benchgen.SMALL_MIN_N <= n < benchgen.SMALL_MAX_N for n in sizes)
    assert sizes != [x.n for x in benchgen.small_batch(np.random.default_rng(10), 30)]


def test_generated_trees_are_trees_with_distinct_labels():
    for inst in (benchgen.random_tree(np.random.default_rng(1), 500),
                 benchgen.hub_tree(np.random.default_rng(1), 500)):
        assert inst.a.size == inst.n - 1
        assert len(set(inst.labels)) == inst.n
        verify.Demand(inst)   # raises when the edges are not connected
    hub = benchgen.hub_tree(np.random.default_rng(2), 20_000)
    centre = hub.root()
    assert (np.concatenate((hub.a, hub.b)) == centre).sum() >= 2


def _solved(inst: benchgen.Instance, form: str = "text", **kw):
    demand = treehost.root_at(treehost.parse_edge_list(inst.text()), 0)
    result = treehost.solve_instance(demand, **kw)
    report = result.report.to_json_dict()
    return treehost.serialize(result.host, form), report


@pytest.mark.parametrize("form", ["text", "json"])
def test_verifier_accepts_solver_output(form):
    inst = benchgen.random_tree(np.random.default_rng(3), 400)
    host, report = _solved(inst, form)
    assert verify.check(verify.Demand(inst), host, report, form) == []


def test_verifier_rejects_one_corrupted_parent_link():
    inst = benchgen.random_tree(np.random.default_rng(4), 400)
    demand = verify.Demand(inst)
    host, report = _solved(inst)
    lines = host.splitlines()
    names = [x.split(":")[0] for x in lines]
    for i in (1, len(lines) // 2, len(lines) - 1):
        node, parent = lines[i].split(":")
        target = next(x for x in reversed(names) if x not in (node, parent))
        bad = lines[:i] + [f"{node}:{target}"] + lines[i + 1:]
        problems = verify.check(demand, "\n".join(bad) + "\n", report)
        assert problems, f"host with {node}:{target} was accepted"


def test_verifier_rejects_cost_off_by_one():
    inst = benchgen.random_tree(np.random.default_rng(5), 400)
    demand = verify.Demand(inst)
    host, report = _solved(inst)
    for delta in (1, -1):
        bad = dict(report, final_cost=report["final_cost"] + delta)
        problems = verify.check(demand, host, bad)
        assert any("final_cost" in p for p in problems)


def test_verifier_rejects_steiner_nodes_and_wrong_steiner_count():
    inst = benchgen.hub_tree(np.random.default_rng(6), 400)
    demand = verify.Demand(inst)
    host, report = _solved(inst, phase1_only=True)
    report["final_cost"] = report["phase1_cost"]
    problems = verify.check(demand, host, report)
    assert any("not a demand vertex id" in p for p in problems)
    host, report = _solved(inst)
    report["steiner_count"] += 1
    assert any("steiner_count" in p for p in verify.check(demand, host, report))


def test_text_report_parse_matches_json_report(tmp_path):
    inst = benchgen.random_tree(np.random.default_rng(7), 300)
    edges = tmp_path / "in.edges"
    edges.write_text(inst.text())
    out = {}
    for form, extra in (("text", []), ("json", ["--json"])):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = treehost.cli.main(["solve", str(edges), "--out",
                                      str(tmp_path / f"host.{form}")] + extra)
        assert code == 0
        out[form] = (run.parse_text_report(buf.getvalue()) if form == "text"
                     else json.loads(buf.getvalue()))
    for key in ("n", "root", "phase1_cost", "final_cost", "steiner_count", "lb"):
        assert out["text"][key] == out["json"][key]
    host = (tmp_path / "host.text").read_text()
    assert verify.check(verify.Demand(inst), host, out["text"]) == []


def test_self_times_subtract_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1, 0],
             ["model.parse", 1.0, 3.0, 0, 0],
             ["pipeline.solve", 3.0, 8.0, 0, 0],
             ["bracket.build", 3.5, 4.5, 2, 0],
             ["cost.phase1_eval", 4.5, 5.0, 2, 0],
             ["model.serialize", 8.0, 9.5, 0, 0],
             ["tournament.keys", 10.0, 10.25, -1, 0]]
    m = tracing.layer_metrics({"spans": spans, "counters": {}})
    assert m["pipeline.self_s"] == pytest.approx(3.5)
    assert m["model.parse_s"] == pytest.approx(2.0)
    assert m["cli.read_s"] == pytest.approx(1.0)
    assert m["cli.report_s"] == pytest.approx(0.5)
    assert m["tournament.keys_s"] == pytest.approx(0.25)
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 2.0 - 5.0 - 1.5)


def test_tracer_records_every_layer_and_restores_results():
    inst = benchgen.random_tree(np.random.default_rng(8), 200)
    expected_host, expected_report = _solved(inst)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        host, report = _solved(inst)
        tracer.finish_instance()
    finally:
        tracer.uninstall()
    assert _solved(inst)[0] == expected_host
    assert host == expected_host
    assert report["final_cost"] == expected_report["final_cost"]
    names = {s[0] for s in tracer.spans}
    assert {"model.parse", "model.root_at", "pipeline.solve", "bracket.build",
            "cost.phase1_eval", "tournament.run", "cost.final_eval",
            "bounds.lb", "model.serialize"} <= names
    assert tracer.counters["tournament.matches"] == report["steiner_count"]
    assert tracer.counters["tournament.charge_total"] == report["charge_total"]


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile([1.0] * 10) is None
    name, value = run.high_percentile(list(range(100)))
    assert name == "p90" and value == pytest.approx(89.1)
