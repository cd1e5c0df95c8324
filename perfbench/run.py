"""Layered benchmark of the treehost solve path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout.  The workload's inputs come from
``benchgen`` and depend only on ``--seed``; the program sees only the
generated edge-list text.  Every solve runs in a fresh single-threaded child
process, one at a time, and its output is checked by ``verify``.  Solves
repeat until ``--seconds`` of solve time are measured (at least one).

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
one more solve runs with spans around every treehost module's public
functions, and the per-layer metrics are derived from them.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import benchgen
import tracing
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

CHILD_TIMEOUT_S = 150
SETUP_REPS = 4
SMALL_BATCH = 100
MIB = 1024.0

# the reason for each workload is recorded in BENCHMARK.json
WORKLOADS = ("random-1m-lex", "hub-1m-json", "small-batch")

END_TO_END = {"wall_s": "s", "vertices_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s", "cost_over_lb": "ratio"}
PER_LAYER_UNITS = {"_s": "s", "_mb": "MB", "_bytes": "bytes"}

TEXT_REPORT_KEYS = {"n": "n", "root": "root", "phase1 cost": "phase1_cost",
                    "final cost": "final_cost", "steiner count": "steiner_count",
                    "charge total": "charge_total", "lower bound": "lb"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], stdout_path: Path, env: dict) -> tuple[float, int, float]:
    """Run one child to completion; (wall seconds, exit code, peak RSS MB).

    The peak RSS is the child's own, read from its rusage when it is reaped.
    """
    with open(stdout_path, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / MIB


def setup_samples(env: dict, work: Path, reps: int) -> list[float]:
    """Times from interpreter start until ``treehost.cli`` is imported."""
    code = "import time, treehost.cli; print(repr(time.monotonic()))"
    probe = work / "setup.out"
    times = []
    for _ in range(reps):
        t0 = time.monotonic()
        _, rc, _ = spawn([sys.executable, "-c", code], probe, env)
        if rc != 0:
            raise RuntimeError("importing treehost.cli failed")
        times.append(float(probe.read_text()) - t0)
    return times


def parse_text_report(text: str) -> dict:
    report = {}
    for line in text.splitlines():
        m = re.match(r"([a-z0-9 ]+?)\s{2,}(\S+)$", line)
        if m and m.group(1) in TEXT_REPORT_KEYS:
            key = TEXT_REPORT_KEYS[m.group(1)]
            val = m.group(2)
            report[key] = val if key == "root" else int(val)
    return report


def high_percentile(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples above it, if any."""
    k = len(samples) - 10
    if k < 1:
        return None
    q = 100.0 * k / len(samples)
    return f"p{q:g}", float(np.percentile(samples, q))


class Run:
    """Solves, checks and tallies of one workload at one seed."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.env = child_env()
        rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        if workload == "small-batch":
            self.instances = benchgen.small_batch(rng, SMALL_BATCH)
        elif workload == "hub-1m-json":
            self.instances = [benchgen.hub_tree(rng, 10 ** 6)]
        else:
            self.instances = [benchgen.random_tree(rng, 10 ** 6)]
        self.demands = [verify.Demand(inst) for inst in self.instances]
        self.vertices = sum(inst.n for inst in self.instances)
        texts = [inst.text() for inst in self.instances]
        self.input_bytes = sum(len(t.encode()) for t in texts)
        if workload == "small-batch":
            self.input = work / "batch.json"
            self.input.write_text(json.dumps(texts), encoding="utf-8")
        else:
            self.input = work / "input.edges"
            self.input.write_text(texts[0], encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.final = 0
        self.lb = 0
        self.latencies: list[float] = []
        self.verified: dict[int, tuple[str, int]] = {}

    def cli_args(self) -> tuple[list[str], Path, str]:
        if self.workload == "hub-1m-json":
            host = self.work / "host.json"
            return (["solve", str(self.input), "--json", "--tiebreak", "id",
                     "--out", str(host)], host, "json")
        host = self.work / "host.txt"
        return ["solve", str(self.input), "--out", str(host)], host, "text"

    def solve(self, spans: Path | None = None) -> tuple[float, float, int]:
        """One solve in a fresh child, checked; (wall, peak RSS, bytes out)."""
        stdout = self.work / "stdout"
        if self.workload == "small-batch":
            out = self.work / "batch.out"
            argv = [sys.executable, str(CHILD), "batch", str(self.input), str(out)]
            if spans is not None:
                argv.append(str(spans))
            wall, rc, rss = spawn(argv, stdout, self.env)
            self._check_batch(rc, out)
            return wall, rss, out.stat().st_size if out.exists() else 0
        cli, host, form = self.cli_args()
        if spans is None:
            argv = [sys.executable, "-m", "treehost"] + cli
        else:
            argv = [sys.executable, str(CHILD), "cli", str(spans), "--"] + cli
        for stale in (host, stdout):
            stale.unlink(missing_ok=True)
        wall, rc, rss = spawn(argv, stdout, self.env)
        self._check_cli(rc, host, stdout, form)
        written = sum(p.stat().st_size for p in (host, stdout) if p.exists())
        return wall, rss, written

    def _verify(self, i: int, host_text: str, report: dict, form: str) -> None:
        """Check instance i's output and tally it.

        A host byte-identical to one already verified for the same input
        reuses that verification's recomputed cost; the report is always
        checked again.
        """
        self.attempted += 1
        cached = self.verified.get(i)
        if cached is not None and cached[0] == host_text:
            cost = cached[1]
        else:
            try:
                cost = verify.host_cost(self.demands[i], host_text, form)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                self._fail([f"host: {exc}"])
                return
            self.verified[i] = (host_text, cost)
        problems = verify.check_report(self.demands[i], cost, report)
        if problems:
            self._fail(problems)
        else:
            self.final += report["final_cost"]
            self.lb += report["lb"]

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems[:3])

    def _check_cli(self, rc: int, host: Path, stdout: Path, form: str) -> None:
        if rc != 0 or not host.exists():
            self.attempted += 1
            self._fail([f"treehost exited with code {rc}"])
            return
        text = stdout.read_text(encoding="utf-8")
        try:
            report = json.loads(text) if form == "json" else parse_text_report(text)
        except ValueError as exc:
            self.attempted += 1
            self._fail([f"unreadable report: {exc}"])
            return
        self._verify(0, host.read_text(encoding="utf-8"), report, form)

    def _check_batch(self, rc: int, out: Path) -> None:
        lines = (out.read_text(encoding="utf-8").splitlines()
                 if rc == 0 and out.exists() else [])
        if len(lines) != len(self.demands):
            for _ in self.demands:
                self.attempted += 1
                self._fail([f"batch child exited with code {rc}"])
            return
        for i, line in enumerate(lines):
            rec = json.loads(line)
            self.latencies.append(rec["latency_s"])
            self._verify(i, rec["host"], rec["report"], "text")

    def measure(self, seconds: float, setup: list[float] | None = None):
        """Untraced solves until ``seconds`` of solve time; walls and RSS.

        With ``setup`` given, import-time samples are taken before every
        solve and after the last, so they span the run as the solves do.
        """
        walls: list[float] = []
        rss: list[float] = []
        if setup is not None:
            setup_samples(self.env, self.work, 1)   # warm the bytecode cache
        while True:
            if setup is not None:
                setup.extend(setup_samples(self.env, self.work, SETUP_REPS))
            if walls and sum(walls) >= seconds:
                return walls, rss
            wall, peak, _ = self.solve()
            walls.append(wall)
            rss.append(peak)


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setup: list[float] = []
    walls, rss = run.measure(seconds, setup)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "vertices_per_s": run.vertices * len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
        # 0 only when no solve verified, which also makes the run incorrect
        "cost_over_lb": run.final / run.lb if run.lb else 0.0,
    }
    notes = [f"wall_s samples {len(walls)}: " +
             " ".join(f"{w:.3f}" for w in walls)]
    high = high_percentile(walls)
    notes.append(f"wall_s {high[0]} {high[1]:.4f} s" if high else
                 "wall_s high percentile: n/a (needs >= 11 samples)")
    if run.latencies:
        lat_ms = [x * 1000.0 for x in run.latencies]
        high = high_percentile(lat_ms)
        notes.append(f"instance latency: median {statistics.median(lat_ms):.3f}"
                     f" ms, {high[0]} {high[1]:.3f} ms, samples {len(lat_ms)}")
    return metrics, notes


def per_layer(run: Run, seconds: float) -> tuple[dict, list[str]]:
    walls, _ = run.measure(seconds)
    spans = run.work / "spans.json"
    traced_wall, _, written = run.solve(spans)
    trace = (json.loads(spans.read_text(encoding="utf-8")) if spans.exists()
             else {"spans": [], "counters": {}})   # the failure is tallied
    metrics = tracing.layer_metrics(trace)
    metrics["cli.output_bytes"] = written
    metrics["model.input_bytes"] = run.input_bytes
    probe = metrics["tournament.keys_s"]
    untraced = statistics.median(walls)
    metrics["trace.overhead_s"] = traced_wall - probe - untraced
    notes = [f"traced wall {traced_wall:.3f} s (keys probe {probe:.3f} s), "
             f"untraced median {untraced:.3f} s over {len(walls)} solves",
             f"spans recorded {len(trace['spans'])}"]
    return metrics, notes


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 work: Path) -> tuple[Run, dict, list[str]]:
    run = Run(workload, seed, work)
    metrics, notes = (per_layer if traced else end_to_end)(run, seconds)
    return run, metrics, notes


def print_block(workload: str, seed: int, traced: bool, run: Run,
                metrics: dict, notes: list[str]) -> None:
    print(f"== {workload} seed {seed} trace {int(traced)}: "
          f"{len(run.instances)} instance(s), {run.vertices} vertices")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>18.6f} {unit_of(name)}")
    ratio = run.failed / run.attempted if run.attempted else float("nan")
    print(f"  {'fail_ratio':<28} {ratio:>18.6f} ({run.failed}/{run.attempted})")
    for note in notes:
        print(f"  # {note}")
    for problem in run.problems[:10]:
        print(f"  ! {problem}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "treehost" / "cli.py").is_file():
        print(f"error: no treehost sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    work = ROOT / ".bench_work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    merged: dict[str, dict] = {}
    try:
        for workload, traced in plan:
            run, metrics, notes = run_workload(workload, args.seed,
                                               args.seconds, traced, work)
            print_block(workload, args.seed, traced, run, metrics, notes)
            attempted += run.attempted
            failed += run.failed
            prefix = f"{workload}." if len(plan) > 1 else ""
            for name, value in metrics.items():
                merged[prefix + name] = {"value": value, "unit": unit_of(name)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
