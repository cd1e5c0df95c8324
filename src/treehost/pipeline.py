"""End-to-end solve: brackets, tournament elimination, bounds, reporting."""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import bracket_cost, lb_instance
from .bracket import run_bracket_builder
from .cost import evaluate
from .model import DemandTree, HostTree, InvariantViolation
from .oracle import opt_cost
from .tournament import TournamentResult, check_invariants, run_tournament

REPORT_SCHEMA = "treehost.solve_report.v1"


@dataclass(kw_only=True)
class SolveReport:
    """Everything the solver knows about one instance, in the JSON report's
    order; a field's ``text`` label names its line in the text report."""

    n: int = field(metadata={"text": "n"})
    root: str = field(metadata={"text": "root"})
    tiebreak: str
    phase1_cost: int = field(metadata={"text": "phase1 cost"})
    final_cost: int | None = field(default=None,
                                   metadata={"text": "final cost"})
    steiner_count: int = field(metadata={"text": "steiner count"})
    charge_total: int | None = field(default=None,
                                     metadata={"text": "charge total"})
    lb: int = field(metadata={"text": "lower bound"})
    trivial_lb: int = field(metadata={"text": "trivial bound"})
    ratio_vs_lb: float | None = field(default=None,
                                      metadata={"text": "cost/lb"})
    oracle_opt: int | None = field(default=None,
                                   metadata={"text": "oracle opt"})
    ratio_vs_opt: float | None = field(default=None,
                                       metadata={"text": "cost/opt"})
    wall_times: dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        if self.final_cost is not None:
            if self.final_cost > self.phase1_cost + max(self.n - 1, 0):
                raise InvariantViolation(
                    "elimination-cost",
                    f"final {self.final_cost} exceeds phase-1 "
                    f"{self.phase1_cost} + (n-1)")
            gain, cap = self.final_cost - self.phase1_cost, max(self.n - 1, 0)
            if (self.charge_total is not None
                    and not gain <= self.charge_total <= cap):
                raise InvariantViolation(
                    "charge-total",
                    f"charge_total {self.charge_total} outside "
                    f"[final - phase1, n-1] = [{gain}, {cap}]")
            if self.final_cost < self.lb:
                raise InvariantViolation(
                    "lower-bound",
                    f"final {self.final_cost} below lower bound {self.lb}")
            if self.oracle_opt is not None and self.final_cost > 4 * self.oracle_opt:
                raise InvariantViolation(
                    "4x-optimum",
                    f"final {self.final_cost} > 4 * {self.oracle_opt}")

    def to_json_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, **asdict(self)}


def check_accounting(report: SolveReport, leaves: int,
                     losers: list[int]) -> None:
    """O(n) certificates of one solve: the report's bounds, the steiner
    count leaves - 1 of phase 1, and a ledger where no vertex loses twice."""
    if report.steiner_count != leaves - 1:
        raise InvariantViolation(
            "steiner-count",
            f"{report.steiner_count} steiner nodes for {leaves} leaves")
    if len(losers) and np.bincount(losers).max() > 1:
        raise InvariantViolation("single-charge", "a vertex lost twice")
    report.validate()


def _check_bracket_cost(demand: DemandTree, per_vertex: np.ndarray) -> None:
    """O(n) certificate of phase 1: every vertex pays its closed-form cost.

    A function of its own so that its n-sized arrays are freed before the
    rest of the solve, which is where its memory peaks.
    """
    closed = bracket_cost(np.diff(demand.child_off))
    wrong = np.flatnonzero(per_vertex != closed)
    if wrong.size:
        v = int(wrong[0])
        raise InvariantViolation(
            "bracket-cost",
            f"vertex {v} pays {per_vertex[v]} in phase 1, closed form "
            f"{int(closed[v])}")


@dataclass
class SolveResult:
    report: SolveReport
    host: HostTree
    tournament: TournamentResult | None


def solve_instance(demand: DemandTree, tiebreak: str = "lex",
                   phase1_only: bool = False, debug: bool = False,
                   with_oracle: bool = False) -> SolveResult:
    """Run the full two-phase construction and assemble a report.

    The host tree is built in place: with ``phase1_only`` the returned host
    still contains steiner nodes, otherwise it is the eliminated final tree.
    Every solve certifies the phase-1 cost of each vertex against its closed
    form and the accounting of ``check_accounting``; ``debug`` adds the full
    invariant checks of the phase-1 host (in the tournament's sweep, unless
    ``phase1_only``) and of the final host, and the sweep's bracket check at
    each match; no match can break ancestry.  ``with_oracle``
    adds the exhaustive optimum, which raises ``ResourceCapError`` above its
    cap.
    """
    t0 = time.perf_counter()
    host = run_bracket_builder(demand)
    if debug and phase1_only:
        check_invariants(demand, host)
    t1 = time.perf_counter()
    phase1 = evaluate(demand, host)
    _check_bracket_cost(demand, phase1.costs)
    phase1_cost = phase1.total
    del phase1  # and its n-sized costs, before the tournament
    lb = lb_instance(demand, 3)
    trivial = max(demand.n - 1, 0)

    report = SolveReport(
        n=demand.n,
        root=demand.label(demand.root),
        tiebreak=tiebreak,
        phase1_cost=phase1_cost,
        steiner_count=host.steiner_count(),
        lb=lb,
        trivial_lb=trivial,
    )
    report.wall_times["phase1"] = t1 - t0
    tournament = None
    if not phase1_only:
        t2 = time.perf_counter()
        tournament = run_tournament(host, demand, tiebreak, debug=debug)
        t3 = time.perf_counter()
        final = evaluate(demand, host)
        t4 = time.perf_counter()
        report.final_cost = final.total
        report.charge_total = tournament.total_charge
        report.ratio_vs_lb = final.total / lb if lb > 0 else None
        report.wall_times["phase2"] = t3 - t2
        report.wall_times["evaluate"] = (t4 - t3) + (t2 - t1)
    else:
        report.wall_times["evaluate"] = time.perf_counter() - t1
    if with_oracle:
        opt, _ = opt_cost(demand)
        report.oracle_opt = opt
        if report.final_cost is not None and opt > 0:
            report.ratio_vs_opt = report.final_cost / opt
    report.wall_times["total"] = time.perf_counter() - t0
    check_accounting(report, demand.leaf_count(),
                     tournament.losers if tournament is not None else [])
    return SolveResult(report, host, tournament)
