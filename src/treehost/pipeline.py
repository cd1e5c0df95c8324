"""End-to-end solve: brackets, tournament elimination, bounds, reporting."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import lb_instance
from .bracket import run_bracket_builder
from .cost import evaluate
from .model import DemandTree, HostTree, InvariantViolation
from .oracle import MAX_N, opt_cost
from .tournament import TournamentResult, run_tournament

REPORT_SCHEMA = "treehost.solve_report.v1"


@dataclass
class SolveReport:
    """Everything the solver knows about one instance."""

    n: int
    root: str
    tiebreak: str
    phase1_cost: int
    steiner_count: int
    lb: int
    trivial_lb: int
    final_cost: int | None = None
    charge_total: int | None = None
    ratio_vs_lb: float | None = None
    oracle_opt: int | None = None
    ratio_vs_opt: float | None = None
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
        return {
            "schema": REPORT_SCHEMA,
            "n": self.n,
            "root": self.root,
            "tiebreak": self.tiebreak,
            "phase1_cost": self.phase1_cost,
            "final_cost": self.final_cost,
            "steiner_count": self.steiner_count,
            "charge_total": self.charge_total,
            "lb": self.lb,
            "trivial_lb": self.trivial_lb,
            "ratio_vs_lb": self.ratio_vs_lb,
            "oracle_opt": self.oracle_opt,
            "ratio_vs_opt": self.ratio_vs_opt,
            "wall_times": self.wall_times,
        }


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
    """
    t0 = time.perf_counter()
    host = run_bracket_builder(demand)
    t1 = time.perf_counter()
    phase1 = evaluate(demand, host)
    steiner_count = host.num_nodes() - demand.n
    lb = lb_instance(demand, 3)
    trivial = max(demand.n - 1, 0)

    report = SolveReport(
        n=demand.n,
        root=demand.label(demand.root),
        tiebreak=tiebreak,
        phase1_cost=phase1.total,
        steiner_count=steiner_count,
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
    if with_oracle and demand.n <= MAX_N:
        opt, _ = opt_cost(demand)
        report.oracle_opt = opt
        if report.final_cost is not None and opt > 0:
            report.ratio_vs_opt = report.final_cost / opt
    report.wall_times["total"] = time.perf_counter() - t0
    check_accounting(report, demand.leaf_count(),
                     tournament.losers if tournament is not None else [])
    return SolveResult(report, host, tournament)
