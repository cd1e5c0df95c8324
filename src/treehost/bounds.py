"""Closed-form per-vertex cost lower bounds and the bound-ratio table.

For a vertex with c children and host maximum degree d >= 3, the best any
host can do is spread the children over a complete (d-1)-ary neighborhood of
height ``h = 1 + floor(log_{d-1}(ceil(c/d)))``, which gives the exact bound

    c*h + d*h/(d-2) - d*((d-1)^h - 1)/(d-2)^2

(integer for d = 3: ``c*h + 3h - 3(2^h - 1)``).  All arithmetic is exact:
integers for d = 3, rationals otherwise; floats only appear in display.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import DemandTree, ParameterError

TABLE_MAX_C = 127


def _check_delta(delta: int) -> None:
    if delta < 3:
        raise ParameterError(f"maximum degree must be >= 3, got {delta}")


def best_case_height(c: int, delta: int = 3) -> int:
    """Height of the smallest (delta-1)-ary neighborhood holding c children.

    Integer arithmetic only (repeated multiplication, no floating point).
    Defined as 0 for c == 0: a childless vertex needs no neighborhood.
    """
    _check_delta(delta)
    if c < 0:
        raise ValueError("child count must be non-negative")
    if c == 0:
        return 0
    m = -(-c // delta)  # ceil(c / delta)
    base = delta - 1
    k = 0
    p = base
    while p <= m:
        k += 1
        p *= base
    return 1 + k


def lb_exact(c: int, delta: int = 3) -> int | Fraction:
    """Exact per-vertex cost lower bound; 0 for a childless vertex."""
    _check_delta(delta)
    if c == 0:
        return 0
    h = best_case_height(c, delta)
    if delta == 3:
        return c * h + 3 * h - 3 * ((1 << h) - 1)
    pw = (delta - 1) ** h
    return (Fraction(c * h)
            + Fraction(delta * h, delta - 2)
            - Fraction(delta * (pw - 1), (delta - 2) ** 2))


def lb_simple(c: int, delta: int = 3) -> float:
    """Weaker closed-form bound ``c * (log2(c)/log2(delta-1) - 4)``.

    Only valid for c >= delta*(delta-1); vacuous (possibly negative) near the
    boundary.  Returns a float because the expression involves an irrational
    logarithm; all users compare it against the exact bound, never the other
    way around.
    """
    _check_delta(delta)
    if c < delta * (delta - 1):
        raise ValueError(
            f"simple bound requires c >= delta*(delta-1) = {delta * (delta - 1)}")
    return c * (math.log2(c) / math.log2(delta - 1) - 4)


def lb_instance(demand: DemandTree, delta: int = 3) -> int:
    """Instance-wide lower bound: max(n-1, sum of per-vertex bounds), floored."""
    _check_delta(delta)
    n = demand.n
    hist = np.bincount(np.diff(demand.child_off))
    total: int | Fraction = 0
    for c in range(1, hist.size):
        if hist[c]:
            total += int(hist[c]) * lb_exact(int(c), delta)
    return max(n - 1, math.floor(total))


def ceil_log2(c: int) -> int:
    """ceil(log2 c) for c >= 1 (0 for c = 1)."""
    if c < 1:
        raise ValueError("c must be >= 1")
    return (c - 1).bit_length()


def bracket_cost_bound(c: int) -> int:
    """Per-vertex cost upper bound ``c * (ceil(log2 c) + 1)`` of phase 1."""
    if c == 0:
        return 0
    return c * (ceil_log2(c) + 1)


def bracket_cost(counts: np.ndarray) -> np.ndarray:
    """Exact phase-1 cost per vertex from its child count c.

    A bracket over c children has depth D = ceil(log2 c); 2^D - c children
    sit one level higher than the rest, so the vertex pays
    c*(D+1) - (2^D - c), and 0 when c = 0.
    """
    c = np.asarray(counts, dtype=np.int64)
    # frexp's exponent of c - 1 is its bit length, i.e. ceil(log2 c) for c >= 1
    d = np.frexp(np.maximum(c - 1, 0))[1].astype(np.int64)
    return np.where(c > 0, c * (d + 2) - np.left_shift(1, d), 0)


@dataclass(frozen=True)
class BoundRow:
    """One bound-table row: child count, lower/upper bound, truncated ratio."""

    c: int
    lb: int
    ub: int
    ratio: float

    @property
    def ratio_hundredths(self) -> int:
        return self.ub * 100 // self.lb

    @property
    def ratio_text(self) -> str:
        """Ratio truncated to two decimals, minimal when exact.

        Exact quotients print their shortest form ("3", "2.4"); inexact ones
        always keep two digits ("2.40" is a truncation of 2.407...).
        """
        r = self.ratio_hundredths
        exact = (self.ub * 100) % self.lb == 0
        if exact and r % 100 == 0:
            return str(r // 100)
        if exact and r % 10 == 0:
            return f"{r // 100}.{(r // 10) % 10}"
        return f"{r // 100}.{r % 100:02d}"


def table1() -> list[BoundRow]:
    """Bound-ratio rows for c = 1..127 at host degree 3."""
    rows = []
    for c in range(1, TABLE_MAX_C + 1):
        lb = lb_exact(c, 3)
        ub = bracket_cost_bound(c)
        assert isinstance(lb, int)
        rows.append(BoundRow(c, lb, ub, (ub * 100 // lb) / 100.0))
    return rows


def format_table(rows: list[BoundRow], form: str = "text") -> str:
    """Render bound rows as TSV or as three aligned column groups."""
    if form == "tsv":
        lines = ["c\tLB\tUB\tRatio"]
        lines += [f"{r.c}\t{r.lb}\t{r.ub}\t{r.ratio_text}" for r in rows]
        return "\n".join(lines) + "\n"
    if form != "text":
        raise ValueError(f"unknown table form {form!r}")
    per_col = (len(rows) + 2) // 3
    groups = [rows[i * per_col:(i + 1) * per_col] for i in range(3)]
    header = f"{'c':>4} {'LB':>5} {'UB':>5} {'Ratio':>6}"
    lines = ["   ".join([header] * 3)]
    for i in range(per_col):
        cells = []
        for g in groups:
            if i < len(g):
                r = g[i]
                cells.append(f"{r.c:>4} {r.lb:>5} {r.ub:>5} {r.ratio_text:>6}")
            else:
                cells.append(" " * len(header))
        lines.append("   ".join(cells).rstrip())
    return "\n".join(lines) + "\n"
