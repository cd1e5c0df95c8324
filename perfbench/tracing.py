"""Spans around the public functions of each treehost module.

A :class:`Tracer` replaces each traced function, wherever a treehost module
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span and instance id.  Spans stay in memory and are written out
once, when the traced process ends; :func:`layer_metrics` derives the
per-layer numbers from them.  Tracing never changes what a function
returns.
"""
from __future__ import annotations

import importlib
import resource
import sys
import time

import numpy as np

# span name -> (module, function); the span name's prefix is the layer
TRACED = {
    "model.parse": ("treehost.model", "parse_edge_list"),
    "model.root_at": ("treehost.model", "root_at"),
    "model.serialize": ("treehost.model", "serialize"),
    "bracket.build": ("treehost.bracket", "run_bracket_builder"),
    "tournament.run": ("treehost.tournament", "run_tournament"),
    "cost.evaluate": ("treehost.cost", "evaluate"),
    "bounds.lb": ("treehost.bounds", "lb_instance"),
    "pipeline.solve": ("treehost.pipeline", "solve_instance"),
    "cli.main": ("treehost.cli", "main"),
}


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, instance]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = 0
        self.counters: dict[str, float] = {}
        self.last_demand = None
        self.pending: list[tuple] = []
        self.replaced: list[tuple] = []

    def _count(self, key: str, value: float, combine=lambda a, b: a + b) -> None:
        old = self.counters.get(key)
        self.counters[key] = value if old is None else combine(old, value)

    def _name_evaluate(self, parent: int) -> str:
        """The first evaluate under a solve scores phase 1 unless the
        tournament already ran under the same parent."""
        for span in self.spans[parent + 1:]:
            if span[3] == parent and span[0] == "tournament.run":
                return "cost.final_eval"
        return "cost.phase1_eval"

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            label = name
            if name == "cost.evaluate":
                label = self._name_evaluate(parent)
            idx = len(self.spans)
            span = [label, time.perf_counter(), None, parent, self.instance]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._observe(name, args, out)
            return out

        return traced

    def _observe(self, name: str, args, out) -> None:
        """Cheap bookkeeping at a span's end; counts that cost time wait
        for :meth:`finish_instance`, outside every span."""
        if name == "model.parse":
            self._count("model.parse_maxrss_mb", maxrss_mb(), max)
        elif name == "model.serialize":
            self._count("model.serialize_maxrss_mb", maxrss_mb(), max)
        elif name == "model.root_at":
            self.last_demand = out
        elif name in ("bracket.build", "tournament.run"):
            self.pending.append((name, args[0] if args else None, out))
        elif name == "pipeline.solve":
            self._count("pipeline.instances", 1)

    def finish_instance(self) -> None:
        for name, arg, out in self.pending:
            if name == "bracket.build":
                off = np.asarray(arg.child_off, dtype=np.int64)
                widest = int(np.diff(off).max(initial=0))
                self._count("bracket.steiner_nodes", out.num_nodes() - arg.n)
                self._count("bracket.max_depth",
                            max(widest - 1, 0).bit_length(), max)
            else:
                self._count("tournament.matches", len(out.losers))
                self._count("tournament.charge_total", out.total_charge)
        self.pending.clear()

    def install(self) -> None:
        """Swap every treehost reference to a traced function for a wrapper."""
        for name, (modname, attr) in TRACED.items():
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "treehost":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self.replaced.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self.replaced):
            setattr(mod, key, original)
        self.replaced.clear()

    def probe_keys(self, tiebreak: str) -> None:
        """Time the public ``match_keys`` on the last rooted demand tree.

        The probe runs outside every solve span and is subtracted from the
        traced wall time when the tracing overhead is computed.
        """
        from treehost import tournament
        demand = self.last_demand
        t0 = time.perf_counter()
        tournament.match_keys(demand, tiebreak)
        self.spans.append(["tournament.keys", t0, time.perf_counter(), -1,
                           self.instance])

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


LAYER_TIMES = ("model.parse", "model.root_at", "model.serialize",
               "bracket.build", "tournament.keys", "tournament.run",
               "cost.phase1_eval", "cost.final_eval", "bounds.lb",
               "pipeline.solve")
COUNTERS = ("model.parse_maxrss_mb", "model.serialize_maxrss_mb",
            "bracket.steiner_nodes", "bracket.max_depth",
            "tournament.matches", "tournament.charge_total",
            "pipeline.instances")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent, _inst in spans]
    for _name, start, end, parent, _inst in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer self times (seconds), cli gaps and counters of one trace."""
    spans = trace["spans"]
    own = self_times(spans)
    out = {f"{name}_s": 0.0 for name in LAYER_TIMES}
    out["cli.read_s"] = 0.0
    out["cli.report_s"] = 0.0
    for i, span in enumerate(spans):
        name = span[0]
        if name == "cli.main":
            kids = [s for s in spans if s[3] == i]
            if kids:
                # before the first child: argument parsing and input read;
                # after the last: report assembly and output writes
                out["cli.read_s"] += kids[0][1] - span[1]
                out["cli.report_s"] += span[2] - kids[-1][2]
        elif f"{name}_s" in out:
            out[f"{name}_s"] += own[i]
    out["pipeline.self_s"] = out.pop("pipeline.solve_s")
    for key in COUNTERS:
        out[key] = trace["counters"].get(key, 0)
    return out
