"""One solving process of the benchmark; ``run.py`` starts it fresh per solve.

    child.py cli SPANS -- ARGV...         treehost CLI, traced
    child.py batch IN OUT [SPANS]         library path over a batch of texts

The batch mode runs ``parse_edge_list -> root_at -> solve_instance ->
serialize`` for every edge-list text in the JSON list IN and writes one JSON
line per instance to OUT (its report, host text and latency).  With SPANS
given, every call into treehost is traced and the spans are written there
at exit; the public ``match_keys`` is then probed once per instance.
"""
from __future__ import annotations

import json
import sys
import time


def run_cli(spans_path: str, argv: list[str]) -> int:
    import treehost.cli

    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    code = treehost.cli.main(argv)
    sys.stdout.flush()
    tracer.finish_instance()
    if code == 0:
        args = treehost.cli.build_parser().parse_args(argv)
        tracer.probe_keys(args.tiebreak)
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump(tracer.dump(), f)
    return code


def run_batch(in_path: str, out_path: str, spans_path: str | None) -> int:
    import treehost

    tracer = None
    if spans_path is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    with open(in_path, "r", encoding="utf-8") as f:
        texts = json.load(f)
    lines = []
    for i, text in enumerate(texts):
        t0 = time.perf_counter()
        demand = treehost.root_at(treehost.parse_edge_list(text), 0)
        result = treehost.solve_instance(demand)
        host = treehost.serialize(result.host)
        dt = time.perf_counter() - t0
        lines.append(json.dumps({"report": result.report.to_json_dict(),
                                 "host": host, "latency_s": dt}))
        if tracer is not None:
            tracer.finish_instance()
            tracer.probe_keys("lex")
            tracer.instance = i + 1
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.dump(), f)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if len(argv) in (3, 4) and argv[0] == "batch":
        return run_batch(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
