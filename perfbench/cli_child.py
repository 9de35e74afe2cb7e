"""One luknet CLI invocation in this interpreter, timed from inside.

    python3 perfbench/cli_child.py REPORT.json TRACED CLI-ARGS...

Calls luknet.cli.main(CLI-ARGS) in process, so that with TRACED=1 the span
wrappers of spans.py apply, and writes {"code", "wall"[, spans, graphs]} to
REPORT.json.  The CLI's own output goes to stdout and stderr as usual; the
exit status is the CLI's, or 1 when it raised.
"""
from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import luknet.cli

    tracer = spans.Tracer()
    if traced:
        spans.install(tracer)
    code = 1
    t0 = time.perf_counter()
    try:
        code = tracer.root(lambda: luknet.cli.main(argv)) if traced else luknet.cli.main(argv)
    finally:
        report = {"code": code, "wall": time.perf_counter() - t0}
        if traced:
            report.update(tracer.report())
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
