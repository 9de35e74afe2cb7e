"""Seeded benchmark of luknet: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload roundtrip_corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of stdout is one JSON object
with "correct", "attempted", "failed" and "metrics"; the lines before it are
one row per item and, with --trace 1, the per-layer table.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  See perfbench/README.md for what each workload measures.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import LIMIT_S, WORKLOADS  # noqa: E402

SETUP_PROBES = 7  # fresh interpreters per run whose median is setup_s
STARTUP_PROBES = 3  # fresh interpreters per traced CLI run for cli.startup_s
HARD_STOP_S = 90.0  # a run past --seconds by this much stops inside its cycle
RUNS_DIR = ".perfbench_runs"  # spans of traced runs, written when the run ends


def probe(argv: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-300:]}")
    return wall, done.stdout


def run_cycles(wl, seconds: float, traced: bool) -> tuple[list[dict], int]:
    """Whole cycles until `seconds` have passed; (items, cycles run)."""
    items: list[dict] = []
    cycles = 0
    start = time.perf_counter()
    for cycle in wl.cycles():
        for slot in cycle:
            items.extend(wl.run_slot(slot, traced))
            if time.perf_counter() - start > seconds + HARD_STOP_S:
                print("perfbench: hard stop inside a cycle", file=sys.stderr)
                return items, cycles + 1
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    else:
        print("perfbench: input pool exhausted before the time was up", file=sys.stderr)
    return items, cycles


def print_rows(items: list[dict], traced: bool) -> None:
    head = f"{'item':<28}{'input':<20}{'sigma widths':<18}{'outcome':<16}{'wall ms':>10}"
    print(head + (f"{'untraced ms':>13}" if traced else ""))
    for it in items:
        sigma = "-" if it["sigma"] is None else str(it["sigma"])
        line = (f"{it['id']:<28}{it['label']:<20}{sigma:<18}{it['outcome']:<16}"
                f"{1000 * it['wall']:>10.1f}")
        if traced:
            base = it["untraced_wall"]
            line += f"{'-' if base is None else f'{1000 * base:.1f}':>13}"
        print(line)


def end_to_end(items: list[dict], cycles: int, setup_s: float) -> dict:
    ok = [it for it in items if it["outcome"] == "ok"]
    # A failed item enters the percentiles at the limit, so turning a failure
    # into a success can never read as a latency regression.
    counted = sorted(it["wall"] if it["outcome"] == "ok" else LIMIT_S for it in items)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(ok) / sum(it["wall"] for it in items), "1/s"),
        "item_p50_ms": (1000 * statistics.median(counted), "ms"),
        "item_p90_ms": (1000 * statistics.quantiles(counted, n=10)[8], "ms"),
        "fail_ratio": ((len(items) - len(ok)) / len(items), "1"),
        "peak_rss_mb": (max(it["rss_kb"] for it in items) / 1024, "MB"),
        "output_bytes": (sum(it["bytes"] for it in items) / cycles, "B"),
    }


def per_layer(wl, items: list[dict], env: dict) -> dict:
    reps = [it["trace"] for it in items if it["trace"] is not None]
    pairs = [(it["trace"]["wall"], it["untraced_wall"]) for it in items
             if it["trace"] is not None and it["outcome"] == "ok" and it["untraced_wall"]]
    overhead = sum(a for a, _ in pairs) / sum(b for _, b in pairs) - 1.0 if pairs else 0.0
    startup = 0.0
    if wl.name == "cli_weight_ladder":
        code = ("import time; t = time.perf_counter(); import luknet.cli; "
                "print(time.perf_counter() - t)")
        startup = statistics.median(
            float(probe([sys.executable, "-c", code], env)[1]) for _ in range(STARTUP_PROBES))
    print()
    for line in spans.layer_table(reps):
        print(line)
    if pairs:
        print(f"traced {1000 * sum(a for a, _ in pairs) / len(pairs):.1f} ms/item, untraced "
              f"{1000 * sum(b for _, b in pairs) / len(pairs):.1f} ms/item over the {len(pairs)} "
              f"items that succeeded: overhead {overhead:.1%}")
    metrics = spans.layer_metrics(reps, overhead, startup)
    os.makedirs(os.path.join(ROOT, RUNS_DIR), exist_ok=True)
    path = os.path.join(ROOT, RUNS_DIR, f"{wl.name}-seed{wl.seed}-spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"item": it["id"], "spans": it["trace"]["spans"]} for it in items
                   if it["trace"] is not None], fh)
    return {name: (value, spans.UNITS[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "luknet", "__init__.py")):
        print("perfbench: run from a checkout; src/luknet is missing", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    if args.probe_setup:  # one fresh interpreter's set-up, timed by the parent run
        wl.setup()
        return 0
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    traced = bool(args.trace)
    try:
        setup_s = 0.0
        if not traced:
            setup_s = statistics.median(probe(wl.probe_argv(), env)[0] for _ in range(SETUP_PROBES))
        wl.setup()
        # Keep the parent's heap out of every forked child's garbage
        # collections: they would touch, and so copy, all of it.
        gc.freeze()
        items, cycles = run_cycles(wl, args.seconds, traced)
    finally:
        wl.close()
    print_rows(items, traced)
    wrong = [it for it in items if it["wrong"]]
    for it in wrong:
        print(f"perfbench: WRONG ANSWER {it['id']}: {it['wrong']}", file=sys.stderr)
    metrics = per_layer(wl, items, env) if traced else end_to_end(items, cycles, setup_s)
    result = {
        "correct": not wrong,
        "attempted": len(items),
        "failed": sum(it["outcome"] != "ok" for it in items),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
