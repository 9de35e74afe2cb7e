"""Spans around the library's public functions, recorded from the benchmark.

install() rebinds every module attribute of luknet that names a traced
function, so calls made through from-imports (luknet.construct.exact_extrema,
luknet.bounds.lp_extremum, ...) are traced too.  It is only ever called in a
forked child of a traced run; untraced runs never see a wrapper.

A span is [name, parent index, start, end, info].  Self time is the span's
duration minus the durations of its direct children, so the self times of
one item's spans add up to the item's traced wall time.
"""
from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

ROOT = "item"


def _hidden(net) -> int:
    return sum(layer.width for layer in net.layers[:-1])


def _nodes(net) -> int:
    return sum(layer.width for layer in net.layers)


# (defining module, function, span name, info(args, result) or None)
TARGETS = [
    ("luknet.construct", "roundtrip", "construct.roundtrip", None),
    ("luknet.extract", "extract_graph", "extract.extract_graph", None),
    ("luknet.extract", "rho_to_sigma", "extract.rho_to_sigma",
     lambda a, r: {"rho_hidden": _hidden(a[0]), "sigma_hidden": _hidden(r)}),
    ("luknet.extract", "formula_for_certificate", "extract.formula_for_certificate", None),
    ("luknet.network", "is_non_degenerate", "network.is_non_degenerate",
     lambda a, r: {"hidden": _hidden(a[0])}),
    ("luknet.graph", "normality_violation", "graph.normality_violation", None),
    ("luknet.construct", "graph_to_sigma", "construct.graph_to_sigma", None),
    ("luknet.construct", "sigma_to_rho", "construct.sigma_to_rho",
     lambda a, r: {"sigma_nodes": _nodes(a[0]), "rho_nodes": _nodes(r)}),
    ("luknet.bounds", "exact_extrema", "bounds.exact_extrema", None),
    ("luknet.numerics", "lp_extremum", "numerics.lp_extremum", None),
    ("luknet.numerics", "lp_feasible", "numerics.lp_feasible", lambda a, r: {"feasible": r}),
    ("luknet.graph", "graph_to_json", "graph.graph_to_json", lambda a, r: {"bytes": len(r)}),
    ("luknet.graph", "graph_from_json", "graph.graph_from_json", None),
    ("luknet.formula", "to_text", "formula.to_text", None),
    ("luknet.formula", "parse", "formula.parse", None),
    ("luknet.equiv", "grid_equal", "equiv.grid_equal",
     lambda a, r: {"points": getattr(r, "points_checked", 0)}),
    ("luknet.cli", "_cmd_extract", "cli.extract", None),
    ("luknet.cli", "_cmd_construct", "cli.construct", None),
    ("luknet.cli", "_cmd_check_equiv", "cli.check_equiv", None),
]

# Spans whose graph (result or first argument) has its formula sizes measured
# after the item, with the role the graph played.
_GRAPH_RESULT = {"extract.extract_graph": "extract", "graph.graph_from_json": "decode"}
_GRAPH_ARG = {"graph.graph_to_json": "encode"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.graphs: list = []

    def wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[3] = time.perf_counter()
                span[4] = {"error": type(e).__name__}
                raise
            finally:
                stack.pop()
            span[3] = time.perf_counter()
            if info is not None:
                span[4] = info(args, result)
            if name in _GRAPH_RESULT:
                self.graphs.append((_GRAPH_RESULT[name], result))
            elif name in _GRAPH_ARG:
                self.graphs.append((_GRAPH_ARG[name], args[0]))
            return result

        return traced

    def root(self, call):
        """Run call() inside the item's root span."""
        return self.wrap(ROOT, call, None)()

    def report(self) -> dict:
        """Spans plus formula sizes of every graph seen, for the parent."""
        return {"spans": self.spans, "graphs": [graph_sizes(role, g) for role, g in self.graphs]}


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS function wherever a luknet module binds it."""
    import luknet.cli  # noqa: F401  (imports every traced module)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "luknet" and m]
    for modname, attr, span, info in TARGETS:
        original = getattr(sys.modules[modname], attr)
        wrapper = tracer.wrap(span, original, info)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def graph_sizes(role: str, g) -> dict:
    """Distinct formula objects across the graph, and its longest tree."""
    seen = set()
    stack = [node.formula for level in g.nodes for node in level]
    longest = max(f.length for f in stack)
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen.add(id(f))
            stack.extend(f.children())
    return {"role": role, "dag_nodes": len(seen), "tree_length": longest}


# ---------------------------------------------------------------------------
# Aggregation in the parent
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Unit of every per-layer metric; names ending in _s are self times.
UNITS = {
    "extract.extract_graph_s": "s", "extract.reextractions": "count", "extract.reextract_s": "s",
    "graph.normality_s": "s", "construct.graph_to_sigma_s": "s", "extract.rho_to_sigma_s": "s",
    "extract.split_ratio": "1", "construct.sigma_to_rho_s": "s", "construct.merge_ratio": "1",
    "network.degeneracy_s": "s", "network.exact_checks": "count", "network.witness_ratio": "1",
    "bounds.extrema_s": "s", "bounds.calls": "count", "bounds.lp_solves": "count",
    "bounds.feasibility_probes": "count", "bounds.feasible_ratio": "1",
    "bounds.budget_exceeded": "count", "numerics.lp_s": "s", "numerics.lp_share": "1",
    "formula.dag_nodes": "count", "formula.tree_length_log10_max": "1", "formula.to_text_s": "s",
    "formula.parse_s": "s", "graph.json_bytes": "B", "graph.bytes_per_dag_node": "B",
    "graph.json_encode_s": "s", "graph.json_decode_s": "s", "equiv.grid_s": "s",
    "equiv.points": "count", "cli.startup_s": "s", "cli.extract_s": "s", "cli.construct_s": "s",
    "cli.check_equiv_s": "s", "trace.overhead_ratio": "1",
}


def layer_metrics(traced: list[dict], overhead_ratio: float, cli_startup_s: float) -> dict:
    """Per-layer metrics over the traced items.

    Times and counts are means per item; ratios are sums over the run.
    ``traced`` holds the reports of items whose child replied.
    """
    n = max(1, len(traced))
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    for rep in traced:
        spans = rep["spans"]
        for (name, parent, start, end, info), own in zip(spans, self_times(spans)):
            self_s[name] += own
            calls[name] += 1
            info = info or {}
            for key, value in info.items():
                if key != "error":
                    sums[key] += value
            if name == "bounds.exact_extrema":
                sums["extrema_wall"] += end - start
                if info.get("error") == "BudgetExceeded":
                    sums["budget_exceeded"] += 1
                if parent >= 0 and spans[parent][0] == "network.is_non_degenerate":
                    sums["exact_checks"] += 1
        for g in rep["graphs"]:
            sums["dag_nodes"] += g["dag_nodes"]
            longest = math.log10(max(1, g["tree_length"]))
            sums["tree_log10_max"] = max(sums["tree_log10_max"], longest)
            if g["role"] == "encode":
                sums["encoded_dag_nodes"] += g["dag_nodes"]

    def ratio(a, b):
        return a / b if b else 0.0

    lp_self = self_s["numerics.lp_extremum"] + self_s["numerics.lp_feasible"]
    return {
        "extract.extract_graph_s": self_s["extract.extract_graph"] / n,
        "extract.reextractions": calls["extract.formula_for_certificate"] / n,
        "extract.reextract_s": self_s["extract.formula_for_certificate"] / n,
        "graph.normality_s": self_s["graph.normality_violation"] / n,
        "construct.graph_to_sigma_s": self_s["construct.graph_to_sigma"] / n,
        "extract.rho_to_sigma_s": self_s["extract.rho_to_sigma"] / n,
        "extract.split_ratio": ratio(sums["sigma_hidden"], sums["rho_hidden"]),
        "construct.sigma_to_rho_s": self_s["construct.sigma_to_rho"] / n,
        "construct.merge_ratio": ratio(sums["rho_nodes"], sums["sigma_nodes"]),
        "network.degeneracy_s": self_s["network.is_non_degenerate"] / n,
        "network.exact_checks": sums["exact_checks"] / n,
        "network.witness_ratio": ratio(sums["hidden"] - sums["exact_checks"], sums["hidden"]),
        "bounds.extrema_s": self_s["bounds.exact_extrema"] / n,
        "bounds.calls": calls["bounds.exact_extrema"] / n,
        "bounds.lp_solves": calls["numerics.lp_extremum"] / n,
        "bounds.feasibility_probes": calls["numerics.lp_feasible"] / n,
        "bounds.feasible_ratio": ratio(sums["feasible"], calls["numerics.lp_feasible"]),
        "bounds.budget_exceeded": sums["budget_exceeded"] / n,
        "numerics.lp_s": lp_self / n,
        "numerics.lp_share": ratio(lp_self, sums["extrema_wall"]),
        "formula.dag_nodes": sums["dag_nodes"] / n,
        "formula.tree_length_log10_max": sums["tree_log10_max"],
        "formula.to_text_s": self_s["formula.to_text"] / n,
        "formula.parse_s": self_s["formula.parse"] / n,
        "graph.json_bytes": sums["bytes"] / n,
        "graph.bytes_per_dag_node": ratio(sums["bytes"], sums["encoded_dag_nodes"]),
        "graph.json_encode_s": self_s["graph.graph_to_json"] / n,
        "graph.json_decode_s": self_s["graph.graph_from_json"] / n,
        "equiv.grid_s": self_s["equiv.grid_equal"] / n,
        "equiv.points": sums["points"] / n,
        "cli.startup_s": cli_startup_s,
        "cli.extract_s": self_s["cli.extract"] / n,
        "cli.construct_s": self_s["cli.construct"] / n,
        "cli.check_equiv_s": self_s["cli.check_equiv"] / n,
        "trace.overhead_ratio": overhead_ratio,
    }


def layer_table(traced: list[dict]) -> list[str]:
    """Per-span lines: calls and self time per item, share of traced item wall."""
    n = max(1, len(traced))
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for rep in traced:
        for span, own in zip(rep["spans"], self_times(rep["spans"])):
            self_s[span[0]] += own
            calls[span[0]] += 1
    wall = sum(rep["wall"] for rep in traced) or 1.0
    lines = [f"{'span':<34}{'calls/item':>12}{'self ms/item':>14}{'share':>8}"]
    for name in sorted(self_s, key=self_s.get, reverse=True):
        lines.append(
            f"{name:<34}{calls[name] / n:>12.2f}{1000 * self_s[name] / n:>14.3f}"
            f"{self_s[name] / wall:>8.1%}"
        )
    lines.append(f"{'sum of self times / traced wall':<60}{sum(self_s.values()) / wall:>8.1%}")
    return lines
