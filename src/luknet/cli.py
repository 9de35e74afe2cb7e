"""Command-line surface: extract / construct / roundtrip / rewrite /
check-equiv / axioms / bounds.

Exit codes: 0 success (or Equal); 1 negative result (counterexample, not
normal, roundtrip of a degenerate network or mismatch, trace failed: a
rewrite step that does not match) or budget exceeded (an exact search past
its --budget); 2 usage or input errors, or an output that cannot be written
(an -o path, or standard output closed by its reader).

``rewrite`` and ``axioms`` load the rewrite engine (:mod:`luknet.rewrite`)
on demand, so the other commands start without it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import formula as fm
from .bounds import BudgetExceeded, exact_extrema
from .construct import NotNormal, graph_to_sigma, roundtrip, sigma_to_rho
from .equiv import Counterexample, FiniteGrid, as_point_fn, grid_equal, sample_equal
from .extract import check_flavor, extract_graph
from .graph import FLAVOR_INTEGER, FLAVORS, graph_from_dict, graph_from_json, graph_to_json
from .network import (
    Degenerate, NodeRef, network_diff, network_from_dict, network_from_json, network_to_json, scaled_layer
)
from .numerics import format_rational, json_decode


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from e


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from e


def _load_any(path: str):
    """Auto-detect network / graph / formula by schema."""
    text = _read(path)
    try:
        data = json_decode(text, path)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "input_dim" in data:
        return network_from_dict(data)
    if isinstance(data, dict) and "widths" in data:
        return graph_from_dict(data)
    try:
        return fm.parse(text.strip())
    except fm.FormulaSyntaxError as e:
        raise ValueError(f"{path} is neither network/graph JSON nor a formula: {e}") from e


def integer(text: str) -> int:
    """An optional - and ASCII digits, the one form of every count and index
    on the command line; argparse names a bad value by this function's name."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_BUDGET_HELP = (
    "at most this many branches per exact extrema search, counted once per "
    "open sense (minimum, maximum); past it the command exits 1 (default: no limit)"
)


def _node_budget(args) -> int | None:
    """The --budget option, the one way to set the node budget: None when
    unset, else a positive integer."""
    if args.budget is not None and args.budget < 1:
        raise ValueError(f"--budget must be a positive integer, got {args.budget}")
    return args.budget


def _cmd_extract(args) -> int:
    net = network_from_json(_read(args.network))
    budget = _node_budget(args)
    if args.check_range:
        check_flavor(list(map(scaled_layer, net.layers)), args.flavor)  # bad input before the range
        rng = exact_extrema(net, "output", node_budget=budget)
        if rng.lo < 0 or rng.hi > 1:
            print(f"realized range [{rng.lo}, {rng.hi}] leaves [0,1]", file=sys.stderr)
            return 1
    _write(args.output, graph_to_json(extract_graph(net, flavor=args.flavor)) + "\n")
    return 0


def _cmd_construct(args) -> int:
    g = graph_from_json(_read(args.graph))
    try:
        net = sigma_to_rho(graph_to_sigma(g), node_budget=_node_budget(args))
    except NotNormal as e:
        print(f"not normal: {e}", file=sys.stderr)
        return 1
    _write(args.output, network_to_json(net) + "\n")
    return 0


def _cmd_roundtrip(args) -> int:
    net = network_from_json(_read(args.network))
    try:
        back = roundtrip(net, flavor=args.flavor, node_budget=_node_budget(args))
    except Degenerate as e:
        print(f"roundtrip refused: {e}", file=sys.stderr)
        return 1
    if back == net:
        print("roundtrip: identical")
        return 0
    print("roundtrip: MISMATCH")
    for line in network_diff(net, back):
        print(f"  {line}")
    return 1


def _cmd_rewrite(args) -> int:
    from . import rewrite as rw

    g = graph_from_json(_read(args.graph))
    _, steps = rw.steps_from_jsonl(_read(args.trace))
    axioms = rw.catalog_by_id(rw.catalog(args.axioms))
    try:
        result = rw.apply_trace_to_graph(g, steps, axioms)
    except rw.NoMatchAtPosition as e:
        print(f"trace failed: {e}", file=sys.stderr)
        return 1
    _write(args.output, graph_to_json(result) + "\n")
    return 0


def _cmd_check_equiv(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be a non-negative integer, got {args.samples}")
    la, lb = _load_any(args.lhs), _load_any(args.rhs)
    fa, na = as_point_fn(la)
    fb, nb = as_point_fn(lb)
    n = max(na, nb)
    # Formulas tolerate extra inputs; networks and graphs have a fixed arity.
    for obj, arity, path in ((la, na, args.lhs), (lb, nb, args.rhs)):
        if arity != n and not isinstance(obj, fm.Formula):
            raise ValueError(f"{path} expects {arity} inputs but the comparison uses {n}")
    result = grid_equal(fa, fb, FiniteGrid(args.grid, n))
    if isinstance(result, Counterexample):
        _print_counterexample(result, "grid")
        return 1
    print(f"equal on all {result.points_checked} points of I_{args.grid}^{n}")
    if args.samples:
        result = sample_equal(fa, fb, n, args.samples, args.seed)
        if isinstance(result, Counterexample):
            _print_counterexample(result, "sample")
            return 1
        print(f"equal on {args.samples} sampled rational points (seed {args.seed})")
    return 0


def _print_counterexample(cx: Counterexample, kind: str) -> None:
    point = ", ".join(format_rational(v) for v in cx.point)
    print(f"{kind} counterexample at ({point}): {cx.lhs} != {cx.rhs}")


def _cmd_axioms(args) -> int:
    from . import rewrite as rw

    axioms = rw.catalog(args.set)
    for ax in axioms:
        line = f"{ax.id}: {fm.to_text(ax.lhs)} = {fm.to_text(ax.rhs)}"
        if args.render_symmetry:
            try:
                lhs, rhs = rw.render_symmetry(ax)
                line += f"  |  {lhs} = {rhs}"
            except ValueError:
                line += "  |  (no rho form: non-MV connective)"
        print(line)
    return 0


def _cmd_bounds(args) -> int:
    net = network_from_json(_read(args.network))
    if args.node:
        try:
            j, i = (integer(p) for p in args.node.split(","))
        except ValueError:
            raise ValueError(f"--node must be LAYER,INDEX, got {args.node}") from None
        ref: NodeRef | str = NodeRef(j, i)
        label = f"node ({j},{i})"
    else:
        ref, label = "output", "output"
    iv = exact_extrema(net, ref, activated=args.activated, node_budget=_node_budget(args))
    print(f"{label}: [{format_rational(iv.lo)}, {format_rational(iv.hi)}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luknet",
        description="Compile between ReLU networks on the unit cube and "
        "Lukasiewicz-logic formulae, rewrite by the logic axioms, and check "
        "exact functional equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="network -> substitution graph")
    p.add_argument("network")
    p.add_argument("--flavor", choices=FLAVORS, default=FLAVOR_INTEGER)
    p.add_argument("--check-range", action="store_true")
    p.add_argument("--budget", type=integer, default=None,
                   help="bounds only the --check-range search, as extract runs no other: " + _BUDGET_HELP)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("construct", help="substitution graph -> relu network")
    p.add_argument("graph")
    p.add_argument("--budget", type=integer, default=None, help=_BUDGET_HELP)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("roundtrip", help="verify extract+construct is the identity")
    p.add_argument("network")
    p.add_argument("--flavor", choices=FLAVORS, default=FLAVOR_INTEGER)
    p.add_argument("--budget", type=integer, default=None, help=_BUDGET_HELP)
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("rewrite", help="apply a derivation trace to a graph")
    p.add_argument("graph")
    p.add_argument("--trace", required=True)
    p.add_argument("--axioms", default="MV", help="axiom set (default MV)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("check-equiv", help="exact grid equivalence of two inputs")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--grid", type=integer, default=12)
    p.add_argument("--samples", type=integer, default=0)
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(fn=_cmd_check_equiv)

    p = sub.add_parser("axioms", help="dump an axiom catalog")
    p.add_argument("--set", required=True, help="MV | MVk:<k> | DMV:<n> | RMV:<r,...>")
    p.add_argument("--render-symmetry", action="store_true")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("bounds", help="exact extrema of a node's global map")
    p.add_argument("network")
    p.add_argument("--node", help="layer,index (default: output)")
    p.add_argument("--activated", action="store_true")
    p.add_argument("--budget", type=integer, default=None, help=_BUDGET_HELP)
    p.set_defaults(fn=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()  # inside the guard: a buffered tail fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed standard output early: what is still buffered
        # goes nowhere, and the run ends as an unwritable -o path does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output closed before all output was written", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (MemoryError)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
