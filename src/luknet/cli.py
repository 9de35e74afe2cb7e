"""Command-line surface: extract / construct / roundtrip / rewrite /
check-equiv / axioms / bounds.

Exit codes: 0 success (or Equal), 1 negative result (counterexample,
degenerate, not normal, roundtrip mismatch), 2 usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import formula as fm
from . import rewrite as rw
from .bounds import BudgetExceeded, exact_extrema
from .construct import NotNormal, graph_to_sigma, roundtrip, sigma_to_rho
from .equiv import Counterexample, FiniteGrid, as_point_fn, grid_equal, sample_equal
from .extract import extract_graph
from .graph import GraphError, graph_from_json, graph_to_json
from .network import (
    Degenerate,
    NetworkError,
    NodeRef,
    network_diff,
    network_from_json,
    network_to_json,
    networks_equal_up_to_permutation,
)
from .numerics import format_rational


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_any(path: str):
    """Auto-detect network / graph / formula by schema."""
    text = _read(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "input_dim" in data:
        return network_from_json(text)
    if isinstance(data, dict) and "widths" in data:
        return graph_from_json(text)
    try:
        return fm.parse(text.strip())
    except fm.FormulaSyntaxError as e:
        raise InputError(f"{path} is neither network/graph JSON nor a formula: {e}") from e


def _node_budget(args) -> int | None:
    """--budget, else $LUK_NODE_BUDGET, else None; a set budget must be a
    positive integer."""
    if getattr(args, "budget", None) is not None:
        name, text = "--budget", str(args.budget)
    else:
        name, text = "LUK_NODE_BUDGET", os.environ.get("LUK_NODE_BUDGET")
        if not text:
            return None
    try:
        budget = int(text)
        if budget >= 1:
            return budget
    except ValueError:
        pass
    raise InputError(f"{name} must be a positive integer, got {text}")


def _cmd_extract(args) -> int:
    net = network_from_json(_read(args.network))
    try:
        g = extract_graph(net, flavor=args.flavor, node_budget=_node_budget(args))
    except Degenerate as e:
        print(f"degenerate network: {e}", file=sys.stderr)
        return 1
    if args.check_range:
        rng = exact_extrema(net, "output", node_budget=_node_budget(args))
        if rng.lo < 0 or rng.hi > 1:
            print(f"realized range [{rng.lo}, {rng.hi}] leaves [0,1]", file=sys.stderr)
            return 1
    _write(args.output, graph_to_json(g) + "\n")
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
    except (Degenerate, NotNormal) as e:
        print(f"roundtrip refused: {e}", file=sys.stderr)
        return 1
    if back == net:
        print("roundtrip: identical")
        return 0
    if args.ignore_permutation and networks_equal_up_to_permutation(net, back):
        print("roundtrip: identical up to node relabeling")
        return 0
    print("roundtrip: MISMATCH")
    for line in network_diff(net, back):
        print(f"  {line}")
    return 1


def _cmd_rewrite(args) -> int:
    g = graph_from_json(_read(args.graph))
    _, steps = rw.steps_from_jsonl(_read(args.trace))
    axioms = rw.catalog_by_id(rw.catalog(args.axioms))
    try:
        result = rw.apply_trace_to_graph(g, steps, axioms)
    except rw.StepFailure as e:
        print(f"trace failed: {e}", file=sys.stderr)
        return 1
    _write(args.output, graph_to_json(result) + "\n")
    return 0


def _cmd_check_equiv(args) -> int:
    la, lb = _load_any(args.lhs), _load_any(args.rhs)
    fa, na = as_point_fn(la)
    fb, nb = as_point_fn(lb)
    n = max(na, nb)
    # Formulas tolerate extra inputs; networks and graphs have a fixed arity.
    for obj, arity, path in ((la, na, args.lhs), (lb, nb, args.rhs)):
        if arity != n and not isinstance(obj, fm.Formula):
            raise InputError(f"{path} expects {arity} inputs but the comparison uses {n}")
    result = grid_equal(fa, fb, FiniteGrid(args.grid, n))
    if isinstance(result, Counterexample):
        _print_counterexample(result, "grid")
        return 1
    print(f"equal on all {(args.grid + 1) ** n} points of I_{args.grid}^{n}")
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
            j, i = (int(p) for p in args.node.split(","))
        except ValueError:
            raise InputError(f"--node must be LAYER,INDEX, got {args.node}") from None
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
    p.add_argument("--flavor", choices=["integer", "rational", "real"], default="integer")
    p.add_argument("--check-range", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("construct", help="substitution graph -> relu network")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("roundtrip", help="verify extract+construct is the identity")
    p.add_argument("network")
    p.add_argument("--flavor", choices=["integer", "rational", "real"], default="integer")
    p.add_argument("--ignore-permutation", action="store_true")
    p.add_argument("--budget", type=int, default=None)
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
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_check_equiv)

    p = sub.add_parser("axioms", help="dump an axiom catalog")
    p.add_argument("--set", required=True, help="MV | MVk:<k> | DMV:<n> | RMV:<r,...>")
    p.add_argument("--render-symmetry", action="store_true")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("bounds", help="exact extrema of a node's global map")
    p.add_argument("network")
    p.add_argument("--node", help="layer,index (default: output)")
    p.add_argument("--activated", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 1
    except (InputError, NetworkError, GraphError, rw.RewriteError, fm.FormulaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
