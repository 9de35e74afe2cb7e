"""Axiom catalogs and positioned rewriting on formulas and substitution graphs.

Axiom sides are ordinary formulas whose variables act as metavariables, so
instantiation is plain substitution.  Positions are root-to-node child-index
paths.  Derivation traces record (axiom, direction, position, binding) steps
and replay deterministically.  ``Axiom``, ``Step`` and ``DerivationTrace``
are named tuples.  The rho glossary writes an MV formula with affine maps and
rho = relu: one table gives the text of each MV connective's rho form over its
children's, and one fold over the formula's postorder reads it.
"""
from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import formula as fm
from .formula import Formula, Not, Odot, Oplus, Var, substitute
from .graph import GraphNode, SubstitutionGraph
from .numerics import json_decode, json_field, json_int, json_list, json_str, parse_rational


class NoMatchAtPosition(Exception):
    """The subterm at a position does not instantiate the axiom side: a negative result."""


_METAVAR_NAMES = {1: "x", 2: "y", 3: "z"}
_METAVAR_INDICES = {v: k for k, v in _METAVAR_NAMES.items()}


class _Axiom(NamedTuple):
    id: str
    lhs: Formula
    rhs: Formula


class Axiom(_Axiom):
    """The axiom lhs = rhs; its variables are metavariables shared by the sides."""

    __slots__ = ()

    def __new__(cls, id: str, lhs: Formula, rhs: Formula) -> "Axiom":
        # Nothing may dangle outside the name table used by trace files.
        if max(lhs.max_var, rhs.max_var) > len(_METAVAR_NAMES):
            raise ValueError(f"axiom {id} uses more than 3 metavariables")
        return super().__new__(cls, id, lhs, rhs)

    def side(self, direction: str) -> tuple[Formula, Formula]:
        if direction == "LR":
            return self.lhs, self.rhs
        if direction == "RL":
            return self.rhs, self.lhs
        raise ValueError(f"direction must be 'LR' or 'RL', got {direction!r}")


def match_instantiation(pattern: Formula, target: Formula) -> dict[int, Formula] | None:
    """Bind pattern variables to whole subformulas of the target, or None.

    Constants in the pattern match only the literal constants; operator
    parameters (delta divisor, scale factor) must agree exactly.  Variables
    are bound left to right, in pre-order.
    """
    binding: dict[int, Formula] = {}
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if type(p) is Var:
            if binding.setdefault(p.index, t) is not t:
                return None
        elif type(p) is not type(t) or p.op != t.op:
            return None
        else:
            stack.extend(reversed(tuple(zip(p.children(), t.children()))))
    return binding


# ---------------------------------------------------------------------------
# Positions
# ---------------------------------------------------------------------------

Position = Sequence[int]


def _descend(f: Formula, pos: Position) -> list[Formula]:
    """The nodes on the path from f along pos, f first."""
    nodes = [f]
    for step, branch in enumerate(pos):
        kids = nodes[-1].children()
        if not 0 <= branch < len(kids):
            raise ValueError(
                f"position {list(pos)} has no child {branch} at depth {step}, "
                f"where the subterm has {len(kids)}"
            )
        nodes.append(kids[branch])
    return nodes


def subformula_at(f: Formula, pos: Position) -> Formula:
    return _descend(f, pos)[-1]


def replace_at(f: Formula, pos: Position, new: Formula) -> Formula:
    for node, branch in reversed(list(zip(_descend(f, pos), pos))):
        kids = list(node.children())
        kids[branch] = new
        new = node.rebuild(kids)
    return new


def all_positions(f: Formula) -> list[tuple[int, ...]]:
    """Pre-order list of all positions in the tree (prefix paths).

    Positions address the expanded tree, not the shared DAG: there are at
    least ``f.length`` of them, exponentially many in the weights of an
    extracted formula.
    """
    out: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], Formula]] = [((), f)]
    while stack:
        path, node = stack.pop()
        out.append(path)
        kids = node.children()
        stack.extend((path + (i,), kids[i]) for i in reversed(range(len(kids))))
    return out


def apply_axiom(
    f: Formula,
    axiom: Axiom,
    direction: str,
    pos: Position,
    binding: Mapping[int, Formula] | None = None,
) -> Formula:
    """Replace the subformula at pos by the instantiated other side of the axiom.

    The binding is normally inferred by matching; it must be supplied
    explicitly when the matched side does not mention every metavariable of
    the other side (e.g. applying x+1 = 1 from right to left).
    """
    src, dst = axiom.side(direction)
    sub = subformula_at(f, pos)
    if binding is None:
        binding = match_instantiation(src, sub)
        if binding is None:
            side = "left" if direction == "LR" else "right"
            raise NoMatchAtPosition(
                f"subformula at position {list(pos)} is not an instance of the {side} side of {axiom.id}"
            )
    else:
        if substitute(src, binding) is not sub:
            raise NoMatchAtPosition("supplied binding does not instantiate the matched side")
    missing = fm.variables(dst) - set(binding)
    if missing:
        raise NoMatchAtPosition(
            f"metavariable{'s' if len(missing) > 1 else ''} "
            f"{sorted(_METAVAR_NAMES.get(i, f'#{i}') for i in missing)} unbound; "
            "supply an explicit binding"
        )
    return replace_at(f, pos, substitute(dst, binding))


def applicable_rewrites(f: Formula, axioms: Iterable[Axiom]):
    """All (axiom, direction, position, binding) quadruples applicable to f.

    Every tree position is tried (see :func:`all_positions`), so the cost
    grows with the expanded tree, at least ``f.length``, not with the DAG.
    """
    out = []
    for pos in all_positions(f):
        sub = subformula_at(f, pos)
        for ax in axioms:
            for direction in ("LR", "RL"):
                src, dst = ax.side(direction)
                binding = match_instantiation(src, sub)
                if binding is not None and not (fm.variables(dst) - set(binding)):
                    out.append((ax, direction, pos, binding))
    return out


def apply_axiom_on_graph(
    g: SubstitutionGraph,
    level: int,
    index: int,
    axiom: Axiom,
    direction: str,
    pos: Position,
    binding: Mapping[int, Formula] | None = None,
) -> SubstitutionGraph:
    """Rewrite one node's formula in place; its certificate is dropped."""
    if level < 1:
        raise ValueError("input nodes carry no rewritable formula")
    if not level <= g.depth or not 1 <= index <= g.widths[level]:
        raise ValueError(f"no node ({level},{index})")
    new_formula = apply_axiom(g.node(level, index).formula, axiom, direction, pos, binding)
    if new_formula.max_var > g.widths[level - 1]:
        raise ValueError(
            f"rewrite introduces x{new_formula.max_var} beyond width {g.widths[level - 1]}"
        )
    new_level = list(g.nodes[level - 1])
    new_level[index - 1] = GraphNode(new_formula, certificate=None)
    new_nodes = g.nodes[: level - 1] + (tuple(new_level),) + g.nodes[level:]
    return SubstitutionGraph(g.widths, new_nodes)


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

_X, _Y, _Z = fm.var(1), fm.var(2), fm.var(3)


def _iterate(op, n: int, t: Formula) -> Formula:
    """Left-associated n-fold op of t; the empty iterate is the op's unit."""
    if n == 0:
        return fm.ZERO if op is fm.oplus else fm.ONE
    acc = t
    for _ in range(n - 1):
        acc = op(acc, t)
    return acc


def mv_catalog() -> list[Axiom]:
    """The sixteen axioms of many-valued algebra."""
    x, y, z = _X, _Y, _Z
    o, a, n = fm.oplus, fm.odot, fm.lnot
    spec = [
        ("Ax1", o(x, y), o(y, x)),
        ("Ax1p", a(x, y), a(y, x)),
        ("Ax2", o(x, o(y, z)), o(o(x, y), z)),
        ("Ax2p", a(x, a(y, z)), a(a(x, y), z)),
        ("Ax3", o(x, n(x)), fm.ONE),
        ("Ax3p", a(x, n(x)), fm.ZERO),
        ("Ax4", o(x, fm.ONE), fm.ONE),
        ("Ax4p", a(x, fm.ZERO), fm.ZERO),
        ("Ax5", o(x, fm.ZERO), x),
        ("Ax5p", a(x, fm.ONE), x),
        ("Ax6", n(o(x, y)), a(n(x), n(y))),
        ("Ax6p", n(a(x, y)), o(n(x), n(y))),
        ("Ax7", x, n(n(x))),
        ("Ax8", n(fm.ZERO), fm.ONE),
        ("Ax9", o(a(x, n(y)), y), o(a(y, n(x)), x)),
        ("Ax9p", a(o(x, n(y)), y), a(o(y, n(x)), x)),
    ]
    return [Axiom(i, l, r) for i, l, r in spec]


def mvk_catalog(k: int) -> list[Axiom]:
    """Axioms of (k+1)-valued algebra: MV plus the finite-case families."""
    if k < 1:
        raise ValueError("k must be >= 1")
    axioms = mv_catalog()
    x = _X
    if k == 1:
        axioms.append(Axiom("AxF1", fm.oplus(x, x), x))
        axioms.append(Axiom("AxF1p", fm.odot(x, x), x))
        return axioms
    for j in range(2, k):
        if k % j == 0:
            continue
        # Inner iterates follow the outer sum/product family; the sound reading
        # of the finite-valued schema on I_k.
        zero_lhs = _iterate(
            fm.odot,
            k,
            fm.odot(_iterate(fm.oplus, j, x), fm.oplus(fm.lnot(x), fm.lnot(_iterate(fm.oplus, j - 1, x)))),
        )
        one_lhs = _iterate(
            fm.oplus,
            k,
            fm.oplus(_iterate(fm.odot, j, x), fm.odot(fm.lnot(x), fm.lnot(_iterate(fm.odot, j - 1, x)))),
        )
        axioms.append(Axiom(f"AxFk{k}j{j}", zero_lhs, fm.ZERO))
        axioms.append(Axiom(f"AxFk{k}j{j}p", one_lhs, fm.ONE))
    return axioms


def dmv_catalog(max_n: int) -> list[Axiom]:
    """MV plus the division axioms instantiated for n = 1..max_n.

    For each n: the n-fold sum of delta_n x equals x, and delta_n x strongly
    conjoined with the (n-1)-fold sum of delta_n x equals 0.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    axioms = mv_catalog()
    x = _X
    for n in range(1, max_n + 1):
        dn = fm.delta(n, x)
        axioms.append(Axiom(f"AxD{n}", _iterate(fm.oplus, n, dn), x))
        axioms.append(Axiom(f"AxD{n}p", fm.odot(dn, _iterate(fm.oplus, n - 1, dn)), fm.ZERO))
    return axioms


def rmv_catalog(scalars: Sequence[Fraction]) -> list[Axiom]:
    """MV plus the four scalar-operator axiom families over the given rationals."""
    rs = sorted({Fraction(r) for r in scalars})
    for r in rs:
        if not 0 <= r <= 1:
            raise ValueError(f"scalar {r} outside [0,1]")
    axioms = mv_catalog()
    x, y = _X, _Y
    for r in rs:
        axioms.append(
            Axiom(
                f"AxR1_{r}",
                fm.scale(r, fm.odot(x, fm.lnot(y))),
                fm.odot(fm.scale(r, x), fm.lnot(fm.scale(r, y))),
            )
        )
    for r in rs:
        for q in rs:
            rq = max(Fraction(0), r - q)
            axioms.append(
                Axiom(
                    f"AxR2_{r}_{q}", fm.scale(rq, x), fm.odot(fm.scale(r, x), fm.lnot(fm.scale(q, x)))
                )
            )
            axioms.append(Axiom(f"AxR3_{r}_{q}", fm.scale(r, fm.scale(q, x)), fm.scale(r * q, x)))
    axioms.append(Axiom("AxR4", fm.scale(Fraction(1), x), x))
    return axioms


def catalog(spec: str) -> list[Axiom]:
    """Parse a catalog spec: MV | MVk:<k> | DMV:<n> | RMV:<r1,r2,...>, where
    k and n are strings of ASCII digits."""
    if spec == "MV":
        return mv_catalog()
    kind, _, arg = spec.partition(":")
    if kind in ("MVk", "DMV") and arg.isascii() and arg.isdigit():
        return (mvk_catalog if kind == "MVk" else dmv_catalog)(int(arg))
    if kind == "RMV" and arg:
        return rmv_catalog([parse_rational(r) for r in arg.split(",")])
    raise ValueError(f"unknown axiom set {spec!r}")


def catalog_by_id(axioms: Iterable[Axiom]) -> dict[str, Axiom]:
    return {a.id: a for a in axioms}


# ---------------------------------------------------------------------------
# Derivation traces
# ---------------------------------------------------------------------------


class Step(NamedTuple):
    axiom_id: str
    direction: str  # "LR" | "RL"
    pos: tuple[int, ...]
    binding: Mapping[int, Formula] | None = None
    node: tuple[int, int] | None = None  # (level, index) for graph traces


class DerivationTrace(NamedTuple):
    start: Formula
    steps: tuple[Step, ...] = ()


def replay(trace: DerivationTrace, axioms: Mapping[str, Axiom]) -> list[Formula]:
    """All intermediate formulas, starting formula included."""
    out = [trace.start]
    for idx, step in enumerate(trace.steps):
        out.append(_applied(idx, step, axioms, partial(apply_axiom, out[-1])))
    return out


def _applied(idx: int, step: Step, axioms: Mapping[str, Axiom], apply):
    """apply(axiom, direction, pos, binding) for step idx.  A step that names
    no axiom, node or child of its target, or that brings in a variable beyond
    its node's width, is a ValueError; one that does not match is a
    NoMatchAtPosition.  Either message starts ``step idx: ``."""
    ax = axioms.get(step.axiom_id)
    if ax is None:
        raise ValueError(f"step {idx}: unknown axiom {step.axiom_id!r}")
    try:
        return apply(ax, step.direction, step.pos, step.binding)
    except NoMatchAtPosition as e:
        raise NoMatchAtPosition(f"step {idx}: {e}") from e
    except ValueError as e:
        raise ValueError(f"step {idx}: {e}") from e


# Trace wire format: one JSON object per line.  A leading {"start": ...}
# object is allowed for formula-level traces; graph traces add "node".


def _binding_from_json(data, where: str) -> dict[int, Formula] | None:
    if data is None:
        return None
    if type(data) is not dict:
        raise ValueError(f"{where} bind must be an object, got {type(data).__name__}")
    binding: dict[int, Formula] = {}
    for name, text in data.items():
        if name not in _METAVAR_INDICES:
            raise ValueError(f"{where} bind names {name!r}, not one of x, y, z")
        binding[_METAVAR_INDICES[name]] = _parsed(text, f"{where} bind {name}")
    return binding


def _parsed(text, where: str) -> Formula:
    """The formula of a trace field; a field that does not parse names itself."""
    try:
        return fm.parse(json_str(text, where))
    except fm.FormulaSyntaxError as e:
        raise ValueError(f"{where}: {e}") from None


def trace_to_jsonl(trace: DerivationTrace) -> str:
    lines = [json.dumps({"start": fm.to_text(trace.start)})]
    for step in trace.steps:
        entry: dict = {
            "axiom": step.axiom_id,
            "dir": step.direction,
            "pos": list(step.pos),
        }
        if step.binding is not None:
            entry["bind"] = {
                _METAVAR_NAMES.get(i, f"#{i}"): fm.to_text(f) for i, f in step.binding.items()
            }
        if step.node is not None:
            entry["node"] = list(step.node)
        lines.append(json.dumps(entry))
    return "\n".join(lines) + "\n"


def steps_from_jsonl(text: str) -> tuple[Formula | None, list[Step]]:
    """The start formula (None when absent) and the steps of a trace file; a
    line of the wrong shape is a ValueError that names the line and the field."""
    start: Formula | None = None
    steps: list[Step] = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"trace line {n}"
        try:
            data = json_decode(line, where)
        except json.JSONDecodeError as e:
            raise ValueError(f"{where} is not JSON: {e.msg} at column {e.colno}") from None
        if type(data) is dict and "start" in data and "axiom" not in data:
            start = _parsed(data["start"], f"{where} start")
            continue
        axiom = json_str(json_field(data, "axiom", where), f"{where} axiom")
        direction = data.get("dir", "LR")
        if direction not in ("LR", "RL"):
            raise ValueError(f"{where} dir must be LR or RL, got {direction!r}")
        pos = json_list(data.get("pos", []), f"{where} pos")
        node = None
        if "node" in data:
            entries = json_list(data["node"], f"{where} node")
            node = tuple(json_int(k, f"{where} node entry") for k in entries)
            if len(node) != 2:
                raise ValueError(f"{where} node must be [level, index], got {list(node)}")
        steps.append(
            Step(
                axiom_id=axiom,
                direction=direction,
                pos=tuple(json_int(p, f"{where} pos entry") for p in pos),
                binding=_binding_from_json(data.get("bind"), where),
                node=node,
            )
        )
    return start, steps


def apply_trace_to_graph(
    g: SubstitutionGraph, steps: Sequence[Step], axioms: Mapping[str, Axiom]
) -> SubstitutionGraph:
    for idx, step in enumerate(steps):
        if step.node is None:
            raise ValueError(f"step {idx}: graph trace step lacks a node reference")
        g = _applied(idx, step, axioms, partial(apply_axiom_on_graph, g, *step.node))
    return g


# ---------------------------------------------------------------------------
# Axiom-to-relu symmetry glossary
# ---------------------------------------------------------------------------


def _minus(text: str) -> str:
    """A subtracted operand's text: a difference (each starts "1 - ") in parentheses."""
    return f"({text})" if text.startswith("1 - ") else text


# The text of each MV connective's rho form over its children's:
# x*y = rho(x + y - 1) and x+y = 1 - rho(1 - x - y).
_RHO_FORMS = {
    Not: lambda a: f"1 - {_minus(a)}",
    Odot: "rho({} + {} - 1)".format,
    Oplus: lambda a, b: f"1 - rho(1 - {_minus(a)} - {_minus(b)})",
}


def _rho_fold(f: Formula) -> str:
    """The text of f's rho form: ``_RHO_FORMS`` folded over f's postorder.  A
    result is dropped once its last parent has read it, so a deep chain holds
    one text at a time, not every prefix of it."""
    order = fm.postorder(f)
    readers = Counter(kid for node in order for kid in node.children())
    memo: dict[Formula, str] = {}
    for node in order:
        kids = node.children()
        if node.head is None:
            memo[node] = _atom_text(node)
        elif type(node) in _RHO_FORMS:
            memo[node] = _RHO_FORMS[type(node)](*[memo[kid] for kid in kids])
        else:
            raise ValueError("symmetry rendering is defined for the MV connectives only")
        for kid in kids:
            readers[kid] -= 1
            if not readers[kid]:
                del memo[kid]
    return memo[f]


def _atom_text(node: Formula) -> str:
    return _METAVAR_NAMES.get(node.index, f"#{node.index}") if type(node) is Var else str(node.value)


def render_symmetry(axiom: Axiom) -> tuple[str, str]:
    """Both sides as compositions of affine maps and rho; they agree pointwise."""
    return _rho_fold(axiom.lhs), _rho_fold(axiom.rhs)

