"""Substitution graphs: layered graphs whose nodes carry formulas.

The represented formula is the output node's formula with each layer's
substitution applied from the outside in.

Wire format.  A graph file is one JSON object::

    {"widths": [d_0, ..., d_L],
     "terms": ["x1", "x2", "oplus 0 1", "not 2", ...],
     "nodes": [[{"formula": 3, "certificate": {...} or null}, ...], ...]}

``terms`` is the term table of :func:`luknet.formula.to_terms`: every
distinct subterm of every node formula, once, as a short string whose
children are indices of earlier terms.  It is shared by all nodes of the
graph, and a node's ``formula`` is an index into it.  So the file, its
decoding and its evaluation are linear in the DAG, where the expanded tree of
an extracted formula grows exponentially in the weights.  The table is
written in a depth-first postorder over the nodes in level order, so the
bytes depend only on the graph.  Decoding runs once through the interning
constructors: the decoded formulas are the very objects that were encoded,
and a certificate still re-extracts to its node's formula.  A malformed
table, or a file without one, is a ValueError.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import formula as fm
from .formula import Formula, substitute
from .numerics import (
    format_rational, json_decode, json_field, json_int, json_list, parse_rational, scaled
)


class GraphNode(NamedTuple):
    formula: Formula
    certificate: MintermCertificate | None = None


class _SubstitutionGraph(NamedTuple):
    widths: tuple[int, ...]  # d_0 .. d_L with d_L == 1
    nodes: tuple[tuple[GraphNode, ...], ...]  # levels 1..L


class SubstitutionGraph(_SubstitutionGraph):
    __slots__ = ()

    def __new__(
        cls, widths: tuple[int, ...], nodes: tuple[tuple[GraphNode, ...], ...]
    ) -> "SubstitutionGraph":
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError("graph needs positive widths d_0..d_L")
        if widths[-1] != 1:
            raise ValueError("exactly one output node is required")
        if len(nodes) != len(widths) - 1:
            raise ValueError("node levels do not match widths")
        for j, level in enumerate(nodes, start=1):
            if len(level) != widths[j]:
                raise ValueError(f"level {j} has {len(level)} nodes, expected {widths[j]}")
            for i, node in enumerate(level, start=1):
                if node.formula.max_var > widths[j - 1]:
                    raise ValueError(
                        f"node ({j},{i}) uses x{node.formula.max_var} but level "
                        f"{j - 1} has width {widths[j - 1]}"
                    )
                cert = node.certificate
                if cert is not None and len(cert.m) != widths[j - 1]:
                    raise ValueError(
                        f"certificate of node ({j},{i}) has {len(cert.m)} weights but level "
                        f"{j - 1} has width {widths[j - 1]}"
                    )
        return super().__new__(cls, widths, nodes)

    @property
    def depth(self) -> int:
        return len(self.nodes)

    def node(self, level: int, index: int) -> GraphNode:
        return self.nodes[level - 1][index - 1]


def represented_formula(g: SubstitutionGraph) -> Formula:
    """Output-first substitution: ([v_out] zeta_{L-1}) zeta_{L-2} ... zeta_1."""
    f = g.node(g.depth, 1).formula
    for level in reversed(g.nodes[:-1]):
        f = substitute(f, {i: node.formula for i, node in enumerate(level, start=1)})
    return f


def graph_evaluator(g: SubstitutionGraph) -> Callable[..., Fraction]:
    """The graph's value at a point, level by level, as a function of the point.

    Each level's formulas are compiled once, here, into one evaluator over
    the union of their DAGs.
    """
    levels = [fm.evaluator([node.formula for node in level]) for level in g.nodes]

    def at(x) -> Fraction:
        values = list(x)
        for level in levels:
            values = level(values)
        return values[0]

    return at


def normality_violation(g: SubstitutionGraph) -> str | None:
    """First reason the graph is not normal, in level order, as a message, or None.

    A graph is normal when every node holds a certificate whose re-extraction
    reproduces the stored formula tree exactly.  The certificates are read
    into ints one level at a time (:func:`certificate_rows`) and re-extracted
    from their rows and biases alone, in one lazy pass of the extraction's
    generator (consecutive copies of one row share a memo) that peels a
    certificate only once every node before it has passed.
    """
    from .extract import _formulas

    certs = ([node.certificate for node in level if node.certificate is not None] for level in g.nodes)
    formulas = _formulas(row for level in certs for row in certificate_rows(level))
    for j, level in enumerate(g.nodes, start=1):
        for i, node in enumerate(level, start=1):
            if node.certificate is None:
                return f"node ({j},{i}) carries no certificate"
            if next(formulas) is not node.formula:
                return f"certificate of node ({j},{i}) does not reproduce its formula"
    return None


def formula_graph(f: Formula, input_width: int) -> SubstitutionGraph:
    """Depth-1 graph holding a single formula over x_1..x_{input_width}."""
    if f.max_var > input_width:
        raise ValueError(f"formula uses x{f.max_var} but width is {input_width}")
    return SubstitutionGraph((input_width, 1), ((GraphNode(f),),))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

FLAVOR_INTEGER = "integer"
FLAVOR_RATIONAL = "rational"
FLAVOR_REAL = "real"
FLAVORS = (FLAVOR_INTEGER, FLAVOR_RATIONAL, FLAVOR_REAL)


class _MintermCertificate(NamedTuple):
    m: tuple[Fraction, ...]
    b: Fraction
    flavor: str


class MintermCertificate(_MintermCertificate):
    """The affine row a node formula was derived from; construction reads it back."""

    __slots__ = ()

    def __new__(cls, m: tuple[Fraction, ...], b: Fraction, flavor: str) -> "MintermCertificate":
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if flavor == FLAVOR_INTEGER and scaled([(b, *m)])[0] != 1:
            raise ValueError("integer certificate with non-integer entries")
        return super().__new__(cls, m, b, flavor)


def certificate_rows(certs: Sequence[MintermCertificate]) -> list[tuple[int, tuple[int, ...], int, str]]:
    """The one integer form of a level's certificates: the row (s, s.m, s.b,
    flavor) of each, over s the lcm of all their denominators."""
    s, rows = scaled([(cert.b, *cert.m) for cert in certs])
    return [(s, row[1:], row[0], cert.flavor) for row, cert in zip(rows, certs)]


def graph_to_dict(g: SubstitutionGraph) -> dict:
    terms, index = fm.to_terms(node.formula for level in g.nodes for node in level)
    levels = []
    for level in g.nodes:
        entries = []
        for node in level:
            cert = node.certificate
            entries.append(
                {
                    "formula": index[node.formula],
                    "certificate": None
                    if cert is None
                    else {
                        "m": [format_rational(c) for c in cert.m],
                        "b": format_rational(cert.b),
                        "flavor": cert.flavor,
                    },
                }
            )
        levels.append(entries)
    return {"widths": list(g.widths), "terms": terms, "nodes": levels}


def graph_from_dict(data: dict) -> SubstitutionGraph:
    """The graph of a wire-format dict; a malformed shape or term table is a
    ValueError that names the field or the term."""
    if not isinstance(data, dict) or "terms" not in data:
        raise ValueError('graph has no "terms" table (files without one predate the term-table format)')
    formulas = fm.from_terms(data["terms"])
    widths = json_list(json_field(data, "widths", "graph"), "widths")
    levels = []
    for j, level in enumerate(json_list(json_field(data, "nodes", "graph"), "nodes"), start=1):
        nodes = []
        for i, entry in enumerate(json_list(level, f"nodes of level {j}"), start=1):
            where = f"node ({j},{i})"
            k = json_int(json_field(entry, "formula", where), f"formula index of {where}")
            if not 0 <= k < len(formulas):
                raise ValueError(f"{where} names term {k}, outside the {len(formulas)} terms")
            cert = entry.get("certificate")
            if cert is not None:
                what = f"certificate of {where}"
                m = json_list(json_field(cert, "m", what), f"{what} m")
                cert = MintermCertificate(
                    m=tuple(parse_rational(c) for c in m),
                    b=parse_rational(json_field(cert, "b", what)),
                    flavor=json_field(cert, "flavor", what),
                )
            nodes.append(GraphNode(formula=formulas[k], certificate=cert))
        levels.append(tuple(nodes))
    return SubstitutionGraph(tuple(json_int(w, "width") for w in widths), tuple(levels))


def graph_to_json(g: SubstitutionGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2, sort_keys=True)


def graph_from_json(text: str) -> SubstitutionGraph:
    return graph_from_dict(json_decode(text, "graph file"))
