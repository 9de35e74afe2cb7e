"""Network-to-formula extraction.

Pipeline: convert the relu network to an equivalent clip network, derive a
formula for every clip neuron from its affine row, and assemble the layered
substitution graph whose represented formula realizes the network's map.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm

from . import formula as fm
from .formula import Formula
from .graph import GraphNode, SubstitutionGraph
from .network import CLIP, Degenerate, Layer, Network, input_interval, is_non_degenerate

FLAVOR_INTEGER = "integer"
FLAVOR_RATIONAL = "rational"
FLAVOR_REAL = "real"
FLAVORS = (FLAVOR_INTEGER, FLAVOR_RATIONAL, FLAVOR_REAL)


@dataclass(frozen=True)
class MintermCertificate:
    """The affine row a node formula was derived from; fed back by kappa."""

    m: tuple[Fraction, ...]
    b: Fraction
    flavor: str

    def __post_init__(self) -> None:
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == FLAVOR_INTEGER and not (
            all(q.denominator == 1 for q in self.m) and self.b.denominator == 1
        ):
            raise ValueError("integer certificate with non-integer entries")


# ---------------------------------------------------------------------------
# Step I: relu -> clip
# ---------------------------------------------------------------------------


def rho_to_sigma(net: Network, check: bool = True, node_budget: int | None = None) -> Network:
    """Convert a relu network into a clip network realizing the same function.

    A hidden node whose input interval has upper bound L <= 1 keeps its row and
    just swaps the activation tag.  With L > 1 it becomes ceil(L) clip nodes
    with biases b, b-1, ..., b-ceil(L)+1, duplicated incoming and outgoing
    weights; the new nodes sit immediately after the originating node.  The
    output node gains the clip activation.  ``node_budget`` bounds each exact
    extrema search of the non-degeneracy check.
    """
    if check:
        ok, why = is_non_degenerate(net, node_budget=node_budget)
        if not ok:
            raise Degenerate(why)
    layers = list(net.layers)
    for j in range(len(layers) - 1):
        layer = layers[j]
        rows: list[tuple[Fraction, ...]] = []
        biases: list[Fraction] = []
        copies: list[int] = []  # outgoing column multiplicity per original node
        for i in range(layer.width):
            row, b = layer.weights[i], layer.biases[i]
            hi = input_interval(row, b).hi
            k = 0 if hi <= 1 else ceil(hi) - 1
            copies.append(k + 1)
            for step in range(k + 1):
                rows.append(row)
                biases.append(b - step)
        layers[j] = Layer(tuple(rows), tuple(biases), (CLIP,) * len(rows))
        nxt = layers[j + 1]
        new_weights = tuple(
            tuple(w for w, reps in zip(old_row, copies) for _ in range(reps))
            for old_row in nxt.weights
        )
        layers[j + 1] = Layer(new_weights, nxt.biases, nxt.activations)
    out = layers[-1]
    layers[-1] = Layer(out.weights, out.biases, (CLIP,) * out.width)
    return Network(net.input_dim, tuple(layers))


# ---------------------------------------------------------------------------
# Step II: one formula per clip neuron
# ---------------------------------------------------------------------------


def extr(m, b) -> Formula:
    """Formula whose truth function is clip(m.x + b) for integer m, b.

    The integer flavor of :func:`extr_real`: on integer rows its fractional
    and constant-bias steps never fire, so only unit peeling, sign flips and
    the bare variable remain.
    """
    mi = tuple(Fraction(c) for c in m)
    bi = Fraction(b)
    if any(c.denominator != 1 for c in mi) or bi.denominator != 1:
        raise ValueError("extr needs integer coefficients; use extr_rational")
    return extr_real(mi, bi)


def extr_rational(m, b) -> Formula:
    """DMV formula for clip(m.x + b) with rational m, b.

    Clears denominators by s = lcm: the neuron splits into s integer neurons
    h_i = clip(s(m.x+b) - i), each peeled by :func:`extr_real` on its integer
    row, and the result is the left-associated chain
    delta_s t_0 + ... + delta_s t_{s-1}.  Integer input (s = 1) is peeled
    directly, which is :func:`extr` exactly.
    """
    mq = tuple(Fraction(c) for c in m)
    bq = Fraction(b)
    s = lcm(*(c.denominator for c in mq + (bq,)))
    if s == 1:
        return extr_real(mq, bq)
    scaled = tuple(s * c for c in mq)
    chain: Formula | None = None
    for i in range(s):
        term = fm.delta(s, extr_real(scaled, s * bq - i))
        chain = term if chain is None else fm.oplus(chain, term)
    assert chain is not None
    return chain


def extr_real(m, b) -> Formula:
    """Scalar-operator formula for clip(m.x + b), coefficients rational.

    The one peeling core behind every flavor.  A row whose box bound over the
    cube has lo >= 1 or hi <= 0 is the constant 1 or 0.  Otherwise the first
    nonzero coefficient decides the step: a negative one flips the whole row
    via not EXTR(-m, 1 - b); a fractional part is stripped in one step as
    (EXTR(f0) + scale(frac, x_k)) * EXTR(f0 + 1); an integer unit peels off
    as (EXTR(f0) + x_k) * EXTR(f0 + 1), and a row that is exactly x_k is the
    variable itself.  A leftover constant bias in (0,1) becomes scale(b, 1).

    The peeling recurses: its depth grows with sum |m_i|, so a single weight
    of about 1200 (``extr((1200,), -600)``) exceeds the default recursion
    limit and raises RecursionError.
    """
    mq = tuple(Fraction(c) for c in m)
    bq = Fraction(b)
    memo: dict[tuple, Formula] = {}

    def go(m: tuple[Fraction, ...], b: Fraction) -> Formula:
        key = (m, b)
        got = memo.get(key)
        if got is not None:
            return got
        box = input_interval(m, b)
        if box.lo >= 1:
            res: Formula = fm.ONE
        elif box.hi <= 0:
            res = fm.ZERO
        elif all(c == 0 for c in m):
            res = fm.scale(b, fm.ONE)  # constant strictly inside (0,1)
        else:
            k = next(i for i, c in enumerate(m) if c != 0)
            if m[k] < 0:
                res = fm.lnot(go(tuple(-c for c in m), 1 - b))
            else:
                frac = m[k] - floor(m[k])
                f0 = m[:k] + (m[k] - (frac or 1),) + m[k + 1 :]
                if not frac and b == 0 and all(c == 0 for c in f0):
                    res = fm.var(k + 1)  # the row is exactly x_k
                else:
                    step = fm.scale(frac, fm.var(k + 1)) if frac else fm.var(k + 1)
                    res = fm.odot(fm.oplus(go(f0, b), step), go(f0, b + 1))
        memo[key] = res
        return res

    return go(mq, bq)


_EXTRACTORS = {
    FLAVOR_INTEGER: extr,
    FLAVOR_RATIONAL: extr_rational,
    FLAVOR_REAL: extr_real,
}


def formula_for_certificate(cert: MintermCertificate) -> Formula:
    """Re-run the flavor's extractor on a certificate."""
    return _EXTRACTORS[cert.flavor](cert.m, cert.b)


# ---------------------------------------------------------------------------
# Step III kept graphical: the substitution graph
# ---------------------------------------------------------------------------


def extract_graph(
    net: Network, flavor: str = FLAVOR_INTEGER, check: bool = True, node_budget: int | None = None
) -> SubstitutionGraph:
    """Extract the substitution graph of a non-degenerate network.

    The graph shares the clip network's layered shape; every non-input node
    carries its extracted formula together with the certificate it came from.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor == FLAVOR_INTEGER:
        for layer in net.layers:
            entries = [w for row in layer.weights for w in row] + list(layer.biases)
            if any(q.denominator != 1 for q in entries):
                raise ValueError("integer flavor requires integer weights and biases")
    sigma = rho_to_sigma(net, check=check, node_budget=node_budget)
    extractor = _EXTRACTORS[flavor]
    node_layers = []
    for layer in sigma.layers:
        nodes = []
        for i in range(layer.width):
            m, b = layer.weights[i], layer.biases[i]
            nodes.append(
                GraphNode(
                    formula=extractor(m, b),
                    certificate=MintermCertificate(tuple(m), b, flavor),
                )
            )
        node_layers.append(tuple(nodes))
    widths = (sigma.input_dim,) + tuple(layer.width for layer in sigma.layers)
    return SubstitutionGraph(widths=widths, nodes=tuple(node_layers))
