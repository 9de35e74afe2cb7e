"""Network-to-formula extraction.

Pipeline: convert any relu/clip network to an equivalent clip network, derive
a formula for every clip neuron from its affine row, and assemble the layered
substitution graph whose represented formula realizes the network's map.  No
search runs: non-degeneracy is a premise of the round trip only.

The formulas of a graph are peeled in one pass over its certificate rows
(s, s.m, s.b, flavor), ints over their level's s, where consecutive equal
rows share one peeling memo.  Extraction passes the clip network's int rows
as they are, ``graph_to_sigma``'s normality check re-runs the pass on rows
read off the certificates (``graph.certificate_rows``), and the round trip
runs none.  The memo is a local of the pass, so no state outlives a call.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd

from . import formula as fm
from .formula import Formula
from .graph import (
    FLAVOR_INTEGER, FLAVOR_RATIONAL, FLAVORS, GraphNode, MintermCertificate, SubstitutionGraph,
    certificate_rows,
)
from .network import CLIP, IntLayer, Network, box, scaled_layer, unscaled_network


# ---------------------------------------------------------------------------
# Step I: relu -> clip
# ---------------------------------------------------------------------------


def rho_to_sigma(net: Network) -> Network:
    """Convert a relu/clip network into a clip network realizing the same
    function: :func:`sigma_layers` on its layers, each scaled once."""
    return unscaled_network(net.input_dim, sigma_layers(list(map(scaled_layer, net.layers))))


def sigma_layers(layers: list[IntLayer]) -> list[IntLayer]:
    """The integer layers of the clip network of a relu/clip network's.

    A hidden clip node, and a hidden relu node whose input interval has upper
    bound L <= 1, keep their row and just carry the clip tag.  A relu node
    with L > 1 becomes ceil(L) clip nodes with biases b, b-1, ..., b-ceil(L)+1,
    duplicated incoming and outgoing weights; the new nodes sit immediately
    after the originating node.  The output node gains the clip activation.
    Each layer keeps its s: s.L is the box bound of its integer row, and the
    copies' biases step by s.
    """
    layers = list(layers)
    for j in range(len(layers) - 1):
        s, rows_s, biases_s, acts = layers[j]
        rows: list[tuple[int, ...]] = []
        biases: list[int] = []
        copies: list[int] = []  # outgoing column multiplicity per original node
        for row, b, act in zip(rows_s, biases_s, acts):
            top = box(row, b, [(0, 1)] * len(row))[1]  # s * L
            k = 0 if act == CLIP or top <= s else -(-top // s) - 1
            copies.append(k + 1)
            for step in range(k + 1):
                rows.append(row)
                biases.append(b - step * s)
        layers[j] = (s, tuple(rows), tuple(biases), (CLIP,) * len(rows))
        if len(rows) > len(copies):
            nxt_s, nxt_rows, nxt_biases, nxt_acts = layers[j + 1]
            wide = tuple(tuple(w for w, n in zip(row, copies) for _ in range(n)) for row in nxt_rows)
            layers[j + 1] = (nxt_s, wide, nxt_biases, nxt_acts)
    s, rows, biases, acts = layers[-1]
    layers[-1] = (s, rows, biases, (CLIP,) * len(rows))
    return layers


# ---------------------------------------------------------------------------
# Step II: one formula per clip neuron
# ---------------------------------------------------------------------------


def _formulas(rows):
    """The flavor's formula of clip(m.x + b) for each certificate row (s, s.m, s.b, flavor).

    Each row is divided by g = gcd(s, s.b, *s.m) and peeled on [b, *m] over
    s/g, its own lcm whatever s it is read at (:func:`_peel`).  A row whose
    box bound over the cube has lo >= 1 or hi <= 0 is the constant 1 or 0.
    Otherwise the first nonzero coefficient decides the step: a negative one
    flips the whole row via not EXTR(-m, 1 - b); a fractional part is
    stripped in one step as (EXTR(f0) + scale(frac, x_k)) * EXTR(f0 + 1); an
    integer unit peels off as (EXTR(f0) + x_k) * EXTR(f0 + 1), and a row that
    is exactly x_k is the variable itself.  A leftover constant bias in (0,1)
    becomes scale(b, 1).  That is the real flavor.  On an integer row (s = 1,
    which an integer certificate always has) the fractional and constant-bias
    steps never fire, so the integer flavor is the same peel.  The rational
    flavor with s > 1 splits the neuron into s integer neurons
    h_i = clip(s(m.x+b) - i), each peeled on the one integer row s.m, and
    yields the left-associated chain delta_s h_0 + ... + delta_s h_{s-1}.

    Consecutive items on an equal scaled row share one _Row whatever their
    flavors, so the sigma copies ``rho_to_sigma`` places side by side, and
    the s terms of the rational chain, peel with one memo.
    """
    run = None
    for s, row, bs, flavor in rows:
        g = gcd(s, bs, *row)
        s, bs, row = s // g, bs // g, tuple(v // g for v in row)
        chain = flavor == FLAVOR_RATIONAL and s > 1
        key = (1 if chain else s, row)
        if run is None or run.key != key:
            run = _Row(key)
        if not chain:
            yield _peel(run, bs)
            continue
        f = fm.delta(s, _peel(run, bs))
        for i in range(1, s):
            f = fm.oplus(f, fm.delta(s, _peel(run, bs - i)))
        yield f


class _Row:
    """An integer row scaled by s, the suffix data its peel reads, and its memo.

    ``pos[j]`` and ``neg[j]`` sum the positive and the negative entries of
    ``row[j:]``; ``nxt[j]`` is the first index >= j with a nonzero entry, or
    d.  The memo maps a peel state, packed into one int, to its formula; it
    is valid for every bias and flavor over this row and scale.  :func:`_formulas`
    holds one _Row at a time, so the memo is freed once the next row is peeled.
    """

    __slots__ = ("key", "row", "s", "pos", "neg", "nxt", "memo", "width", "offset")

    def __init__(self, key: tuple[int, tuple[int, ...]]):
        self.key = key
        self.s, self.row = key
        d = len(self.row)
        self.pos, self.neg, self.nxt = [0] * (d + 1), [0] * (d + 1), [d] * (d + 1)
        for j in range(d - 1, -1, -1):
            w = self.row[j]
            self.pos[j] = self.pos[j + 1] + max(w, 0)
            self.neg[j] = self.neg[j + 1] + min(w, 0)
            self.nxt[j] = j if w else self.nxt[j + 1]
        # State (k, c, b, sign) packs as (b*width + c + offset)*2(d+1) + 2k + [sign<0];
        # |c| never exceeds the largest |entry|, so the packing is one-to-one.
        big = max(map(abs, self.row), default=0)
        self.width, self.offset = 2 * big + 1, big
        self.memo: dict[int, Formula] = {}


_EVAL, _NOT, _TIMES = range(3)


def _peel(run: _Row, b: int) -> Formula:
    """The peeling core: formula of clip((row.x + b) / s) over the run's row.

    A state (k, c, b, sign) stands for the row whose entries before k are 0,
    whose entry k is c and whose rest is sign.row[k+1:], with bias b (all
    scaled by s); c is nonzero unless k = d.  Its box bound is read off the
    suffix sums, so a step costs O(1).  The walk keeps an explicit stack of
    tasks; a split state's node, odot(oplus(left, step), right), is built
    once both of its halves are done.
    """
    row, s, pos, neg, nxt, memo = run.row, run.s, run.pos, run.neg, run.nxt, run.memo
    width, offset = run.width, run.offset
    d = len(row)
    span = 2 * (d + 1)
    k = nxt[0]
    todo: list[tuple] = [(_EVAL, k, row[k] if k < d else 0, b, 1)]
    done: list[Formula] = []
    while todo:
        task = todo.pop()
        kind = task[0]
        if kind == _EVAL:
            _, k, c, b, sign = task
            key = (b * width + c + offset) * span + 2 * k + (sign < 0)
            got = memo.get(key)
            if got is not None:
                done.append(got)
                continue
            if k == d:
                lo = hi = b
            else:
                if sign > 0:
                    lo, hi = b + neg[k + 1], b + pos[k + 1]
                else:
                    lo, hi = b - pos[k + 1], b - neg[k + 1]
                if c > 0:
                    hi += c
                else:
                    lo += c
            if lo >= s:
                res: Formula = fm.ONE
            elif hi <= 0:
                res = fm.ZERO
            elif k == d:
                res = fm.scale(Fraction(b, s), fm.ONE)  # constant strictly inside (0,1)
            elif c < 0:
                todo.append((_NOT, key))
                todo.append((_EVAL, k, -c, s - b, -sign))
                continue
            else:
                frac = c % s
                c0 = c - (frac or s)
                k0, sign0 = k, sign
                if not c0:
                    k0 = nxt[k + 1]
                    c0, sign0 = (sign * row[k0], sign) if k0 < d else (0, 1)
                x = fm.var(k + 1)
                if not frac and b == 0 and k0 == d:
                    res = x  # the row is exactly x_k
                else:
                    step = fm.scale(Fraction(frac, s), x) if frac else x
                    todo.append((_TIMES, key, step))
                    todo.append((_EVAL, k0, c0, b + s, sign0))
                    todo.append((_EVAL, k0, c0, b, sign0))
                    continue
            memo[key] = res
            done.append(res)
        elif kind == _NOT:
            done[-1] = memo[task[1]] = fm.lnot(done[-1])
        else:
            right = done.pop()
            done[-1] = memo[task[1]] = fm.odot(fm.oplus(done[-1], task[2]), right)
    return done[0]


def formula_for_certificate(cert: MintermCertificate) -> Formula:
    """The flavor's formula of one certificate (m, b, flavor), with its own memo."""
    return next(_formulas(certificate_rows([cert])))


# ---------------------------------------------------------------------------
# Step III kept graphical: the substitution graph
# ---------------------------------------------------------------------------


def check_flavor(layers: list[IntLayer], flavor: str) -> None:
    """Reject an unknown flavor, or the integer flavor on integer layers with
    non-integer weights (some s > 1)."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor == FLAVOR_INTEGER and any(s != 1 for s, *_ in layers):
        raise ValueError("integer flavor requires integer weights and biases")


def extract_graph(net: Network, flavor: str = FLAVOR_INTEGER) -> SubstitutionGraph:
    """Extract the substitution graph of any relu/clip network.

    The graph shares the clip network's layered shape; every non-input node
    carries its extracted formula together with the certificate it came from.
    """
    layers = list(map(scaled_layer, net.layers))
    check_flavor(layers, flavor)
    ints = sigma_layers(layers)
    sigma = unscaled_network(net.input_dim, ints)
    rows = [(s, row, b, flavor) for s, rows_s, biases, _ in ints for row, b in zip(rows_s, biases)]
    certs = [MintermCertificate(m, b, flavor) for q in sigma.layers for m, b in zip(q.weights, q.biases)]
    nodes = iter([GraphNode(f, cert) for f, cert in zip(_formulas(rows), certs)])
    node_layers = tuple(tuple(islice(nodes, layer.width)) for layer in sigma.layers)
    widths = (sigma.input_dim,) + tuple(layer.width for layer in sigma.layers)
    return SubstitutionGraph(widths=widths, nodes=node_layers)
