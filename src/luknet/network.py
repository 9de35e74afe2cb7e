"""Layered feedforward networks with relu / clip / identity activations.

Weights live on dense layer-to-layer matrices; zero weights are stored
explicitly so that structural equality is plain field equality.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Sequence

from .numerics import (
    format_rational, json_decode, json_field, json_int, json_list, parse_rational, scaled
)

RELU = "relu"
CLIP = "clip"
NONE = "none"
_ACTIVATIONS = (RELU, CLIP, NONE)
IntLayer = tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...], tuple[str, ...]]  # s, s.W, s.b, tags


class Degenerate(Exception):
    """Raised when a round trip is attempted on a degenerate network."""


class Layer(NamedTuple):
    weights: tuple[tuple[Fraction, ...], ...]  # shape (width, prev_width)
    biases: tuple[Fraction, ...]
    activations: tuple[str, ...]

    @property
    def width(self) -> int:
        return len(self.biases)


class NodeRef(NamedTuple):
    layer: int  # 1-based; layer L is the output layer
    index: int  # 1-based position within the layer


class _Network(NamedTuple):
    input_dim: int
    layers: tuple[Layer, ...]


class Network(_Network):
    __slots__ = ()

    def __new__(cls, input_dim: int, layers: tuple[Layer, ...]) -> "Network":
        if input_dim < 1 or not layers:
            raise ValueError("network needs >= 1 input and >= 1 layer")
        prev = input_dim
        for j, layer in enumerate(layers, start=1):
            if not (len(layer.weights) == len(layer.biases) == len(layer.activations)):
                raise ValueError(f"layer {j}: ragged weights/biases/activations")
            if layer.width == 0:
                raise ValueError(f"layer {j}: empty layer")
            for row in layer.weights:
                if len(row) != prev:
                    raise ValueError(f"layer {j}: weight row of length {len(row)}, expected {prev}")
            for act in layer.activations:
                if act not in _ACTIVATIONS:
                    raise ValueError(f"layer {j}: unknown activation {act!r}")
            if j < len(layers) and NONE in layer.activations:
                raise ValueError("'none' activation is allowed only on the output node")
            prev = layer.width
        if layers[-1].width != 1:
            raise ValueError("output layer must have width 1")
        return super().__new__(cls, input_dim, layers)

    @property
    def depth(self) -> int:
        return len(self.layers)


def apply_activation(act: str, t: Fraction) -> Fraction:
    if act == RELU:
        return t if t > 0 else Fraction(0)
    if act == CLIP:
        if t < 0:
            return Fraction(0)
        return t if t < 1 else Fraction(1)
    return t


def eval_network(net: Network, x: Sequence[Fraction]) -> Fraction:
    """Exact input-output map of the network at x in [0,1]^d0."""
    return apply_activation(net.layers[-1].activations[0], node_preactivations(net, x)[-1][0])


def node_preactivations(net: Network, x: Sequence[Fraction]) -> list[list[Fraction]]:
    """Pre-activation value of every non-input node at x, grouped by layer."""
    if len(x) != net.input_dim:
        raise ValueError(f"expected {net.input_dim} inputs, got {len(x)}")
    values = [Fraction(v) for v in x]
    out: list[list[Fraction]] = []
    for layer in net.layers:
        pre = [
            sum((w * v for w, v in zip(row, values)), b)
            for row, b in zip(layer.weights, layer.biases)
        ]
        out.append(pre)
        values = [apply_activation(act, t) for act, t in zip(layer.activations, pre)]
    return out


def node_local_map(net: Network, ref: NodeRef) -> tuple[tuple[Fraction, ...], Fraction, str]:
    """Affine row, bias and activation tag of one non-input node."""
    if not 1 <= ref.layer <= net.depth:
        raise ValueError(f"layer {ref.layer} out of range 1..{net.depth}")
    layer = net.layers[ref.layer - 1]
    if not 1 <= ref.index <= layer.width:
        raise ValueError(f"node index {ref.index} out of range 1..{layer.width}")
    i = ref.index - 1
    return layer.weights[i], layer.biases[i], layer.activations[i]


def box(row: Sequence[int], bias: int, boxes: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Box bound (lo, hi) of bias + row.v for v in the product of ``boxes``,
    one (lo, hi) per entry of v; the unit cube is [(0, 1)] * len(row)."""
    lo = hi = bias
    for w, (vlo, vhi) in zip(row, boxes):
        if w > 0:
            lo += w * vlo
            hi += w * vhi
        elif w < 0:
            lo += w * vhi
            hi += w * vlo
    return lo, hi


def scaled_layer(layer: Layer) -> IntLayer:
    """The one integer form of a layer, (s, s.W, s.b, activations), for s the
    lcm of its weights' and biases' denominators (``numerics.scaled``)."""
    s, (*rows, biases) = scaled((*layer.weights, layer.biases))
    return s, tuple(rows), biases, layer.activations


def unscaled_network(input_dim: int, layers: Sequence[IntLayer], known=()) -> Network:
    """The one writer: the network of integer layers, each distinct int v of a
    layer written once as Fraction(v, s).  ``known`` pairs integer forms with
    the layers they were read from; a layer of one of those forms is written
    as that layer itself."""
    known = dict(known)
    for s, rows, biases, acts in layers:
        if (s, rows, biases, acts) not in known:
            q = {v: Fraction(v, s) for v in {v for row in (*rows, biases) for v in row}}
            rows_q = tuple(tuple(map(q.get, row)) for row in rows)
            known[s, rows, biases, acts] = Layer(rows_q, tuple(map(q.get, biases)), acts)
    return Network(input_dim, tuple(map(known.get, layers)))


def is_non_degenerate(net: Network, node_budget: int | None = None) -> tuple[bool, str | None]:
    """The verdict of :func:`degeneracy` on the network's layers, each scaled once."""
    return degeneracy(list(map(scaled_layer, net.layers)), node_budget)


def degeneracy(layers: Sequence[IntLayer], node_budget: int | None = None) -> tuple[bool, str | None]:
    """Check the three non-degeneracy clauses on integer layers; returns (ok,
    first violation).

    (a) every hidden node's global pre-activation map attains a value > 0 and
        a value <= 0 over the cube: the cube's vertices 0, 1, e_k and 1 - e_k
        are tried first (``bounds.vertex_witnessed``), and a node that no
        vertex shows with both signs is settled by its exact extrema
        (``bounds.extrema``, under ``node_budget``), in node order, all on
        the same integer layers;
    (b) the output node has a nonzero incoming weight;
    (c) no two same-layer nodes share an identical local map (int row and bias).
    """
    from . import bounds  # late import; bounds needs the network types

    if not any(layers[-1][1][0]):
        return False, "output node has only zero incoming weights"
    for j, (_, rows, biases, acts) in enumerate(layers, start=1):
        seen: dict[tuple, int] = {}
        for i, key in enumerate(zip(rows, biases, acts), start=1):
            if key in seen:
                return False, f"nodes ({j},{seen[key]}) and ({j},{i}) have identical local maps"
            seen[key] = i
    witnessed = bounds.vertex_witnessed(layers)
    for j, layer_witnessed in enumerate(witnessed, start=1):  # hidden layers only
        for i, seen_both in enumerate(layer_witnessed, start=1):
            if seen_both:
                continue
            (lo, lo_den), (hi, hi_den) = bounds.extrema(layers, NodeRef(j, i), node_budget)
            if hi <= 0:
                return False, f"hidden node ({j},{i}) is never active (max {Fraction(hi, hi_den)} <= 0)"
            if lo > 0:
                return False, f"hidden node ({j},{i}) is always active (min {Fraction(lo, lo_den)} > 0)"
    return True, None


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def network_to_dict(net: Network) -> dict:
    return {
        "input_dim": net.input_dim,
        "layers": [
            {
                "weights": [[format_rational(w) for w in row] for row in layer.weights],
                "biases": [format_rational(b) for b in layer.biases],
                "activation": list(layer.activations),
            }
            for layer in net.layers
        ],
    }


def network_from_dict(data: dict) -> Network:
    """The network of a wire-format dict; a malformed shape is a ValueError
    that names the field."""
    layers = []
    for j, spec in enumerate(json_list(json_field(data, "layers", "network"), "layers"), start=1):
        where = f"layer {j}"
        rows = json_list(json_field(spec, "weights", where), f"{where} weights")
        biases = json_list(json_field(spec, "biases", where), f"{where} biases")
        acts = json_list(json_field(spec, "activation", where), f"{where} activation")
        weights = tuple(
            tuple(parse_rational(w) for w in json_list(row, f"{where} weight row {i}"))
            for i, row in enumerate(rows, start=1)
        )
        layers.append(Layer(weights, tuple(parse_rational(b) for b in biases), tuple(acts)))
    input_dim = json_int(json_field(data, "input_dim", "network"), "input_dim")
    return Network(input_dim=input_dim, layers=tuple(layers))


def network_to_json(net: Network) -> str:
    return json.dumps(network_to_dict(net), indent=2, sort_keys=True)


def network_from_json(text: str) -> Network:
    return network_from_dict(json_decode(text, "network file"))


def network_diff(a: Network, b: Network) -> list[str]:
    """Human-readable structural differences, empty when identical."""
    out: list[str] = []
    if a.input_dim != b.input_dim:
        out.append(f"input_dim: {a.input_dim} vs {b.input_dim}")
    if a.depth != b.depth:
        out.append(f"depth: {a.depth} vs {b.depth}")
    for j in range(min(a.depth, b.depth)):
        la, lb = a.layers[j], b.layers[j]
        if la.width != lb.width:
            out.append(f"layer {j + 1} width: {la.width} vs {lb.width}")
            continue
        for i in range(la.width):
            if la.weights[i] != lb.weights[i]:
                out.append(
                    f"node ({j + 1},{i + 1}) weights: "
                    f"{[str(w) for w in la.weights[i]]} vs {[str(w) for w in lb.weights[i]]}"
                )
            if la.biases[i] != lb.biases[i]:
                out.append(f"node ({j + 1},{i + 1}) bias: {la.biases[i]} vs {lb.biases[i]}")
            if la.activations[i] != lb.activations[i]:
                out.append(
                    f"node ({j + 1},{i + 1}) activation: "
                    f"{la.activations[i]} vs {lb.activations[i]}"
                )
    return out

