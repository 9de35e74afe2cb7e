"""Layered feedforward networks with relu / clip / identity activations.

Weights live on dense layer-to-layer matrices; zero weights are stored
explicitly so that structural equality is plain field equality.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .numerics import Interval, format_rational, json_field, json_int, json_list, parse_rational

RELU = "relu"
CLIP = "clip"
NONE = "none"
_ACTIVATIONS = (RELU, CLIP, NONE)


class NetworkError(Exception):
    pass


class DimensionMismatch(NetworkError):
    pass


class Degenerate(NetworkError):
    """Raised when extraction is attempted on a degenerate network."""


@dataclass(frozen=True)
class Layer:
    weights: tuple[tuple[Fraction, ...], ...]  # shape (width, prev_width)
    biases: tuple[Fraction, ...]
    activations: tuple[str, ...]

    @property
    def width(self) -> int:
        return len(self.biases)


@dataclass(frozen=True)
class NodeRef:
    layer: int  # 1-based; layer L is the output layer
    index: int  # 1-based position within the layer


@dataclass(frozen=True)
class Network:
    input_dim: int
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        if self.input_dim < 1 or not self.layers:
            raise ValueError("network needs >= 1 input and >= 1 layer")
        prev = self.input_dim
        for j, layer in enumerate(self.layers, start=1):
            if not (len(layer.weights) == len(layer.biases) == len(layer.activations)):
                raise ValueError(f"layer {j}: ragged weights/biases/activations")
            if layer.width == 0:
                raise ValueError(f"layer {j}: empty layer")
            for row in layer.weights:
                if len(row) != prev:
                    raise DimensionMismatch(
                        f"layer {j}: weight row of length {len(row)}, expected {prev}"
                    )
            for act in layer.activations:
                if act not in _ACTIVATIONS:
                    raise ValueError(f"layer {j}: unknown activation {act!r}")
            if j < len(self.layers) and NONE in layer.activations:
                raise ValueError("'none' activation is allowed only on the output node")
            prev = layer.width
        if self.layers[-1].width != 1:
            raise ValueError("output layer must have width 1")

    @property
    def depth(self) -> int:
        return len(self.layers)

    def width(self, j: int) -> int:
        """Width d_j of level j, 0 being the input level."""
        return self.input_dim if j == 0 else self.layers[j - 1].width


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
        raise DimensionMismatch(f"expected {net.input_dim} inputs, got {len(x)}")
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


def input_interval(weights: Sequence[Fraction], bias: Fraction) -> Interval:
    """Interval of the affine map over the unit cube of its inputs (closed form)."""
    lo = bias + sum((w for w in weights if w < 0), Fraction(0))
    hi = bias + sum((w for w in weights if w > 0), Fraction(0))
    return Interval(lo, hi)


def is_non_degenerate(net: Network, node_budget: int | None = None) -> tuple[bool, str | None]:
    """Check the three non-degeneracy clauses; returns (ok, first violation).

    (a) every hidden node's global pre-activation map attains a value > 0 and
        a value <= 0 over the cube: settled by the exact extrema of every
        hidden node (``bounds.exact_extrema``, under ``node_budget``);
    (b) the output node has a nonzero incoming weight;
    (c) no two same-layer nodes share an identical local map.
    """
    from . import bounds  # late import; bounds needs the network types

    out_layer = net.layers[-1]
    if all(w == 0 for w in out_layer.weights[0]):
        return False, "output node has only zero incoming weights"
    for j, layer in enumerate(net.layers, start=1):
        seen: dict[tuple, NodeRef] = {}
        for i in range(layer.width):
            key = (layer.weights[i], layer.biases[i], layer.activations[i])
            ref = NodeRef(j, i + 1)
            if key in seen:
                return False, (
                    f"nodes ({seen[key].layer},{seen[key].index}) and "
                    f"({ref.layer},{ref.index}) have identical local maps"
                )
            seen[key] = ref
    for j in range(1, net.depth):  # hidden layers only
        for i in range(1, net.width(j) + 1):
            iv = bounds.exact_extrema(net, NodeRef(j, i), node_budget=node_budget)
            if iv.hi <= 0:
                return False, f"hidden node ({j},{i}) is never active (max {iv.hi} <= 0)"
            if iv.lo > 0:
                return False, f"hidden node ({j},{i}) is always active (min {iv.lo} > 0)"
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
    return network_from_dict(json.loads(text))


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


def _layer_permutations(la: Layer, lb: Layer, prev_perm: list[int]):
    """Yield permutations p with lb's nodes = la's nodes reordered by p, given
    the previous layer's permutation already applied to la's weight columns."""
    if la.width != lb.width:
        return
    remapped = [
        (tuple(la.weights[i][q] for q in prev_perm), la.biases[i], la.activations[i])
        for i in range(la.width)
    ]
    targets = [(lb.weights[i], lb.biases[i], lb.activations[i]) for i in range(lb.width)]
    used = [False] * la.width

    def backtrack(i: int, perm: list[int]):
        if i == lb.width:
            yield list(perm)
            return
        for p in range(la.width):
            if not used[p] and remapped[p] == targets[i]:
                used[p] = True
                perm.append(p)
                yield from backtrack(i + 1, perm)
                perm.pop()
                used[p] = False

    yield from backtrack(0, [])


def networks_equal_up_to_permutation(a: Network, b: Network) -> bool:
    """Structural equality modulo within-layer node relabeling."""
    if a.input_dim != b.input_dim or a.depth != b.depth:
        return False

    def search(j: int, prev_perm: list[int]) -> bool:
        if j == a.depth:
            return True
        for perm in _layer_permutations(a.layers[j], b.layers[j], prev_perm):
            if search(j + 1, perm):
                return True
        return False

    return search(0, list(range(a.input_dim)))
