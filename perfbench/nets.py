"""Networks in the luknet JSON wire format, handled without importing luknet.

Everything the benchmark uses to make inputs and to judge answers lives here:
seeded generators, an exact Fraction evaluator, the sigma widths that
relu-to-clip splitting will produce, and a vertex-enumeration extremum oracle.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil

RELU, NONE = "relu", "none"


def make_net(input_dim: int, layers) -> dict:
    """Wire-format dict from [(rows, biases, activations), ...] of numbers."""
    return {
        "input_dim": input_dim,
        "layers": [
            {
                "weights": [[str(Fraction(w)) for w in row] for row in rows],
                "biases": [str(Fraction(b)) for b in biases],
                "activation": list(acts),
            }
            for rows, biases, acts in layers
        ],
    }


def parse_net(net: dict):
    """(input_dim, [(rows, biases, activations)]) with Fraction entries."""
    layers = [
        (
            [[Fraction(w) for w in row] for row in spec["weights"]],
            [Fraction(b) for b in spec["biases"]],
            list(spec["activation"]),
        )
        for spec in net["layers"]
    ]
    return int(net["input_dim"]), layers


def canonical(net: dict):
    """Structure of a wire-format network with every number as a Fraction."""
    n, layers = parse_net(net)
    return n, [(tuple(map(tuple, rows)), tuple(bs), tuple(acts)) for rows, bs, acts in layers]


def evaluate(parsed, x) -> Fraction:
    """Exact output of a parsed network at the point x of [0,1]^n."""
    _, layers = parsed
    values = list(x)
    for rows, biases, acts in layers:
        nxt = []
        for row, b, act in zip(rows, biases, acts):
            t = b
            for w, v in zip(row, values):
                if w:
                    t += w * v
            if act == RELU:
                t = max(t, 0)
            elif act == "clip":
                t = min(max(t, 0), 1)
            nxt.append(t)
        values = nxt
    return values[0]


def grid(n: int, k: int):
    axis = [Fraction(i, k) for i in range(k + 1)]
    return itertools.product(axis, repeat=n)


def grid_values(parsed, k: int) -> list[Fraction]:
    return [evaluate(parsed, x) for x in grid(parsed[0], k)]


def shape(net: dict) -> str:
    widths = [len(spec["biases"]) for spec in net["layers"][:-1]]
    return f"n={net['input_dim']} h={widths}"


def sigma_widths(net: dict) -> list[int]:
    """Hidden widths after relu-to-clip splitting.

    A hidden node whose affine row reaches hi > 1 over the unit cube of its
    inputs becomes ceil(hi) clip nodes, and its outgoing column is repeated
    that many times, so later rows are bounded over the widened layer.
    """
    _, layers = parse_net(net)
    widths: list[int] = []
    copies: list[int] | None = None
    for rows, biases, _ in layers[:-1]:
        if copies is not None:
            rows = [[w for w, c in zip(row, copies) for _ in range(c)] for row in rows]
        copies = []
        for row, b in zip(rows, biases):
            hi = b + sum(w for w in row if w > 0)
            copies.append(ceil(hi) if hi > 1 else 1)
        widths.append(sum(copies))
    return widths


def dead_nodes(net: dict) -> int:
    """Hidden nodes whose outgoing weights are all zero."""
    layers = net["layers"]
    return sum(
        all(Fraction(row[i]) == 0 for row in nxt["weights"])
        for cur, nxt in zip(layers, layers[1:])
        for i in range(len(cur["biases"]))
    )


def random_relu_net(rng, n: int, hidden: list[int], values) -> dict:
    """Relu hidden layers and one 'none' output node, entries drawn from values."""
    layers = []
    prev = n
    for w in hidden:
        rows = [[rng.choice(values) for _ in range(prev)] for _ in range(w)]
        layers.append((rows, [rng.choice(values) for _ in range(w)], [RELU] * w))
        prev = w
    layers.append(([[rng.choice(values) for _ in range(prev)]], [rng.choice(values)], [NONE]))
    return make_net(n, layers)


def clamp_pair(row, bias) -> dict:
    """rho(m.x + b) - rho(m.x + b - 1): clip(m.x + b) as a relu network."""
    b = Fraction(bias)
    return make_net(
        len(row),
        [([row, row], [b, b - 1], [RELU, RELU]), ([[1, -1]], [0], [NONE])],
    )


# ---------------------------------------------------------------------------
# Vertex-enumeration extremum oracle
# ---------------------------------------------------------------------------


def _normalise(coeffs, const):
    """Scale a hyperplane coeffs.x + const = 0 so equal planes compare equal."""
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        return None
    return tuple(c / lead for c in coeffs), const / lead


def kink_planes(parsed) -> set:
    """Every hyperplane on which a hidden relu can switch, over all on/off
    patterns of the nodes before it, plus the facets of the unit cube.

    The output is affine on each cell of this arrangement, so its extrema
    over the cube sit at intersections of n of these planes.
    """
    n, layers = parsed
    planes = set()
    for i in range(n):
        unit = tuple(Fraction(int(j == i)) for j in range(n))
        planes.add((unit, Fraction(0)))
        planes.add((unit, Fraction(-1)))
    zero = (tuple([Fraction(0)] * n), Fraction(0))
    states = [[(tuple(Fraction(int(j == i)) for j in range(n)), Fraction(0)) for i in range(n)]]
    for rows, biases, _ in layers[:-1]:
        nxt = []
        for prev in states:
            pre = []
            for row, b in zip(rows, biases):
                coeffs = [Fraction(0)] * n
                const = b
                for w, (fc, fk) in zip(row, prev):
                    if w:
                        const += w * fk
                        for t in range(n):
                            coeffs[t] += w * fc[t]
                pre.append((tuple(coeffs), const))
                plane = _normalise(coeffs, const)
                if plane is not None:
                    planes.add(plane)
            for pattern in itertools.product((False, True), repeat=len(pre)):
                nxt.append([form if on else zero for form, on in zip(pre, pattern)])
        states = nxt
    return planes


def _solve(rows, rhs):
    """Exact Gaussian elimination; None when singular."""
    size = len(rows)
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * c for a, c in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]


def oracle_extrema(net: dict) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of the network output over [0,1]^n by vertex enumeration.

    Exponential in depth and width; used only on the smallest ladder shape.
    """
    parsed = parse_net(net)
    n = parsed[0]
    planes = sorted(kink_planes(parsed))
    seen = set()
    lo = hi = None
    for combo in itertools.combinations(planes, n):
        x = _solve([p[0] for p in combo], [-p[1] for p in combo])
        if x is None or any(v < 0 or v > 1 for v in x):
            continue
        key = tuple(x)
        if key in seen:
            continue
        seen.add(key)
        v = evaluate(parsed, x)
        lo = v if lo is None or v < lo else lo
        hi = v if hi is None or v > hi else hi
    return lo, hi
