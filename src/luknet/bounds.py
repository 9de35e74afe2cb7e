"""Exact extrema of a node's global map over the unit cube.

Every upstream nonlinear node is case-split into its affine regimes
(relu: t<=0 / t>=0; clip: t<=0 / 0<=t<=1 / t>=1), each feasible leaf is an
exact LP, and the outer min/max over leaves is the answer.  Interval
arithmetic pins regimes that cannot flip and prunes branches that cannot
beat the incumbent, but never replaces an exact LP at a leaf.

The search runs on integers.  The network is scaled once per call: s_j is
the lcm of the denominators of layer j's weights and biases, and level j
has denominator d_j = s_j * d_{j-1}, with d_0 = 1.  Every value on level j is
then an int numerator over d_j: a pre-activation is R_j.V + c_j*d_{j-1} with
R_j = s_j*W_j and c_j = s_j*b_j, relu is max(t, 0) and clip clamps to
[0, d_j].  Affine forms, interval bounds and cut rows are numerators over
their level's denominator, and a leaf's value is (LP optimum + constant)/d_j.

The search state follows the depth-first walk.  Each branch adds the cut
rows of its regime to the simplex tableau its parent left feasible
(``numerics.cut``, a dual simplex under Bland's rule) instead of solving
from scratch, and a leaf minimises over its tableau (``numerics.minimum``).
Tableaux are cached by their rows and shared by the min and the max run.
Each fixed node stores its post-activation box next to its form, so the
pruning pass starts at the level of the node fixed last.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .network import CLIP, NONE, RELU, Network, NodeRef, apply_activation, node_local_map
from .numerics import Interval, Tableau, cube, cut, minimum

# perfbench/freeze.py counts calls to these two by their names in this module.
from .numerics import lp_extremum, lp_feasible  # noqa: F401


class BudgetExceeded(Exception):
    """The branch-and-bound search exceeded its configured node budget."""


AffineForm = tuple[tuple[int, ...], int]  # coeffs over inputs, constant: numerators over d_j
Box = tuple[int, int]  # lo, hi: numerators over d_j


class _Level(NamedTuple):
    rows: tuple[tuple[int, ...], ...]  # R_j = s_j * W_j
    biases: tuple[int, ...]  # c_j * d_{j-1}
    activations: tuple[str, ...]
    den: int  # d_j


def _scaled_levels(net: Network, depth: int) -> list[_Level]:
    """Layers 1..depth of the network as integer rows over their levels' denominators."""
    levels: list[_Level] = []
    den = 1
    for layer in net.layers[:depth]:
        s = lcm(*(w.denominator for row in layer.weights for w in row),
                *(b.denominator for b in layer.biases))
        rows = tuple(
            tuple(w.numerator * (s // w.denominator) for w in row) for row in layer.weights
        )
        biases = tuple(b.numerator * (s // b.denominator) * den for b in layer.biases)
        den *= s
        levels.append(_Level(rows, biases, layer.activations, den))
    return levels


def _combine(row: Sequence[int], bias: int, forms: Sequence[AffineForm]) -> AffineForm:
    coeffs = [0] * len(forms[0][0])
    const = bias
    for w, (fc, fk) in zip(row, forms):
        if w == 0:
            continue
        const += w * fk
        for t, c in enumerate(fc):
            if c != 0:
                coeffs[t] += w * c
    return tuple(coeffs), const


def _box(row: Sequence[int], bias: int, boxes: Sequence[Box]) -> Box:
    """Box bound of bias + row.V for V in the product of ``boxes``."""
    lo = hi = bias
    for w, (vlo, vhi) in zip(row, boxes):
        if w > 0:
            lo += w * vlo
            hi += w * vhi
        elif w < 0:
            lo += w * vhi
            hi += w * vlo
    return lo, hi


def _form_box(form: AffineForm) -> Box:
    """Box bound of an affine form over the unit cube of the inputs."""
    coeffs, const = form
    return _box(coeffs, const, [(0, 1)] * len(coeffs))


def _activate(act: str, t: int, one: int) -> int:
    if t < 0:
        return 0
    return one if act == CLIP and t > one else t


def _interval_pass(
    levels: Sequence[_Level], i: int, fixed: Sequence[Sequence[Box | None]], start: int = 0
) -> tuple[list[list[Box | None]], Box]:
    """One layer-wise interval pass up to node i (0-based) of the last level.

    A node whose regime is fixed has its post-activation box in ``fixed``;
    the pass starts at level ``start`` (0-based), and every level below it
    must be fully fixed.  Returns the pre-activation box of every node in
    the levels it computed, grouped by level (None for a fixed node), and
    that of the node itself.
    """
    post: Sequence[Box | None] = fixed[start - 1] if start else [(0, 1)] * len(levels[0].rows[0])
    below: list[list[Box | None]] = []
    for level, boxes in zip(levels[start:-1], fixed[start:]):
        pre: list[Box | None] = []
        nxt: list[Box] = []
        for row, b, act, box in zip(level.rows, level.biases, level.activations, boxes):
            if box is not None:
                pre.append(None)
                nxt.append(box)
                continue
            lo, hi = _box(row, b, post)
            pre.append((lo, hi))
            nxt.append((_activate(act, lo, level.den), _activate(act, hi, level.den)))
        below.append(pre)
        post = nxt
    top = levels[-1]
    return below, _box(top.rows[i], top.biases[i], post)


def _unfixed(levels: Sequence[_Level]) -> list[list[None]]:
    return [[None] * len(level.rows) for level in levels[:-1]]


def interval_propagation(net: Network, ref: NodeRef) -> Interval:
    """Closed-form layer-wise interval bound on the node's pre-activation map.

    Always encloses the exact extrema; used for pruning and as a sanity check.
    """
    node_local_map(net, ref)  # validates the reference
    levels = _scaled_levels(net, ref.layer)
    _, (lo, hi) = _interval_pass(levels, ref.index - 1, _unfixed(levels))
    den = levels[-1].den
    return Interval(Fraction(lo, den), Fraction(hi, den))


def _branches(act: str, form: AffineForm, one: int) -> list[tuple[tuple, AffineForm, Box]]:
    """(cut rows, output form, its box bound) of each regime of a node with
    pre-activation ``form`` over denominator ``one`` that the form's box
    bound leaves feasible.

    Regimes: relu t<=0 -> 0, t>=0 -> t; clip t<=0 -> 0, 0<=t<=1 -> t, t>=1 -> 1.
    A regime the box bound forces needs no cut row.
    """
    coeffs, const = form
    lo, hi = box = _form_box(form)
    neg = tuple(-c for c in coeffs)
    zero: AffineForm = ((0,) * len(coeffs), 0)
    le0 = ((coeffs, -const),)
    ge0 = ((neg, const),)
    if act == RELU:
        if hi <= 0:
            return [((), zero, (0, 0))]
        if lo >= 0:
            return [((), form, box)]
        return [(le0, zero, (0, 0)), (ge0, form, box)]
    if act == CLIP:
        top: AffineForm = (zero[0], one)
        if hi < 0:
            return [((), zero, (0, 0))]
        if lo > one:
            return [((), top, (one, one))]
        if lo >= 0 and hi <= one:
            return [((), form, box)]
        out = [(le0, zero, (0, 0))] if lo <= 0 else []
        out.append((ge0 + ((coeffs, one - const),), form, box))
        if hi >= one:
            out.append((((neg, const - one),), top, (one, one)))
        return out
    raise AssertionError(f"activation {act!r} has no regimes")


def exact_extrema(
    net: Network,
    node: NodeRef | str = "output",
    activated: bool = False,
    node_budget: int | None = None,
) -> Interval:
    """Exact min/max of a node's global map over [0,1]^d0.

    ``activated`` selects the post-activation value; the default is the
    pre-activation input to the node (for the output node with no activation
    the two coincide).  Raises BudgetExceeded when the regime search visits
    more than ``node_budget`` branches, and ValueError for a budget below 1.
    """
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"node budget must be a positive integer, got {node_budget}")
    ref = NodeRef(net.depth, 1) if node == "output" else node
    _, _, act = node_local_map(net, ref)  # validates the reference
    levels = _scaled_levels(net, ref.layer)
    top = ref.index - 1
    # forms[j-1][i] and boxes[j-1][i]: the fixed form of node (j, i+1) and
    # its post-activation box.
    forms: list[list[AffineForm | None]] = _unfixed(levels)
    boxes: list[list[Box | None]] = _unfixed(levels)

    # Upstream nodes (level, 0-based index), level by level; inside a level
    # widest IA slack first.
    below, _ = _interval_pass(levels, top, boxes)
    upstream: list[tuple[int, int]] = []
    for j, pre in enumerate(below, start=1):
        order = sorted(range(len(pre)), key=lambda i: pre[i][1] - pre[i][0], reverse=True)
        upstream.extend((j, i) for i in order)

    def node_form(j: int, i: int) -> AffineForm:
        level = levels[j - 1]
        if j == 1:
            return level.rows[i], level.biases[i]
        return _combine(level.rows[i], level.biases[i], forms[j - 2])

    visited = 0
    # The tableau of each set of cut rows probed so far, None when they cut
    # the cube empty.
    tableaux: dict[tuple, Tableau | None] = {}

    def tableau(key: tuple, state: Tableau, rows: tuple) -> Tableau | None:
        """The tableau of the rows in ``key``: ``state`` cut by the last ``rows``."""
        if key not in tableaux:
            tableaux[key] = cut(state, rows)
        return tableaux[key]

    def optimize(sense: str) -> Fraction:
        # The incumbent is a value of the node times its level's denominator.
        incumbent: Fraction | None = None

        def search(idx: int, key: tuple, state: Tableau, rows: tuple) -> None:
            """Visit the branch that fixed upstream[:idx].  ``key`` holds the
            cut rows of its nodes, and ``state`` the tableau of all of them
            but ``rows``, those of the node fixed last."""
            nonlocal incumbent, visited
            leaf = idx == len(upstream)
            # Probes pay off only above leaves; a leaf cuts after its prune check.
            if rows and not leaf:
                state = tableau(key, state, rows)
                if state is None:
                    return
            visited += 1
            if node_budget is not None and visited > node_budget:
                j, i = upstream[idx] if idx < len(upstream) else (ref.layer, top)
                raise BudgetExceeded(
                    f"branch-and-bound budget of {node_budget} exceeded at node ({j},{i + 1}) "
                    f"while {'maximising' if sense == 'max' else 'minimising'}"
                )
            if incumbent is not None:
                # Every level below that of the node fixed last is fixed.
                start = upstream[idx - 1][0] - 1 if idx else 0
                _, (lo, hi) = _interval_pass(levels, top, boxes, start)
                if sense == "max" and hi <= incumbent:
                    return
                if sense == "min" and lo >= incumbent:
                    return
            if leaf:
                if rows:
                    state = tableau(key, state, rows)
                    if state is None:
                        return
                coeffs, const = node_form(ref.layer, top)
                if sense == "min":
                    val = const + minimum(state, coeffs)
                    incumbent = val if incumbent is None else min(incumbent, val)
                else:
                    val = const - minimum(state, [-c for c in coeffs])
                    incumbent = val if incumbent is None else max(incumbent, val)
                return
            j, i = upstream[idx]
            level = levels[j - 1]
            for rows, form, box in _branches(level.activations[i], node_form(j, i), level.den):
                forms[j - 1][i], boxes[j - 1][i] = form, box
                search(idx + 1, key + rows, state, rows)
            forms[j - 1][i] = boxes[j - 1][i] = None

        search(0, (), cube(net.input_dim), ())
        assert incumbent is not None  # the cube is never empty
        return incumbent / levels[-1].den

    lo = optimize("min")
    hi = optimize("max")
    if activated and act != NONE:
        return Interval(apply_activation(act, lo), apply_activation(act, hi))
    return Interval(lo, hi)
