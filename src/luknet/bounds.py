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
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .network import CLIP, NONE, RELU, Network, NodeRef, apply_activation, node_local_map
from .numerics import Infeasible, Interval, lp_extremum, lp_feasible


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
    levels: Sequence[_Level], i: int, fixed: Sequence[Sequence[AffineForm | None]]
) -> tuple[list[list[Box | None]], Box]:
    """One layer-wise interval pass from the cube up to node i (0-based) of
    the last level.

    Returns the pre-activation box of every node in the levels below,
    grouped by level, and that of the node itself.  A node whose regime is
    fixed to an affine form in ``fixed`` takes its post-activation box from
    that form's box bound; its own pre-activation entry is None.
    """
    post: list[Box] = [(0, 1)] * len(levels[0].rows[0])
    below: list[list[Box | None]] = []
    for level, forms in zip(levels[:-1], fixed):
        pre: list[Box | None] = []
        nxt: list[Box] = []
        for row, b, act, form in zip(level.rows, level.biases, level.activations, forms):
            if form is not None:
                pre.append(None)
                nxt.append(_form_box(form))
                continue
            lo, hi = _box(row, b, post)
            pre.append((lo, hi))
            nxt.append((_activate(act, lo, level.den), _activate(act, hi, level.den)))
        below.append(pre)
        post = nxt
    top = levels[-1]
    return below, _box(top.rows[i], top.biases[i], post)


def _no_forms(levels: Sequence[_Level]) -> list[list[AffineForm | None]]:
    return [[None] * len(level.rows) for level in levels[:-1]]


def interval_propagation(net: Network, ref: NodeRef) -> Interval:
    """Closed-form layer-wise interval bound on the node's pre-activation map.

    Always encloses the exact extrema; used for pruning and as a sanity check.
    """
    node_local_map(net, ref)  # validates the reference
    levels = _scaled_levels(net, ref.layer)
    _, (lo, hi) = _interval_pass(levels, ref.index - 1, _no_forms(levels))
    den = levels[-1].den
    return Interval(Fraction(lo, den), Fraction(hi, den))


def _branches(act: str, form: AffineForm, one: int) -> list[tuple[tuple, AffineForm]]:
    """(cut rows, output form) of each regime of a node with pre-activation
    ``form`` over denominator ``one`` that the form's box bound leaves feasible.

    Regimes: relu t<=0 -> 0, t>=0 -> t; clip t<=0 -> 0, 0<=t<=1 -> t, t>=1 -> 1.
    A regime the box bound forces needs no cut row.
    """
    coeffs, const = form
    lo, hi = _form_box(form)
    neg = tuple(-c for c in coeffs)
    zero: AffineForm = ((0,) * len(coeffs), 0)
    le0 = ((coeffs, -const),)
    ge0 = ((neg, const),)
    if act == RELU:
        if hi <= 0:
            return [((), zero)]
        if lo >= 0:
            return [((), form)]
        return [(le0, zero), (ge0, form)]
    if act == CLIP:
        top: AffineForm = (zero[0], one)
        if hi < 0:
            return [((), zero)]
        if lo > one:
            return [((), top)]
        if lo >= 0 and hi <= one:
            return [((), form)]
        out = [(le0, zero)] if lo <= 0 else []
        out.append((ge0 + ((coeffs, one - const),), form))
        if hi >= one:
            out.append((((neg, const - one),), top))
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
    more than ``node_budget`` branches.
    """
    ref = NodeRef(net.depth, 1) if node == "output" else node
    _, _, act = node_local_map(net, ref)  # validates the reference
    levels = _scaled_levels(net, ref.layer)
    top = ref.index - 1
    forms = _no_forms(levels)  # forms[j-1][i]: the fixed form of node (j, i+1)

    # Upstream nodes (level, 0-based index), level by level; inside a level
    # widest IA slack first.
    below, _ = _interval_pass(levels, top, forms)
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
    feasible_cache: dict[tuple, bool] = {}

    def cached_feasible(extra: tuple) -> bool:
        got = feasible_cache.get(extra)
        if got is None:
            got = lp_feasible(list(extra), net.input_dim)
            feasible_cache[extra] = got
        return got

    def optimize(sense: str) -> Fraction:
        # The incumbent is a value of the node times its level's denominator.
        incumbent: Fraction | None = None

        def search(idx: int, extra: tuple) -> None:
            nonlocal incumbent, visited
            visited += 1
            if node_budget is not None and visited > node_budget:
                j, i = upstream[idx] if idx < len(upstream) else (ref.layer, top)
                raise BudgetExceeded(
                    f"branch-and-bound budget of {node_budget} exceeded at node ({j},{i + 1}) "
                    f"while {'maximising' if sense == 'max' else 'minimising'}"
                )
            if incumbent is not None:
                _, (lo, hi) = _interval_pass(levels, top, forms)
                if sense == "max" and hi <= incumbent:
                    return
                if sense == "min" and lo >= incumbent:
                    return
            if idx == len(upstream):
                coeffs, const = node_form(ref.layer, top)
                try:
                    val = lp_extremum(coeffs, list(extra), sense, constant=const)
                except Infeasible:
                    return
                if incumbent is None:
                    incumbent = val
                elif sense == "max":
                    incumbent = max(incumbent, val)
                else:
                    incumbent = min(incumbent, val)
                return
            j, i = upstream[idx]
            level = levels[j - 1]
            last = idx == len(upstream) - 1
            for rows, out_form in _branches(level.activations[i], node_form(j, i), level.den):
                # Feasibility probes pay off only above leaves; leaf LPs catch
                # their own infeasibility.
                if rows and not last and not cached_feasible(extra + rows):
                    continue
                forms[j - 1][i] = out_form
                search(idx + 1, extra + rows)
                forms[j - 1][i] = None

        search(0, ())
        assert incumbent is not None  # the cube is never empty
        return incumbent / levels[-1].den

    lo = optimize("min")
    hi = optimize("max")
    if activated and act != NONE:
        return Interval(apply_activation(act, lo), apply_activation(act, hi))
    return Interval(lo, hi)
