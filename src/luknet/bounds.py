"""Exact extrema of a node's global map over the unit cube.

Every upstream nonlinear node is case-split into its affine regimes
(relu: t<=0 / t>=0; clip: t<=0 / 0<=t<=1 / t>=1), each feasible leaf is an
exact LP, and the outer min/max over leaves is the answer.  Interval
arithmetic pins regimes that cannot flip and prunes branches that cannot
beat the incumbent, but never replaces an exact LP at a leaf.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .network import (
    CLIP,
    NONE,
    RELU,
    Network,
    NodeRef,
    apply_activation,
    input_interval,
    node_local_map,
)
from .numerics import Infeasible, Interval, lp_extremum, lp_feasible

_F0 = Fraction(0)
_F1 = Fraction(1)


class BudgetExceeded(Exception):
    """The branch-and-bound search exceeded its configured node budget."""


AffineForm = tuple[tuple[Fraction, ...], Fraction]  # coeffs over inputs, constant


def _combine(row: Sequence[Fraction], bias: Fraction, forms: Sequence[AffineForm]) -> AffineForm:
    coeffs = [_F0] * len(forms[0][0])
    const = bias
    for w, (fc, fk) in zip(row, forms):
        if w == 0:
            continue
        const += w * fk
        for t, c in enumerate(fc):
            if c != 0:
                coeffs[t] += w * c
    return tuple(coeffs), const


def _affine_interval(row: Sequence[Fraction], bias: Fraction, ivs: Sequence[Interval]) -> Interval:
    lo = hi = bias
    for w, iv in zip(row, ivs):
        if w > 0:
            lo += w * iv.lo
            hi += w * iv.hi
        elif w < 0:
            lo += w * iv.hi
            hi += w * iv.lo
    return Interval(lo, hi)


def _interval_pass(
    net: Network, ref: NodeRef, fixed: dict[NodeRef, AffineForm]
) -> tuple[list[list[Interval | None]], Interval]:
    """One layer-wise interval pass from the cube up to the node ``ref``.

    Returns the pre-activation interval of every node in the layers below
    ref's, grouped by layer, and that of ref itself.  A node whose regime is
    fixed to an affine form in ``fixed`` takes its post-activation interval
    from that form's box bound; its own pre-activation entry is None.
    """
    post = [Interval(_F0, _F1)] * net.input_dim
    below: list[list[Interval | None]] = []
    for j, layer in enumerate(net.layers[: ref.layer - 1], start=1):
        pre: list[Interval | None] = []
        nxt: list[Interval] = []
        for i, (row, b, act) in enumerate(zip(layer.weights, layer.biases, layer.activations)):
            form = fixed.get(NodeRef(j, i + 1))
            if form is not None:
                pre.append(None)
                nxt.append(input_interval(*form))
                continue
            iv = _affine_interval(row, b, post)
            pre.append(iv)
            nxt.append(Interval(apply_activation(act, iv.lo), apply_activation(act, iv.hi)))
        below.append(pre)
        post = nxt
    row, bias, _ = node_local_map(net, ref)
    return below, _affine_interval(row, bias, post)


def interval_propagation(net: Network, ref: NodeRef) -> Interval:
    """Closed-form layer-wise interval bound on the node's pre-activation map.

    Always encloses the exact extrema; used for pruning and as a sanity check.
    """
    return _interval_pass(net, ref, {})[1]


def _branches(act: str, form: AffineForm) -> list[tuple[tuple, AffineForm]]:
    """(cut rows, output form) of each regime of a node with pre-activation
    ``form`` that the form's box bound leaves feasible.

    Regimes: relu t<=0 -> 0, t>=0 -> t; clip t<=0 -> 0, 0<=t<=1 -> t, t>=1 -> 1.
    A regime the box bound forces needs no cut row.
    """
    coeffs, const = form
    iv = input_interval(coeffs, const)
    neg = tuple(-c for c in coeffs)
    zero: AffineForm = (tuple([_F0] * len(coeffs)), _F0)
    le0 = ((coeffs, -const),)
    ge0 = ((neg, const),)
    if act == RELU:
        if iv.hi <= 0:
            return [((), zero)]
        if iv.lo >= 0:
            return [((), form)]
        return [(le0, zero), (ge0, form)]
    if act == CLIP:
        one: AffineForm = (zero[0], _F1)
        if iv.hi < 0:
            return [((), zero)]
        if iv.lo > 1:
            return [((), one)]
        if iv.lo >= 0 and iv.hi <= 1:
            return [((), form)]
        out = [(le0, zero)] if iv.lo <= 0 else []
        out.append((ge0 + ((coeffs, _F1 - const),), form))
        if iv.hi >= 1:
            out.append((((neg, const - _F1),), one))
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

    # Upstream nodes, layer by layer; inside a layer widest IA slack first.
    below, _ = _interval_pass(net, ref, {})
    upstream: list[NodeRef] = []
    for j, pre in enumerate(below, start=1):
        order = sorted(range(len(pre)), key=lambda i: pre[i].width, reverse=True)
        upstream.extend(NodeRef(j, i + 1) for i in order)

    visited = 0

    def bump() -> None:
        nonlocal visited
        visited += 1
        if node_budget is not None and visited > node_budget:
            raise BudgetExceeded(f"branch-and-bound budget of {node_budget} exceeded")

    def node_form(r: NodeRef, forms: dict[NodeRef, AffineForm]) -> AffineForm:
        nrow, nbias, _ = node_local_map(net, r)
        if r.layer == 1:
            return tuple(nrow), nbias
        prev = [forms[NodeRef(r.layer - 1, i + 1)] for i in range(net.width(r.layer - 1))]
        return _combine(nrow, nbias, prev)

    feasible_cache: dict[tuple, bool] = {}

    def cached_feasible(extra: tuple) -> bool:
        got = feasible_cache.get(extra)
        if got is None:
            got = lp_feasible(list(extra), net.input_dim)
            feasible_cache[extra] = got
        return got

    def optimize(sense: str) -> Fraction:
        incumbent: Fraction | None = None

        def search(idx: int, forms: dict[NodeRef, AffineForm], extra: tuple) -> None:
            nonlocal incumbent
            bump()
            if incumbent is not None:
                _, box = _interval_pass(net, ref, forms)
                if sense == "max" and box.hi <= incumbent:
                    return
                if sense == "min" and box.lo >= incumbent:
                    return
            if idx == len(upstream):
                coeffs, const = node_form(ref, forms)
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
            r = upstream[idx]
            _, _, ract = node_local_map(net, r)
            last = idx == len(upstream) - 1
            for rows, out_form in _branches(ract, node_form(r, forms)):
                # Feasibility probes pay off only above leaves; leaf LPs catch
                # their own infeasibility.
                if rows and not last and not cached_feasible(extra + rows):
                    continue
                forms[r] = out_form
                search(idx + 1, forms, extra + rows)
                del forms[r]

        search(0, {}, ())
        assert incumbent is not None  # the cube is never empty
        return incumbent

    lo = optimize("min")
    hi = optimize("max")
    if activated and act != NONE:
        return Interval(apply_activation(act, lo), apply_activation(act, hi))
    return Interval(lo, hi)
