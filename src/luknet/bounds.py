"""Exact extrema of a node's global map over the unit cube.

Every upstream nonlinear node is case-split into its affine regimes
(relu: t<=0 / t>=0; clip: t<=0 / 0<=t<=1 / t>=1), each feasible leaf is an
exact LP, and the outer min/max over leaves is the answer.  Interval
arithmetic pins regimes that cannot flip and prunes branches that cannot
beat the incumbent, but never replaces an exact LP at a leaf.

The search and ``vertex_witnessed`` take the integer layers every other
stage uses, (s_j, R_j, c_j, activations) with R_j = s_j*W_j, c_j = s_j*b_j
and s_j the lcm of layer j's denominators, each read once where a network
enters (``network.scaled_layer``).  Inside, level j has the one denominator
d_j = s_j * d_{j-1}, with d_0 = 1, and every value on it is an int numerator
over d_j: a pre-activation is R_j.V + c_j*d_{j-1}, relu is max(t, 0) and
clip clamps to [0, d_j].  Affine forms, interval bounds and cut rows
[bound, *coeffs] are numerators over their level's denominator, and a leaf's
LP optimum is an int ratio num/det, so its value is (num + constant*det)/(det*d_j).

One depth-first walk over an explicit stack finds both extrema.  Each
entry carries the senses still open on its branch; each sense keeps its
own incumbent, an int ratio num/den over d_j, so a prune check compares
ints, and makes its answer a Fraction once, at the end.  Once both exist,
one interval pass per branch closes each sense whose bound cannot beat its
incumbent.  A branch adds the cut rows of its regime to the simplex tableau
its parent left feasible (``numerics.cut``, a dual simplex under Bland's
rule).  A leaf first builds the node's form and closes each sense that the
form's box over the cube cannot improve, then cuts and minimises over its
tableau (``numerics.minimum``) once per sense still open.  That check only
spares an LP whose optimum could not have replaced the incumbent, so the
tree, and the count of branches a node budget limits, is the one the
interval pass alone prunes.  Each sense walks the tree a walk of its own
would; the part the two trees share is built once.

The levels are fixed in order, level by level, and each stack entry carries
the state of the level its path is fixing: every node's pre-activation
form, computed once when the path enters the level from the output forms
of the level below (on level 0, the inputs' unit forms), and the output
form and post-activation box the path gave each node it fixed; a node not
fixed yet keeps its interval box.  So the pruning pass starts from those
boxes and computes only the levels above, none of whose nodes is fixed, and
a leaf reads the node's form off the output forms of the last level, once
for both senses.  The search keeps only the node's own row of its level, so
the last level of every pass has one row.

The same interval pass, run on a single vertex of the cube, is an exact
forward pass: ``vertex_witnessed`` reads every hidden node's sign there.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .network import (
    CLIP, NONE, RELU, IntLayer, Network, NodeRef, apply_activation, box, node_local_map, scaled_layer
)
from .numerics import Interval, cube, cut, minimum

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


def _levels(layers: Sequence[IntLayer]) -> list[_Level]:
    """Integer layers as integer rows over their levels' denominators."""
    levels: list[_Level] = []
    den = 1
    for s, rows, biases, acts in layers:
        levels.append(_Level(rows, tuple(c * den for c in biases), acts, den * s))
        den *= s
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


def _activate(act: str, t: int, one: int) -> int:
    if t < 0:
        return 0
    return one if act == CLIP and t > one else t


def _level_pass(level: _Level, post: Sequence[Box]) -> tuple[list[Box], list[Box]]:
    """The pre- and post-activation boxes of one level over the
    post-activation boxes ``post`` of the level below."""
    pre = [box(row, b, post) for row, b in zip(level.rows, level.biases)]
    one = level.den
    return pre, [(_activate(act, lo, one), _activate(act, hi, one))
                 for act, (lo, hi) in zip(level.activations, pre)]


def _interval_pass(
    levels: Sequence[_Level], post: Sequence[Box], start: int = 0
) -> tuple[list[list[Box]], Box]:
    """One layer-wise interval pass up to the last level, which has one row.

    ``post`` holds the post-activation boxes of level ``start`` (level 0 is
    the inputs); the pass computes the levels above it.  Returns the
    pre-activation box of every node in the levels it computed, grouped by
    level, and that of its one node.
    """
    below: list[list[Box]] = []
    for level in levels[start:-1]:
        pre, post = _level_pass(level, post)
        below.append(pre)
    top = levels[-1]
    return below, box(top.rows[0], top.biases[0], post)


def vertex_witnessed(layers: Sequence[IntLayer]) -> list[list[bool]]:
    """For each hidden node, level by level, whether its pre-activation is
    > 0 at one of the cube's vertices 0, 1, e_k, 1 - e_k and <= 0 at another.

    A vertex is the degenerate box {x}: one interval pass over the levels
    evaluates every hidden node there exactly, in ints.
    """
    levels = _levels(layers)
    d = len(levels[0].rows[0])
    units = [tuple(int(i == k) for i in range(d)) for k in range(-1, d)]
    signs = [[0] * len(level.rows) for level in levels[:-1]]  # bit 1: > 0 seen, bit 2: <= 0 seen
    for x in dict.fromkeys(units + [tuple(1 - v for v in u) for u in units]):
        below, _ = _interval_pass(levels, [(v, v) for v in x])
        for seen, pre in zip(signs, below):
            for i, (t, _) in enumerate(pre):
                seen[i] |= 1 if t > 0 else 2
    return [[s == 3 for s in seen] for seen in signs]


def _branches(act: str, form: AffineForm, one: int) -> list[tuple[tuple, AffineForm, Box]]:
    """(cut rows [bound, *coeffs], output form, its box bound) of each regime
    of a node with pre-activation ``form`` over denominator ``one`` that the
    form's box bound leaves feasible.

    Regimes: relu t<=0 -> 0, t>=0 -> t; clip t<=0 -> 0, 0<=t<=1 -> t, t>=1 -> 1.
    A regime the box bound forces needs no cut row.
    """
    coeffs, const = form
    lo, hi = bound = box(coeffs, const, [(0, 1)] * len(coeffs))
    neg = tuple(-c for c in coeffs)
    zero: AffineForm = ((0,) * len(coeffs), 0)
    le0 = ((-const, *coeffs),)
    ge0 = ((const, *neg),)
    if act == RELU:
        if hi <= 0:
            return [((), zero, (0, 0))]
        if lo >= 0:
            return [((), form, bound)]
        return [(le0, zero, (0, 0)), (ge0, form, bound)]
    if act == CLIP:
        top: AffineForm = (zero[0], one)
        if hi < 0:
            return [((), zero, (0, 0))]
        if lo > one:
            return [((), top, (one, one))]
        if lo >= 0 and hi <= one:
            return [((), form, bound)]
        out = [(le0, zero, (0, 0))] if lo <= 0 else []
        out.append((ge0 + ((one - const, *coeffs),), form, bound))
        if hi >= one:
            out.append((((const - one, *neg),), top, (one, one)))
        return out
    raise AssertionError(f"activation {act!r} has no regimes")


def _open(senses: int, lo: int, hi: int, num: list[int], den: list[int]) -> int:
    """The senses of the mask that a value in [lo, hi] can still improve:
    the minimum below num[0]/den[0], the maximum above -num[1]/den[1]."""
    if lo * den[0] >= num[0]:
        senses &= 2
    if -hi * den[1] >= num[1]:
        senses &= 1
    return senses


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
    more than ``node_budget`` branches, counted once per open sense, and
    ValueError for a budget below 1; :func:`extrema` on its scaled layers.
    """
    ref = NodeRef(net.depth, 1) if node == "output" else node
    _, _, act = node_local_map(net, ref)  # validates the reference
    layers = list(map(scaled_layer, net.layers[:ref.layer]))
    lo, hi = (Fraction(n, d) for n, d in extrema(layers, ref, node_budget))
    if activated and act != NONE:
        return Interval(apply_activation(act, lo), apply_activation(act, hi))
    return Interval(lo, hi)


def extrema(layers: Sequence[IntLayer], ref: NodeRef, node_budget: int | None = None):
    """The exact min and max of node ``ref``'s pre-activation over the cube
    as int ratios (num, den), den > 0, on the integer layers of a network
    that reach the node's; its budget is that of :func:`exact_extrema`."""
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"node budget must be a positive integer, got {node_budget}")
    levels = _levels(layers[:ref.layer])
    top = ref.index - 1
    # The node's own row is row 0 of the last level from here on.
    last = levels[-1]
    levels[-1] = _Level((last.rows[top],), (last.biases[top],), (last.activations[top],), last.den)
    d = len(levels[0].rows[0])
    inputs = [(0, 1)] * d

    # Upstream nodes (level, 0-based index), level by level; inside a level
    # widest IA slack first.
    below, _ = _interval_pass(levels, inputs)
    upstream: list[tuple[int, int]] = []
    for j, pre in enumerate(below, start=1):
        order = sorted(range(len(pre)), key=lambda i: pre[i][1] - pre[i][0], reverse=True)
        upstream.extend((j, i) for i in order)

    root = cube(d)
    visited = 0
    # Sense s (0 the minimum, 1 the maximum) has the incumbent num[s]/den[s]:
    # sign times a value of the node, times its level's denominator.  Both
    # senses solve the walk's first leaf, so den[0] is 0 until both exist.
    signs = (1, -1)
    num, den = [0, 0], [0, 0]
    # Each entry: its index into upstream, the mask of the senses still open
    # (bit 1 the minimum, bit 2 the maximum), the tableau its parent left
    # feasible, the cut rows, form and box of upstream[index - 1], and the
    # parent's state of that node's level j: the forms, output forms and
    # post-activation boxes of its nodes.  The root carries level 0: the
    # inputs' unit forms (e_k, 0) and the cube's boxes.
    units = [(tuple(int(i == k) for i in range(d)), 0) for k in range(d)]
    stack: list[tuple] = [(0, 3, root, (), None, None, 0, (), units, inputs)]
    while stack:
        idx, senses, state, rows, form, bound, j, forms, outs, post = stack.pop()
        leaf = idx == len(upstream)
        # Probes pay off only above leaves; a leaf cuts after its prune checks.
        if rows and not leaf:
            state = cut(state, rows)
            if state is None:
                continue
        visited += senses.bit_count()
        if node_budget is not None and visited > node_budget:
            j, i = (ref.layer, top) if leaf else upstream[idx]
            doing = ("minimising", "maximising", "minimising and maximising")[senses - 1]
            raise BudgetExceeded(
                f"branch-and-bound budget of {node_budget} exceeded at node ({j},{i + 1}) while {doing}"
            )
        if idx:
            i = upstream[idx - 1][1]
            outs, post = outs[:], post[:]
            outs[i], post[i] = form, bound
        if den[0]:
            # The root came first, so a node is fixed: the pass starts at
            # its level, and no level above holds a fixed node.
            _, (lo, hi) = _interval_pass(levels, post, j)
            senses = _open(senses, lo, hi, num, den)
            if not senses:
                continue
        if leaf:
            coeffs, const = _combine(levels[-1].rows[0], levels[-1].biases[0], outs)
            if den[0]:
                senses = _open(senses, *box(coeffs, const, inputs), num, den)
                if not senses:
                    continue
            if rows:
                state = cut(state, rows)
                if state is None:
                    continue
            for s, sign in enumerate(signs):
                if senses & 1 << s:
                    m, w = minimum(state, [sign * c for c in coeffs])
                    v = sign * const * w + m
                    if not den[s] or v * den[s] < num[s] * w:
                        num[s], den[s] = v, w
            continue
        i = upstream[idx][1]
        level = levels[upstream[idx][0] - 1]
        if upstream[idx][0] != j:
            # Enter the next level, over the output forms and boxes of the
            # level below, which the path has fixed completely.
            forms = [_combine(row, b, outs) for row, b in zip(level.rows, level.biases)]
            post = _level_pass(level, post)[1]
            outs = [None] * len(level.rows)
            j += 1
        branches = _branches(level.activations[i], forms[i], level.den)
        for k in reversed(range(len(branches))):  # visited in the order of _branches
            rows, form, bound = branches[k]
            stack.append((idx + 1, senses, state, rows, form, bound, j, forms, outs, post))
    assert den[0], "the cube is never empty"
    return [(sign * n, w * levels[-1].den) for sign, n, w in zip(signs, num, den)]
