"""Shared test machinery: random generators, the round-trip corpus network
generator, brute-force oracles kept independent of the library's solver
paths, and the paper's level operations (collapse and expansion), which only
tests run."""
from __future__ import annotations

import itertools
import pathlib
import random
from fractions import Fraction
from math import ceil, floor

from luknet import formula as fm
from luknet.bounds import exact_extrema
from luknet.extract import formula_for_certificate
from luknet.formula import Formula, substitute
from luknet.graph import (
    FLAVOR_INTEGER, FLAVOR_RATIONAL, FLAVOR_REAL, GraphNode, MintermCertificate, SubstitutionGraph,
)
from luknet.network import (
    CLIP,
    NONE,
    RELU,
    Layer,
    Network,
    NodeRef,
    apply_activation,
    is_non_degenerate,
    node_preactivations,
)
from luknet.numerics import Interval

F = Fraction

# The benchmark's frozen round-trip pool: integer and half-integer networks.
POOL_ROUNDTRIP = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pool_roundtrip.json"


def layer(weights, biases, activations) -> Layer:
    return Layer(
        tuple(tuple(F(w) for w in row) for row in weights),
        tuple(F(b) for b in biases),
        tuple(activations),
    )


def net(input_dim, *layers) -> Network:
    return Network(input_dim, tuple(layers))


def width(network: Network, j: int) -> int:
    """Width d_j of level j, 0 being the input level."""
    return network.input_dim if j == 0 else network.layers[j - 1].width


def box_forced_network(width: int) -> Network:
    """One hidden layer of ``width`` relu nodes x + 1, each forced active by
    its box bound, summed at the output: the range is [width, 2 * width]."""
    return net(1, layer([[1]] * width, [1] * width, ["relu"] * width), layer([[1] * width], [0], ["none"]))


# ---------------------------------------------------------------------------
# Random formulas / substitutions / graphs
# ---------------------------------------------------------------------------


def random_formula(rng: random.Random, n_vars: int, depth: int, dmv: bool = False):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.7:
            return fm.var(rng.randint(1, n_vars))
        return fm.ZERO if roll < 0.85 else fm.ONE
    ops = ["not", "oplus", "odot"] + (["delta"] if dmv else [])
    op = rng.choice(ops)
    if op == "not":
        return fm.lnot(random_formula(rng, n_vars, depth - 1, dmv))
    if op == "delta":
        return fm.delta(rng.randint(2, 3), random_formula(rng, n_vars, depth - 1, dmv))
    a = random_formula(rng, n_vars, depth - 1, dmv)
    b = random_formula(rng, n_vars, depth - 1, dmv)
    return fm.oplus(a, b) if op == "oplus" else fm.odot(a, b)


def random_substitution(rng: random.Random, n_keys: int, n_vars: int, depth: int = 2):
    return {k: random_formula(rng, n_vars, depth) for k in range(1, n_keys + 1)}


def random_graph(rng: random.Random) -> SubstitutionGraph:
    d0 = rng.randint(1, 3)
    widths = [d0] + [rng.randint(1, 3) for _ in range(rng.randint(1, 3))] + [1]
    levels = []
    for j in range(1, len(widths)):
        levels.append(
            tuple(
                GraphNode(random_formula(rng, widths[j - 1], rng.randint(1, 3)))
                for _ in range(widths[j])
            )
        )
    return SubstitutionGraph(tuple(widths), tuple(levels))


# ---------------------------------------------------------------------------
# Random networks
# ---------------------------------------------------------------------------


def random_network(
    rng: random.Random,
    n: int,
    hidden_widths: list[int],
    wmax: int = 3,
    activation: str = RELU,
) -> Network:
    layers = []
    prev = n
    for w in hidden_widths:
        rows = tuple(tuple(F(rng.randint(-wmax, wmax)) for _ in range(prev)) for _ in range(w))
        biases = tuple(F(rng.randint(-wmax, wmax)) for _ in range(w))
        layers.append(Layer(rows, biases, (activation,) * w))
        prev = w
    rows = (tuple(F(rng.randint(-wmax, wmax)) for _ in range(prev)),)
    layers.append(Layer(rows, (F(rng.randint(-wmax, wmax)),), (NONE,)))
    return Network(n, tuple(layers))


def rational_network(rng: random.Random, n: int, hidden: list[int], activation: str) -> Network:
    """Weights and biases with denominator 2 or 3 per layer, |w| <= 3, so the
    levels' denominators d_j exceed 1; activation "mixed" draws relu or clip
    per node."""

    def draw(prev: int, acts: tuple[str, ...]) -> Layer:
        q = rng.choice((2, 3))
        rows = tuple(tuple(F(rng.randint(-3 * q, 3 * q), q) for _ in range(prev)) for _ in acts)
        return Layer(rows, tuple(F(rng.randint(-3 * q, 3 * q), q) for _ in acts), acts)

    layers = []
    prev = n
    for w in hidden:
        mixed = activation == "mixed"
        acts = tuple(rng.choice(("relu", "clip")) if mixed else activation for _ in range(w))
        layers.append(draw(prev, acts))
        prev = w
    layers.append(draw(prev, (NONE,)))
    return Network(n, tuple(layers))


CORPUS_BUDGET = 6000  # candidates whose bound search explodes are re-rolled


def corpus_network(rng: random.Random, max_attempts: int = 60) -> Network | None:
    """One non-degenerate integer relu network with exact range inside [0,1].

    Shapes stay within n <= 3, depth <= 4, width <= 4, |w| <= 3.  An
    out-of-range candidate is shifted by an integer bias when its span fits in
    [0,1], or wrapped in a clamp pair rho(g+t) - rho(g+t-1) otherwise.
    """
    from luknet.bounds import BudgetExceeded

    for _ in range(max_attempts):
        n = rng.choice([1, 1, 2, 2, 3])
        n_hidden = rng.choice([0, 1, 1, 2, 2, 3])
        widths = [rng.randint(1, 4) for _ in range(n_hidden)]
        base = random_network(rng, n, widths)
        try:
            rng_out = exact_extrema(base, "output", node_budget=CORPUS_BUDGET)
        except BudgetExceeded:
            continue
        lo, hi = rng_out.lo, rng_out.hi
        if lo == hi:
            continue
        candidate: Network | None = None
        if 0 <= lo and hi <= 1:
            candidate = base
        else:
            t_lo, t_hi = ceil(-lo), floor(1 - hi)
            if t_lo <= t_hi:
                t = F(t_lo)
                out = base.layers[-1]
                shifted = Layer(out.weights, (out.biases[0] + t,), out.activations)
                candidate = Network(n, base.layers[:-1] + (shifted,))
            elif hi - lo > 1 and n_hidden <= 2:
                t = F(floor(-lo))
                if hi + t > 1:
                    out = base.layers[-1]
                    row, b = out.weights[0], out.biases[0] + t
                    pair = Layer((row, row), (b, b - 1), (RELU, RELU))
                    differ = Layer(((F(1), F(-1)),), (F(0),), (NONE,))
                    candidate = Network(n, base.layers[:-1] + (pair, differ))
        if candidate is None:
            continue
        try:
            ok, _ = is_non_degenerate(candidate, node_budget=CORPUS_BUDGET)
            if not ok:
                continue
            final = exact_extrema(candidate, "output", node_budget=CORPUS_BUDGET)
        except BudgetExceeded:
            continue
        if final.lo < 0 or final.hi > 1:
            continue
        return candidate
    return None


def clamped(hidden: Layer, out: tuple) -> Network | None:
    """One hidden layer and the clamp pair rho(g+t) - rho(g+t-1) of its output
    g = out . hidden, with t = floor(-min g); None when g + t never passes 1
    or the network is degenerate."""
    n = len(hidden.weights[0])
    g = Network(n, (hidden, Layer((out,), (F(0),), (NONE,))))
    rng_out = exact_extrema(g, "output")
    t = F(floor(-rng_out.lo))
    if rng_out.hi + t <= 1:
        return None
    pair = Layer((out, out), (t, t - 1), (RELU, RELU))
    network = Network(n, (hidden, pair, Layer(((F(1), F(-1)),), (F(0),), (NONE,))))
    return network if is_non_degenerate(network)[0] else None


def same_row_pairs_network(rng: random.Random, weights=(-3, -2, -1, 1, 2, 3)) -> Network | None:
    """One or two pairs of relu nodes on one integer row each, with biases b
    and b - 1 or b - 2 that both change sign on the cube, shuffled into one
    hidden layer and wrapped by ``clamped``; the output weights are drawn from
    ``weights``, and a draw whose weights are all 0 gives None."""
    n = rng.randint(1, 2)
    nodes, pairs = [], rng.randint(1, 2)
    while len(nodes) < 2 * pairs:
        row = [rng.randint(-3, 3) for _ in range(n)]
        delta = rng.randint(1, 2)
        hi, lo = sum(w for w in row if w > 0), sum(w for w in row if w < 0)
        if delta - hi < -lo:
            b = rng.randint(delta - hi + 1, -lo)
            row = tuple(map(F, row))
            nodes += [(row, F(b)), (row, F(b - delta))]
    rng.shuffle(nodes)
    rows, biases = zip(*nodes)
    out = tuple(F(rng.choice(weights)) for _ in nodes)
    if not any(out):
        return None
    return clamped(Layer(rows, biases, (RELU,) * len(nodes)), out)


# ---------------------------------------------------------------------------
# Independent extremum oracles (vertex enumeration, no simplex, no pruning)
# ---------------------------------------------------------------------------


def solve_square(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None when the system is singular."""
    n = len(A)
    M = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def polytope_vertices(constraints, d: int):
    """Every intersection of d constraint boundaries that satisfies all rows."""
    seen = set()
    for subset in itertools.combinations(range(len(constraints)), d):
        A = [list(constraints[i][0]) for i in subset]
        b = [constraints[i][1] for i in subset]
        x = solve_square(A, b)
        if x is None:
            continue
        key = tuple(x)
        if key in seen:
            continue
        seen.add(key)
        if all(
            sum(c * v for c, v in zip(coeffs, x)) <= bound for coeffs, bound in constraints
        ):
            yield x


def cube_constraints(d: int) -> list:
    """The 2d inequalities pinning x to the unit cube [0,1]^d."""
    cons = []
    for i in range(d):
        unit = [F(0)] * d
        unit[i] = F(1)
        cons.append((tuple(unit), F(1)))
        neg = [F(0)] * d
        neg[i] = F(-1)
        cons.append((tuple(neg), F(0)))
    return cons


# The integer simplex with the cube's upper faces x_k <= 1 as explicit rows,
# the judge of numerics' implicit faces.  A state is (rows, basis, nonbasic,
# det) in numerics' dictionary form; the first d rows are the faces, whose
# slacks d + 1..2d start basic, and cut slacks are 2d + 1 and up.


def explicit_cube(d: int) -> tuple:
    """The cube [0,1]^d: row k reads s_k + x_k = 1, every x_k nonbasic at 0."""
    rows = tuple([1, *(int(i == k) for i in range(d))] for k in range(d))
    return rows, tuple(range(d + 1, 2 * d + 1)), tuple(range(1, d + 1)), 1


def _explicit_row(state, values) -> list[int]:
    rows, basis, nonbasic, det = state
    d = len(nonbasic)
    row = [values[0] * det, *(values[v] * det if v <= d else 0 for v in nonbasic)]
    for prow, b in zip(rows, basis):
        if b <= d and (c := values[b]):
            row = [a - c * p for a, p in zip(row, prow)]
    return row


def explicit_pivot(rows, basis, nonbasic, det, r, j) -> int:
    prow = rows[r][:]
    piv, prow[j] = prow[j], det
    if piv < 0:
        piv, prow = -piv, [-v for v in prow]
    rows[r] = prow
    for i, row in enumerate(rows):
        if i != r:
            f = row[j]
            rows[i] = out = [(piv * a - f * q) // det for a, q in zip(row, prow)]
            out[j] = -f if prow[j] > 0 else f
    basis[r], nonbasic[j - 1] = nonbasic[j - 1], basis[r]
    return piv


def _explicit_entering(row, nonbasic):
    enter = None
    for j in range(1, len(row)):
        if row[j] < 0 and (enter is None or nonbasic[j - 1] < nonbasic[enter - 1]):
            enter = j
    return enter


def explicit_cut(state, cuts):
    """The state cut by each int row [bound, *coeffs], by a dual simplex
    under Bland's rule, or None when the region is empty."""
    d = len(state[2])
    rows, basis = list(state[0]), list(state[1])
    for values in cuts:
        rows.append(_explicit_row(state, values))
        basis.append(d + len(rows))
    nonbasic, det = list(state[2]), state[3]
    while True:
        leave = None
        for i, row in enumerate(rows):
            if row[0] < 0 and (leave is None or basis[i] < basis[leave]):
                leave = i
        if leave is None:
            return tuple(rows), tuple(basis), tuple(nonbasic), det
        enter = _explicit_entering(rows[leave], nonbasic)
        if enter is None:
            return None
        det = explicit_pivot(rows, basis, nonbasic, det, leave, enter)


def explicit_minimum(state, objective) -> tuple[int, int]:
    """Minimum of objective.x over the state's region as an int ratio (num, det)."""
    m = len(state[0])
    rows, basis, nonbasic, det = [*state[0], _explicit_row(state, [0, *objective])], list(state[1]), list(state[2]), state[3]
    while True:
        obj = rows[m]
        enter = _explicit_entering(obj, nonbasic)
        if enter is None:
            return -obj[0], det
        leave = None
        for i in range(m):
            row = rows[i]
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, row[0], a
                    continue
                lhs, rhs = row[0] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[0], a
        det = explicit_pivot(rows, basis, nonbasic, det, leave, enter)


def brute_extrema(network: Network, ref: NodeRef):
    """Exhaustive activation-pattern + vertex-enumeration extremum oracle.

    Enumerates every regime pattern of the upstream nodes with no pruning,
    collects the candidate vertices of each pattern polytope, and reads the
    node's pre-activation value off a plain forward evaluation.
    """
    d = network.input_dim
    cube = cube_constraints(d)

    upstream = [
        (j, i) for j in range(1, ref.layer) for i in range(1, width(network, j) + 1)
    ]
    regime_options = []
    for j, i in upstream:
        act = network.layers[j - 1].activations[i - 1]
        regime_options.append(("zero", "linear") if act == RELU else ("zero", "linear", "one"))

    def forms_for(pattern):
        """Affine forms (coeffs, const) of all node outputs under the pattern."""
        forms = {}
        constraints = list(cube)
        for (j, i), regime in zip(upstream, pattern):
            row = network.layers[j - 1].weights[i - 1]
            bias = network.layers[j - 1].biases[i - 1]
            if j == 1:
                coeffs = list(row)
                const = bias
            else:
                coeffs = [F(0)] * d
                const = bias
                for t in range(width(network, j - 1)):
                    fc, fk = forms[(j - 1, t + 1)]
                    w = row[t]
                    const += w * fk
                    for s in range(d):
                        coeffs[s] += w * fc[s]
            if regime == "zero":
                constraints.append((tuple(coeffs), -const))
                forms[(j, i)] = ([F(0)] * d, F(0))
            elif regime == "one":
                constraints.append((tuple(-c for c in coeffs), const - 1))
                forms[(j, i)] = ([F(0)] * d, F(1))
            else:
                constraints.append((tuple(-c for c in coeffs), const))
                if network.layers[j - 1].activations[i - 1] == CLIP:
                    constraints.append((tuple(coeffs), 1 - const))
                forms[(j, i)] = (coeffs, const)
        return constraints

    best_lo: Fraction | None = None
    best_hi: Fraction | None = None
    for pattern in itertools.product(*regime_options) if upstream else [()]:
        constraints = forms_for(pattern)
        for x in polytope_vertices(constraints, d):
            value = node_preactivations(network, x)[ref.layer - 1][ref.index - 1]
            best_lo = value if best_lo is None else min(best_lo, value)
            best_hi = value if best_hi is None else max(best_hi, value)
    assert best_lo is not None and best_hi is not None
    return best_lo, best_hi


def interval_propagation(network: Network, ref: NodeRef) -> Interval:
    """Layer-wise interval bound on the node's pre-activation map, in
    Fractions: each level's boxes from those of the level below, through
    the activation.  It always encloses the exact extrema."""
    post = [(F(0), F(1))] * network.input_dim
    for lay in network.layers[: ref.layer]:
        pre = []
        for row, bias in zip(lay.weights, lay.biases):
            lo = bias + sum(w * (vlo if w > 0 else vhi) for w, (vlo, vhi) in zip(row, post))
            hi = bias + sum(w * (vhi if w > 0 else vlo) for w, (vlo, vhi) in zip(row, post))
            pre.append((lo, hi))
        post = [(apply_activation(a, lo), apply_activation(a, hi)) for a, (lo, hi) in zip(lay.activations, pre)]
    return Interval(*pre[ref.index - 1])


def encloses(outer: Interval, inner: Interval) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def brute_non_degenerate(network: Network) -> bool:
    """The three non-degeneracy clauses straight from their definitions.

    (a) every hidden node's pre-activation attains a value > 0 and a value
    <= 0 over the cube, by :func:`brute_extrema`; (b) the output node has a
    nonzero incoming weight; (c) no two same-layer nodes share a local map.
    """
    for j in range(1, network.depth):
        for i in range(1, width(network, j) + 1):
            lo, hi = brute_extrema(network, NodeRef(j, i))
            if not (hi > 0 and lo <= 0):
                return False
    if all(w == 0 for w in network.layers[-1].weights[0]):
        return False
    for layer in network.layers:
        maps = list(zip(layer.weights, layer.biases, layer.activations))
        if len(set(maps)) != len(maps):
            return False
    return True


def reference_non_degenerate(network: Network) -> tuple[bool, str | None]:
    """``is_non_degenerate`` without vertex witnesses: the same clauses,
    order and messages, with clause (a) settled by ``exact_extrema`` on
    every hidden node."""
    if all(w == 0 for w in network.layers[-1].weights[0]):
        return False, "output node has only zero incoming weights"
    for j, lay in enumerate(network.layers, start=1):
        seen: dict[tuple, int] = {}
        for i, key in enumerate(zip(lay.weights, lay.biases, lay.activations), start=1):
            if key in seen:
                return False, f"nodes ({j},{seen[key]}) and ({j},{i}) have identical local maps"
            seen[key] = i
    for j in range(1, network.depth):
        for i in range(1, width(network, j) + 1):
            iv = exact_extrema(network, NodeRef(j, i))
            if iv.hi <= 0:
                return False, f"hidden node ({j},{i}) is never active (max {iv.hi} <= 0)"
            if iv.lo > 0:
                return False, f"hidden node ({j},{i}) is always active (min {iv.lo} > 0)"
    return True, None


def reference_is_non_degenerate(network: Network, node_budget: int | None = None) -> tuple[bool, str | None]:
    """The degeneracy check as it ran on Fractions before ``network.degeneracy``
    moved to integer layers: the three clauses, their order and messages, the
    vertex witnesses of clause (a) read off the Fraction forward pass
    ``node_preactivations``, and ``exact_extrema`` on every other hidden node."""
    if all(w == 0 for w in network.layers[-1].weights[0]):
        return False, "output node has only zero incoming weights"
    for j, lay in enumerate(network.layers, start=1):
        seen: dict[tuple, NodeRef] = {}
        for i in range(lay.width):
            key = (lay.weights[i], lay.biases[i], lay.activations[i])
            ref = NodeRef(j, i + 1)
            if key in seen:
                return False, (
                    f"nodes ({seen[key].layer},{seen[key].index}) and "
                    f"({ref.layer},{ref.index}) have identical local maps"
                )
            seen[key] = ref
    d = network.input_dim
    units = [tuple(F(int(i == k)) for i in range(d)) for k in range(-1, d)]
    pres = [node_preactivations(network, x) for x in units + [tuple(1 - v for v in u) for u in units]]
    for j in range(1, network.depth):
        for i in range(1, width(network, j) + 1):
            values = [pre[j - 1][i - 1] for pre in pres]
            if any(v > 0 for v in values) and any(v <= 0 for v in values):
                continue
            iv = exact_extrema(network, NodeRef(j, i), node_budget=node_budget)
            if iv.hi <= 0:
                return False, f"hidden node ({j},{i}) is never active (max {iv.hi} <= 0)"
            if iv.lo > 0:
                return False, f"hidden node ({j},{i}) is always active (min {iv.lo} > 0)"
    return True, None


def represented_formula_forward(g: SubstitutionGraph) -> Formula:
    """Input-first order: push each node's global formula up the layers.

    Produces the identical tree as ``graph.represented_formula``, which
    substitutes output-first; the tests check that the two orders agree.
    """
    global_formulas = [node.formula for node in g.nodes[0]]
    for level in range(2, g.depth + 1):
        zeta = {i + 1: f for i, f in enumerate(global_formulas)}
        global_formulas = [substitute(node.formula, zeta) for node in g.nodes[level - 1]]
    return global_formulas[0]


def evaluate(f: Formula, x) -> Fraction:
    """The truth value of one formula at x, through ``formula.evaluator``."""
    return fm.evaluator((f,))(x)[0]


def reference_evaluate(fs, x) -> list[Fraction]:
    """Truth values of ``fs`` at ``x`` by one ``Fraction`` operation per
    subterm: the loop that ``formula.evaluator`` replaced by int arithmetic
    over a static scale per subterm, kept as its judge."""
    values = [F(v) for v in x]
    for v in values:
        if not 0 <= v <= 1:
            raise ValueError(f"assignment value {v} outside [0,1]")
    top = max((f.max_var for f in fs), default=0)
    if top > len(values):
        raise ValueError(f"formula uses x{top} but only {len(values)} values were given")
    memo: dict[Formula, Fraction] = {}
    for node in fm.postorder(*fs):
        t = type(node)
        if t is fm.Var:
            r = values[node.index - 1]
        elif t is fm.Const:
            r = F(node.value)
        elif t is fm.Not:
            r = 1 - memo[node.child]
        elif t is fm.Oplus:
            r = min(F(1), memo[node.left] + memo[node.right])
        elif t is fm.Odot:
            r = max(F(0), memo[node.left] + memo[node.right] - 1)
        elif t is fm.Delta:
            r = memo[node.child] / node.divisor
        else:
            r = node.factor * memo[node.child]
        memo[node] = r
    return [memo[f] for f in fs]


def extr(m, b, flavor: str = FLAVOR_INTEGER) -> Formula:
    """The flavor's formula of clip(m.x + b), extracted from one certificate."""
    return formula_for_certificate(MintermCertificate(tuple(m), b, flavor))


def extr_rational(m, b) -> Formula:
    return extr(m, b, FLAVOR_RATIONAL)


def extr_real(m, b) -> Formula:
    return extr(m, b, FLAVOR_REAL)


def reference_extr_real(m, b) -> Formula:
    """The recursive Fraction peel that ``extract`` replaced by its integer core.

    Kept as the oracle for ``extr``, ``extr_rational`` and ``extr_real``: the
    same steps on Fraction rows, memoized per call on (row, bias) tuples.
    Its recursion depth grows with sum |m_i|.
    """
    mq = tuple(Fraction(c) for c in m)
    bq = Fraction(b)
    memo: dict[tuple, Formula] = {}

    def go(m: tuple[Fraction, ...], b: Fraction) -> Formula:
        key = (m, b)
        got = memo.get(key)
        if got is not None:
            return got
        lo, hi = fraction_box(m, b)
        if lo >= 1:
            res: Formula = fm.ONE
        elif hi <= 0:
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


def fraction_box(m, b) -> tuple[Fraction, Fraction]:
    """Box bound (lo, hi) of b + m.x over the unit cube, on Fractions.

    The oracles' own copy, kept apart from the library's integer ``network.box``.
    """
    lo = b + sum((c for c in m if c < 0), Fraction(0))
    hi = b + sum((c for c in m if c > 0), Fraction(0))
    return lo, hi


def reference_rho_to_sigma(network: Network) -> Network:
    """The Fraction relu -> clip conversion ``extract.rho_to_sigma`` ran before
    it scaled each layer to ints; without the degeneracy check."""
    layers = list(network.layers)
    for j in range(len(layers) - 1):
        lay = layers[j]
        rows, biases, copies = [], [], []
        for row, b in zip(lay.weights, lay.biases):
            hi = fraction_box(row, b)[1]
            k = 0 if hi <= 1 else ceil(hi) - 1
            copies.append(k + 1)
            for step in range(k + 1):
                rows.append(row)
                biases.append(b - step)
        layers[j] = Layer(tuple(rows), tuple(biases), (CLIP,) * len(rows))
        nxt = layers[j + 1]
        weights = tuple(
            tuple(w for w, reps in zip(old_row, copies) for _ in range(reps))
            for old_row in nxt.weights
        )
        layers[j + 1] = Layer(weights, nxt.biases, nxt.activations)
    out = layers[-1]
    layers[-1] = Layer(out.weights, out.biases, (CLIP,) * out.width)
    return Network(network.input_dim, tuple(layers))


def reference_sigma_to_rho(network: Network) -> Network:
    """The Fraction clip -> relu conversion ``construct.sigma_to_rho`` ran
    before it scaled each layer to ints, with its claim rule: a node claims a
    slot unless it is a clip copy of the node before it (the same row, a bias
    1 lower, and that node's L > 1), a twin never claims, a merged node sits
    at the slot of its first claiming member, or of its first member if none
    claims, and a node is kept when some member claims or its column is
    nonzero."""
    layers = list(network.layers)
    for j in range(len(layers) - 2, -1, -1):
        lay, nxt = layers[j], layers[j + 1]
        converted = []  # (row, bias, outgoing column, claims a slot)
        for i, (row, b) in enumerate(zip(lay.weights, lay.biases)):
            col = [wrow[i] for wrow in nxt.weights]
            copy = (i > 0 and lay.weights[i - 1] == row and lay.biases[i - 1] == b + 1
                    and fraction_box(row, b + 1)[1] > 1)
            converted.append([row, b, col, not copy])
            if fraction_box(row, b)[1] > 1:
                converted.append([row, b - 1, [-w for w in col], False])
        # [row, bias, column, claimed flag, slot]
        merged, index_of = [], {}
        for slot, (row, b, col, claims) in enumerate(converted):
            if (row, b) in index_of:
                entry = merged[index_of[row, b]]
                entry[2] = [a + c for a, c in zip(entry[2], col)]
                if claims and not entry[3]:
                    entry[3], entry[4] = True, slot
            else:
                index_of[row, b] = len(merged)
                merged.append([row, b, col, claims, slot])
        merged.sort(key=lambda e: e[4])
        kept = [e for e in merged if e[3] or any(w != 0 for w in e[2])]
        layers[j] = Layer(
            tuple(e[0] for e in kept), tuple(e[1] for e in kept), (RELU,) * len(kept)
        )
        layers[j + 1] = Layer(
            tuple(tuple(e[2][r] for e in kept) for r in range(nxt.width)),
            nxt.biases,
            nxt.activations,
        )
    out = layers[-1]
    rng = exact_extrema(Network(network.input_dim, tuple(layers)), "output")
    if rng.lo >= 0 and rng.hi <= 1:
        layers[-1] = Layer(out.weights, out.biases, (NONE,))
    else:
        layers[-1] = Layer(
            (out.weights[0], out.weights[0]), (out.biases[0], out.biases[0] - 1), (RELU, RELU)
        )
        layers.append(Layer(((F(1), F(-1)),), (F(0),), (NONE,)))
    return Network(network.input_dim, tuple(layers))


# ---------------------------------------------------------------------------
# Collapse and expansion: the paper's level operations, which keep the
# represented formula
# ---------------------------------------------------------------------------


def collapse(g: SubstitutionGraph, k: int) -> SubstitutionGraph:
    """Remove level k (1 <= k <= L-1) by substituting it into level k+1.

    Rewritten nodes lose their certificates; the represented formula is
    unchanged.
    """
    g2, _, _ = collapse_with_record(g, k)
    return g2


def collapse_with_record(
    g: SubstitutionGraph, k: int
) -> tuple[SubstitutionGraph, list[Formula], dict[int, Formula]]:
    """Collapse, also returning the (factors, substitution) pair that undoes it."""
    if not 1 <= k <= g.depth - 1:
        raise ValueError(f"collapse level {k} outside 1..{g.depth - 1}")
    zeta = {i: node.formula for i, node in enumerate(g.nodes[k - 1], start=1)}
    taus = [node.formula for node in g.nodes[k]]
    rewritten = tuple(GraphNode(substitute(t, zeta)) for t in taus)
    new_nodes = g.nodes[: k - 1] + (rewritten,) + g.nodes[k + 1 :]
    new_widths = g.widths[:k] + g.widths[k + 1 :]
    return SubstitutionGraph(new_widths, new_nodes), taus, zeta


def expand(g: SubstitutionGraph, k: int, factors, zeta: dict[int, Formula]) -> SubstitutionGraph:
    """Split level k (1 <= k <= L) into factor formulas over a new inserted level.

    Requires substitute(factors[i], zeta) to equal the stored formula of every
    node i at level k; the inserted level holds zeta's substitutors.
    """
    if not 1 <= k <= g.depth:
        raise ValueError(f"expand level {k} outside 1..{g.depth}")
    if len(factors) != g.widths[k]:
        raise ValueError(f"need {g.widths[k]} factors, got {len(factors)}")
    d = max(zeta) if zeta else 0
    if not zeta or set(zeta) != set(range(1, d + 1)):
        raise ValueError("substitution keys must be exactly 1..d")
    for i, tau in enumerate(factors, start=1):
        if substitute(tau, zeta) is not g.node(k, i).formula:
            raise ValueError(f"factor {i} does not reproduce the stored formula")
        if tau.max_var > d:
            raise ValueError(f"factor {i} uses x{tau.max_var} beyond the new width {d}")
    prev_width = g.widths[k - 1]
    for p in range(1, d + 1):
        if zeta[p].max_var > prev_width:
            raise ValueError(f"substitutor for x{p} uses variables beyond width {prev_width}")
    inserted = tuple(GraphNode(zeta[p]) for p in range(1, d + 1))
    refit = tuple(GraphNode(t) for t in factors)
    new_nodes = g.nodes[: k - 1] + (inserted, refit) + g.nodes[k:]
    new_widths = g.widths[:k] + (d,) + g.widths[k:]
    return SubstitutionGraph(new_widths, new_nodes)


def full_collapse(g: SubstitutionGraph) -> SubstitutionGraph:
    """Collapse to depth 1; the output node then holds the represented formula."""
    while g.depth > 1:
        g = collapse(g, 1)
    return g


def rho_value(f: Formula, env) -> Fraction:
    """The value of f's rho form where metavariable i takes env[i]: not x is
    1 - x, x*y is rho(x + y - 1) and x+y is 1 - rho(1 - x - y), rho = relu.

    The judge of ``rewrite.render_symmetry``'s glossary text: a Fraction fold
    of its own over the MV connectives, sharing no code with the text."""
    memo: dict[Formula, Fraction] = {}
    for node in fm.postorder(f):
        t = type(node)
        if t is fm.Var:
            r = F(env[node.index])
        elif t is fm.Const:
            r = F(node.value)
        elif t is fm.Not:
            r = 1 - memo[node.child]
        elif t is fm.Odot:
            r = max(memo[node.left] + memo[node.right] - 1, F(0))
        elif t is fm.Oplus:
            r = 1 - max(1 - memo[node.left] - memo[node.right], F(0))
        else:
            raise ValueError("the rho form is defined for the MV connectives only")
        memo[node] = r
    return memo[f]
