"""Formula-to-network construction and the round-trip entry point.

Step I copies the layered shape of a normal substitution graph and reads each
node's affine row off its certificate (constant nodes are folded away).
Step II converts the clip network back to a relu network, inverting the
extraction's node splitting by telescoping pairs and aggregation.  The round
trip peels nothing: it reads ``rho_to_sigma``'s rows as certificates, scales
each input layer once and builds Fractions only for its result.
"""
from __future__ import annotations

from . import formula as fm
from .bounds import extrema
from .extract import check_flavor, sigma_layers
from .graph import FLAVOR_RATIONAL, SubstitutionGraph, certificate_rows, normality_violation
from .network import (
    CLIP, NONE, RELU, Degenerate, IntLayer, Network, NodeRef, box, degeneracy, scaled_layer, unscaled_network
)


class NotNormal(Exception):
    """Construction requires a normal substitution graph."""


def graph_to_sigma(g: SubstitutionGraph) -> Network:
    """Construction step I: a clip network realizing the represented formula.

    Constant-0 nodes disappear with their edges; constant-1 nodes disappear
    with their outgoing weight folded into each successor's bias.  The
    normality check re-extracts the certificates in one pass; nodes are then
    read off their rows (``graph.certificate_rows``) without a second extraction.
    """
    violation = normality_violation(g)
    if violation is not None:
        raise NotNormal(violation)
    levels = [certificate_rows([node.certificate for node in level]) for level in g.nodes]
    return unscaled_network(g.widths[0], _read_sigma(levels))


def _read_sigma(levels: list[list[tuple]]) -> list[IntLayer]:
    """The integer clip layers of normal certificates, given level by level as
    certificate rows (s, s.m, s.b, flavor) over their level's s.

    A row is the constant 1 when its box over the cube has lo >= 1 and 0 when
    hi <= 0, the test at the root of extraction's peel, unless it is a
    rational row with a non-integer entry (a delta chain, never a constant).
    A level keeps its s, so a folded constant 1 adds its weight's int to the
    bias.
    """
    layers: list[IntLayer] = []
    # Per previous-level position: "kept" column index or a constant formula.
    prev_map: list[int | fm.Const] = list(range(len(levels[0][0][1])))
    prev_kept = len(prev_map)
    for level in levels:
        rows: list[tuple[int, ...]] = []
        biases: list[int] = []
        cur_map: list[int | fm.Const] = []
        for s, row_s, b_s, flavor in level:
            lo, hi = box(row_s, b_s, [(0, 1)] * len(row_s))
            chain = flavor == FLAVOR_RATIONAL and any(v % s for v in (b_s, *row_s))
            if (lo >= s or hi <= 0) and not chain:
                cur_map.append(fm.ONE if lo >= s else fm.ZERO)  # dropped from the network
                continue
            row = [0] * prev_kept
            for src, coeff in zip(prev_map, row_s):
                if src is fm.ONE:
                    b_s += coeff
                elif src is not fm.ZERO:
                    row[src] = coeff
            rows.append(tuple(row))
            biases.append(b_s)
            cur_map.append(len(rows) - 1)
        if not rows:
            # Whole level folded to constants (a constant output node among
            # them): fall back to constant carriers so the layered shape stays
            # well-formed.
            for pos, const in enumerate(cur_map):
                rows.append((0,) * prev_kept)
                biases.append(s if const is fm.ONE else 0)
                cur_map[pos] = pos
        layers.append((s, tuple(rows), tuple(biases), (CLIP,) * len(rows)))
        prev_map = cur_map
        prev_kept = len(rows)
    return layers


def sigma_to_rho(net: Network, node_budget: int | None = None) -> Network:
    """Construction step II: :func:`rho_layers` on a clip network's layers, each scaled once."""
    return unscaled_network(net.input_dim, rho_layers(list(map(scaled_layer, net.layers)), node_budget))


def rho_layers(layers: list[IntLayer], node_budget: int | None = None) -> list[IntLayer]:
    """The integer layers of the relu network of a clip network's, removing
    exactly what ``rho_to_sigma`` added.

    Hidden layers are processed from the deepest to the first, each in one
    pass over its nodes.  A node whose input interval has upper bound L <= 1
    swaps its activation; otherwise it becomes a relu pair (bias b and b-1,
    the twin's outgoing weights negated).  Relu nodes with one local map merge
    by summing outgoing weights.  One claim flag decides each node's slot and
    whether it survives.  A node claims unless it is a clip copy from
    ``rho_to_sigma``: its key is the twin key (row, b-1) of the node before
    it, whose L > 1.  A twin never claims.  A merged node sits where its
    first claiming member sits, or its first member if none claims, and is
    kept when some member claims or its outgoing weights do not all cancel,
    so a node with an all-zero outgoing column stays.  The output activation
    is dropped when the exact range lies inside [0,1]; otherwise a
    differencing relu pair is appended.

    Each layer keeps its s: the box bounds, the merge keys (integer row,
    integer bias) and the column sums run on its ints, and the output range
    is the int ratios of ``bounds.extrema`` against 0 and 1.
    """
    layers = list(layers)
    for j in range(len(layers) - 2, -1, -1):
        s, rows, biases, _ = layers[j]
        nxt_s, nxt_rows, nxt_biases, nxt_acts = layers[j + 1]
        # (row, bias) -> (outgoing column, claimed flag), in slot order.
        relus: dict[tuple, tuple] = {}
        twin = None  # the twin key of the node before, if it was split
        for row, b, col in zip(rows, biases, zip(*nxt_rows)):
            _add_relu(relus, (row, b), col, (row, b) != twin)
            twin = (row, b - s) if box(row, b, [(0, 1)] * len(row))[1] > s else None
            if twin:
                _add_relu(relus, twin, [-w for w in col], False)
        kept = [(row, b, col) for (row, b), (col, claimed) in relus.items() if claimed or any(col)]
        kept_rows, kept_biases, cols = zip(*kept)
        layers[j] = (s, kept_rows, kept_biases, (RELU,) * len(kept))
        layers[j + 1] = (nxt_s, tuple(zip(*cols)), nxt_biases, nxt_acts)

    s, (row,), (b,), _ = layers[-1]
    (lo, _), (hi, hi_den) = extrema(layers, NodeRef(len(layers), 1), node_budget)
    if lo >= 0 and hi <= hi_den:
        layers[-1] = (s, (row,), (b,), (NONE,))
    else:  # sigma(t) = rho(t) - rho(t-1) through a differencing node
        layers[-1:] = [(s, (row, row), (b, b - s), (RELU, RELU)), (1, ((1, -1),), (0,), (NONE,))]
    return layers


def _add_relu(relus: dict, key: tuple, col, claims: bool) -> None:
    """File a relu node's outgoing column under its local map; a repeat adds
    its column to the entry, and an entry's first claimer moves it to its slot."""
    if key in relus:
        first, claimed = relus[key]
        col = [a + c for a, c in zip(first, col)]
        if claims and not claimed:
            del relus[key]  # re-filed below, at this node's slot
        claims = claims or claimed
    relus[key] = (col, claims)


def roundtrip(net: Network, flavor: str = "integer", node_budget: int | None = None) -> Network:
    """rho_to_sigma -> construct; on every non-degenerate network measured
    whose output range lies in [0,1], the identity, node order included,
    hidden nodes with an all-zero outgoing column too.

    Its premises are the theorem's.  A degenerate network raises Degenerate,
    after bad input is rejected and before anything is converted.  An output
    range past [0,1] raises nothing: the clip network computes clip(N), so
    the result does too, and ``luknet roundtrip`` reports a mismatch.
    Nothing is peeled and no formula is built: each clip row is read as the
    certificate ``extract_graph`` would attach to it, which is normal by
    construction, so the result is that of ``graph_to_sigma`` on the
    extracted graph followed by ``sigma_to_rho``.  Each layer is scaled once,
    every step runs on the integer layers, and Fractions are written only
    for the result, whose layers equal to the input's are the input's own.
    """
    layers = list(map(scaled_layer, net.layers))
    check_flavor(layers, flavor)
    ok, why = degeneracy(layers, node_budget=node_budget)
    if not ok:
        raise Degenerate(why)
    sigma = sigma_layers(layers)
    certs = [[(s, row, b, flavor) for row, b in zip(rows, biases)] for s, rows, biases, _ in sigma]
    back = rho_layers(_read_sigma(certs), node_budget=node_budget)
    return unscaled_network(net.input_dim, back, zip(layers, net.layers))
