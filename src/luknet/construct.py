"""Formula-to-network construction and the round-trip entry point.

Step I copies the layered shape of a normal substitution graph and reads each
node's affine row off its certificate (constant nodes are folded away).
Step II converts the clip network back to a relu network, inverting the
extraction's node splitting by telescoping pairs and aggregation.  The round
trip peels nothing: it reads ``rho_to_sigma``'s rows as certificates.
"""
from __future__ import annotations

from fractions import Fraction

from . import formula as fm
from .bounds import exact_extrema
from .extract import check_flavor, rho_to_sigma
from .graph import FLAVOR_RATIONAL, MintermCertificate, SubstitutionGraph, normality_violation
from .network import CLIP, NONE, RELU, Degenerate, Layer, Network, box, is_non_degenerate, scaled_layer

_F0 = Fraction(0)
_F1 = Fraction(1)


class NotNormal(Exception):
    """Construction requires a normal substitution graph."""


def graph_to_sigma(g: SubstitutionGraph) -> Network:
    """Construction step I: a clip network realizing the represented formula.

    Constant-0 nodes disappear with their edges; constant-1 nodes disappear
    with their outgoing weight folded into each successor's bias.  The
    normality check re-extracts the certificates in one pass; nodes are then
    read off their certificates without a second extraction.
    """
    violation = normality_violation(g)
    if violation is not None:
        raise NotNormal(violation)
    return _read_sigma(g.widths[0], [[node.certificate for node in level] for level in g.nodes])


def _read_sigma(input_dim: int, levels) -> Network:
    """The clip network of normal certificates, one list per level.

    A row is the constant 1 when its box over the cube has lo >= 1 and 0 when
    hi <= 0, the test at the root of extraction's peel, unless it is a
    rational row with a non-integer entry (a delta chain, never a constant).
    The boxes run on each level scaled once to ints (``scaled_layer``).
    """
    layers: list[Layer] = []
    # Per previous-level position: "kept" column index or a constant formula.
    prev_map: list[int | fm.Const] = list(range(input_dim))
    prev_kept = input_dim
    for certs in levels:
        s, rows_s, biases_s = scaled_layer(Layer([c.m for c in certs], [c.b for c in certs], ()))
        rows: list[tuple[Fraction, ...]] = []
        biases: list[Fraction] = []
        cur_map: list[int | fm.Const] = []
        for cert, row_s, b_s in zip(certs, rows_s, biases_s):
            lo, hi = box(row_s, b_s, [(0, 1)] * len(row_s))
            chain = cert.flavor == FLAVOR_RATIONAL and any(v % s for v in (b_s, *row_s))
            if (lo >= s or hi <= 0) and not chain:
                cur_map.append(fm.ONE if lo >= s else fm.ZERO)  # dropped from the network
                continue
            row = [_F0] * prev_kept
            bias = cert.b
            for src, coeff in zip(prev_map, cert.m):
                if src is fm.ONE:
                    bias += coeff
                elif src is not fm.ZERO:
                    row[src] = coeff
            rows.append(tuple(row))
            biases.append(bias)
            cur_map.append(len(rows) - 1)
        if not rows:
            # Whole level folded to constants (a constant output node among
            # them): fall back to constant carriers so the layered shape stays
            # well-formed.
            for pos, const in enumerate(cur_map):
                rows.append((_F0,) * prev_kept)
                biases.append(Fraction(const.value))
                cur_map[pos] = pos
        layers.append(Layer(tuple(rows), tuple(biases), (CLIP,) * len(rows)))
        prev_map = cur_map
        prev_kept = len(rows)
    return Network(input_dim, tuple(layers))


def sigma_to_rho(net: Network, node_budget: int | None = None) -> Network:
    """Construction step II: convert a clip network into a relu network,
    removing exactly what ``rho_to_sigma`` added.

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

    Each layer is scaled once to ints (``scaled_layer``): the box bounds, the
    merge keys and the column arithmetic run on them, and only the columns
    written back become Fractions again.
    """
    layers = list(net.layers)
    # The layer after the one being converted, scaled: its s and integer rows.
    nxt_s, nxt_rows, _ = scaled_layer(layers[-1])
    for j in range(len(layers) - 2, -1, -1):
        layer = layers[j]
        nxt = layers[j + 1]
        s, rows, biases = scaled_layer(layer)
        # (scaled row, scaled bias) -> (row, bias, outgoing column over nxt_s,
        # claimed flag), in slot order.
        relus: dict[tuple, tuple] = {}
        twin = None  # the twin key of the node before, if it was split
        for row, b, row_s, b_s, col in zip(layer.weights, layer.biases, rows, biases, zip(*nxt_rows)):
            _add_relu(relus, (row_s, b_s), row, b, col, (row_s, b_s) != twin)
            twin = (row_s, b_s - s) if box(row_s, b_s, [(0, 1)] * len(row_s))[1] > s else None
            if twin:
                _add_relu(relus, twin, row, b - 1, [-w for w in col], False)
        kept = [(row_s, row, b, col) for (row_s, _), (row, b, col, claimed) in relus.items()
                if claimed or any(col)]
        kept_s, kept_rows, kept_biases, cols = zip(*kept)
        layers[j] = Layer(kept_rows, kept_biases, (RELU,) * len(kept))
        as_q = {w: Fraction(w, nxt_s) for w in {w for col in cols for w in col}}
        out_rows = tuple(tuple(as_q[w] for w in out_row) for out_row in zip(*cols))
        layers[j + 1] = Layer(out_rows, nxt.biases, nxt.activations)
        nxt_s, nxt_rows = s, kept_s

    candidate = Network(net.input_dim, tuple(layers))
    out = candidate.layers[-1]
    rng = exact_extrema(candidate, "output", node_budget=node_budget)
    if rng.lo >= 0 and rng.hi <= 1:
        layers[-1] = Layer(out.weights, out.biases, (NONE,))
        return Network(net.input_dim, tuple(layers))
    # General case: sigma(t) = rho(t) - rho(t-1) through a differencing node.
    pair = Layer(
        (out.weights[0], out.weights[0]),
        (out.biases[0], out.biases[0] - 1),
        (RELU, RELU),
    )
    differ = Layer(((_F1, -_F1),), (_F0,), (NONE,))
    layers[-1] = pair
    layers.append(differ)
    return Network(net.input_dim, tuple(layers))


def _add_relu(relus: dict, key: tuple, row, bias, col, claims: bool) -> None:
    """File a relu node under its scaled local map; a repeat adds its column to
    the entry, and an entry's first claimer moves it to its slot."""
    if key in relus:
        row, bias, first, claimed = relus[key]
        col = [a + c for a, c in zip(first, col)]
        if claims and not claimed:
            del relus[key]  # re-filed below, at this node's slot
        claims = claims or claimed
    relus[key] = (row, bias, col, claims)


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
    extracted graph followed by ``sigma_to_rho``.
    """
    check_flavor(net, flavor)
    ok, why = is_non_degenerate(net, node_budget=node_budget)
    if not ok:
        raise Degenerate(why)
    levels = [[MintermCertificate(m, b, flavor) for m, b in zip(layer.weights, layer.biases)]
              for layer in rho_to_sigma(net).layers]
    return sigma_to_rho(_read_sigma(net.input_dim, levels), node_budget=node_budget)
