import gc
import json
import random
from fractions import Fraction as F

import pytest

from helpers import (
    POOL_ROUNDTRIP,
    clamped,
    corpus_network,
    fraction_box,
    layer,
    net,
    rational_network,
    reference_rho_to_sigma,
    reference_sigma_to_rho,
    same_row_pairs_network,
)
from luknet import bounds, construct, extract
from luknet import formula as fm
from luknet import network as nw
from luknet import rewrite as rw
from luknet.construct import NotNormal, graph_to_sigma, roundtrip, sigma_to_rho
from luknet.equiv import FiniteGrid
from luknet.extract import extract_graph, formula_for_certificate, rho_to_sigma
from luknet.graph import (
    GraphNode,
    MintermCertificate,
    SubstitutionGraph,
    graph_evaluator,
)
from luknet.network import (
    CLIP, Degenerate, Layer, Network, eval_network, network_from_dict, network_to_dict
)


def nprime():
    return net(
        1,
        layer([[-1]], [1], ["relu"]),
        layer([[-1]], [1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )


def dag_network():
    return net(
        2,
        layer([[1, 2], [-2, 0]], [-1, 1], ["relu", "relu"]),
        layer([[-1, 1], [1, -1]], [1, -1], ["relu", "relu"]),
        layer([[-1, -1]], [1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )


# ---------------------------------------------------------------------------
# Step I
# ---------------------------------------------------------------------------


def test_graph_to_sigma_inverts_extraction_step():
    for network in (nprime(), dag_network()):
        sigma = rho_to_sigma(network)
        g = extract_graph(network)
        assert graph_to_sigma(g) == sigma


def test_graph_to_sigma_requires_normal():
    g = SubstitutionGraph((1, 1), ((GraphNode(fm.var(1)),),))
    with pytest.raises(NotNormal):
        graph_to_sigma(g)


def test_graph_to_sigma_names_first_bad_node():
    good = _normal_node((1,), 0)
    forged = GraphNode(fm.oplus(fm.var(1), fm.var(1)), MintermCertificate((F(2),), F(0), "integer"))
    g = SubstitutionGraph(
        (1, 3, 1),
        ((good, forged, GraphNode(fm.var(1))), (_normal_node((1, 0, 0), 0),)),
    )
    with pytest.raises(NotNormal, match=r"certificate of node \(1,2\) does not reproduce"):
        graph_to_sigma(g)


def count_formula_runs(monkeypatch) -> list:
    """How many formulas each run of extract._formulas started from now on
    yields, one entry per run."""
    runs = []
    original = extract._formulas

    def counting(*args):
        k = len(runs)
        runs.append(0)
        for f in original(*args):
            runs[k] += 1
            yield f

    monkeypatch.setattr(extract, "_formulas", counting)
    return runs


def test_graph_to_sigma_reextracts_each_certificate_once(monkeypatch):
    # The normality check and the node readout share one re-extraction: one
    # pass of the extraction's generator, one formula per certificate.
    g = extract_graph(nprime())
    runs = count_formula_runs(monkeypatch)
    graph_to_sigma(g)
    assert runs == [sum(g.widths[1:])]


def test_graph_to_sigma_refuses_a_swapped_formula():
    # A node whose formula was swapped for its neighbour's is refused: its
    # certificate is re-extracted from its row and bias, not matched against
    # what extraction stored.
    g = extract_graph(dag_network())
    first, second = g.nodes[0][:2]
    assert first.formula is not second.formula
    level = (GraphNode(second.formula, first.certificate),) + g.nodes[0][1:]
    with pytest.raises(NotNormal, match=r"certificate of node \(1,1\) does not reproduce"):
        graph_to_sigma(SubstitutionGraph(g.widths, (level,) + g.nodes[1:]))


def _normal_node(m, b):
    cert = MintermCertificate(tuple(F(c) for c in m), F(b), "integer")
    return GraphNode(formula_for_certificate(cert), cert)


def test_graph_to_sigma_drops_const0_node():
    # Level 1 holds a live node and a constant-0 node; the output row reads
    # both, and the constant's column disappears from the network.
    g = SubstitutionGraph(
        (1, 2, 1),
        (
            (_normal_node((1,), 0), _normal_node((1,), -5)),
            (_normal_node((1, 1), 0),),
        ),
    )
    sigma = graph_to_sigma(g)
    assert [l.width for l in sigma.layers] == [1, 1]
    assert sigma.layers[1].weights[0] == (F(1),)
    assert sigma.layers[1].biases[0] == F(0)
    for x in FiniteGrid(6, 1).points():
        assert eval_network(sigma, x) == graph_evaluator(g)(x)


def test_graph_to_sigma_folds_const1_into_bias():
    g = SubstitutionGraph(
        (1, 2, 1),
        (
            (_normal_node((1,), 0), _normal_node((1,), 5)),
            (_normal_node((1, -1), 0),),
        ),
    )
    sigma = graph_to_sigma(g)
    assert [l.width for l in sigma.layers] == [1, 1]
    assert sigma.layers[1].weights[0] == (F(1),)
    assert sigma.layers[1].biases[0] == F(-1)
    for x in FiniteGrid(6, 1).points():
        assert eval_network(sigma, x) == graph_evaluator(g)(x)


def test_graph_to_sigma_matches_graph_semantics_on_random_corpus():
    rng = random.Random(61)
    done = 0
    while done < 12:
        network = corpus_network(rng)
        if network is None:
            continue
        g = extract_graph(network)
        sigma = graph_to_sigma(g)
        n = network.input_dim
        for x in FiniteGrid(4, n).points():
            assert eval_network(sigma, x) == graph_evaluator(g)(x)
        done += 1


# ---------------------------------------------------------------------------
# Step II
# ---------------------------------------------------------------------------


def test_sigma_to_rho_pointwise_identity():
    # clip(1/2) = rho(1/2) - rho(-1/2)
    t = F(1, 2)
    assert max(t, F(0)) - max(t - 1, F(0)) == t


def test_sigma_to_rho_splits_and_aggregates():
    # The worked conversion: two clip nodes with rows (1,2)/biases 0,-1 over
    # clip inputs; the twin of the first aggregates with the second.
    sigma = net(
        2,
        layer([[1, -1], [-1, 1]], [0, 0], ["clip", "clip"]),
        layer([[1, 2], [1, 2]], [0, -1], ["clip", "clip"]),
        layer([[1, -1]], [0], ["clip"]),
    )
    rho = sigma_to_rho(sigma)
    mid = rho.layers[1]
    assert mid.width == 3
    assert [str(b) for b in mid.biases] == ["0", "-1", "-2"]
    out_weights = rho.layers[2].weights[0]
    assert out_weights == (F(1), F(-2), F(1))
    assert rho.layers[2].activations == ("none",)  # range fits [0,1]
    for x in FiniteGrid(6, 2).points():
        assert eval_network(rho, x) == eval_network(sigma, x)


def test_sigma_to_rho_appends_difference_pair_when_range_escapes():
    sigma = net(1, layer([[2]], [-1], ["clip"]))  # pre-activation spans [-1,1]
    rho = sigma_to_rho(sigma)
    assert rho.depth == 2
    assert rho.layers[0].activations == ("relu", "relu")
    assert rho.layers[0].biases == (F(-1), F(-2))
    assert rho.layers[1].weights[0] == (F(1), F(-1))
    for x in FiniteGrid(8, 1).points():
        assert eval_network(rho, x) == eval_network(sigma, x)


def test_sigma_to_rho_preserves_function_after_rewrite():
    # A rewritten graph loses structural identity but never its semantics.
    network = dag_network()
    g = extract_graph(network)
    axioms = rw.catalog_by_id(rw.mv_catalog())
    rewritten = rw.apply_axiom_on_graph(
        g, 1, 1, axioms["Ax7"], "LR", ()
    )  # [v] -> not not [v]
    # Re-running the pipeline needs normality, which the rewrite destroyed.
    with pytest.raises(NotNormal):
        graph_to_sigma(rewritten)
    # The graph itself still evaluates like the original network.
    for x in FiniteGrid(4, 2).points():
        assert graph_evaluator(rewritten)(x) == eval_network(network, x)


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------


def test_roundtrip_paper_networks():
    for network in (nprime(), dag_network()):
        assert roundtrip(network) == network


def test_roundtrip_depth_one():
    # An integer affine map into [0,1] over the square: 1 - x2.
    shallow = net(2, layer([[0, -1]], [1], ["none"]))
    assert roundtrip(shallow) == shallow


def test_roundtrip_constant_attaining_zero_and_one():
    # The realized function attains both endpoints; the boundary convention
    # ell >= 0 keeps the round trip exact.
    assert roundtrip(nprime()) == nprime()


def test_roundtrip_random_sample():
    rng = random.Random(62)
    done = 0
    while done < 15:
        network = corpus_network(rng)
        if network is None:
            continue
        assert roundtrip(network) == network
        done += 1


def test_roundtrip_rejects_degenerate():
    # Non-degeneracy is the round trip's premise, checked before extraction.
    dead = net(1, layer([[1]], [-5], ["relu"]), layer([[1]], [0], ["none"]))
    with pytest.raises(Degenerate) as raised:
        roundtrip(dead)
    assert str(raised.value) == "hidden node (1,1) is never active (max -4 <= 0)"


def test_roundtrip_of_an_output_outside_the_unit_interval_is_its_clip():
    # The round trip's other premise: the output range lies in [0,1].  Past
    # it, extraction represents clip(N), and the round trip computes that.
    flavors = ("integer", "rational", "real")
    cases = [(1, 1, flavors), (2, 0, flavors), (-1, 0, flavors), (F(3, 2), 0, flavors[1:])]
    for weight, bias, admitted in cases:  # weight * relu(x) + bias
        network = net(1, layer([[1]], [0], ["relu"]), layer([[weight]], [bias], ["none"]))
        for flavor in admitted:
            back = roundtrip(network, flavor=flavor)
            assert back != network
            for x in FiniteGrid(12, 1).points():
                assert eval_network(back, x) == min(max(eval_network(network, x), 0), 1)
    # relu(2x - 1) + relu(1 - 2x) attains 0 and 1 and stays inside.
    onto = net(1, layer([[2], [-2]], [-1, 1], ["relu", "relu"]), layer([[1, 1]], [0], ["none"]))
    for flavor in flavors:
        assert roundtrip(onto, flavor=flavor) == onto


def half_network():
    return net(
        1,
        layer([[F(3, 2)]], [F(-1, 2)], ["relu"]),
        layer([[F(1, 2)]], [F(1, 4)], ["none"]),
    )


def test_no_memo_outlives_its_pass():
    # Peeling memos hold formulas; once a pass returns and its result is
    # dropped, reference counting alone must free them, with no collection.
    rng = random.Random(3)  # a 3-input network with hidden widths 3 and 2
    network = None
    while network is None:
        network = corpus_network(rng)
    cases = [(network, "integer"), (half_network(), "rational"), (half_network(), "real")]
    gc.collect()
    gc.disable()
    try:
        for network, flavor in cases:
            before = len(fm._interned)
            back = roundtrip(network, flavor=flavor)
            assert back == network
            del back
            assert len(fm._interned) == before
            g = extract_graph(network, flavor=flavor)
            del g
            assert len(fm._interned) == before
    finally:
        gc.enable()


def test_roundtrip_builds_no_formula(monkeypatch):
    # The round trip reads rho_to_sigma's rows as certificates: it enters
    # neither the extraction pass nor its peel, and, with no collection to
    # hide a short-lived node, the intern table holds as many entries after
    # a round trip as before it.
    def refused(*args):
        raise AssertionError("the round trip peeled a row")

    monkeypatch.setattr(extract, "_formulas", refused)
    monkeypatch.setattr(extract, "_peel", refused)
    cases = [(dag_network(), flavor) for flavor in ("integer", "rational", "real")]
    cases += [(half_network(), "rational"), (half_network(), "real")]
    gc.collect()
    gc.disable()
    try:
        for network, flavor in cases:
            before = len(fm._interned)
            assert roundtrip(network, flavor=flavor) == network
            assert len(fm._interned) == before
    finally:
        gc.enable()


def test_roundtrip_does_no_fraction_arithmetic(monkeypatch):
    # The round trip reads each input layer once into ints, runs every step
    # on them and writes its result with Fraction(n, d) alone: with Fraction
    # arithmetic, comparison and hashing refused, it still runs, and each
    # result equals its input once they are allowed again.
    reads = []
    for module in (bounds, construct, extract, nw):
        read = module.scaled_layer
        monkeypatch.setattr(module, "scaled_layer", lambda lay, read=read: reads.append(lay) or read(lay))

    def refused(*args):
        raise AssertionError("the round trip did Fraction arithmetic")

    cases = [(dag_network(), flavor) for flavor in ("integer", "rational", "real")]
    cases += [(half_network(), "rational"), (half_network(), "real")]
    with monkeypatch.context() as patch:
        for name in ("__add__", "__sub__", "__mul__", "__eq__", "__lt__", "__le__", "__hash__"):
            patch.setattr(F, name, refused)
        results = [roundtrip(n, flavor=flavor) for n, flavor in cases]
    assert [back == n for back, (n, _) in zip(results, cases)] == [True] * len(cases)
    assert len(reads) == sum(n.depth for n, _ in cases)


def _constant_rule_rows(rng, flavor):
    """Seeded rows (m, b) for the reader's constant test: integer and
    half-integer rows, boxes that end exactly at 0 or 1, zero rows with a
    bias in (0,1), and constant rows with a non-integer entry."""
    d = rng.randint(1, 3)
    q = 1 if flavor == "integer" else rng.choice((1, 2, 2, 3))
    m = [F(rng.randint(-6, 6), q) for _ in range(d)]
    if rng.random() < 0.15:
        m = [F(0)] * d
    lo = sum(w for w in m if w < 0)
    hi = sum(w for w in m if w > 0)
    # The bias that puts the box's hi at 0 or 1, or its lo at 0 or 1, or
    # just past one of those, or a random one.
    b = rng.choice((-hi, 1 - hi, -lo, 1 - lo, -hi - F(1, q), 1 - lo + F(1, q),
                    F(rng.randint(-3 * q, 3 * q), q)))
    if flavor == "integer":
        b = F(round(b))
    elif not any(m) and rng.random() < 0.5:
        b = F(rng.randint(1, 5), 6)  # scale(b, 1) in the real flavour
    return tuple(m), b


def test_reader_folds_exactly_the_constant_formulas():
    # The reader folds a certificate into a constant exactly when its peeled
    # formula is the constant object: between a live node x1 and an output
    # x1 over the level, a folded 1 moves into the output's bias, a folded 0
    # disappears, and a kept row is read as it is.  The graph is normal, so
    # graph_to_sigma hands its certificates to the reader as they are.
    rng = random.Random(37)
    seen = {"zero": 0, "one": 0, "kept": 0, "chain": 0, "edge": 0, "inside": 0}
    for flavor in ("integer", "rational", "real") * 400:
        m, b = _constant_rule_rows(rng, flavor)
        d = len(m)
        cert = MintermCertificate(m, b, flavor)
        live = MintermCertificate((F(1),) + (F(0),) * (d - 1), F(0), flavor)
        out = MintermCertificate((F(1), F(0)), F(0), flavor)
        nodes = [GraphNode(formula_for_certificate(c), c) for c in (cert, live, out)]
        sigma = graph_to_sigma(SubstitutionGraph((d, 2, 1), (tuple(nodes[:2]), (nodes[2],))))
        formula = nodes[0].formula
        lo, hi = fraction_box(m, b)
        if formula is fm.ONE or formula is fm.ZERO:
            seen["one" if formula is fm.ONE else "zero"] += 1
            assert sigma.layers[0].weights == (live.m,)
            assert sigma.layers[1] == layer([[0]], [formula.value], ["clip"])
        else:
            seen["kept"] += 1
            seen["chain"] += lo >= 1 or hi <= 0
            seen["inside"] += not any(m) and 0 < b < 1
            assert sigma.layers[0].weights == (m, live.m)
            assert sigma.layers[0].biases == (b, F(0))
            assert sigma.layers[1] == layer([[1, 0]], [0], ["clip"])
        seen["edge"] += lo in (0, 1) or hi in (0, 1)
    assert min(seen.values()) >= 30, seen


def test_roundtrip_is_the_papers_loop():
    # Extraction, construction's step I and step II in turn give what the
    # round trip gives without peeling, on seeded corpus networks and on
    # outputs past [0,1].  relu(x)/2 + 1 has the constant 1 as its clip; the
    # rational flavour peels that row to a delta chain, so its output node
    # stays and gains a differencing pair (depth 3), and the real flavour
    # folds it (depth 2).
    flavors = ("integer", "rational", "real")
    rng = random.Random(41)
    cases = []
    while len(cases) < 12:
        network = corpus_network(rng)
        if network is not None:
            cases += [(network, flavor) for flavor in flavors]
    for weight, bias in ((1, 1), (2, 0), (-1, 0), (F(3, 2), 0), (F(1, 2), 1)):
        network = net(1, layer([[1]], [0], ["relu"]), layer([[weight]], [bias], ["none"]))
        admitted = flavors if F(weight).denominator == 1 else flavors[1:]
        cases += [(network, flavor) for flavor in admitted]
    for network, flavor in cases:
        loop = sigma_to_rho(graph_to_sigma(extract_graph(network, flavor=flavor)))
        assert roundtrip(network, flavor=flavor) == loop
    half_plus_one = net(1, layer([[1]], [0], ["relu"]), layer([[F(1, 2)]], [1], ["none"]))
    assert roundtrip(half_plus_one, flavor="rational").depth == 3
    assert roundtrip(half_plus_one, flavor="real").depth == 2


def test_roundtrip_rational_network():
    network = half_network()
    assert roundtrip(network, flavor="rational") == network
    assert roundtrip(network, flavor="real") == network


def test_roundtrip_keeps_node_order():
    # A relu node of L > 1 becomes clip copies with biases b, b-1, ...; a
    # later node on the same row with bias b-1 merges with the first one's
    # twin, yet must come back in its own slot, and a node whose outgoing
    # column is all zero must come back at all: in the pool's one former
    # mismatch, in the corpus's three former dead-node mismatches, in seeded
    # layers of same-row pairs (with output weights that may be 0, too), and
    # on a half-integer row, whose copies are one unit s = 2 of the scaled row
    # apart.
    pool = json.loads(POOL_ROUNDTRIP.read_text())
    cases = [network_from_dict(pool["about"]["mismatch"][0])]
    cases += [corpus_network(random.Random(seed)) for seed in (7644, 7709, 8107)]
    for network in cases:
        assert roundtrip(network) == network
    for weights in ((-3, -2, -1, 1, 2, 3), (-3, -2, -1, 0, 0, 1, 2, 3)):
        rng = random.Random(24)
        drawn = 0
        for _ in range(200):
            network = same_row_pairs_network(rng, weights)
            if network is not None:
                drawn += 1
                assert roundtrip(network) == network
        assert drawn >= 150
    half = clamped(
        layer([[F(5, 2)], [F(-3, 2)], [F(5, 2)]], [F(-1, 2), 1, F(-3, 2)], ["relu"] * 3),
        (F(1), F(1), F(-2)),
    )
    for flavor in ("rational", "real"):
        assert roundtrip(half, flavor=flavor) == half


def test_roundtrip_frozen_pool():
    # A fixed sample of the benchmark's round-trip pool comes back field for
    # field: the first 40 fast and 2 slow integer networks, and 10
    # half-integer ones in the rational and the real flavour.
    pool = json.loads(POOL_ROUNDTRIP.read_text())
    fast = [e for e in pool["integer"] if e["class"] == "fast"][:40]
    slow = [e for e in pool["integer"] if e["class"] == "slow"][:2]
    cases = [(e, "integer") for e in fast + slow]
    cases += [(e, flavor) for e in pool["half"][:10] for flavor in ("rational", "real")]
    for e, flavor in cases:
        back = roundtrip(network_from_dict(e["net"]), flavor=flavor)
        assert network_to_dict(back) == e["net"], (e["sigma"], flavor)


def _with_copies(rng, network):
    """The network with copies of random hidden nodes: the same row, the bias
    moved by -1, 0 or 1, the outgoing column equal, negated or fresh."""
    layers = list(network.layers)
    for j in range(len(layers) - 1):
        lay, nxt = layers[j], layers[j + 1]
        rows, biases = list(lay.weights), list(lay.biases)
        cols = [list(col) for col in zip(*nxt.weights)]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(rows))
            rows.append(rows[i])
            biases.append(biases[i] + rng.choice((-1, 0, 1)))
            col = cols[i]
            cols.append(rng.choice((col, [-w for w in col], [F(rng.randint(-2, 2)) for _ in col])))
        layers[j] = Layer(tuple(rows), tuple(biases), (CLIP,) * len(rows))
        layers[j + 1] = Layer(tuple(zip(*cols)), nxt.biases, nxt.activations)
    return Network(network.input_dim, tuple(layers))


def test_conversions_match_the_fraction_reference():
    # rho_to_sigma and sigma_to_rho on ints build the networks the Fraction
    # conversions build, on half- and third-integer relu and clip networks,
    # on the sigma networks of the relu ones, and on clip networks with
    # copies of their nodes.  The counts show the cases reach every branch:
    # rows with L > 1, twins that merge, merges that cancel.
    rng = random.Random(14)
    seen = {"split": 0, "merge": 0, "cancel": 0}
    for _ in range(60):
        hidden = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        relu = rational_network(rng, rng.randint(1, 2), hidden, "relu")
        sigma = extract.rho_to_sigma(relu)
        assert sigma == reference_rho_to_sigma(relu)
        clip = rational_network(rng, rng.randint(1, 2), hidden, "clip")
        for network in (sigma, clip, _with_copies(rng, clip)):
            back = sigma_to_rho(network)
            assert back == reference_sigma_to_rho(network)
            for lay, out in zip(network.layers[:-1], back.layers):
                keys = list(zip(lay.weights, lay.biases))
                twins = [(row, b - 1) for row, b in keys if fraction_box(row, b)[1] > 1]
                seen["split"] += bool(twins)
                seen["merge"] += len(set(keys + twins)) < len(keys + twins)
                seen["cancel"] += out.width < len(set(keys + twins))
    assert min(seen.values()) >= 10, seen
    # Both nodes of the layer share a local map: they merge and their columns
    # cancel, but the merged node claims a slot, so it stays, inert.
    inert = net(1, layer([[1], [1]], [0, 0], ["clip", "clip"]), layer([[1, -1]], [0], ["clip"]))
    back = sigma_to_rho(inert)
    assert back == reference_sigma_to_rho(inert)
    assert back.layers[1].weights == ((0,),)
