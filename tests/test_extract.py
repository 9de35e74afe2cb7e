import itertools
import json
import random
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest

from helpers import (
    POOL_ROUNDTRIP, brute_non_degenerate, evaluate, extr, extr_rational, extr_real, layer, net,
    random_network, rational_network, reference_evaluate, reference_extr_real,
)
from luknet import bounds, extract
from luknet import formula as fm
from luknet.construct import graph_to_sigma, sigma_to_rho
from luknet.equiv import FiniteGrid
from luknet.extract import extract_graph, formula_for_certificate, rho_to_sigma
from luknet.formula import to_text
from luknet.graph import (
    FLAVORS, MintermCertificate, certificate_rows, graph_evaluator, normality_violation, represented_formula
)
from luknet.network import apply_activation, eval_network, network_from_dict, network_from_json


# ---------------------------------------------------------------------------
# Step I
# ---------------------------------------------------------------------------


def dag_network():
    return net(
        2,
        layer([[1, 2], [-2, 0]], [-1, 1], ["relu", "relu"]),
        layer([[-1, 1], [1, -1]], [1, -1], ["relu", "relu"]),
        layer([[-1, -1]], [1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )


def test_sigma_replacement_pointwise_identity():
    t = F(3, 2)
    assert apply_activation("relu", t) == apply_activation("clip", t) + apply_activation(
        "clip", t - 1
    )


def test_rho_to_sigma_splits_wide_nodes():
    sigma = rho_to_sigma(dag_network())
    # v_1^(1) has interval [-1,2]: split into two clip nodes, twin bias -2,
    # inserted right after; v_2^(1) has interval [-1,1]: tag swap only.
    assert [l.width for l in sigma.layers] == [3, 3, 1, 1]
    l1 = sigma.layers[0]
    assert l1.weights[0] == l1.weights[1] == (F(1), F(2))
    assert (l1.biases[0], l1.biases[1]) == (F(-1), F(-2))
    assert l1.weights[2] == (F(-2), F(0)) and l1.biases[2] == F(1)
    assert set(l1.activations) == {"clip"}
    # outgoing weights of the twin copy those of the original
    l2 = sigma.layers[1]
    for row in l2.weights:
        assert row[0] == row[1]
    assert sigma.layers[-1].activations == ("clip",)


def test_rho_to_sigma_preserves_function_on_grid():
    # Hidden-layer conversion is exact; the added output clip only matters
    # when the realized value leaves [0,1], hence the clamped comparison.
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 2)
        network = random_network(rng, n, [rng.randint(1, 3)])
        sigma = rho_to_sigma(network)
        for x in FiniteGrid(12, n).points():
            v = eval_network(network, x)
            assert eval_network(sigma, x) == min(max(v, F(0)), F(1))


def clipped(network, x):
    return min(max(eval_network(network, x), F(0)), F(1))


def flavors_of(network):
    """The flavours that apply: the integer one only to integer weights."""
    layers = network.layers
    integer = all(q.denominator == 1 for lay in layers for row in (*lay.weights, lay.biases) for q in row)
    return ("integer", "rational", "real") if integer else ("rational", "real")


def test_hidden_clip_nodes_are_not_split():
    # A hidden clip node keeps one copy: splitting it as if it were relu
    # turns clip(2x) - 1/2 into relu(2x) - 1/2, which is 1, not 1/2, at 3/4.
    network = net(1, layer([[2]], [0], ["clip"]), layer([[1]], [F(-1, 2)], ["none"]))
    assert [lay.width for lay in rho_to_sigma(network).layers] == [1, 1]
    for flavor in ("rational", "real"):
        assert graph_evaluator(extract_graph(network, flavor=flavor))([F(3, 4)]) == F(1, 2)
    # Random clip and mixed relu/clip networks, integer and half/third-integer.
    rng = random.Random(18)
    for _ in range(20):
        n, hidden = rng.randint(1, 2), [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        for network in (random_network(rng, n, hidden, activation="clip"),
                        rational_network(rng, n, hidden, "mixed")):
            points = list(FiniteGrid(4, n).points())
            for flavor in flavors_of(network):
                at = graph_evaluator(extract_graph(network, flavor=flavor))
                assert [at(x) for x in points] == [clipped(network, x) for x in points], flavor


def test_graph_evaluator_agrees_with_the_fraction_reference_level_by_level():
    # Extracted graphs in every flavour: integer and half/third-integer
    # networks, relu, clip and mixed, at grid points and rational points.
    rng = random.Random(27)
    for _ in range(6):
        n, hidden = rng.randint(1, 3), [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        points = list(FiniteGrid(2, n).points())
        points += [tuple(F(rng.randint(0, q), q) for q in (rng.randint(1, 10_000) for _ in range(n))) for _ in range(4)]
        for network in (random_network(rng, n, hidden), random_network(rng, n, hidden, activation="clip"),
                        rational_network(rng, n, hidden, "mixed")):
            for flavor in flavors_of(network):
                g = extract_graph(network, flavor=flavor)
                at = graph_evaluator(g)
                for x in points:
                    values = list(x)
                    for level in g.nodes:
                        values = reference_evaluate([node.formula for node in level], values)
                    assert at(x) == values[0], (flavor, x)


# ---------------------------------------------------------------------------
# Step II: EXTR
# ---------------------------------------------------------------------------


def test_extr_worked_example():
    f = extr((1, -1, 1), -1)
    assert to_text(f) == "(odot (oplus 0 x1) (not (odot (oplus (not x3) x2) 1)))"


def test_extr_constant_cases():
    assert extr((0, -1, 1), -1) is fm.ZERO
    assert extr((1, 1), 2) is fm.ONE


def test_extr_single_variable_row():
    assert extr((1,), 0) is fm.var(1)
    assert extr((0, 0, 1), 0) is fm.var(3)
    assert extr((-1,), 1) is fm.lnot(fm.var(1))


def test_extr_repeated_coefficient():
    # (2),0 does not extract to x1+x1; that is what makes the normality test
    # of a forged certificate fail.
    f = extr((2,), 0)
    assert f is fm.odot(fm.oplus(fm.var(1), fm.var(1)), fm.ONE)
    assert f is not fm.oplus(fm.var(1), fm.var(1))


def _np_truth_table(f, k, n):
    shape = [k + 1] * n
    grids = np.meshgrid(*[np.arange(k + 1, dtype=np.int64) for _ in range(n)], indexing="ij")
    memo = {}

    def go(node):
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, fm.Var):
            r = grids[node.index - 1]
        elif isinstance(node, fm.Const):
            r = np.full(shape, k * node.value, dtype=np.int64)
        elif isinstance(node, fm.Not):
            r = k - go(node.child)
        elif isinstance(node, fm.Oplus):
            r = np.minimum(k, go(node.left) + go(node.right))
        elif isinstance(node, fm.Odot):
            r = np.maximum(0, go(node.left) + go(node.right) - k)
        else:
            raise TypeError(node)
        memo[node] = r
        return r

    return go(f)


def test_extr_truth_function_exhaustive():
    # clip(m.x+b) == truth function of extr(m,b) on all of I_12^n for every
    # |m_i| <= 3, |b| <= 3, n <= 3.  Integer-scaled arithmetic keeps this exact.
    k = 12
    for n in (1, 2, 3):
        grids = np.meshgrid(
            *[np.arange(k + 1, dtype=np.int64) for _ in range(n)], indexing="ij"
        )
        for m in itertools.product(range(-3, 4), repeat=n):
            for b in range(-3, 4):
                lin = sum(c * g for c, g in zip(m, grids)) + k * b
                expected = np.clip(lin, 0, k)
                got = _np_truth_table(extr(m, b), k, n)
                assert np.array_equal(got, expected), (m, b)


def test_extr_agrees_with_fraction_evaluator():
    # The scaled-integer table and the rational evaluator are the same function.
    f = extr((2, -1), -1)
    table = _np_truth_table(f, 12, 2).ravel().tolist()
    pts = list(FiniteGrid(12, 2).points())
    for idx in (0, 7, 60, 168):
        assert evaluate(f, pts[idx]) == F(table[idx], 12)


# ---------------------------------------------------------------------------
# Rational and scalar flavors
# ---------------------------------------------------------------------------


def test_extr_rational_worked_example():
    f = extr_rational((F(1, 2), F(1, 2)), F(-1, 2))
    expected = fm.oplus(fm.delta(2, extr((1, 1), -1)), fm.delta(2, fm.ZERO))
    assert f is expected


def test_extr_rational_integer_input_is_extr():
    rng = random.Random(32)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        b = F(rng.randint(-3, 3))
        assert extr_rational(m, b) is extr(m, b)


def test_extr_rational_third():
    f = extr_rational((F(1, 3),), F(0))
    d3 = lambda g: fm.delta(3, g)
    assert f is fm.oplus(fm.oplus(d3(fm.var(1)), d3(fm.ZERO)), d3(fm.ZERO))
    for x in (F(0), F(1, 4), F(2, 3), F(1)):
        assert evaluate(f, [x]) == x / 3


def test_extr_rational_truth_function_on_grid():
    rng = random.Random(33)
    for _ in range(25):
        n = rng.randint(1, 2)
        m = tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n))
        b = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        f = extr_rational(m, b)
        for x in FiniteGrid(6, n).points():
            lin = sum(c * v for c, v in zip(m, x)) + b
            assert evaluate(f, x) == min(max(lin, F(0)), F(1))


def test_extr_real_fractional_coefficient():
    f = extr_real((F(1, 2),), F(0))
    expected = fm.odot(fm.oplus(fm.ZERO, fm.scale(F(1, 2), fm.var(1))), fm.ONE)
    assert f is expected


def test_extr_real_integer_input_is_extr():
    rng = random.Random(34)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        b = F(rng.randint(-3, 3))
        assert extr_real(m, b) is extr(m, b)


def test_extr_real_truth_function_on_grid():
    rng = random.Random(35)
    for _ in range(25):
        n = rng.randint(1, 2)
        m = tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 4])) for _ in range(n))
        b = F(rng.randint(-4, 4), rng.choice([1, 2, 4]))
        f = extr_real(m, b)
        for x in FiniteGrid(12, n).points():
            lin = sum(c * v for c, v in zip(m, x)) + b
            assert evaluate(f, x) == min(max(lin, F(0)), F(1))


@pytest.mark.parametrize(
    "extractor, m, b, text",
    [
        (
            extr_real,
            ("3/2", "-1"),
            "1/2",
            "(odot (oplus (odot (oplus (not (odot (oplus (scale 1/2 1) x2) 1)) x1) "
            "(not (odot (oplus 0 x2) (scale 1/2 1)))) (scale 1/2 x1)) "
            "(odot (oplus (not (odot (oplus 0 x2) (scale 1/2 1))) x1) 1))",
        ),
        (
            extr_real,
            ("1", "-1/2"),
            "0",
            "(odot (oplus 0 x1) (not (odot (oplus 0 (scale 1/2 x2)) 1)))",
        ),
        (extr_real, ("0", "1"), "0", "x2"),
        (extr_real, ("0", "0"), "2/3", "(scale 2/3 1)"),
        (
            extr_rational,
            ("3/2",),
            "-1/2",
            "(oplus (delta 2 (odot (oplus (odot (oplus 0 x1) x1) x1) (odot (oplus x1 x1) 1))) "
            "(delta 2 (odot (oplus 0 x1) (odot (oplus 0 x1) x1))))",
        ),
        (
            extr_rational,
            ("1", "-1/2"),
            "0",
            "(oplus (delta 2 (odot (oplus (odot (oplus 0 x1) (not x2)) x1) "
            "(odot (oplus (not x2) x1) 1))) "
            "(delta 2 (odot (oplus 0 x1) (odot (oplus 0 x1) (not x2)))))",
        ),
        (extr_rational, ("0", "1"), "0", "x2"),
    ],
)
def test_extr_mixed_rows_golden(extractor, m, b, text):
    # Fixed trees for rows mixing fractional and integer parts: all flavors
    # share one peeling core, so agreement between them cannot catch drift.
    assert to_text(extractor(tuple(F(c) for c in m), F(b))) == text


def _oracle_rational(m, b):
    # extr_rational's chain, built from the oracle peel of the scaled row.
    s = lcm(*(q.denominator for q in m + (b,)))
    if s == 1:
        return reference_extr_real(m, b)
    scaled = tuple(s * q for q in m)
    chain = None
    for i in range(s):
        term = fm.delta(s, reference_extr_real(scaled, s * b - i))
        chain = term if chain is None else fm.oplus(chain, term)
    return chain


def count_rows(monkeypatch) -> list:
    """The keys of the _Row objects built from now on, in order."""
    built = []

    class Counted(extract._Row):
        __slots__ = ()

        def __init__(self, key):
            built.append(key)
            super().__init__(key)

    monkeypatch.setattr(extract, "_Row", Counted)
    return built


def test_extractors_build_the_oracle_objects(monkeypatch):
    # The integer core builds the very objects the recursive Fraction peel
    # builds: every integer row d <= 2 (|m| <= 3, |b| <= 4) and d = 3
    # (|m| <= 2), through all three flavors, then half- and third-integer
    # rows d <= 2 (|m|, |b| <= 1 + 1/q) through extr_real and extr_rational.
    # The second pass peels each row once over all its biases through the
    # shared-row generator, the run's certificates read as one level, where
    # the peel memo of a row serves them all.
    # The third mixes the three flavors in one run over each integer row
    # d <= 2: the memo key holds no flavor, so one _Row serves the run.
    cases = []
    for d, top in ((1, 3), (2, 3), (3, 2)):
        for m in itertools.product(range(-top, top + 1), repeat=d):
            for b in range(-4, 5):
                want = reference_extr_real(m, b)
                cases += [(extr, m, b, want), (extr_rational, m, b, want), (extr_real, m, b, want)]
    for q in (2, 3):
        values = [F(i, q) for i in range(-q - 1, q + 2)]
        for d in (1, 2):
            for m in itertools.product(values, repeat=d):
                for b in values:
                    cases.append((extr_real, m, b, reference_extr_real(m, b)))
                    cases.append((extr_rational, m, b, _oracle_rational(m, b)))
    for extractor, m, b, want in cases:
        assert extractor(m, b) is want, (extractor.__name__, m, b)
    flavors = {extr: "integer", extr_rational: "rational", extr_real: "real"}
    runs = {}
    for extractor, m, b, want in cases:
        runs.setdefault((flavors[extractor], m), []).append((b, want))
    for (flavor, m), run in runs.items():
        got = extract._formulas(certificate_rows([MintermCertificate(m, b, flavor) for b, _ in run]))
        for f, (b, want) in zip(got, run, strict=True):
            assert f is want, (flavor, m, b)
    built = count_rows(monkeypatch)
    for d in (1, 2):
        for m in itertools.product(range(-3, 4), repeat=d):
            mixed = [MintermCertificate(m, b, flavor) for b in range(-4, 5) for flavor in FLAVORS]
            built.clear()
            for f, (_, b, flavor) in zip(extract._formulas(certificate_rows(mixed)), mixed, strict=True):
                assert f is reference_extr_real(m, b), (flavor, m, b)
            assert built == [(1, m)]


def test_formulas_do_not_depend_on_the_scale_a_row_is_read_at():
    # A certificate row is read over its level's s, a multiple of its own
    # scale.  Read at k times its scale, a row peels to the very formula of
    # its own scale and of its Fraction certificate, in every flavor.  An
    # integer row read beside a half-integer one, at its level's s = 2, stays
    # a plain peel in the rational flavor, where a row over s = 2 would peel
    # to a delta_2 chain.
    rng = random.Random(39)
    seen = {flavor: 0 for flavor in FLAVORS} | {"beside": 0}
    for _ in range(200):
        d = rng.randint(1, 3)
        for flavor in FLAVORS:
            q = 1 if flavor == "integer" else rng.choice((1, 2, 3))
            cert = MintermCertificate(
                tuple(F(rng.randint(-3 * q, 3 * q), q) for _ in range(d)), F(rng.randint(-3 * q, 3 * q), q), flavor
            )
            want = formula_for_certificate(cert)
            ((s, row, b, _),) = certificate_rows([cert])
            for k in (1, 2, 3, 6):
                assert next(extract._formulas([(k * s, tuple(k * v for v in row), k * b, flavor)])) is want
            seen[flavor] += 1
            if q == 1 and flavor == "rational":
                half = MintermCertificate((F(1, 2),) * d, F(0), flavor)
                level = certificate_rows([half, cert])
                assert level[1][0] == 2
                assert list(extract._formulas(level))[1] is want
                seen["beside"] += 1
    assert min(seen.values()) >= 50, seen


def test_extr_real_constant_bias():
    f = extr_real((F(0),), F(1, 3))
    assert f is fm.scale(F(1, 3), fm.ONE)
    assert evaluate(f, [F(0)]) == F(1, 3)


# ---------------------------------------------------------------------------
# Step III: graph assembly
# ---------------------------------------------------------------------------


def three_copy_network():
    # The relu node 2x1 + 2x2 - 1 reaches 3, so it splits into 3 sigma
    # copies of one row.
    return net(
        2,
        layer([[2, 2], [1, -1]], [-1, 0], ["relu", "relu"]),
        layer([[1, 1]], [-1], ["none"]),
    )


def test_extract_graph_builds_one_row_per_run_of_copies(monkeypatch):
    # The copies peel over one _Row and its memo.
    built = count_rows(monkeypatch)
    g = extract_graph(three_copy_network())
    assert [node.certificate.m for node in g.nodes[0]] == [(F(2), F(2))] * 3 + [(F(1), F(-1))]
    assert built == [(1, (2, 2)), (1, (1, -1)), (1, (1, 1, 1, 1))]
    for level in g.nodes:
        for node in level:
            assert node.formula is extr(node.certificate.m, node.certificate.b)


def test_normality_check_builds_one_row_per_run_of_copies(monkeypatch):
    # The normality check re-extracts the certificates in one pass, where the
    # copies share one _Row as in extraction.  The clamp pair of the w7 CLI
    # ladder rung splits its two relu nodes on one row into 21 copies.
    clamp = net(
        3,
        layer([[7, 6, 5], [7, 6, 5]], [-7, -8], ["relu", "relu"]),
        layer([[1, -1]], [0], ["none"]),
    )
    built = count_rows(monkeypatch)
    for network, rows in ((three_copy_network(), [(2, 2), (1, -1), (1, 1, 1, 1)]),
                          (clamp, [(7, 6, 5), (1,) * 11 + (-1,) * 10])):
        g = extract_graph(network)
        built.clear()
        assert normality_violation(g) is None
        assert built == [(1, row) for row in rows]
        assert graph_to_sigma(g) == rho_to_sigma(network)


def test_extract_graph_chain_example():
    n1 = net(
        1,
        layer([[4], [2]], [-3, -1], ["relu", "relu"]),
        layer([[1, 1]], [-1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )
    g = extract_graph(n1)
    assert normality_violation(g) is None
    rep = represented_formula(g)
    chain = fm.var(1)
    for _ in range(5):
        chain = fm.odot(chain, fm.var(1))
    assert _np_truth_table(rep, 12, 1).tolist() == _np_truth_table(chain, 12, 1).tolist()


def test_extract_graph_depth_one():
    n = net(2, layer([[1, 1]], [-1], ["none"]))
    g = extract_graph(n)
    assert g.depth == 1
    assert g.node(1, 1).formula is extr((1, 1), -1)
    assert g.node(1, 1).certificate == MintermCertificate((F(1), F(1)), F(-1), "integer")


def test_extract_graph_matches_network_on_grid():
    rng = random.Random(36)
    done = 0
    while done < 8:
        n = rng.randint(1, 2)
        network = random_network(rng, n, [rng.randint(1, 2)])
        rep = represented_formula(extract_graph(network))
        for x in FiniteGrid(12, n).points():
            v = eval_network(network, x)
            assert evaluate(rep, x) == min(max(v, F(0)), F(1))
        done += 1


def test_extract_graph_rejects_non_integer_for_integer_flavor():
    n = net(1, layer([[F(1, 2)]], [0], ["none"]))
    with pytest.raises(ValueError):
        extract_graph(n, flavor="integer")
    g = extract_graph(n, flavor="rational")
    assert g.node(1, 1).formula is extr_rational((F(1, 2),), F(0))


def test_extract_graph_certificates_reproduce_formulas(fixtures_dir):
    # Construction's normality premise, in every flavour: re-running the
    # extractor on every stored certificate rebuilds the stored tree byte for
    # byte.
    # The check runs outside extraction's pass, so no peel memo of the
    # extraction serves it.
    # The networks are a random one, the fixtures, and the first 10
    # half-integer networks of the round-trip pool, each in every flavour
    # that applies.
    rng = random.Random(37)
    networks = [random_network(rng, 2, [3, 2])]
    networks += [network_from_json(p.read_text()) for p in sorted(fixtures_dir.glob("*.json"))]
    half = [network_from_dict(e["net"]) for e in json.loads(POOL_ROUNDTRIP.read_text())["half"][:10]]
    for network in networks + half:
        for flavor in flavors_of(network):
            assert normality_violation(extract_graph(network, flavor=flavor)) is None, flavor


def test_extraction_preserves_function_on_degenerate_networks():
    # Non-degeneracy is a premise of the round trip, not of extraction: on
    # random degenerate networks (by the brute-force oracle), every flavour
    # gives a normal graph whose value, and that of the network constructed
    # from it, is clip(N(x)) on the grid I_4^n.
    rng = random.Random(10)
    seen = 0
    while seen < 40:
        n, hidden = rng.randint(1, 3), [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            network = random_network(rng, n, hidden)
        else:
            network = rational_network(rng, n, hidden, "relu")
        if brute_non_degenerate(network):
            continue
        seen += 1
        points = list(FiniteGrid(4, n).points())
        want = [clipped(network, x) for x in points]
        for flavor in flavors_of(network):
            g = extract_graph(network, flavor=flavor)
            assert normality_violation(g) is None, flavor
            at = graph_evaluator(g)
            assert [at(x) for x in points] == want, flavor
            back = sigma_to_rho(graph_to_sigma(g))
            assert [eval_network(back, x) for x in points] == want, flavor


def test_extraction_is_search_free(fixtures_dir, monkeypatch):
    # Extraction runs no exact search: with the search disabled it still
    # extracts every fixture in every flavour that applies.
    def no_search(*args, **kwargs):
        raise AssertionError("extraction ran an exact search")

    monkeypatch.setattr(bounds, "exact_extrema", no_search)
    for path in sorted(fixtures_dir.glob("*.json")):
        network = network_from_json(path.read_text())
        for flavor in flavors_of(network):
            extract_graph(network, flavor=flavor)
