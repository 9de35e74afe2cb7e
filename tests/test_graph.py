import gc
import random
from fractions import Fraction as F

import pytest

from helpers import (
    collapse,
    collapse_with_record,
    evaluate,
    expand,
    full_collapse,
    layer,
    net,
    random_graph,
    represented_formula_forward,
)
from luknet import formula as fm
from luknet.equiv import FiniteGrid
from luknet.extract import extract_graph
from luknet.formula import evaluator, postorder, to_text
from luknet.graph import (
    GraphNode,
    MintermCertificate,
    SubstitutionGraph,
    formula_graph,
    graph_evaluator,
    graph_from_json,
    graph_to_json,
    normality_violation,
    represented_formula,
)

x1, x2 = fm.var(1), fm.var(2)


def chain_graph() -> SubstitutionGraph:
    n1 = net(
        1,
        layer([[4], [2]], [-3, -1], ["relu", "relu"]),
        layer([[1, 1]], [-1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )
    return extract_graph(n1)


def test_represented_formula_depth_one_is_verbatim():
    f = fm.odot(x1, fm.lnot(x2))
    g = formula_graph(f, 2)
    assert represented_formula(g) is f


def test_both_substitution_orders_agree():
    rng = random.Random(41)
    for _ in range(100):
        g = random_graph(rng)
        assert represented_formula(g) is represented_formula_forward(g)


def test_graph_eval_matches_formula_eval():
    rng = random.Random(42)
    for _ in range(30):
        g = random_graph(rng)
        rep = represented_formula(g)
        n = g.widths[0]
        for x in FiniteGrid(3, n).points():
            assert graph_evaluator(g)(x) == evaluate(rep, x)


def test_graph_eval_composes_per_node_evaluate():
    rng = random.Random(43)
    for _ in range(30):
        g = random_graph(rng)
        for x in FiniteGrid(2, g.widths[0]).points():
            values = list(x)
            for level in g.nodes:
                formulas = [node.formula for node in level]
                each = [evaluate(f, values) for f in formulas]
                assert evaluator(formulas)(values) == each
                values = each
            assert graph_evaluator(g)(x) == values[0]


def test_extraction_output_is_normal():
    assert normality_violation(chain_graph()) is None


def test_forged_certificate_is_not_normal():
    # x1+x1 with certificate (2),0: extr((2),0) is a different tree.
    node = GraphNode(fm.oplus(x1, x1), MintermCertificate((F(2),), F(0), "integer"))
    g = SubstitutionGraph((1, 1), ((node,),))
    assert normality_violation(g) is not None
    violation = normality_violation(g)
    assert violation is not None and "reproduce" in str(violation)


@pytest.mark.parametrize("m", [(F(-1),) * 7, (F(-1), F(0), F(0), F(0))])
def test_certificate_row_must_match_the_input_width(m):
    # not x1 over a 1-wide input, certified by a row of the wrong length: one
    # too long is refused, and so is one padded with zeros, whose re-extraction
    # would pass the normality check unnoticed.
    node = GraphNode(fm.lnot(x1), MintermCertificate(m, F(1), "integer"))
    with pytest.raises(ValueError, match=rf"certificate of node \(1,1\) has {len(m)} weights"):
        SubstitutionGraph((1, 1), ((node,),))


def test_missing_certificate_reported():
    g = formula_graph(x1, 1)
    assert normality_violation(g) == "node (1,1) carries no certificate"


def test_collapse_example():
    inner = GraphNode(fm.oplus(x1, x2))
    outer = GraphNode(fm.odot(x1, x1))
    g = SubstitutionGraph((2, 1, 1), ((inner,), (outer,)))
    g2 = collapse(g, 1)
    assert g2.depth == 1
    expected = fm.odot(fm.oplus(x1, x2), fm.oplus(x1, x2))
    assert g2.node(1, 1).formula is expected


def test_collapse_preserves_represented_formula():
    rng = random.Random(43)
    for _ in range(200):
        g = random_graph(rng)
        if g.depth < 2:
            continue
        k = rng.randint(1, g.depth - 1)
        assert represented_formula(collapse(g, k)) is represented_formula(g)


def test_collapse_level_out_of_range():
    g = chain_graph()
    with pytest.raises(ValueError, match=rf"collapse level {g.depth} outside 1\.\.{g.depth - 1}"):
        collapse(g, g.depth)
    with pytest.raises(ValueError, match=rf"collapse level 0 outside 1\.\.{g.depth - 1}"):
        collapse(g, 0)


def test_collapse_drops_certificates_of_rewritten_nodes_only():
    g = chain_graph()
    g2 = collapse(g, 1)
    assert all(n.certificate is None for n in g2.nodes[0])
    assert all(n.certificate is not None for n in g2.nodes[1])
    assert normality_violation(g2) is not None


def test_full_collapse_holds_represented_formula():
    g = chain_graph()
    flat = full_collapse(g)
    assert flat.depth == 1
    assert flat.node(1, 1).formula is represented_formula(g)


def test_expand_round_trips_collapse():
    rng = random.Random(44)
    for _ in range(200):
        g = random_graph(rng)
        if g.depth < 2:
            continue
        k = rng.randint(1, g.depth - 1)
        g2, taus, zeta = collapse_with_record(g, k)
        back = expand(g2, k, taus, zeta)
        assert back.widths == g.widths
        assert represented_formula(back) is represented_formula(g)
        for j in range(1, back.depth + 1):
            for i in range(1, back.widths[j] + 1):
                assert back.node(j, i).formula is g.node(j, i).formula


def test_expand_inverse_of_example():
    inner = GraphNode(fm.oplus(x1, x2))
    outer = GraphNode(fm.odot(x1, x1))
    g = SubstitutionGraph((2, 1, 1), ((inner,), (outer,)))
    flat = collapse(g, 1)
    back = expand(flat, 1, [fm.odot(x1, x1)], {1: fm.oplus(x1, x2)})
    assert back.widths == (2, 1, 1)
    assert back.node(1, 1).formula is fm.oplus(x1, x2)
    assert back.node(2, 1).formula is fm.odot(x1, x1)


def test_expand_with_vacuous_substitutor():
    flat = formula_graph(fm.odot(x1, x1), 2)
    back = expand(flat, 1, [fm.odot(x1, x1)], {1: x1, 2: fm.oplus(x2, x2)})
    assert back.widths == (2, 2, 1)
    assert represented_formula(back) is fm.odot(x1, x1)


def test_expand_factorization_mismatch():
    flat = formula_graph(fm.odot(x1, x1), 2)
    with pytest.raises(ValueError, match="factor 1 does not reproduce the stored formula"):
        expand(flat, 1, [fm.oplus(x1, x1)], {1: x1})


def test_graph_json_roundtrip():
    g = chain_graph()
    text = graph_to_json(g)
    g2 = graph_from_json(text)
    assert g2.widths == g.widths
    for j in range(1, g.depth + 1):
        for i in range(1, g.widths[j] + 1):
            assert g2.node(j, i).formula is g.node(j, i).formula
            assert g2.node(j, i).certificate == g.node(j, i).certificate


# Clamp pairs clip(m.x + b) on [0,1]^3 of rising weight: the expanded tree
# of the largest node grows about tenfold per unit of weight.
CLAMP_PAIRS = [((2, 1, 1), -1), ((3, 2, 1), -2), ((3, 3, 2), -2), ((4, 3, 2), -4),
               ((5, 4, 3), -5), ((6, 5, 4), -9), ((6, 5, 4), -6), ((7, 6, 5), -7)]


def clamp_pair_graph(row, bias) -> SubstitutionGraph:
    return extract_graph(
        net(3, layer([list(row), list(row)], [bias, bias - 1], ["relu", "relu"]), layer([[1, -1]], [0], ["none"]))
    )


def node_formulas(g: SubstitutionGraph) -> list:
    return [node.formula for level in g.nodes for node in level]


@pytest.mark.parametrize("row,bias", CLAMP_PAIRS)
def test_graph_json_is_linear_in_the_dag(row, bias):
    g = clamp_pair_graph(row, bias)
    text = graph_to_json(g)
    back = graph_from_json(text)
    assert back.widths == g.widths
    for level, back_level in zip(g.nodes, back.nodes):
        for node, back_node in zip(level, back_level):
            assert back_node.formula is node.formula
            assert back_node.certificate == node.certificate
    assert graph_to_json(back) == text
    assert len(text) <= 64 * len(postorder(*node_formulas(g))) + 512


def test_graph_json_does_not_depend_on_creation_order():
    row, bias = (5, 4, 3), -5
    g = clamp_pair_graph(row, bias)
    text = graph_to_json(g)
    subterms = [to_text(f) for f in postorder(*node_formulas(g))]
    del g
    gc.collect()
    # Create the subterms again, last first, so that siblings are created
    # in another order, then extract the same graph.
    unrelated = [fm.parse(t) for t in reversed(subterms)]
    g = clamp_pair_graph(row, bias)
    assert [to_text(f) for f in postorder(*node_formulas(g))] == subterms
    assert graph_to_json(g) == text
    del unrelated


def test_graph_validation():
    with pytest.raises(ValueError):
        SubstitutionGraph((1, 2), ((GraphNode(x1), GraphNode(x1)),))  # output width 2
    with pytest.raises(ValueError):
        SubstitutionGraph((1, 1), ((GraphNode(x2),),))  # x2 beyond input width
