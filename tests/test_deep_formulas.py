"""Walks over formulas are iterative: a 10 000-deep `not` chain and a
left-leaning `oplus` spine of the same depth go through every walk and the
s-expression text form under the default recursion limit, and so do tree
lengths, the rho glossary and the extraction of a single large weight.
Rewrite errors on a formula whose tree is exponentially long name the
position, not the tree."""
import sys
from fractions import Fraction as F

import pytest

from helpers import evaluate, extr, rho_value
from luknet import formula as fm
from luknet import rewrite as rw
from luknet.cli import main
from luknet.formula import parse, postorder, substitute, to_text, variables
from luknet.graph import (
    GraphNode,
    SubstitutionGraph,
    formula_graph,
    graph_evaluator,
    represented_formula,
)

DEPTH = 10_000
x1, x2, x3 = fm.var(1), fm.var(2), fm.var(3)


@pytest.fixture(autouse=True)
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def chain(leaf, depth=DEPTH):
    f = leaf
    for _ in range(depth):
        f = fm.lnot(f)
    return f


def spine(leaf, right, depth=DEPTH):
    f = leaf
    for _ in range(depth):
        f = fm.oplus(f, right)
    return f


def test_evaluate_deep():
    assert evaluate(chain(x1), [F(1, 3)]) == F(1, 3)
    assert evaluate(chain(x1, DEPTH - 1), [F(1, 3)]) == F(2, 3)
    assert evaluate(spine(x1, fm.ZERO), [F(1, 3)]) == F(1, 3)
    assert evaluate(spine(x1, x2), [F(0), F(1, DEPTH)]) == 1


def test_substitute_deep():
    assert substitute(chain(x1), {1: x2}) is chain(x2)
    assert substitute(spine(x1, x2), {1: x3, 2: x1}) is spine(x3, x1)


def test_variables_and_dag_size_deep():
    assert variables(chain(x1)) == {1}
    assert variables(spine(x1, x2)) == {1, 2}
    assert len(postorder(chain(x1))) == DEPTH + 1
    assert len(postorder(spine(x1, x2))) == DEPTH + 2


def test_graph_walks_deep():
    assert graph_evaluator(formula_graph(chain(x1), 1))([F(1, 4)]) == F(1, 4)
    levels = ((GraphNode(spine(x1, x1)),), (GraphNode(chain(x1)),))
    two_levels = SubstitutionGraph((1, 1, 1), levels)
    assert represented_formula(two_levels) is chain(spine(x1, x1))


def test_match_instantiation_deep():
    assert rw.match_instantiation(chain(x1), chain(fm.odot(x2, x3))) == {1: fm.odot(x2, x3)}
    assert rw.match_instantiation(spine(x1, x2), spine(x3, x1)) == {1: x3, 2: x1}
    assert rw.match_instantiation(chain(x1), chain(x2, DEPTH - 1)) is None


def test_render_symmetry_deep():
    ax = rw.Axiom("deep", chain(x1), spine(x1, x2))
    lhs, rhs = rw.render_symmetry(ax)
    assert lhs == "1 - (" * (DEPTH - 1) + "1 - x" + ")" * (DEPTH - 1)
    assert len(rhs) == len("1 - rho(1 - (") * DEPTH + len("x") + len(") - y)") * DEPTH - 2
    env = {1: F(1, 3), 2: F(1, 3 * DEPTH)}
    for side in (ax.lhs, ax.rhs):
        assert rho_value(side, env) == evaluate(side, [F(1, 3), F(1, 3 * DEPTH)])


def test_replace_at_deep():
    pos = (0,) * (DEPTH - 1)
    assert rw.replace_at(chain(x1), pos, x2) is chain(x2, DEPTH - 1)
    assert rw.subformula_at(chain(x1), pos) is fm.lnot(x1)


def test_all_positions_deep():
    # The output is quadratic in the depth (position i has length i), so a
    # chain three times deeper than the recursion limit stands in for 10^4.
    depth = 3_000
    positions = rw.all_positions(chain(x1, depth))
    assert positions == [(0,) * i for i in range(depth + 1)]


def doubling(times=200):
    f = x1
    for _ in range(times):
        f = fm.oplus(f, f)
    return f


def test_length_deep():
    assert chain(x1).length == 1
    assert spine(x1, x2).length == DEPTH + 1
    assert doubling().length == 2**200


def test_text_roundtrip_deep():
    for f in (chain(x1), spine(x1, x2)):
        assert parse(to_text(f)) is f


def test_cli_check_equiv_deep_formula_file(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(to_text(chain(x1)) + "\n")
    assert main(["check-equiv", str(path), str(path)]) == 0
    assert capsys.readouterr().out.startswith("equal on all 13 points")


def test_rewrite_errors_name_the_position():
    # Its tree has 2**200 leaves; printing it never ends.
    f = doubling()
    ax1, ax3, ax7 = (rw.catalog_by_id(rw.catalog("MV"))[a] for a in ("Ax1", "Ax3", "Ax7"))
    failures = [
        (rw.NoMatchAtPosition, lambda: rw.apply_axiom(f, ax3, "LR", (0, 1))),
        (rw.NoMatchAtPosition, lambda: rw.apply_axiom(f, ax7, "RL", ())),
        (ValueError, lambda: rw.apply_axiom(f, ax1, "LR", (0,) * 200 + (0,))),
        (ValueError, lambda: rw.subformula_at(f, (2,))),
    ]
    for error, call in failures:
        with pytest.raises(error) as err:
            call()
        assert len(str(err.value)) < 800


def test_extract_large_weight_iterative():
    # The peel's depth grows with the weight; it runs on an explicit stack.
    sys.setrecursionlimit(300)
    f = extr((400,), -200)
    for x in (F(401, 800), F(799, 1600)):  # on the ramp, and just below it
        assert evaluate(f, [x]) == min(max(400 * x - 200, F(0)), F(1))
