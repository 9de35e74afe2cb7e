import random
from fractions import Fraction as F

import pytest

from helpers import extr, layer, net, random_formula
from luknet import formula as fm
from luknet.equiv import (
    Counterexample,
    Equal,
    FiniteGrid,
    as_point_fn,
    formula_fn,
    grid_equal,
    network_fn,
    sample_equal,
)
from luknet.extract import extract_graph
from luknet.graph import graph_evaluator

x1, x2, x3 = fm.var(1), fm.var(2), fm.var(3)


def test_grid_points_are_exact_and_lexicographic():
    pts = list(FiniteGrid(2, 2).points())
    assert pts[0] == (F(0), F(0))
    assert pts[1] == (F(0), F(1, 2))
    assert pts[-1] == (F(1), F(1))
    assert len(pts) == 9


def test_grid_equal_double_negation():
    res = grid_equal(formula_fn(x1), formula_fn(fm.lnot(fm.lnot(x1))), FiniteGrid(12, 1))
    assert isinstance(res, Equal)


def test_grid_equal_counterexample_is_first_lexicographic():
    res = grid_equal(formula_fn(fm.oplus(x1, x1)), formula_fn(x1), FiniteGrid(2, 1))
    assert isinstance(res, Counterexample)
    assert res.point == (F(1, 2),)
    assert (res.lhs, res.rhs) == (F(1), F(1, 2))


def test_grid_equal_intro_identity():
    f = fm.odot(fm.odot(fm.lnot(x1), fm.lnot(x1)), fm.odot(x1, x2))
    res = grid_equal(formula_fn(f), formula_fn(fm.ZERO), FiniteGrid(12, 2))
    assert isinstance(res, Equal)


def test_grid_equal_symmetric_and_reflexive():
    rng = random.Random(71)
    for _ in range(20):
        f = random_formula(rng, 2, 3)
        g = random_formula(rng, 2, 3)
        grid = FiniteGrid(4, 2)
        assert isinstance(grid_equal(formula_fn(f), formula_fn(f), grid), Equal)
        a = grid_equal(formula_fn(f), formula_fn(g), grid)
        b = grid_equal(formula_fn(g), formula_fn(f), grid)
        assert isinstance(a, Equal) == isinstance(b, Equal)
        if isinstance(a, Counterexample):
            assert a.point == b.point  # same first point, sides swapped
            assert (a.lhs, a.rhs) == (b.rhs, b.lhs)
            assert all(v.denominator in (1, 2, 4) for v in a.point)


def test_sample_equal_identical_formulas():
    f = random_formula(random.Random(72), 3, 4)
    res = sample_equal(formula_fn(f), formula_fn(f), 3, 100, seed=9)
    assert isinstance(res, Equal)


def test_sample_equal_is_deterministic():
    f, g = fm.oplus(x1, x2), fm.oplus(x2, x1)
    a = sample_equal(formula_fn(f), formula_fn(g), 2, 50, seed=5)
    b = sample_equal(formula_fn(f), formula_fn(g), 2, 50, seed=5)
    assert a == b


def test_sample_equal_extracted_formula_matches_clip_neuron():
    f = extr((1, -1, 1), -1)
    neuron = net(3, layer([[1, -1, 1]], [-1], ["clip"]))
    res = sample_equal(formula_fn(f), network_fn(neuron), 3, 1000, seed=3)
    assert isinstance(res, Equal)


def test_sample_equal_finds_planted_discrepancy():
    # x1+x1 and x1 differ on all of (0, 1/2); a thousand trials cannot miss it.
    res = sample_equal(formula_fn(fm.oplus(x1, x1)), formula_fn(x1), 1, 1000, seed=11)
    assert isinstance(res, Counterexample)


def test_sample_equal_needs_a_trial():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sample_equal(formula_fn(x1), formula_fn(x1), 1, 0, seed=0)


def test_as_point_fn_arities():
    _, n = as_point_fn(extr((1, -1), 0))
    assert n == 2
    _, n = as_point_fn(net(3, layer([[1, 0, 0]], [0], ["none"])))
    assert n == 3


def test_finite_grid_distinguishing_power():
    # Equal on I_2 but not on I_4: the half-grid pair from the fixtures.
    ident = net(1, layer([[1]], [0], ["none"]))
    kinked = net(
        1,
        layer([[3], [3]], [-1, -2], ["relu", "relu"]),
        layer([[1, -1]], [0], ["none"]),
    )
    coarse = grid_equal(network_fn(ident), network_fn(kinked), FiniteGrid(2, 1))
    fine = grid_equal(network_fn(ident), network_fn(kinked), FiniteGrid(4, 1))
    assert isinstance(coarse, Equal)
    assert isinstance(fine, Counterexample)
    assert fine.point == (F(1, 4),)


def test_graph_fn_walks_each_level_once_per_comparison(monkeypatch):
    # The clamp pair of the CLI ladder's w6a rung: a two-level graph, 27 points.
    row = [6, 5, 4]
    clamp = net(3, layer([row, row], [-9, -10], ["relu", "relu"]), layer([[1, -1]], [0], ["none"]))
    g = extract_graph(clamp)
    calls = []
    walk = fm.postorder
    monkeypatch.setattr(fm, "postorder", lambda *roots: calls.append(roots) or walk(*roots))
    lhs, _ = as_point_fn(g)
    assert len(calls) == g.depth == 2
    res = grid_equal(lhs, network_fn(clamp), FiniteGrid(2, 3))
    assert res == Equal(27)
    assert len(calls) == g.depth
    assert [lhs(x) for x in FiniteGrid(2, 3).points()] == [
        graph_evaluator(g)(x) for x in FiniteGrid(2, 3).points()
    ]


def test_formula_fn_walks_once_per_comparison(monkeypatch):
    f, g = fm.oplus(fm.odot(x1, x2), x3), fm.oplus(x3, fm.odot(x2, x1))
    calls = []
    walk = fm.postorder
    monkeypatch.setattr(fm, "postorder", lambda *roots: calls.append(roots) or walk(*roots))
    res = grid_equal(formula_fn(f), formula_fn(g), FiniteGrid(2, 3))
    assert res == Equal(27)
    assert len(calls) == 2
