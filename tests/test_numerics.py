import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cube_constraints, polytope_vertices
from luknet.numerics import (
    Infeasible,
    Interval,
    cube,
    cut,
    format_rational,
    lp_extremum,
    lp_feasible,
    minimum,
    parse_rational,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=100)


@given(rationals, rationals, rationals)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_field_laws_bulk():
    rng = random.Random(1)
    for _ in range(1000):
        a, b, c = (F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


@pytest.mark.parametrize(
    "text,num,den",
    [("3/4", 3, 4), ("-1/2", -1, 2), ("7", 7, 1), ("0", 0, 1), ("-5", -5, 1)],
)
def test_rational_wire_format(text, num, den):
    q = parse_rational(text)
    assert (q.numerator, q.denominator) == (num, den)
    assert format_rational(q) == text


@pytest.mark.parametrize("bad", ["1.5", "1/-2", "+3", "2/0", "a", "1 / 2", ""])
def test_rational_wire_format_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_is_lowest_terms():
    assert format_rational(F(6, 4)) == "3/2"
    assert format_rational(F(2, -4)) == "-1/2"  # sign moves onto the numerator


def test_interval_invariant():
    Interval(F(0), F(1))
    with pytest.raises(ValueError):
        Interval(F(1), F(0))


def test_lp_vertex_of_cube():
    cons = cube_constraints(2)
    assert lp_extremum([F(1), F(-1)], cons, "min") == -1
    assert lp_extremum([F(1), F(-1)], cons, "max") == 1


def test_lp_binding_constraint():
    cons = cube_constraints(2) + [((F(1), F(1)), F(1, 2))]
    assert lp_extremum([F(1), F(1)], cons, "max") == F(1, 2)


def test_lp_infeasible():
    cons = cube_constraints(1) + [((F(1),), F(-1))]  # x <= -1 inside [0,1]
    assert not lp_feasible(cons, 1)
    with pytest.raises(Infeasible):
        lp_extremum([F(1)], cons, "min")


def test_lp_domain_is_the_cube():
    # Rows with negative bounds need phase 1; the cube's faces still bind.
    half = [((F(-1), F(0)), F(-1, 2))]  # x1 >= 1/2
    assert lp_extremum([F(1), F(1)], half, "max") == 2
    assert lp_extremum([F(1), F(1)], half, "min") == F(1, 2)
    assert lp_extremum([F(1), F(1)], half + half, "min") == F(1, 2)  # repeated row
    assert not lp_feasible([((F(1),), F(-1))], 1)  # x <= -1
    assert not lp_feasible([((F(-1),), F(-2))], 1)  # x >= 2
    assert not lp_feasible([((F(0),), F(-1))], 1)  # 0 <= -1
    assert lp_feasible([((F(1), F(1)), F(1)), ((F(-1), F(-1)), F(-1))], 2)  # x1 + x2 = 1


def test_lp_min_not_above_max():
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(1, 3)
        cons = cube_constraints(d)
        for _ in range(rng.randint(0, 3)):
            row = tuple(F(rng.randint(-3, 3)) for _ in range(d))
            cons.append((row, F(rng.randint(0, 4))))
        obj = [F(rng.randint(-3, 3)) for _ in range(d)]
        if not lp_feasible(cons, d):
            continue
        assert lp_extremum(obj, cons, "min") <= lp_extremum(obj, cons, "max")


def test_lp_cube_closed_form():
    # On the bare cube the optimum is sum of negative/positive parts plus bias.
    rng = random.Random(6)
    for _ in range(50):
        d = rng.randint(1, 4)
        w = [F(rng.randint(-5, 5)) for _ in range(d)]
        b = F(rng.randint(-3, 3))
        cons = cube_constraints(d)
        lo = b + sum(min(c, F(0)) for c in w)
        hi = b + sum(max(c, F(0)) for c in w)
        assert lp_extremum(w, cons, "min", constant=b) == lo
        assert lp_extremum(w, cons, "max", constant=b) == hi
        # The cube is the LP's own domain: no rows at all gives the same optimum.
        assert lp_extremum(w, [], "min", constant=b) == lo
        assert lp_extremum(w, [], "max", constant=b) == hi


def test_lp_matches_vertex_enumeration():
    # Derived oracle: enumerate all constraint-intersection vertices by brute
    # force and take the best objective value.
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        d = 3
        cuts = []
        for _ in range(rng.randint(1, 4)):
            row = tuple(F(rng.randint(-3, 3)) for _ in range(d))
            cuts.append((row, F(rng.randint(-1, 4), rng.randint(1, 3))))
        cons = cube_constraints(d) + cuts
        obj = [F(rng.randint(-4, 4)) for _ in range(d)]
        vertices = list(polytope_vertices(cons, d))
        if not vertices:
            assert not lp_feasible(cons, d)
            assert not lp_feasible(cuts, d)
            continue
        values = [sum(c * x for c, x in zip(obj, v)) for v in vertices]
        assert lp_extremum(obj, cons, "min") == min(values)
        assert lp_extremum(obj, cons, "max") == max(values)
        # Given only the cutting rows, the LP still optimises over the cube.
        assert lp_extremum(obj, cuts, "min") == min(values)
        assert lp_extremum(obj, cuts, "max") == max(values)
        checked += 1
    assert checked >= 30


def test_lp_int_fraction_and_scaled_rows_agree():
    # The tableau is integer: int rows, the same rows as Fractions, and each
    # row times its own positive rational give the same optimum (the
    # objective times k scales it by k).
    rng = random.Random(8)
    feasible = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        rows = [
            ([rng.randint(-4, 4) for _ in range(d)], rng.randint(-3, 5))
            for _ in range(rng.randint(0, 5))
        ]
        obj = [rng.randint(-4, 4) for _ in range(d)]
        k, *ks = (F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(len(rows) + 1))
        variants = [
            (obj, rows),
            ([F(c) for c in obj], [([F(c) for c in r], F(b)) for r, b in rows]),
            ([k * c for c in obj], [([q * c for c in r], q * b) for q, (r, b) in zip(ks, rows)]),
        ]
        ok = {lp_feasible(cons, d) for _, cons in variants}
        assert len(ok) == 1
        if not ok.pop():
            continue
        feasible += 1
        for sense in ("min", "max"):
            got = [lp_extremum(o, cons, sense) for o, cons in variants]
            assert got[0] == got[1] == got[2] / k
            assert all(type(v) is F for v in got)
    assert feasible >= 100


def test_incremental_cuts_match_vertex_enumeration():
    # Rows through one common point p of the cube make degenerate vertices;
    # some rows are shifted past p, so a cut can empty the region midway.
    # Cutting the rows one at a time, in two batches or all at once must
    # agree with vertex enumeration after every batch.
    rng = random.Random(9)
    empty = feasible = 0
    for _ in range(100):
        d = rng.randint(1, 3)
        p = [F(rng.randint(0, 4), 4) for _ in range(d)]
        rows = []
        for _ in range(rng.randint(1, 7)):
            row = tuple(F(rng.randint(-3, 3)) for _ in range(d))
            shift = F(rng.randint(1, 2), 2) if rng.random() < 0.25 else 0
            rows.append((row, sum(c * x for c, x in zip(row, p)) - shift))
        obj = [F(rng.randint(-4, 4)) for _ in range(d)]
        values = {}  # objective at each vertex of the cube cut by rows[:n]
        for n in range(1, len(rows) + 1):
            vertices = polytope_vertices(cube_constraints(d) + rows[:n], d)
            values[n] = [sum(c * x for c, x in zip(obj, v)) for v in vertices]
        half = rng.randint(0, len(rows))
        for sizes in ([1] * len(rows), [half, len(rows) - half], [len(rows)]):
            state, done = cube(d), 0
            for size in sizes:
                state = cut(state, rows[done:done + size])
                done += size
                if state is None:
                    assert not values[done]
                    break
                if done:
                    assert minimum(state, obj) == min(values[done])
                    assert -minimum(state, [-c for c in obj]) == max(values[done])
        if values[len(rows)]:
            feasible += 1
        else:
            empty += 1
    assert empty >= 30 and feasible >= 30


def test_cut_leaves_parent_unchanged():
    # The search comes back to a parent after cutting its children, so a cut
    # must not change the tableau it starts from.
    rng = random.Random(10)
    children = 0
    for _ in range(100):
        d = rng.randint(1, 4)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-2, 4))
            for _ in range(rng.randint(0, 4))
        ]
        parent = cut(cube(d), rows)
        if parent is None:
            continue
        obj = [rng.randint(-4, 4) for _ in range(d)]
        before = minimum(parent, obj)
        snapshot = [list(row) for row in parent.rows], list(parent.basis)
        for _ in range(3):
            extra = [(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-2, 2))]
            child = cut(parent, extra)
            if child is not None:
                assert minimum(child, obj) >= before
                children += 1
        assert minimum(parent, obj) == before
        assert ([list(row) for row in parent.rows], list(parent.basis)) == snapshot
    assert children >= 50
