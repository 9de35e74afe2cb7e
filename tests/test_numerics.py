import copy
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from helpers import cube_constraints, polytope_vertices
from luknet import numerics
from luknet.numerics import (
    Infeasible,
    Interval,
    Tableau,
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


@pytest.mark.parametrize("bad", ["1.5", "1/-2", "+3", "2/0", "a", "1 / 2", "", "1\n", "3/4\n", "\u0661",
                                 "2/4", "-0", "007", "0/5", "2/2"])
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


def test_cube_is_its_faces_cut_from_nothing():
    # The faces x_k <= 1 are bounds, not rows: the cube is the tableau with
    # no rows and every x_k nonbasic at 0, and cutting it by its own faces
    # changes no optimum.
    rng = random.Random(11)
    for d in range(1, 7):
        assert cube(d) == Tableau((), (), tuple(range(1, d + 1)), 1)
        faced = cut(cube(d), [[1, *(int(i == k) for i in range(d))] for k in range(d)])
        for _ in range(10):
            obj = [rng.randint(-4, 4) for _ in range(d)]
            assert F(*minimum(faced, obj)) == F(*minimum(cube(d), obj)) == sum(min(c, 0) for c in obj)


def test_implicit_faces_keep_the_explicit_bases(monkeypatch):
    # Judged against the simplex with the faces x_k <= 1 as its first d rows
    # (helpers.explicit_*), under the ids of that system: after every cut
    # batch the same verdict and det, the same optimum as an int ratio, and
    # one pivot or bound flip here for each pivot there.  Rows through a
    # common point p make degenerate vertices; a shift past p can empty the
    # region midway.
    steps = {"explicit": 0, "implicit": 0}
    for module, name, key in ((helpers, "explicit_pivot", "explicit"), (numerics, "_pivot", "implicit"),
                              (numerics, "_flip", "implicit")):
        def counted(*args, key=key, real=getattr(module, name)):
            steps[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    rng = random.Random(12)
    empty = optima = 0
    for _ in range(300):
        d = rng.randint(1, 5)
        p = [F(rng.randint(0, 6), 3) for _ in range(d)]
        state, ref = cube(d), helpers.explicit_cube(d)
        for _ in range(rng.randint(1, 4)):
            batch = []
            for _ in range(rng.randint(1, 3)):
                row = [rng.randint(-3, 3) for _ in range(d)]
                at = sum(c * x for c, x in zip(row, p))
                batch.append([3 * at - rng.choice((0, 0, 1, 2)), *(3 * c for c in row)])
            state, ref = cut(state, batch), helpers.explicit_cut(ref, batch)
            assert (state is None) == (ref is None)
            assert steps["implicit"] == steps["explicit"]
            if state is None:
                empty += 1
                break
            assert state.det == ref[3]
            for _ in range(2):
                obj = [rng.randint(-4, 4) for _ in range(d)]
                assert minimum(state, obj) == helpers.explicit_minimum(ref, obj)
                assert steps["implicit"] == steps["explicit"]
                optima += 1
    assert empty >= 30 and optima >= 500


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
    # agree with vertex enumeration after every batch.  The core takes each
    # row as [bound, *coeffs] of ints: a row times the lcm of its
    # denominators cuts the same half-space, so fractional bounds stay in.
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
        obj = [rng.randint(-4, 4) for _ in range(d)]
        scaled = [numerics.scaled([[bound, *row]])[1][0] for row, bound in rows]
        values = {}  # objective at each vertex of the cube cut by rows[:n]
        for n in range(1, len(rows) + 1):
            vertices = polytope_vertices(cube_constraints(d) + rows[:n], d)
            values[n] = [sum(c * x for c, x in zip(obj, v)) for v in vertices]
        half = rng.randint(0, len(rows))
        for sizes in ([1] * len(rows), [half, len(rows) - half], [len(rows)]):
            state, done = cube(d), 0
            for size in sizes:
                state = cut(state, scaled[done:done + size])
                done += size
                if state is None:
                    assert not values[done]
                    break
                if done:
                    assert F(*minimum(state, obj)) == min(values[done])
                    assert -F(*minimum(state, [-c for c in obj])) == max(values[done])
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
        parent = cut(cube(d), [(bound, *row) for row, bound in rows])
        if parent is None:
            continue
        obj = [rng.randint(-4, 4) for _ in range(d)]
        before = F(*minimum(parent, obj))
        snapshot = copy.deepcopy(parent)  # every field, each row list by value
        for _ in range(3):
            row = tuple(rng.randint(-3, 3) for _ in range(d))
            child = cut(parent, [(rng.randint(-2, 2), *row)])
            if child is not None:
                assert F(*minimum(child, obj)) >= before
                children += 1
        assert F(*minimum(parent, obj)) == before
        assert parent == snapshot
    assert children >= 50


def assert_dictionary(state, d):
    # Every row is [rhs, one entry per nonbasic variable], all ints (a float
    # cannot slip in), over one int determinant det > 0, with the d nonbasic
    # variables of the cube [0,1]^d.  Each x_k is basic (id k) or nonbasic at
    # 0 (id k) or at 1 (id d + k, its face slack), and the cut slacks are
    # 2d + 1 up to 2d + len(rows).  At a feasible basis rhs >= 0, and a basic
    # x_k also has rhs <= det.
    assert type(state.det) is int and state.det > 0
    assert len(state.nonbasic) == d and len(state.basis) == len(state.rows)
    assert all(not d < v <= 2 * d for v in state.basis)
    ids = sorted(v - d if d < v <= 2 * d else v for v in state.basis + state.nonbasic)
    assert ids == [*range(1, d + 1), *range(2 * d + 1, 2 * d + len(state.rows) + 1)]
    for row, v in zip(state.rows, state.basis):
        assert len(row) == d + 1
        assert all(type(a) is int for a in row)
        assert row[0] >= 0 and (v > d or row[0] <= state.det)


pivot = numerics._pivot


def checked_pivot(rows, basis, nonbasic, det, r, j):
    # _pivot, checked entry by entry: each new entry of another row a, times
    # the old det, is |p|*a - f*q exactly, where p is the pivot entry, f is
    # a's entry at j and q the new pivot row (sign(p)*det at j), so no
    # division rounded.
    before = [row[:] for row in rows]
    new_det = pivot(rows, basis, nonbasic, det, r, j)
    p = before[r][j]
    sign = 1 if p > 0 else -1
    q = [sign * v for v in before[r]]
    q[j] = sign * det
    assert p and new_det == abs(p) and rows[r] == q
    for i, (a, out) in enumerate(zip(before, rows)):
        if i != r:
            f = a[j]
            assert out[j] == -sign * f
            assert all(v * det == new_det * x - f * y for k, (v, x, y) in enumerate(zip(out, a, q)) if k != j)
    return new_det


cut_row = st.tuples(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.fractions(min_value=-2, max_value=4, max_denominator=3),
)


@given(
    st.integers(1, 4),
    st.lists(st.lists(cut_row, min_size=1, max_size=3), max_size=5),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=4, max_size=4),
)
def test_tableau_is_a_dictionary_over_one_determinant(d, batches, obj):
    with mock.patch.object(numerics, "_pivot", checked_pivot):
        state = cube(d)
        assert_dictionary(state, d)
        for batch in batches:
            snapshot = copy.deepcopy(state)
            minimum(state, numerics.scaled([obj[:d]])[1][0])
            child = cut(state, [numerics.scaled([[bound, *coeffs[:d]]])[1][0] for coeffs, bound in batch])
            assert state == snapshot
            if child is None:
                break
            assert_dictionary(child, d)
            state = child
