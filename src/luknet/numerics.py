"""Exact rational scalars, closed intervals, JSON field readers, and an exact
linear-program solver.

Everything in this package is exact; no floating point is used anywhere.
Rationals are the standard-library ``fractions.Fraction``, which already
guarantees lowest terms and a positive denominator.  The simplex runs on a
dictionary of Python ints over one determinant (integer pivoting), is cut one
batch of int rows at a time, and returns its optimum as an int ratio.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


class Infeasible(Exception):
    """The feasible region of a linear program is empty."""


def parse_rational(text: str) -> Fraction:
    """Parse the whole text as ``p/q`` or ``p`` as ``str(Fraction)`` writes it:
    ASCII digits, sign on ``p``, lowest terms, q > 1, no leading zero or -0."""
    if not (isinstance(text, str) and _RATIONAL_RE.fullmatch(text) and str(q := Fraction(text)) == text):
        raise ValueError(f"not a canonical rational: {text!r}")
    return q


def json_decode(text: str, what: str):
    """The JSON value of ``text``; nesting too deep for the decoder is bad input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to decode") from None


def json_int(value, what: str) -> int:
    """A JSON integer as is; a float, a bool or a string is bad input."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_str(value, what: str) -> str:
    """A JSON string as is; anything else is bad input."""
    if type(value) is not str:
        raise ValueError(f"{what} must be a string, got {type(value).__name__}")
    return value


def json_list(value, what: str) -> list:
    """A JSON array as is; anything else is bad input."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def json_field(obj, key: str, what: str):
    """The member ``key`` of the JSON object ``what``; a non-object or a
    missing member is bad input."""
    if type(obj) is not dict:
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f'{what} has no "{key}"')
    return obj[key]


def format_rational(q: Fraction) -> str:
    """Inverse of :func:`parse_rational`; ``str`` of Fraction is already canonical."""
    return str(q)


class _Interval(NamedTuple):
    lo: Fraction
    hi: Fraction


class Interval(_Interval):
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction) -> "Interval":
        if lo > hi:
            raise ValueError(f"empty interval: [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)


# ---------------------------------------------------------------------------
# Incremental exact simplex over the unit cube, fraction-free.
#
# Every LP in this package lives in [0,1]^d, so the solver owns the cube:
# x >= 0 comes free, and the upper faces x_k <= 1 are bounds, not rows
# (Dantzig's upper-bounding technique with complemented variables: Chvatal,
# Linear Programming, 1983, ch. 8).  Variable k <= d is x_k, d + k is its
# face slack s_k = 1 - x_k, and 2d + r is the slack of the r-th cut row.
# The tableau is in dictionary form (Chvatal, ch. 2-3): each row, the
# objective's too, writes one basic variable over the d nonbasic ones.  A
# nonbasic d + k means x_k sits at 1, written over its complement s_k; a
# basic x_k carries both bounds, so 0 <= rhs <= det.  A Tableau holds a
# feasible basis of the cube cut by the rows so far, and only the cut rows.
#
# The ids are those of the explicit system, whose first d rows are the faces
# x_k + s_k = 1.  Its basis is ours plus s_k for each x_k that is basic or
# nonbasic at 0, plus x_k for each nonbasic d + k; its determinant is ours,
# and its rows for our basic variables are ours, since a basis fixes its
# dictionary.  Its other rows are implied: s_k = 1 - x_k of a basic x_k,
# whose rhs is det - rhs, and the face row of a nonbasic variable, its only
# row with an entry in that column (det, at a ratio of 1).  So offering the
# implied rows to each choice below, with their ids, makes the same choices
# as the explicit system, pivot for pivot:
#
# - cut(state, rows) writes each row with its own slack basic and restores
#   feasibility by a dual simplex with a zero objective.  The leaving row is
#   the least basic id with a negative rhs, s_k's implied row (id d + k) of a
#   basic x_k with rhs > det among them, and the entering variable the least
#   id with a negative entry in it: Bland's rule on the dual LP, which cannot
#   cycle (Bland, Math. OR 1977).  A leaving row with no negative entry sets
#   a sum of nonnegative terms to a negative value: the cut region is empty.
# - minimum(state, objective) adds the objective's row and runs the primal
#   simplex, again with Bland's rule.  Its ratio test reads the implied rows
#   too.  When the entering variable's own face wins, x_k moves across its
#   box from one bound to the other: a bound flip, which negates the column
#   and subtracts it from rhs, needs no division, and leaves det as it is.
#
# A pivot on an implied row s_k writes it out first, and a pivot that makes
# some s_k basic writes its row back as x_k's, so _pivot itself is the
# explicit system's.  A pivot or a flip writes new row lists, never into one,
# so a child shares its parent's rows and a depth-first search can come back
# to the parent (incremental simplex as in Katz et al., "Reluplex", CAV 2017).
#
# The rows are Python ints over one denominator, the determinant det > 0 of
# the current basis (integer pivoting: Edmonds, J. Res. NBS 1967, as in
# Avis, "lrs", 2000).  Every entry is a minor of the integer system, so a
# pivot divides by the old det exactly and no gcd is ever taken.  Each row is
# det times its rational row, so signs, ratios and pivots are the rational
# tableau's.  The core exchanges only ints: a cut row is [bound, *coeffs],
# the tableau's own row format, the objective is d ints, and the optimum is
# the int ratio (num, det).  The wrappers lp_feasible and lp_extremum are the
# Fraction entry points: each reads every row and the objective into ints on
# its own (``scaled``), and builds the answer's Fraction.
# ---------------------------------------------------------------------------

Constraint = tuple[Sequence[Fraction], Fraction]  # the wrappers' coeffs . x <= bound


class Tableau(NamedTuple):
    """A feasible basis of {x in [0,1]^d : the rows cut so far}, in dictionary form.

    Row r is [rhs, a_1..a_d] of ints and reads det*v_basis[r] +
    sum_j a_j*v_nonbasic[j-1] = rhs, det > 0 the determinant of the basis.
    There is one row per cut row; a nonbasic id d + k is x_k at 1, and at a
    feasible basis rhs >= 0, and rhs <= det too for a basic x_k.  d is
    ``len(nonbasic)``.
    """

    rows: tuple[list[int], ...]
    basis: tuple[int, ...]
    nonbasic: tuple[int, ...]
    det: int


def cube(d: int) -> Tableau:
    """The bare cube [0,1]^d: no rows, every x_k nonbasic at 0, and det 1."""
    return Tableau((), (), tuple(range(1, d + 1)), 1)


def scaled(rows: Sequence[Sequence[int | Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The one reader of rationals into ints: rows of ints or Fractions as s,
    the lcm of all their denominators, and each row times s."""
    s = lcm(*(v.denominator for row in rows for v in row))
    return s, tuple(tuple(v.numerator * (s // v.denominator) for v in row) for row in rows)


def _row(state: Tableau, values: Sequence[int]) -> list[int]:
    """The row of a new basic variable v with v + c.x = b, where values is
    [b, *c] of ints, written over the state's nonbasic variables: det*(b, c),
    with c_k*x_k = c_k - c_k*s_k for a nonbasic d + k, minus c_k times the
    row of each basic x_k."""
    d, det = len(state.nonbasic), state.det
    row = [values[0] * det]
    for v in state.nonbasic:
        if v <= d:
            row.append(values[v] * det)
        elif v <= 2 * d:
            row.append(-values[v - d] * det)
            row[0] += row[-1]
        else:
            row.append(0)
    for prow, b in zip(state.rows, state.basis):
        if b <= d and (c := values[b]):
            row = [a - c * p for a, p in zip(row, prow)]
    return row


def _complement(row: list[int], det: int) -> list[int]:
    """x_k's row as s_k's, or s_k's as x_k's: s_k = 1 - x_k."""
    return [det - row[0], *(-a for a in row[1:])]


def _pivot(rows: list[list[int]], basis: list[int], nonbasic: list[int], det: int, r: int, j: int) -> int:
    """Make nonbasic variable j basic in row r, and row r's basic variable
    nonbasic; return the new det, |p| for the pivot entry p = rows[r][j].

    Row r, with det put at j, is multiplied by sign(p).  Every other row a
    becomes (|p|*a - a[j]*row r) // det, an exact division, with -sign(p)*a[j]
    at j; a row with a[j] = 0 is rescaled alike.
    """
    prow = rows[r][:]
    piv, prow[j] = prow[j], det
    if piv < 0:  # the dual simplex pivots on a negative entry
        piv, prow = -piv, [-v for v in prow]
    rows[r] = prow
    for i, row in enumerate(rows):
        if i != r:
            f = row[j]
            rows[i] = out = [(piv * a - f * q) // det for a, q in zip(row, prow)]
            out[j] = -f if prow[j] > 0 else f  # the leaving variable was not in this row
    basis[r], nonbasic[j - 1] = nonbasic[j - 1], basis[r]
    return piv


def _exchange(rows: list[list[int]], basis: list[int], nonbasic: list[int], det: int, r: int, j: int) -> int:
    """:func:`_pivot`, with a face slack s_k that it makes basic written back
    as x_k's row.  Returns the new det."""
    det = _pivot(rows, basis, nonbasic, det, r, j)
    d = len(nonbasic)
    if d < basis[r] <= 2 * d:
        rows[r] = _complement(rows[r], det)
        basis[r] -= d
    return det


def _flip(rows: list[list[int]], nonbasic: list[int], j: int) -> None:
    """Move nonbasic variable j to its other bound: x_k from 0 to 1, id k to
    d + k, or back.  Each row's column j is negated and subtracted from rhs."""
    for i, row in enumerate(rows):
        if f := row[j]:
            rows[i] = row = row[:]
            row[0] -= f
            row[j] = -f
    d, v = len(nonbasic), nonbasic[j - 1]
    nonbasic[j - 1] = v + d if v <= d else v - d


def _entering(row: list[int], nonbasic: Sequence[int]) -> int | None:
    """The position of the least nonbasic variable with a negative entry in row."""
    enter = None
    for j in range(1, len(row)):
        if row[j] < 0 and (enter is None or nonbasic[j - 1] < nonbasic[enter - 1]):
            enter = j
    return enter


def cut(state: Tableau, cuts: Sequence[Sequence[int]]) -> Tableau | None:
    """The state cut by coeffs.x <= bound for each row [bound, *coeffs] of
    ints in ``cuts``, or None when the cut region is empty.  ``state`` itself
    is left as it is."""
    d = len(state.nonbasic)
    rows, basis = list(state.rows), list(state.basis)
    for values in cuts:
        if len(values) != d + 1:
            raise ValueError("constraint arity mismatch")
        rows.append(_row(state, values))
        basis.append(2 * d + len(rows))  # the new row's own slack
    nonbasic, det = list(state.nonbasic), state.det
    while True:
        leave = None
        for i, row in enumerate(rows):
            if row[0] < 0:
                v = basis[i]
            elif row[0] > det and basis[i] <= d:
                v = basis[i] + d  # x_k > 1: its face slack is negative
            else:
                continue
            if leave is None or v < least:
                leave, least = i, v
        if leave is None:
            return Tableau(tuple(rows), tuple(basis), tuple(nonbasic), det)
        if least != basis[leave]:
            rows[leave], basis[leave] = _complement(rows[leave], det), least
        enter = _entering(rows[leave], nonbasic)
        if enter is None:
            return None
        det = _exchange(rows, basis, nonbasic, det, leave, enter)


def minimum(state: Tableau, objective: Sequence[int]) -> tuple[int, int]:
    """Minimum of objective.x, for an objective of d ints, over the state's
    region, which is never empty: the int ratio (num, det), det > 0 the
    determinant of the optimal basis."""
    d = len(state.nonbasic)
    if len(objective) != d:
        raise ValueError("objective arity mismatch")
    m = len(state.rows)
    obj = _row(state, [0, *objective])  # its basic variable is -objective.x
    rows, basis, nonbasic, det = [*state.rows, obj], list(state.basis), list(state.nonbasic), state.det
    while True:
        obj = rows[m]
        enter = _entering(obj, nonbasic)
        if enter is None:
            return -obj[0], det
        # The entering variable's own face, the row of id d + k for x_k at 0
        # and of id k for x_k at 1, has the ratio det/det = 1; when it wins,
        # the step is a bound flip.
        v = nonbasic[enter - 1]
        leave = least = None
        if v <= 2 * d:
            least, num, den = v + d if v <= d else v - d, det, det
        for i in range(m):
            row = rows[i]
            a, b = row[enter], basis[i]
            if a > 0:
                r = row[0]
            elif a < 0 and b <= d:  # the implied row of s_b = 1 - x_b
                a, r, b = -a, det - row[0], b + d
            else:
                continue
            if least is not None:
                # r/a against num/den, both denominators positive.
                lhs, rhs = r * den, num * a
                if lhs > rhs or (lhs == rhs and b > least):
                    continue
            leave, least, num, den = i, b, r, a
        assert least is not None, "the cube bounds every variable"
        if leave is None:
            _flip(rows, nonbasic, enter)
            continue
        if least != basis[leave]:
            rows[leave], basis[leave] = _complement(rows[leave], det), least
        det = _exchange(rows, basis, nonbasic, det, leave, enter)


def lp_feasible(constraints: Iterable[Constraint], d: int) -> bool:
    """True iff {x in [0,1]^d : coeffs.x <= bound for each constraint} is nonempty.

    The cube is implied: pass only the rows that cut it.
    """
    return cut(cube(d), [scaled([(bound, *coeffs)])[1][0] for coeffs, bound in constraints]) is not None


def lp_extremum(
    objective: Sequence[Fraction],
    constraints: Iterable[Constraint],
    sense: str = "min",
    constant: Fraction = ZERO,
) -> Fraction:
    """Exact optimum of objective.x + constant over the cube cut by constraints.

    The domain is {x in [0,1]^len(objective) : coeffs.x <= bound}; pass only
    the rows that cut the cube.  Raises :class:`Infeasible` when it is empty.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    state = cut(cube(len(objective)), [scaled([(bound, *coeffs)])[1][0] for coeffs, bound in constraints])
    if state is None:
        raise Infeasible("empty feasible region")
    sign = 1 if sense == "min" else -1
    s, (obj,) = scaled([[sign * c for c in objective]])
    num, det = minimum(state, obj)
    return constant + sign * Fraction(num, det * s)
