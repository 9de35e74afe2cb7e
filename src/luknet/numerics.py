"""Exact rational scalars, closed intervals, JSON field readers, and an exact
linear-program solver.

Everything in this package is exact; no floating point is used anywhere.
Rationals are the standard-library ``fractions.Fraction``, which already
guarantees lowest terms and a positive denominator.  The simplex runs on a
tableau of Python ints (each row a positive multiple of its rational row),
is cut one batch of rows at a time, and returns its optimum as a Fraction.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class Infeasible(Exception):
    """The feasible region of a linear program is empty."""


def parse_rational(text: str) -> Fraction:
    """Parse the decimal-free wire format ``p/q`` or ``p`` (sign on numerator)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a canonical rational: {text!r}")
    return Fraction(text)


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

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


# ---------------------------------------------------------------------------
# Incremental exact simplex over the unit cube, fraction-free.
#
# Every LP in this package lives in [0,1]^d, so the solver owns the cube:
# the columns are x itself (x >= 0 comes free), and the upper faces x_i <= 1
# are its first d rows, whose slacks start basic and feasible.  A Tableau
# holds a feasible basis of the cube cut by the rows so far; callers pass
# only the rows that cut it.  There is one simplex core with two entry points:
#
# - cut(state, rows) adds each row with its own slack basic, priced out
#   against the basis, and restores feasibility by a dual simplex with a zero
#   objective.  Every dual ratio is then 0, so choosing the least index for
#   both the leaving row (by its basic variable) and the entering column is
#   Bland's rule on the dual LP, which cannot cycle (Bland, Math. OR 1977).
#   A leaving row with no negative entry sets a sum of nonnegative terms to
#   a negative value: the cut region is empty.
# - minimum(state, objective) prices the objective into a copy of the state
#   and runs the primal simplex, again with Bland's rule.
#
# A returned state is never changed again, so a depth-first search can cut
# each child from the state its parent left feasible and come back to the
# parent (incremental simplex as in Katz et al., "Reluplex", CAV 2017).
#
# The tableau holds Python ints (Bareiss; Azulay & Pique, ACM TOMS 2001):
# each row is a positive multiple of the row of the rational tableau, scaled
# once to integers and divided by its gcd after every pivot.  The objective
# row carries its own multiple in one extra column.  Signs and ratios do not
# change under a positive multiple, so the pivots are those of the rational
# tableau.
# ---------------------------------------------------------------------------

Constraint = tuple[Sequence[Fraction], Fraction]  # coeffs . x <= bound; int or Fraction


class Tableau(NamedTuple):
    """A feasible basis of {x in [0,1]^d : the rows cut so far}.

    Row r is [rhs, x_1..x_d, one slack column per row]; its own slack is
    column d + 1 + r, and its basic column holds a positive entry.  The
    first d rows are the upper faces x_i <= 1 (see :func:`cube`).
    """

    d: int
    rows: tuple[list[int], ...]
    basis: tuple[int, ...]


def cube(d: int) -> Tableau:
    """The bare cube [0,1]^d: its upper faces x_i <= 1 cut from no rows at all."""
    return cut(Tableau(d, (), ()), [([int(i == k) for i in range(d)], 1) for k in range(d)])


def _scale(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """A row of ints or Fractions times s, the lcm of its denominators, and s."""
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


def _reduce(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """piv*row - f*prow, which has 0 in column c, divided by its gcd.

    A row longer than prow (the objective's multiple) has its tail scaled by piv.
    """
    piv, f = prow[c], row[c]
    out = [piv * a - f * b if b else piv * a for a, b in zip(row, prow)]
    out += [piv * a for a in row[len(prow):]]
    return _reduce(out)


def _price_out(row: list[int], rows: Sequence[list[int]], basis: Sequence[int]) -> list[int]:
    """The row with every basic column eliminated."""
    for prow, b in zip(rows, basis):
        if row[b] != 0:
            row = _eliminate(row, prow, b)
    return row


def _pivot(rows: list[list[int]], basis: list[int], r: int, c: int) -> None:
    if rows[r][c] < 0:  # the dual simplex pivots on a negative entry
        rows[r] = [-v for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            rows[i] = _eliminate(row, prow, c)
    basis[r] = c


def _run_simplex(rows: list[list[int]], basis: list[int]) -> None:
    """Minimize the objective in the last row in-place. Bland's rule throughout."""
    m = len(rows) - 1
    obj = rows[m]
    width = len(obj) - 1  # the objective's multiple is no column
    while True:
        enter = next((j for j in range(1, width) if obj[j] < 0), None)
        if enter is None:
            return
        leave = None
        for i in range(m):
            row = rows[i]
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, row[0], a
                    continue
                # row[0]/a against num/den, both denominators positive.
                lhs, rhs = row[0] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[0], a
        assert leave is not None, "the cube bounds every column"
        _pivot(rows, basis, leave, enter)
        obj = rows[m]


def cut(state: Tableau, constraints: Sequence[Constraint]) -> Tableau | None:
    """The state cut by coeffs.x <= bound for each constraint, or None when
    the cut region is empty.  ``state`` itself is left as it is."""
    d, k = state.d, len(constraints)
    width = 1 + d + len(state.rows) + k
    pad = [0] * k
    rows = [row + pad for row in state.rows]
    basis = list(state.basis)
    for coeffs, bound in constraints:
        if len(coeffs) != d:
            raise ValueError("constraint arity mismatch")
        scaled, s = _scale([bound, *coeffs])
        row = scaled + [0] * (width - 1 - d)
        slack = d + 1 + len(rows)
        row[slack] = s
        rows.append(_price_out(_reduce(row), rows, basis))
        basis.append(slack)
    while True:
        leave = None
        for i, row in enumerate(rows):
            if row[0] < 0 and (leave is None or basis[i] < basis[leave]):
                leave = i
        if leave is None:
            return Tableau(d, tuple(rows), tuple(basis))
        row = rows[leave]
        enter = next((j for j in range(1, width) if row[j] < 0), None)
        if enter is None:
            return None
        _pivot(rows, basis, leave, enter)


def minimum(state: Tableau, objective: Sequence[int | Fraction]) -> Fraction:
    """Minimum of objective.x over the state's region, which is never empty."""
    if len(objective) != state.d:
        raise ValueError("objective arity mismatch")
    coeffs, s = _scale(objective)
    rows = list(state.rows)
    basis = list(state.basis)
    obj = [0, *coeffs] + [0] * len(rows) + [s]
    rows.append(_price_out(obj, rows, basis))
    _run_simplex(rows, basis)
    obj = rows[-1]
    return Fraction(-obj[0], obj[-1])


def lp_feasible(constraints: Iterable[Constraint], d: int) -> bool:
    """True iff {x in [0,1]^d : coeffs.x <= bound for each constraint} is nonempty.

    The cube is implied: pass only the rows that cut it.
    """
    return cut(cube(d), list(constraints)) is not None


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
    state = cut(cube(len(objective)), list(constraints))
    if state is None:
        raise Infeasible("empty feasible region")
    if sense == "min":
        return minimum(state, objective) + constant
    return constant - minimum(state, [-c for c in objective])
