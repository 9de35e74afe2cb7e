"""Exact rational scalars, closed intervals, JSON field readers, and an exact
linear-program solver.

Everything in this package is exact; no floating point is used anywhere.
Rationals are the standard-library ``fractions.Fraction``, which already
guarantees lowest terms and a positive denominator.  The simplex runs on a
tableau of Python ints (each row a positive multiple of its rational row)
and returns its optimum as a Fraction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class Infeasible(Exception):
    """The feasible region of a linear program is empty."""


def parse_rational(text: str) -> Fraction:
    """Parse the decimal-free wire format ``p/q`` or ``p`` (sign on numerator)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a canonical rational: {text!r}")
    return Fraction(text)


def json_int(value, what: str) -> int:
    """A JSON integer as is; a float, a bool or a string is bad input."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
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


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


# ---------------------------------------------------------------------------
# Exact two-phase simplex with Bland's rule over the unit cube, fraction-free.
#
# Every LP in this package lives in [0,1]^d, so the solver owns the cube:
# the columns are x itself (x >= 0 comes free), and the upper faces x_i <= 1
# are d slack rows that start basic and feasible.  Callers pass only the rows
# that cut the cube; only a row with a negative bound needs phase 1.
#
# The tableau holds Python ints (Bareiss; Azulay & Pique, ACM TOMS 2001):
# each row is a positive multiple of the row of the rational tableau, scaled
# once to integers and divided by its gcd after every pivot.  The objective
# row carries its own multiple in one extra column.  Signs and ratios do not
# change under a positive multiple, so the pivots are those of the rational
# tableau.
# ---------------------------------------------------------------------------

Constraint = tuple[Sequence[Fraction], Fraction]  # coeffs . x <= bound; int or Fraction


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


def _pivot(rows: list[list[int]], basis: list[int], r: int, c: int) -> None:
    if rows[r][c] < 0:  # only when driving out a zero-level artificial
        rows[r] = [-v for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            rows[i] = _eliminate(row, prow, c)
    basis[r] = c


def _run_simplex(rows: list[list[int]], basis: list[int], ncols: int) -> None:
    """Minimize the objective in the last row in-place. Bland's rule throughout."""
    m = len(rows) - 1
    obj = rows[m]
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return
        leave = None
        for i in range(m):
            row = rows[i]
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, row[-1], a
                    continue
                # row[-1]/a against num/den, both denominators positive.
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
        assert leave is not None, "the cube bounds every column"
        _pivot(rows, basis, leave, enter)
        obj = rows[m]


def _objective(
    coeffs: list[int], mult: int, rows: list[list[int]], basis: list[int]
) -> list[int]:
    """The objective row coeffs/mult priced out against the basis.

    Its last entry is its multiple: the rational row is obj[:-1] / obj[-1].
    """
    obj = coeffs + [mult]
    for row, b in zip(rows, basis):
        if obj[b] != 0:
            obj = _eliminate(obj, row, b)
    return obj


def _two_phase(
    constraints: Sequence[Constraint], d: int, objective: Sequence[Fraction] | None
) -> Fraction | None:
    """Minimum of objective.x over {x in [0,1]^d : coeffs.x <= bound}.

    Returns None when only feasibility was requested (objective None) and the
    region is nonempty.  Raises Infeasible when it is empty.
    """
    m = len(constraints)
    ncols = 2 * d + m
    nart = sum(1 for _, bound in constraints if bound < 0)
    width = ncols + nart + 1
    # Columns: x_1..x_d, upper-face slacks, row slacks, artificials, rhs.
    rows: list[list[int]] = []
    basis: list[int] = []
    for i in range(d):  # x_i + s_i = 1
        row = [0] * width
        row[i] = row[d + i] = row[-1] = 1
        rows.append(row)
        basis.append(d + i)
    art = ncols
    for k, (coeffs, bound) in enumerate(constraints):
        if len(coeffs) != d:
            raise ValueError("constraint arity mismatch")
        scaled, s = _scale([*coeffs, bound])
        row = scaled[:-1] + [0] * (d + m + nart) + scaled[-1:]
        row[2 * d + k] = s
        if row[-1] < 0:
            row = [-v for v in row]
            row[art] = s
            basis.append(art)
            art += 1
        else:
            basis.append(2 * d + k)
        rows.append(_reduce(row))

    if nart:
        rows.append(_objective([0] * ncols + [1] * nart + [0], 1, rows, basis))
        _run_simplex(rows, basis, ncols + nart)
        if rows.pop()[-2] != 0:
            raise Infeasible("empty feasible region")
        # Drive any zero-level artificial out of the basis, then drop the
        # artificial columns.  Every row has its own slack, so the rows are
        # independent over the first ncols columns and a pivot always exists.
        for i, b in enumerate(basis):
            if b >= ncols:
                _pivot(rows, basis, i, next(j for j in range(ncols) if rows[i][j] != 0))
        rows = [row[:ncols] + row[-1:] for row in rows]
    if objective is None:
        return None

    coeffs, s = _scale(objective)
    rows.append(_objective(coeffs + [0] * (d + m + 1), s, rows, basis))
    _run_simplex(rows, basis, ncols)
    *_, rhs, mult = rows[-1]
    return Fraction(-rhs, mult)


def lp_feasible(constraints: Sequence[Constraint], d: int) -> bool:
    """True iff {x in [0,1]^d : coeffs.x <= bound for each constraint} is nonempty.

    The cube is implied: pass only the rows that cut it.
    """
    try:
        _two_phase(constraints, d, None)
    except Infeasible:
        return False
    return True


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
    cons = list(constraints)
    d = len(objective)
    if sense == "min":
        return _two_phase(cons, d, objective) + constant
    if sense == "max":
        return -_two_phase(cons, d, [-c for c in objective]) + constant
    raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
