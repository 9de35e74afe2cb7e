"""Exact rational scalars, closed intervals, and an exact linear-program solver.

Everything in this package computes over arbitrary-precision rationals; no
floating point is used anywhere.  Rationals are the standard-library
``fractions.Fraction``, which already guarantees lowest terms and a positive
denominator.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

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

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# Exact two-phase simplex with Bland's rule over the unit cube.
#
# Every LP in this package lives in [0,1]^d, so the solver owns the cube:
# the columns are x itself (x >= 0 comes free), and the upper faces x_i <= 1
# are d slack rows that start basic and feasible.  Callers pass only the rows
# that cut the cube; only a row with a negative bound needs phase 1.
# ---------------------------------------------------------------------------

Constraint = tuple[Sequence[Fraction], Fraction]  # coeffs . x <= bound


def _pivot(rows: list[list[Fraction]], basis: list[int], r: int, c: int) -> None:
    piv = rows[r][c]
    if piv != 1:
        rows[r] = [v / piv for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a if b == 0 else a - f * b for a, b in zip(row, prow)]
    basis[r] = c


def _run_simplex(rows: list[list[Fraction]], basis: list[int], ncols: int) -> None:
    """Minimize the objective in the last row in-place. Bland's rule throughout."""
    m = len(rows) - 1
    obj = rows[m]
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return
        leave, best = None, None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        assert leave is not None, "the cube bounds every column"
        _pivot(rows, basis, leave, enter)
        obj = rows[m]


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
    # Columns: x_1..x_d, upper-face slacks, row slacks, artificials, rhs.
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(d):  # x_i + s_i = 1
        row = [ZERO] * (ncols + nart + 1)
        row[i] = row[d + i] = row[-1] = ONE
        rows.append(row)
        basis.append(d + i)
    art = ncols
    for k, (coeffs, bound) in enumerate(constraints):
        if len(coeffs) != d:
            raise ValueError("constraint arity mismatch")
        row = [Fraction(c) for c in coeffs] + [ZERO] * (d + m + nart) + [Fraction(bound)]
        row[2 * d + k] = ONE
        if row[-1] < 0:
            row = [-v for v in row]
            row[art] = ONE
            basis.append(art)
            art += 1
        else:
            basis.append(2 * d + k)
        rows.append(row)

    if nart:
        obj = [ZERO] * ncols + [ONE] * nart + [ZERO]
        for row, b in zip(rows, basis):
            if b >= ncols:
                obj = [a - v for a, v in zip(obj, row)]
        rows.append(obj)
        _run_simplex(rows, basis, ncols + nart)
        if rows.pop()[-1] != 0:
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

    obj = [Fraction(c) for c in objective] + [ZERO] * (d + m + 1)
    for row, b in zip(rows, basis):
        if obj[b] != 0:
            f = obj[b]
            obj = [a - f * v for a, v in zip(obj, row)]
    rows.append(obj)
    _run_simplex(rows, basis, ncols)
    return -rows[-1][-1]


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
        return -_two_phase(cons, d, [-Fraction(c) for c in objective]) + constant
    raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
