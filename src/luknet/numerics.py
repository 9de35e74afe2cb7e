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
# Exact two-phase simplex with Bland's rule.
#
# Variables are free (internally split into positive/negative parts); every
# caller in this package bounds them through explicit cube constraints.
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
        if leave is None:
            raise ValueError("linear program is unbounded")
        _pivot(rows, basis, leave, enter)
        obj = rows[m]


def _two_phase(
    constraints: Sequence[Constraint], d: int, objective: Sequence[Fraction] | None
) -> tuple[Fraction, list[Fraction]] | None:
    """Solve min objective.x over {x : coeffs.x <= bound}; x free via split parts.

    Returns (optimum, argmin) or None when only feasibility was requested
    (objective None) and the region is nonempty.  Raises Infeasible otherwise.
    """
    m = len(constraints)
    nsplit = 2 * d
    nslack = m
    # Columns: u_1..u_d, v_1..v_d, slacks, artificials, rhs.
    rows: list[list[Fraction]] = []
    art_cols: list[int] = []
    basis: list[int] = []
    for i, (coeffs, bound) in enumerate(constraints):
        if len(coeffs) != d:
            raise ValueError("constraint arity mismatch")
        row = [Fraction(c) for c in coeffs] + [-Fraction(c) for c in coeffs]
        row += [ONE if j == i else ZERO for j in range(nslack)]
        row.append(Fraction(bound))
        if row[-1] < 0:
            row = [-v for v in row]
        rows.append(row)
    ncols = nsplit + nslack
    for i in range(m):
        if rows[i][nsplit + i] == ONE:  # slack survived as +1: usable basic column
            basis.append(nsplit + i)
        else:
            col = ncols + len(art_cols)
            art_cols.append(col)
            basis.append(col)
    total = ncols + len(art_cols)
    for i, row in enumerate(rows):
        rhs = row.pop()
        row.extend(ONE if basis[i] == c else ZERO for c in art_cols)
        row.append(rhs)

    if art_cols:
        obj = [ZERO] * (total + 1)
        for col in art_cols:
            obj[col] = ONE
        for i in range(m):
            if basis[i] in art_cols:
                obj = [a - b for a, b in zip(obj, rows[i])]
        rows.append(obj)
        _run_simplex(rows, basis, total)
        if rows[-1][-1] != 0:
            raise Infeasible("empty feasible region")
        rows.pop()
        # Drive any zero-level artificial out of the basis.
        for i in range(m):
            if basis[i] in art_cols:
                piv = next((j for j in range(ncols) if rows[i][j] != 0), None)
                if piv is not None:
                    _pivot(rows, basis, i, piv)
    if objective is None:
        return None

    obj = [Fraction(c) for c in objective] + [-Fraction(c) for c in objective]
    obj += [ZERO] * (total - nsplit) + [ZERO]
    for i in range(m):
        b = basis[i]
        if b < total and obj[b] != 0:
            f = obj[b]
            obj = [a - f * v for a, v in zip(obj, rows[i])]
    rows.append(obj)
    for col in art_cols:  # forbid re-entering artificials
        rows[-1][col] = ONE
    _run_simplex(rows, basis, ncols)

    values = [ZERO] * total
    for i in range(m):
        values[basis[i]] = rows[i][-1]
    point = [values[j] - values[d + j] for j in range(d)]
    opt = sum((Fraction(c) * x for c, x in zip(objective, point)), ZERO)
    return opt, point


def lp_feasible(constraints: Sequence[Constraint], d: int) -> bool:
    """True iff {x : coeffs.x <= bound for each constraint} is nonempty."""
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
    """Exact optimum of the affine functional objective.x + constant.

    The region must be nonempty and bounded in the objective direction; callers
    always intersect with the unit cube.  Raises :class:`Infeasible` when empty.
    """
    cons = list(constraints)
    d = len(objective)
    if sense == "min":
        coeffs = list(objective)
        value, _ = _two_phase(cons, d, coeffs)
        return value + constant
    if sense == "max":
        coeffs = [-Fraction(c) for c in objective]
        value, _ = _two_phase(cons, d, coeffs)
        return -value + constant
    raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")


def cube_constraints(d: int) -> list[Constraint]:
    """The 2d inequalities pinning x to the unit cube [0,1]^d."""
    cons: list[Constraint] = []
    for i in range(d):
        row = [ZERO] * d
        row[i] = ONE
        cons.append((tuple(row), ONE))
        row2 = [ZERO] * d
        row2[i] = -ONE
        cons.append((tuple(row2), ZERO))
    return cons
