"""Functional-equivalence checking over finite grids and random rational points.

Grid points are exactly {0, 1/k, ..., 1}^n in lexicographic order; comparison
is exact rational equality and the first counterexample is reported.
Formulas, networks and graphs are compared through their exact evaluators.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import formula as fm
from .formula import Formula
from .graph import SubstitutionGraph, graph_evaluator
from .network import Network, eval_network

PointFn = Callable[[Sequence[Fraction]], Fraction]


class _FiniteGrid(NamedTuple):
    k: int
    n: int


class FiniteGrid(_FiniteGrid):
    __slots__ = ()

    def __new__(cls, k: int, n: int) -> "FiniteGrid":
        if k < 1 or n < 0:
            raise ValueError("grid needs k >= 1 and n >= 0")
        return super().__new__(cls, k, n)

    def points(self) -> Iterator[tuple[Fraction, ...]]:
        axis = [Fraction(i, self.k) for i in range(self.k + 1)]
        return itertools.product(axis, repeat=self.n)


class Equal(NamedTuple):
    points_checked: int = 0


class Counterexample(NamedTuple):
    point: tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction


def grid_equal(f: PointFn, g: PointFn, grid: FiniteGrid) -> Equal | Counterexample:
    """Exact comparison at every grid point; first mismatch in lexicographic order."""
    return _compare(f, g, grid.points())


def sample_equal(
    f: PointFn, g: PointFn, n: int, trials: int, seed: int
) -> Equal | Counterexample:
    """Compare at seeded pseudo-random rational points (denominators <= 10^4)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    points = (tuple(Fraction(rng.randint(0, den), den) for den in (rng.randint(1, 10_000) for _ in range(n)))
              for _ in range(trials))
    return _compare(f, g, points)


def _compare(f: PointFn, g: PointFn, points: Iterable[tuple[Fraction, ...]]) -> Equal | Counterexample:
    """The first point where f and g differ, else Equal over every point."""
    count = 0
    for count, x in enumerate(points, 1):
        a, b = f(x), g(x)
        if a != b:
            return Counterexample(x, a, b)
    return Equal(count)


# ---------------------------------------------------------------------------
# Adapters
# ---------------------------------------------------------------------------


def formula_fn(f: Formula) -> PointFn:
    at = fm.evaluator((f,))
    return lambda x: at(x)[0]


def network_fn(net: Network) -> PointFn:
    return lambda x: eval_network(net, x)


def as_point_fn(obj) -> tuple[PointFn, int]:
    """(evaluator, required input arity) for a formula, network, or graph."""
    if isinstance(obj, Formula):
        return formula_fn(obj), obj.max_var
    if isinstance(obj, Network):
        return network_fn(obj), obj.input_dim
    if isinstance(obj, SubstitutionGraph):
        return graph_evaluator(obj), obj.widths[0]
    raise TypeError(f"cannot evaluate {type(obj).__name__}")
