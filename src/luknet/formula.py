"""Lukasiewicz/DMV/RMV formula trees.

Formula nodes are hash-consed: every constructor interns its result, so
structurally equal formulas are the *same object* and equality is a pointer
test.  This is what makes substitution composition and evaluation cheap even
when extraction produces formulas with exponentially many variable
occurrences: shared subtrees are built and evaluated once.

Walks over a formula in memory are loops over :func:`postorder`, the distinct
subterms children first, so their cost follows the DAG and no walk recurses.
The text format (``to_text``, ``parse``) still recurses on the tree.

A node stores only its fields, its children, ``max_var`` and its creation
serial, and its intern key holds the children themselves rather than boxed
ids.  The tree ``length`` is not stored: it is counted over the DAG on
demand, once per read, since it grows exponentially in the weights of an
extracted formula and nothing on the hot paths reads it.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count
from operator import attrgetter
from typing import Iterator, Mapping, Sequence
from weakref import WeakValueDictionary

from .numerics import parse_rational


class FormulaError(Exception):
    pass


class UnboundVariable(FormulaError):
    pass


class OutOfDomain(FormulaError):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


_interned: "WeakValueDictionary[tuple, Formula]" = WeakValueDictionary()


class Formula:
    """Base node.  Use the module-level constructors; never instantiate directly.

    Interning makes the default identity ``==`` and ``hash`` structural.  A
    node is fixed by its type, its operator key ``op`` and its children;
    ``rebuild`` makes the node of the same type and key over other children.
    """

    __slots__ = ("max_var", "serial", "__weakref__")
    op = None

    @property
    def length(self) -> int:
        """Variable occurrences in the expanded tree, counted over the DAG."""
        sizes: dict[Formula, int] = {}
        for node in postorder(self):
            sizes[node] = 1 if type(node) is Var else sum(sizes[kid] for kid in node.children())
        return sizes[self]

    def __repr__(self):
        return to_text(self)

    def children(self) -> tuple["Formula", ...]:
        return ()

    def rebuild(self, kids: Sequence["Formula"]) -> "Formula":
        return self


class Const(Formula):
    __slots__ = ("value",)
    op = property(lambda self: self.value)

    def __init__(self, value: int):
        self.value, self.max_var = value, 0


class Var(Formula):
    __slots__ = ("index",)
    op = property(lambda self: self.index)

    def __init__(self, index: int):
        self.index, self.max_var = index, index


class _Unary(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        self.child, self.max_var = child, child.max_var

    def children(self):
        return (self.child,)


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left, self.right = left, right
        self.max_var = max(left.max_var, right.max_var)

    def children(self):
        return (self.left, self.right)


class Not(_Unary):
    __slots__ = ()

    def rebuild(self, kids):
        return lnot(*kids)


class Oplus(_Binary):
    __slots__ = ()

    def rebuild(self, kids):
        return oplus(*kids)


class Odot(_Binary):
    __slots__ = ()

    def rebuild(self, kids):
        return odot(*kids)


class Delta(_Unary):
    """Division operator of rational Lukasiewicz logic: value x / divisor."""

    __slots__ = ("divisor",)
    op = property(lambda self: self.divisor)

    def __init__(self, divisor: int, child: Formula):
        _Unary.__init__(self, child)
        self.divisor = divisor

    def rebuild(self, kids):
        return delta(self.divisor, *kids)


class Scale(_Unary):
    """Scalar operator of the real-valued extension: value factor * x."""

    __slots__ = ("factor",)
    op = property(lambda self: self.factor)

    def __init__(self, factor: Fraction, child: Formula):
        _Unary.__init__(self, child)
        self.factor = factor

    def rebuild(self, kids):
        return scale(self.factor, *kids)


_serials = count()


def _make(key: tuple, cls: type, *args) -> Formula:
    """Miss path of every constructor: build the node and intern it."""
    node = cls(*args)
    node.serial = next(_serials)
    _interned[key] = node
    return node


ZERO: Const = _make(("c", 0), Const, 0)
ONE: Const = _make(("c", 1), Const, 1)


def var(index: int) -> Var:
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    key = ("v", index)
    return _interned.get(key) or _make(key, Var, index)  # type: ignore[return-value]


def lnot(child: Formula) -> Formula:
    key = ("n", child)
    return _interned.get(key) or _make(key, Not, child)


def oplus(left: Formula, right: Formula) -> Formula:
    key = ("+", left, right)
    return _interned.get(key) or _make(key, Oplus, left, right)


def odot(left: Formula, right: Formula) -> Formula:
    key = ("*", left, right)
    return _interned.get(key) or _make(key, Odot, left, right)


def delta(divisor: int, child: Formula) -> Formula:
    if divisor < 1:
        raise ValueError(f"delta divisor must be >= 1, got {divisor}")
    key = ("d", divisor, child)
    return _interned.get(key) or _make(key, Delta, divisor, child)


def scale(factor: Fraction, child: Formula) -> Formula:
    factor = Fraction(factor)
    if not 0 <= factor <= 1:
        raise ValueError(f"scale factor must lie in [0,1], got {factor}")
    key = ("s", factor, child)
    return _interned.get(key) or _make(key, Scale, factor, child)


def postorder(f: Formula) -> list[Formula]:
    """The distinct subterms of f in creation order: children first, f last."""
    seen = {f}
    stack = [f]
    while stack:
        for kid in stack.pop().children():
            if kid not in seen:
                seen.add(kid)
                stack.append(kid)
    return sorted(seen, key=attrgetter("serial"))


# ---------------------------------------------------------------------------
# Evaluation in the standard algebra on [0,1]
# ---------------------------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)


def evaluate(f: Formula, assignment) -> Fraction:
    """Exact truth value of f under the assignment (1-based variable indices).

    oplus = min(1,x+y), odot = max(0,x+y-1), not = 1-x, delta_i = x/i,
    scale_r = r*x.  Raises UnboundVariable / OutOfDomain on bad input.
    """
    values = [Fraction(v) for v in assignment]
    for v in values:
        if not _F0 <= v <= _F1:
            raise OutOfDomain(f"assignment value {v} outside [0,1]")
    if f.max_var > len(values):
        raise UnboundVariable(
            f"formula uses x{f.max_var} but only {len(values)} values were given"
        )
    memo: dict[Formula, Fraction] = {}
    for node in postorder(f):
        t = type(node)
        if t is Var:
            r = values[node.index - 1]
        elif t is Const:
            r = _F1 if node.value else _F0
        elif t is Not:
            r = _F1 - memo[node.child]
        elif t is Oplus:
            s = memo[node.left] + memo[node.right]
            r = s if s < _F1 else _F1
        elif t is Odot:
            s = memo[node.left] + memo[node.right] - _F1
            r = s if s > _F0 else _F0
        elif t is Delta:
            r = memo[node.child] / node.divisor
        else:
            r = node.factor * memo[node.child]
        memo[node] = r
    return memo[f]


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

Substitution = Mapping[int, Formula]


def substitute(f: Formula, subst: Substitution) -> Formula:
    """Simultaneously replace every occurrence of each mapped variable.

    Unmapped variables and the constants are fixed points.  Sharing in the
    input is preserved in the output.
    """
    memo: dict[Formula, Formula] = {}
    for node in postorder(f):
        if type(node) is Var:
            memo[node] = subst.get(node.index, node)
        else:
            memo[node] = node.rebuild([memo[kid] for kid in node.children()])
    return memo[f]


def compose(z1: Substitution, z2: Substitution) -> dict[int, Formula]:
    """Composition z1 then z2: maps each key k of z1 to substitute(z1[k], z2)."""
    return {k: substitute(v, z2) for k, v in z1.items()}


def variables(f: Formula) -> set[int]:
    """Set of variable indices occurring in f."""
    return {node.index for node in postorder(f) if type(node) is Var}


def dag_size(f: Formula) -> int:
    """Number of distinct subterm objects (the cost unit for shared formulas)."""
    return len(postorder(f))


# ---------------------------------------------------------------------------
# Canonical text format (s-expressions)
# ---------------------------------------------------------------------------


def to_text(f: Formula) -> str:
    """Canonical fully-parenthesized s-expression form."""
    parts: list[str] = []

    def go(node: Formula) -> None:
        if isinstance(node, Const):
            parts.append("1" if node.value else "0")
        elif isinstance(node, Var):
            parts.append(f"x{node.index}")
        elif isinstance(node, Not):
            parts.append("(not ")
            go(node.child)
            parts.append(")")
        elif isinstance(node, Oplus):
            parts.append("(oplus ")
            go(node.left)
            parts.append(" ")
            go(node.right)
            parts.append(")")
        elif isinstance(node, Odot):
            parts.append("(odot ")
            go(node.left)
            parts.append(" ")
            go(node.right)
            parts.append(")")
        elif isinstance(node, Delta):
            parts.append(f"(delta {node.divisor} ")
            go(node.child)
            parts.append(")")
        else:
            assert isinstance(node, Scale)
            parts.append(f"(scale {node.factor} ")
            go(node.child)
            parts.append(")")

    go(f)
    return "".join(parts)


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            yield ch, i
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            yield text[i:j], i
            i = j


def parse(text: str) -> Formula:
    """Parse the canonical grammar; raises FormulaSyntaxError with byte offset."""
    tokens = list(_tokenize(text))
    pos = 0

    def fail(msg: str, offset: int):
        raise FormulaSyntaxError(msg, offset)

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, len(text))

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def atom(tok: str, off: int) -> Formula:
        if tok == "0":
            return ZERO
        if tok == "1":
            return ONE
        if tok.startswith("x") and tok[1:].isdigit() and int(tok[1:]) >= 1:
            return var(int(tok[1:]))
        fail(f"expected formula atom, got {tok!r}", off)

    def expr() -> Formula:
        tok, off = take()
        if tok is None:
            fail("unexpected end of input", off)
        if tok != "(":
            return atom(tok, off)
        head, hoff = take()
        if head == "not":
            child = expr()
            close()
            return lnot(child)
        if head in ("oplus", "odot"):
            left = expr()
            right = expr()
            close()
            return oplus(left, right) if head == "oplus" else odot(left, right)
        if head == "delta":
            num, noff = take()
            if num is None or not num.isdigit() or int(num) < 1:
                fail("delta expects a positive integer divisor", noff)
            child = expr()
            close()
            return delta(int(num), child)
        if head == "scale":
            num, noff = take()
            try:
                factor = parse_rational(num)
            except ValueError:
                factor = None
            if factor is None or not 0 <= factor <= 1:
                fail("scale expects a rational factor in [0,1]", noff)
            child = expr()
            close()
            return scale(factor, child)
        fail(f"unknown operator {head!r}", hoff)

    def close() -> None:
        tok, off = take()
        if tok != ")":
            fail("expected ')'", off)

    result = expr()
    tok, off = peek()
    if tok is not None:
        fail(f"trailing input {tok!r}", off)
    return result
