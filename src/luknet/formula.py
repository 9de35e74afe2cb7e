"""Lukasiewicz/DMV/RMV formula trees.

Formula nodes are hash-consed: every constructor interns its result, so
structurally equal formulas are the *same object* and equality is a pointer
test.  This is what makes substitution composition and evaluation cheap even
when extraction produces formulas with exponentially many variable
occurrences: shared subtrees are built and evaluated once.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping
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
    """Base node.  Use the module-level constructors; never instantiate directly."""

    __slots__ = ("max_var", "length", "__weakref__")

    # Interning makes identity coincide with structural equality.
    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __hash__(self):
        return object.__hash__(self)

    def __repr__(self):
        return to_text(self)

    def children(self) -> tuple["Formula", ...]:
        return ()


class Const(Formula):
    __slots__ = ("value",)


class Var(Formula):
    __slots__ = ("index",)


class Not(Formula):
    __slots__ = ("child",)

    def children(self):
        return (self.child,)


class Oplus(Formula):
    __slots__ = ("left", "right")

    def children(self):
        return (self.left, self.right)


class Odot(Formula):
    __slots__ = ("left", "right")

    def children(self):
        return (self.left, self.right)


class Delta(Formula):
    """Division operator of rational Lukasiewicz logic: value x / divisor."""

    __slots__ = ("divisor", "child")

    def children(self):
        return (self.child,)


class Scale(Formula):
    """Scalar operator of the real-valued extension: value factor * x."""

    __slots__ = ("factor", "child")

    def children(self):
        return (self.child,)


def _intern(key: tuple, node: Formula) -> Formula:
    found = _interned.get(key)
    if found is not None:
        return found
    _interned[key] = node
    return node


def _mk_const(value: int) -> Const:
    node = Const()
    node.value = value
    node.max_var = 0
    node.length = 0
    return node


ZERO: Const = _mk_const(0)
ONE: Const = _mk_const(1)
_interned[("c", 0)] = ZERO
_interned[("c", 1)] = ONE


def var(index: int) -> Var:
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    key = ("v", index)
    found = _interned.get(key)
    if found is not None:
        return found  # type: ignore[return-value]
    node = Var()
    node.index = index
    node.max_var = index
    node.length = 1
    return _intern(key, node)  # type: ignore[return-value]


def lnot(child: Formula) -> Formula:
    key = ("n", id(child))
    found = _interned.get(key)
    if found is not None:
        return found
    node = Not()
    node.child = child
    node.max_var = child.max_var
    node.length = child.length
    return _intern(key, node)


def _mk_binary(cls, tag: str, left: Formula, right: Formula) -> Formula:
    key = (tag, id(left), id(right))
    found = _interned.get(key)
    if found is not None:
        return found
    node = cls()
    node.left = left
    node.right = right
    node.max_var = max(left.max_var, right.max_var)
    node.length = left.length + right.length
    return _intern(key, node)


def oplus(left: Formula, right: Formula) -> Formula:
    return _mk_binary(Oplus, "+", left, right)


def odot(left: Formula, right: Formula) -> Formula:
    return _mk_binary(Odot, "*", left, right)


def delta(divisor: int, child: Formula) -> Formula:
    if divisor < 1:
        raise ValueError(f"delta divisor must be >= 1, got {divisor}")
    key = ("d", divisor, id(child))
    found = _interned.get(key)
    if found is not None:
        return found
    node = Delta()
    node.divisor = divisor
    node.child = child
    node.max_var = child.max_var
    node.length = child.length
    return _intern(key, node)


def scale(factor: Fraction, child: Formula) -> Formula:
    factor = Fraction(factor)
    if not 0 <= factor <= 1:
        raise ValueError(f"scale factor must lie in [0,1], got {factor}")
    key = ("s", factor, id(child))
    found = _interned.get(key)
    if found is not None:
        return found
    node = Scale()
    node.factor = factor
    node.child = child
    node.max_var = child.max_var
    node.length = child.length
    return _intern(key, node)


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

    def go(node: Formula) -> Fraction:
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Var):
            r = values[node.index - 1]
        elif isinstance(node, Const):
            r = _F1 if node.value else _F0
        elif isinstance(node, Not):
            r = _F1 - go(node.child)
        elif isinstance(node, Oplus):
            s = go(node.left) + go(node.right)
            r = s if s < _F1 else _F1
        elif isinstance(node, Odot):
            s = go(node.left) + go(node.right) - _F1
            r = s if s > _F0 else _F0
        elif isinstance(node, Delta):
            r = go(node.child) / node.divisor
        else:
            assert isinstance(node, Scale)
            r = node.factor * go(node.child)
        memo[node] = r
        return r

    return go(f)


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

    def go(node: Formula) -> Formula:
        if node.max_var == 0:
            return node  # constants and variable-free subtrees are untouched
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Var):
            r = subst.get(node.index, node)
        elif isinstance(node, Not):
            r = lnot(go(node.child))
        elif isinstance(node, Oplus):
            r = oplus(go(node.left), go(node.right))
        elif isinstance(node, Odot):
            r = odot(go(node.left), go(node.right))
        elif isinstance(node, Delta):
            r = delta(node.divisor, go(node.child))
        else:
            assert isinstance(node, Scale)
            r = scale(node.factor, go(node.child))
        memo[node] = r
        return r

    return go(f)


def compose(z1: Substitution, z2: Substitution) -> dict[int, Formula]:
    """Composition z1 then z2: maps each key k of z1 to substitute(z1[k], z2)."""
    return {k: substitute(v, z2) for k, v in z1.items()}


def variables(f: Formula) -> set[int]:
    """Set of variable indices occurring in f."""
    seen: set[Formula] = set()
    out: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node in seen or node.max_var == 0:
            continue
        seen.add(node)
        if isinstance(node, Var):
            out.add(node.index)
        else:
            stack.extend(node.children())
    return out


def dag_size(f: Formula) -> int:
    """Number of distinct subterm objects (the cost unit for shared formulas)."""
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.children())
    return len(seen)


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
