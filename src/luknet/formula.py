"""Lukasiewicz/DMV/RMV formula trees.

Formula nodes are hash-consed: every constructor interns its result, so
structurally equal formulas are the *same object* and equality is a pointer
test.  This is what makes substitution composition and evaluation cheap even
when extraction produces formulas with exponentially many variable
occurrences: shared subtrees are built and evaluated once.

Walks over a formula in memory are loops over :func:`postorder`, the distinct
subterms children first, so their cost follows the DAG and no walk recurses.
Evaluation compiles that order once into a flat program of int steps over a
static scale per subterm, so a point costs no Fraction per node.
The two text forms are loops too.  The s-expression (``to_text``, ``parse``)
spells out the expanded tree, so its size follows the tree, and it serves
the command line, rewrite traces and display.  The term table (``to_terms``,
``from_terms``) writes each distinct subterm once, so its size follows the
DAG, and it is the formula half of the graph file.

A node stores only its fields, its children and ``max_var``, and its intern
key holds the children themselves rather than boxed ids.  The intern table
is a plain dict from key to a weak reference that carries its key, and a
constructor reads it inline: a hit is one dict lookup and one call.  The
reference's callback removes the entry when its node dies, so the table
keeps no node alive and shrinks without a garbage collection.  The tree
``length`` is not stored: it is counted over the DAG on demand, once per
read, since it grows exponentially in the weights of an extracted formula
and nothing on the hot paths reads it.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence
from weakref import ref

from .numerics import parse_rational, scaled


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class _Entry(ref):
    """A value of the intern table: a weak reference to a node, with its key."""

    __slots__ = ("key",)


# The intern table: the key of every live node (a tag, its parameter if any,
# its children) mapped to an _Entry of it.
_interned: "dict[tuple, _Entry]" = {}


def _drop(entry: _Entry, table: "dict[tuple, _Entry]" = _interned) -> None:
    """Callback of an entry whose node died: remove the entry.

    The key may hold a newer entry by now, for a node rebuilt after this one
    died; that one stays.  The table is bound here, not read as a global,
    because a module's globals are cleared at interpreter exit before its
    last nodes die.
    """
    if table.get(entry.key) is entry:
        del table[entry.key]


# The most nodes an expanded tree may have for ``repr`` to spell it out.
_REPR_LIMIT = 10_000


class Formula:
    """Base node.  Use the module-level constructors; never instantiate directly.

    Interning makes the default identity ``==`` and ``hash`` structural.  A
    node is fixed by its type, its parameter ``op`` and its children.
    ``head`` names the operator in the text forms and keys its row of
    ``_OPS``; atoms have none.
    """

    __slots__ = ("max_var", "__weakref__")
    op = None
    head = None

    @property
    def length(self) -> int:
        """Variable occurrences in the expanded tree, counted over the DAG."""
        return _tree_sizes(self)[2]

    def __repr__(self):
        """``to_text`` of a small formula; past ``_REPR_LIMIT`` tree nodes,
        whose text could outgrow any memory, a one-line summary instead."""
        distinct, nodes, length = _tree_sizes(self)
        if nodes <= _REPR_LIMIT:
            return to_text(self)
        return f"<{_head_text(self)}: {distinct} distinct subterms, tree length {length}>"

    def children(self) -> tuple["Formula", ...]:
        return ()

    def rebuild(self, kids: Sequence["Formula"]) -> "Formula":
        """The node of the same operator and parameter over other children."""
        if self.head is None:
            return self
        build = _OPS[self.head][0]
        return build(*kids) if self.op is None else build(self.op, *kids)


class Const(Formula):
    __slots__ = ("value",)
    op = property(lambda self: self.value)

    def __init__(self, value: int):
        self.value, self.max_var = value, 0


class Var(Formula):
    __slots__ = ("index",)

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
    head = "not"


class Oplus(_Binary):
    __slots__ = ()
    head = "oplus"


class Odot(_Binary):
    __slots__ = ()
    head = "odot"


class Delta(_Unary):
    """Division operator of rational Lukasiewicz logic: value x / divisor."""

    __slots__ = ("divisor",)
    head = "delta"
    op = property(lambda self: self.divisor)

    def __init__(self, divisor: int, child: Formula):
        _Unary.__init__(self, child)
        self.divisor = divisor


class Scale(_Unary):
    """Scalar operator of the real-valued extension: value factor * x."""

    __slots__ = ("factor",)
    head = "scale"
    op = property(lambda self: self.factor)

    def __init__(self, factor: Fraction, child: Formula):
        _Unary.__init__(self, child)
        self.factor = factor


def _make(key: tuple, cls: type, *args) -> Formula:
    """Miss path of every constructor: build the node and intern it."""
    node = cls(*args)
    entry = _Entry(node, _drop)
    entry.key = key
    _interned[key] = entry
    return node


ZERO: Const = _make(("c", 0), Const, 0)
ONE: Const = _make(("c", 1), Const, 1)


# Each constructor reads the table inline; a miss, or an entry whose node is
# already gone, builds the node.
def var(index: int) -> Var:
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    key = ("v", index)
    entry = _interned.get(key)
    return (entry and entry()) or _make(key, Var, index)  # type: ignore[return-value]


def lnot(child: Formula) -> Formula:
    key = ("n", child)
    entry = _interned.get(key)
    return (entry and entry()) or _make(key, Not, child)


def oplus(left: Formula, right: Formula) -> Formula:
    key = ("+", left, right)
    entry = _interned.get(key)
    return (entry and entry()) or _make(key, Oplus, left, right)


def odot(left: Formula, right: Formula) -> Formula:
    key = ("*", left, right)
    entry = _interned.get(key)
    return (entry and entry()) or _make(key, Odot, left, right)


def delta(divisor: int, child: Formula) -> Formula:
    if divisor < 1:
        raise ValueError(f"delta divisor must be >= 1, got {divisor}")
    key = ("d", divisor, child)
    entry = _interned.get(key)
    return (entry and entry()) or _make(key, Delta, divisor, child)


def scale(factor: Fraction, child: Formula) -> Formula:
    factor = Fraction(factor)
    if not 0 <= factor <= 1:
        raise ValueError(f"scale factor must lie in [0,1], got {factor}")
    key = ("s", factor, child)
    entry = _interned.get(key)
    return (entry and entry()) or _make(key, Scale, factor, child)


def _tree_sizes(f: Formula) -> tuple[int, int, int]:
    """Distinct subterms of f, then the nodes and the variable occurrences of
    its expanded tree, in one fold over the DAG."""
    order = postorder(f)
    sizes: dict[Formula, tuple[int, int]] = {}
    for node in order:
        nodes, occurrences = 1, int(type(node) is Var)
        for kid in node.children():
            kid_nodes, kid_occurrences = sizes[kid]
            nodes, occurrences = nodes + kid_nodes, occurrences + kid_occurrences
        sizes[node] = nodes, occurrences
    return (len(order), *sizes[f])


def postorder(*roots: Formula) -> list[Formula]:
    """The distinct subterms of the roots, each once, children before parents.

    A depth-first postorder, children left to right, over the roots in turn:
    it depends on the formulas alone, not on when their nodes were created.
    """
    order: dict[Formula, None] = {}
    for root in roots:
        stack = [(root, iter(root.children()))]
        while stack:
            node, kids = stack[-1]
            for kid in kids:
                if kid not in order:
                    stack.append((kid, iter(kid.children())))
                    break
            else:
                stack.pop()
                order[node] = None
    return list(order)


# ---------------------------------------------------------------------------
# Evaluation in the standard algebra on [0,1]
# ---------------------------------------------------------------------------

def evaluator(fs: Sequence[Formula]) -> Callable[..., list[Fraction]]:
    """Exact truth values of ``fs``, in order, as a function of one assignment.

    The assignment gives x_1, x_2, ... in order; oplus = min(1,x+y),
    odot = max(0,x+y-1), not = 1-x, delta_i = x/i and scale_r = r*x.  A call
    raises ValueError on an assignment too short or outside [0,1].

    The DAG is compiled once, here, into a flat program over its postorder
    with a static scale f per subterm: 1 at atoms, the child's at ``not``,
    the lcm of the children's at ``oplus`` and ``odot``, s or q times the
    child's at ``delta s`` or ``scale p/q``.  A call takes D, the lcm of the
    assignment's denominators, and holds each subterm's value as an int over
    its one, D*f, in a list by postorder position: a shared subterm costs
    one int step, and only the assignment and the results are Fractions.
    """
    fs = tuple(fs)
    order = postorder(*fs)
    top = max((f.max_var for f in fs), default=0)
    at_pos = {node: k for k, node in enumerate(order)}
    # Each entry: op, child positions i and j, their multipliers a and b, scale
    # f.  An atom keeps its variable's position or its constant's value in i.
    program: list[tuple] = []
    for node in order:
        t = type(node)
        if t is Var or t is Const:
            program.append((t, node.index - 1 if t is Var else node.value, 0, 0, 0, 1))
        elif t is Oplus or t is Odot:
            i, j = at_pos[node.left], at_pos[node.right]
            fi, fj = program[i][5], program[j][5]
            f = lcm(fi, fj)
            program.append((t, i, j, f // fi, f // fj, f))
        elif t is Not:
            i = at_pos[node.child]
            program.append((Not, i, 0, 0, 0, program[i][5]))
        else:
            i = at_pos[node.child]
            p, q = (1, node.divisor) if t is Delta else (node.factor.numerator, node.factor.denominator)
            program.append((Scale, i, 0, p, 0, q * program[i][5]))
    outputs = [at_pos[f] for f in fs]

    def at(assignment) -> list[Fraction]:
        values = [Fraction(v) for v in assignment]
        for v in values:
            if not 0 <= v <= 1:
                raise ValueError(f"assignment value {v} outside [0,1]")
        if top > len(values):
            raise ValueError(f"formula uses x{top} but only {len(values)} values were given")
        d, (xs,) = scaled([values])
        vals: list[int] = []
        push = vals.append
        for op, i, j, a, b, f in program:
            if op is Oplus:
                s = a * vals[i] + b * vals[j]
                push(s if s < d * f else d * f)
            elif op is Odot:
                s = a * vals[i] + b * vals[j] - d * f
                push(s if s > 0 else 0)
            elif op is Not:
                push(d * f - vals[i])
            elif op is Scale:
                push(a * vals[i])
            elif op is Var:
                push(xs[i])
            else:
                push(d * i)
        return [Fraction(vals[k], d * program[k][5]) for k in outputs]

    return at


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


def variables(f: Formula) -> set[int]:
    """Set of variable indices occurring in f."""
    return {node.index for node in postorder(f) if type(node) is Var}


# ---------------------------------------------------------------------------
# Text forms: the s-expression of the tree and the term table of the DAG
# ---------------------------------------------------------------------------


def _natural(tok: str | None) -> int | None:
    """The value of a string of ASCII digits, else None."""
    return int(tok) if tok and tok.isascii() and tok.isdigit() else None


def _divisor(tok: str | None) -> int | None:
    return _natural(tok) or None


def _factor(tok: str | None) -> Fraction | None:
    try:
        r = parse_rational(tok)
    except ValueError:
        return None
    return r if 0 <= r <= 1 else None


# head: (constructor, arguments after the head, parameter reader or None).
# A parameter comes first, as in the constructor's signature.
_OPS = {
    "not": (lnot, 1, None),
    "oplus": (oplus, 2, None),
    "odot": (odot, 2, None),
    "delta": (delta, 2, _divisor),
    "scale": (scale, 2, _factor),
}
_BAD_PARAMETER = {
    "delta": "delta expects a positive integer divisor",
    "scale": "scale expects a rational factor in [0,1]",
}


def _atom(tok: str | None) -> Formula | None:
    if tok == "0":
        return ZERO
    if tok == "1":
        return ONE
    index = _natural(tok[1:]) if tok and tok[0] == "x" else None
    return var(index) if index else None


def _atom_text(node: Formula) -> str:
    return f"x{node.index}" if type(node) is Var else str(node.op)


def _head_text(node: Formula) -> str:
    return node.head if node.op is None else f"{node.head} {node.op}"


def to_text(f: Formula) -> str:
    """Canonical fully-parenthesized s-expression form of the expanded tree."""
    parts: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif node.head is None:
            parts.append(_atom_text(node))
        else:
            parts.append("(" + _head_text(node))
            stack.append(")")
            for kid in reversed(node.children()):
                stack += (kid, " ")
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
    end = (None, len(text))
    tokens = _tokenize(text)
    # One frame per open "(": constructor, argument count, arguments so far.
    frames: list[tuple] = []
    while True:
        tok, off = next(tokens, end)
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", off)
        if tok == "(":
            head, hoff = next(tokens, end)
            if head not in _OPS:
                raise FormulaSyntaxError(f"unknown operator {head!r}", hoff)
            build, arity, read = _OPS[head]
            args = []
            if read is not None:
                num, noff = next(tokens, end)
                args.append(read(num))
                if args[0] is None:
                    raise FormulaSyntaxError(_BAD_PARAMETER[head], noff)
            frames.append((build, arity, args))
            continue
        f = _atom(tok)
        if f is None:
            raise FormulaSyntaxError(f"expected formula atom, got {tok!r}", off)
        while frames:
            build, arity, args = frames[-1]
            args.append(f)
            if len(args) < arity:
                break
            tok, off = next(tokens, end)
            if tok != ")":
                raise FormulaSyntaxError("expected ')'", off)
            frames.pop()
            f = build(*args)
        else:
            tok, off = next(tokens, end)
            if tok is not None:
                raise FormulaSyntaxError(f"trailing input {tok!r}", off)
            return f


def to_terms(roots: Iterable[Formula]) -> tuple[list[str], dict[Formula, int]]:
    """Term table of the roots, and the index of each subterm in it.

    Each distinct subterm is one string: an atom (``x1``, ``0``, ``1``) or a
    head, its parameter if any, and the indices of its children, which are
    always earlier terms (``not 4``, ``oplus 3 7``, ``delta 2 5``,
    ``scale 1/2 5``).  The terms come in :func:`postorder` of the roots.
    """
    index: dict[Formula, int] = {}
    terms: list[str] = []
    for node in postorder(*roots):
        index[node] = len(terms)
        if node.head is None:
            terms.append(_atom_text(node))
        else:
            terms.append(" ".join([_head_text(node)] + [str(index[kid]) for kid in node.children()]))
    return terms, index


def from_terms(terms: list[str]) -> list[Formula]:
    """The formulas of a term table, in table order; inverse of :func:`to_terms`.

    Raises ValueError on a malformed table: a term that is not a string, an
    unknown head, a wrong number of arguments, a bad parameter, or a child
    that is not the index of an earlier term.
    """
    if not isinstance(terms, list):
        raise ValueError("the term table must be a list of strings")
    out: list[Formula] = []
    for k, text in enumerate(terms):
        if not isinstance(text, str):
            raise ValueError(f"term {k} is {text!r}, not a string")
        head, *words = text.split(" ")
        if not words:
            f = _atom(head)
            if f is None:
                raise ValueError(f"term {k} {text!r} is not an atom")
            out.append(f)
            continue
        if head not in _OPS:
            raise ValueError(f"term {k} {text!r}: unknown operator {head!r}")
        build, arity, read = _OPS[head]
        if len(words) != arity:
            raise ValueError(f"term {k} {text!r}: {head} takes {arity} argument{'s' * (arity > 1)}")
        args: list = []
        if read is not None:
            args.append(read(words.pop(0)))
            if args[0] is None:
                raise ValueError(f"term {k} {text!r}: {_BAD_PARAMETER[head]}")
        for word in words:
            child = _natural(word)
            if child is None or child >= k:
                raise ValueError(f"term {k} {text!r}: child {word} is not an earlier term")
            args.append(out[child])
        out.append(build(*args))
    return out
