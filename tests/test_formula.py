import gc
import random
import sys
from fractions import Fraction as F
from functools import partial
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evaluate, layer, net, random_formula, random_substitution, reference_evaluate
from luknet import formula as fm
from luknet.extract import extract_graph
from luknet.formula import FormulaSyntaxError, parse, substitute, to_text

x1, x2, x3 = fm.var(1), fm.var(2), fm.var(3)

unit = st.fractions(min_value=0, max_value=1, max_denominator=24)


def test_eval_examples():
    assert evaluate(fm.odot(x1, x2), [F(3, 4), F(1, 2)]) == F(1, 4)
    assert evaluate(fm.lnot(x1), [F(1)]) == 0
    assert evaluate(fm.delta(2, fm.odot(x1, x2)), [F(1), F(1)]) == F(1, 2)


def test_eval_scale():
    assert evaluate(fm.scale(F(1, 3), x1), [F(3, 4)]) == F(1, 4)


def test_eval_errors():
    # The evaluator and its Fraction reference raise the same errors, messages included.
    cases = [
        ((x3,), [F(0), F(0)], "formula uses x3 but only 2 values were given"),
        ((fm.ONE, fm.odot(x1, x2)), [], "formula uses x2 but only 0 values were given"),
        ((x1,), [F(3, 2)], "assignment value 3/2 outside [0,1]"),
        ((x1,), [F(1, 2), F(-1, 2)], "assignment value -1/2 outside [0,1]"),
        ((x3,), [F(2)], "assignment value 2 outside [0,1]"),
    ]
    for fs, x, message in cases:
        for at in (fm.evaluator(fs), partial(reference_evaluate, fs), lambda x: [evaluate(fs[-1], x)]):
            with pytest.raises(ValueError) as info:
                at(x)
            assert str(info.value) == message


@st.composite
def formula_pools(draw):
    """Subterms over all seven node types, each built over earlier ones, so
    later subterms share earlier ones; picks lean to the newest subterm,
    which nests delta and scale."""
    n = draw(st.integers(0, 3))
    pool = [fm.ZERO, fm.ONE] + [fm.var(i) for i in range(1, n + 1)]
    for _ in range(draw(st.integers(1, 30))):
        pick = lambda: pool[len(pool) - 1 - draw(st.integers(0, len(pool) - 1))]
        op = draw(st.sampled_from(["not", "oplus", "odot", "delta", "scale"]))
        if op == "not":
            pool.append(fm.lnot(pick()))
        elif op == "delta":
            pool.append(fm.delta(draw(st.integers(1, 12)), pick()))
        elif op == "scale":
            pool.append(fm.scale(draw(st.fractions(0, 1, max_denominator=12)), pick()))
        else:
            pool.append((fm.oplus if op == "oplus" else fm.odot)(pick(), pick()))
    return n, pool


# 0, 1 and rationals with denominators up to 10^4, as check-equiv samples.
point_values = st.one_of(st.sampled_from([F(0), F(1)]), st.fractions(0, 1, max_denominator=10_000))


@settings(max_examples=200)
@given(formula_pools(), st.data())
def test_evaluator_agrees_with_the_fraction_reference(drawn, data):
    n, pool = drawn
    fs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    at = fm.evaluator(fs)
    for _ in range(3):
        x = data.draw(st.lists(point_values, min_size=n, max_size=n))
        got = at(x)
        assert got == reference_evaluate(fs, x)
        assert all(type(v) is F for v in got)


def test_constant_formulas_evaluate_at_the_empty_assignment():
    fs = (fm.ZERO, fm.scale(F(2, 3), fm.delta(3, fm.lnot(fm.ZERO))), fm.oplus(fm.ONE, fm.ONE))
    assert fm.evaluator(fs)([]) == reference_evaluate(fs, []) == [F(0), F(2, 9), F(1)]


def test_level_evaluator_builds_no_fraction_per_node(monkeypatch):
    # The clamp pair clip(16a + 15b + 14c - 24): a two-level graph of 2 375
    # subterms.  One call builds only its assignment and its outputs.
    class Counted(F):
        made = 0

        def __new__(cls, *args, **kwargs):
            Counted.made += 1
            return super().__new__(cls, *args, **kwargs)

    # Arithmetic on a Counted value yields a Counted value, so a Fraction loop
    # over the subterms would be counted too.
    for name in ("add", "sub", "mul", "truediv"):
        for method in (f"__{name}__", f"__r{name}__"):
            base = getattr(F, method)
            setattr(Counted, method, lambda a, b, base=base: Counted(base(a, b)))
    row = [16, 15, 14]
    g = extract_graph(net(3, layer([row, row], [-24, -25], ["relu", "relu"]), layer([[1, -1]], [0], ["none"])))
    assert [len(fm.postorder(*(node.formula for node in level))) for level in g.nodes] == [1432, 943]
    monkeypatch.setattr(fm, "Fraction", Counted)
    x = [F(1, 2), F(1, 3), F(3, 4)]
    for level in g.nodes:
        fs = [node.formula for node in level]
        at = fm.evaluator(fs)
        Counted.made = 0
        values = at(x)
        assert Counted.made <= len(x) + len(fs)
        assert values == reference_evaluate(fs, x)
        x = values


@given(unit, unit)
def test_de_morgan(a, b):
    lhs = fm.lnot(fm.oplus(x1, x2))
    rhs = fm.odot(fm.lnot(x1), fm.lnot(x2))
    assert evaluate(lhs, [a, b]) == evaluate(rhs, [a, b])


@given(unit)
def test_unit_divisor_and_factor(a):
    f = fm.oplus(x1, x1)
    assert evaluate(fm.delta(1, f), [a]) == evaluate(f, [a])
    assert evaluate(fm.scale(F(1), f), [a]) == evaluate(f, [a])


def test_structural_equality_is_interning():
    assert fm.odot(x1, fm.lnot(x2)) is fm.odot(x1, fm.lnot(x2))
    assert fm.odot(x1, x2) is not fm.odot(x2, x1)


def test_intern_entry_lives_as_long_as_its_node():
    # With no collection, an entry leaves the table when its node's last
    # reference goes; the node built again is interned again, and a late
    # callback of the old entry leaves the new one alone.
    a, b = fm.var(41), fm.var(42)
    key = ("+", a, b)
    gc.collect()
    gc.disable()
    try:
        node = fm.oplus(a, b)
        value = evaluate(node, [F(0)] * 40 + [F(1, 3), F(1, 2)])
        old = fm._interned[key]
        assert old() is node
        del node
        assert key not in fm._interned
        node = fm.oplus(a, b)
        assert fm.oplus(a, b) is node
        assert evaluate(node, [F(0)] * 40 + [F(1, 3), F(1, 2)]) == value
        fm._drop(old)
        assert fm._interned[key]() is node
    finally:
        gc.enable()


def test_a_failed_intern_store_leaves_no_keyless_entry(monkeypatch):
    # The entry has its key before the store, so when the store fails (a
    # MemoryError in the dict) and the node dies, its callback finds the key.
    class Full(dict):
        def __setitem__(self, key, value):
            raise MemoryError

    unraisable = []
    monkeypatch.setattr(fm, "_interned", Full())
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with pytest.raises(MemoryError):
        fm.var(987654)
    gc.collect()
    assert unraisable == []


def test_substitute_examples():
    z = {1: fm.oplus(x1, x1)}
    assert substitute(x2, z) is x2  # vacuous
    f = fm.odot(x1, fm.lnot(x1))
    z2 = {1: fm.oplus(x1, x2)}
    expected = fm.odot(fm.oplus(x1, x2), fm.lnot(fm.oplus(x1, x2)))
    assert substitute(f, z2) is expected
    assert substitute(fm.ZERO, z2) is fm.ZERO
    assert substitute(fm.ONE, z2) is fm.ONE


def test_substitute_is_homomorphic():
    rng = random.Random(2)
    for _ in range(50):
        a = random_formula(rng, 3, 3)
        b = random_formula(rng, 3, 3)
        z = random_substitution(rng, 3, 3)
        assert substitute(fm.oplus(a, b), z) is fm.oplus(substitute(a, z), substitute(b, z))
        assert substitute(fm.odot(a, b), z) is fm.odot(substitute(a, z), substitute(b, z))
        assert substitute(fm.lnot(a), z) is fm.lnot(substitute(a, z))
        assert substitute(fm.delta(2, a), z) is fm.delta(2, substitute(a, z))
        assert substitute(fm.scale(F(1, 2), a), z) is fm.scale(F(1, 2), substitute(a, z))


def compose(z1, z2):
    """Composition z1 then z2: each key k of z1 maps to substitute(z1[k], z2)."""
    return {k: substitute(v, z2) for k, v in z1.items()}


def test_compose_examples():
    assert compose({1: x2}, {2: fm.ZERO}) == {1: fm.ZERO}
    tau = fm.oplus(x2, x3)
    assert compose({1: x1}, {1: tau}) == {1: tau}


def test_compose_keys_preserved():
    z = compose({1: x2, 5: fm.ZERO}, {2: x1})
    assert set(z) == {1, 5}


def test_composition_law_bulk():
    # tau (z1 . z2) == (tau z1) z2, structurally, on a thousand random triples.
    rng = random.Random(3)
    for _ in range(1000):
        tau = random_formula(rng, 3, 3)
        z1 = random_substitution(rng, 3, 3)
        z2 = random_substitution(rng, 3, 2)
        assert substitute(tau, compose(z1, z2)) is substitute(substitute(tau, z1), z2)


def test_length_is_occurrence_count():
    f = fm.odot(x1, fm.lnot(x2))
    assert f.length == 2
    rng = random.Random(4)
    for _ in range(100):
        a = random_formula(rng, 3, 3)
        b = random_formula(rng, 3, 3)
        assert fm.oplus(a, b).length == a.length + b.length
        assert fm.odot(a, b).length == a.length + b.length
        assert fm.lnot(a).length == a.length
        assert fm.delta(3, a).length == a.length


def test_repr_of_a_huge_tree_is_a_summary():
    # The tent rho(24x) - 2 rho(24x-1) + rho(24x-2): its output node has
    # 4 428 distinct subterms over an expanded tree of about 8e26 leaves,
    # so its repr must not spell the tree out.
    tent = net(1, layer([[24]] * 3, [0, -1, -2], ["relu"] * 3), layer([[1, -2, 1]], [0], ["none"]))
    f = extract_graph(tent).node(2, 1).formula
    text = repr(f)
    assert text == f"<odot: {len(fm.postorder(f))} distinct subterms, tree length {f.length}>"
    assert f.length > 10**26
    rng = random.Random(9)
    for _ in range(50):
        g = random_formula(rng, 3, 4, dmv=True)
        assert repr(g) == to_text(g)


def test_parse_examples():
    assert parse("(odot x1 (not x2))") is fm.odot(x1, fm.lnot(x2))
    assert parse("(delta 3 x1)") is fm.delta(3, x1)
    assert parse("(scale 1/2 x1)") is fm.scale(F(1, 2), x1)
    assert parse("0") is fm.ZERO
    assert parse("1") is fm.ONE


def test_parse_print_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, 3, 4, dmv=True)
        assert parse(to_text(f)) is f


def test_print_parse_roundtrip_on_canonical_text():
    s = "(odot (oplus 0 x1) (not (odot (oplus (not x3) x2) 1)))"
    assert to_text(parse(s)) == s


@pytest.mark.parametrize(
    "bad,offset",
    [
        ("(odot x1", 8),
        ("x0", 0),
        ("(foo x1)", 1),
        ("(delta x1 x2)", 7),
        ("(not x1) x2", 9),
        ("(scale 2 x1)", 7),
        ("(scale abc x1)", 7),
        ("(scale 2/4 x1)", 7),
    ],
)
def test_parse_errors_carry_offsets(bad, offset):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(bad)
    assert err.value.offset == offset


def test_var_index_validation():
    with pytest.raises(ValueError):
        fm.var(0)
    with pytest.raises(ValueError):
        fm.delta(0, x1)
    with pytest.raises(ValueError):
        fm.scale(F(3, 2), x1)


def test_postorder_does_not_depend_on_creation_order():
    # Variables no other test uses, so that each pass creates these nodes
    # anew, in the order of its permutation, before it builds the root.
    parts = ["x902", "x901", "(not x902)", "(odot (not x902) x901)", "(odot x901 (not x902))"]
    want = [
        "x901",
        "x902",
        "(not x902)",
        "(odot x901 (not x902))",
        "(odot (not x902) x901)",
        "(oplus (odot x901 (not x902)) (odot (not x902) x901))",
    ]
    for order in permutations(parts):
        made = [parse(text) for text in order]
        root = parse(want[-1])
        assert [to_text(f) for f in fm.postorder(root)] == want
        del made, root


def test_postorder_visits_the_roots_in_turn():
    a, b = parse("(oplus x1 (not x2))"), parse("(odot (not x2) x3)")
    got = [to_text(f) for f in fm.postorder(b, a, b)]
    assert got == ["x2", "(not x2)", "x3", "(odot (not x2) x3)", "x1", "(oplus x1 (not x2))"]


@pytest.mark.parametrize(
    "build,arity",
    [
        (fm.lnot, 1),
        (fm.oplus, 2),
        (fm.odot, 2),
        (partial(fm.delta, 3), 1),
        (partial(fm.scale, F(2, 5)), 1),
    ],
)
def test_rebuild_is_the_constructor_node(build, arity):
    node = build(*[x1, x2][:arity])
    kids = [fm.lnot(x3), fm.oplus(x1, x2)][:arity]
    assert node.rebuild(kids) is build(*kids)
    assert node.rebuild(list(node.children())) is node


def test_rebuild_keeps_atoms():
    for atom in (fm.ZERO, fm.ONE, x2):
        assert atom.rebuild([]) is atom
