import json
import random
from fractions import Fraction as F

import pytest

from helpers import evaluate, random_formula, random_graph, random_substitution, rho_value
from luknet import formula as fm
from luknet import rewrite as rw
from luknet.equiv import FiniteGrid
from luknet.formula import substitute
from luknet.graph import GraphNode, SubstitutionGraph, graph_evaluator

x1, x2, x3 = fm.var(1), fm.var(2), fm.var(3)
MV = rw.mv_catalog()
MV_BY_ID = rw.catalog_by_id(MV)


def axiom_arity(ax: rw.Axiom) -> int:
    """The number of metavariables the axiom's sides range over."""
    return max(ax.lhs.max_var, ax.rhs.max_var)


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------


def test_mv_catalog_has_sixteen_axioms():
    assert len(MV) == 16
    assert len({a.id for a in MV}) == 16


def test_mvk1_contains_idempotence():
    cat = rw.mvk_catalog(1)
    assert any(a.lhs is fm.oplus(x1, x1) and a.rhs is x1 for a in cat)
    assert any(a.lhs is fm.odot(x1, x1) and a.rhs is x1 for a in cat)


def test_mvk_schema_instantiation():
    assert len(rw.mvk_catalog(2)) == 16  # no j with 1 < j < 2
    cat3 = rw.mvk_catalog(3)
    assert len(cat3) == 18  # j = 2 only
    cat4 = rw.mvk_catalog(4)
    assert len(cat4) == 18  # j = 3 (j = 2 divides 4)
    ids = {a.id for a in cat3}
    assert "AxFk3j2" in ids and "AxFk3j2p" in ids


def test_dmv_catalog_division_axioms():
    cat = rw.dmv_catalog(2)
    d2 = fm.delta(2, x1)
    # The n-fold sum of delta_n x collapses back to x.
    assert any(a.lhs is fm.oplus(d2, d2) and a.rhs is x1 for a in cat)
    assert any(a.lhs is fm.odot(d2, d2) and a.rhs is fm.ZERO for a in cat)
    assert any(a.lhs is fm.delta(1, x1) and a.rhs is x1 for a in cat)


def test_rmv_catalog_scalar_axioms():
    cat = rw.rmv_catalog([F(1, 2), F(1, 3)])
    ids = {a.id for a in cat}
    assert "AxR4" in ids
    assert any(i.startswith("AxR1_") for i in ids)
    assert any(i.startswith("AxR2_") for i in ids)
    assert any(i.startswith("AxR3_") for i in ids)


def test_catalog_spec_strings():
    assert len(rw.catalog("MV")) == 16
    assert len(rw.catalog("MVk:3")) == 18
    assert len(rw.catalog("DMV:3")) == 22
    assert rw.catalog("RMV:1/2")
    with pytest.raises(ValueError):
        rw.catalog("XYZ")


def _grid_for(cat_tag: str) -> int:
    return 3 if cat_tag.startswith("MVk:3") else 12


@pytest.mark.parametrize("spec", ["MV", "MVk:1", "MVk:3", "MVk:4", "DMV:3", "RMV:1/2,1/3"])
def test_catalog_soundness_on_matching_grid(spec):
    # Every axiom's two sides have equal truth functions over the semantics it
    # axiomatizes: I_k for the finite catalogs, [0,1] (sampled on I_12 and a
    # few rational points) otherwise.
    cat = rw.catalog(spec)
    k = 3 if spec == "MVk:3" else (1 if spec == "MVk:1" else (4 if spec == "MVk:4" else 12))
    for ax in cat:
        arity = axiom_arity(ax)
        for point in FiniteGrid(k, arity).points():
            assert evaluate(ax.lhs, point) == evaluate(ax.rhs, point), ax.id


# ---------------------------------------------------------------------------
# Matching and application
# ---------------------------------------------------------------------------


def test_match_examples():
    pattern = fm.odot(x1, fm.lnot(x1))
    target = fm.odot(fm.oplus(x1, x2), fm.lnot(fm.oplus(x1, x2)))
    assert rw.match_instantiation(pattern, target) == {1: fm.oplus(x1, x2)}
    assert rw.match_instantiation(fm.oplus(x1, x2), fm.odot(x1, x2)) is None
    assert rw.match_instantiation(fm.oplus(x1, fm.ZERO), fm.oplus(x3, fm.ZERO)) == {1: x3}


def test_match_requires_consistent_binding():
    pattern = fm.oplus(x1, x1)
    assert rw.match_instantiation(pattern, fm.oplus(x2, x3)) is None
    assert rw.match_instantiation(pattern, fm.oplus(x2, x2)) == {1: x2}


def test_match_constants_are_literal():
    assert rw.match_instantiation(fm.ZERO, x1) is None
    assert rw.match_instantiation(fm.ZERO, fm.ZERO) == {}


def test_apply_axiom_worked_steps():
    f = fm.oplus(fm.odot(fm.oplus(x1, x2), fm.lnot(fm.oplus(x1, x2))), x3)
    step1 = rw.apply_axiom(f, MV_BY_ID["Ax3p"], "LR", (0,))
    assert step1 is fm.oplus(fm.ZERO, x3)
    step2 = rw.apply_axiom(step1, MV_BY_ID["Ax1"], "LR", ())
    assert step2 is fm.oplus(x3, fm.ZERO)
    step3 = rw.apply_axiom(step2, MV_BY_ID["Ax5"], "LR", ())
    assert step3 is x3


def test_apply_axiom_associativity_example():
    f = fm.odot(fm.odot(fm.lnot(x1), fm.lnot(x1)), fm.odot(x1, x2))
    out = rw.apply_axiom(f, MV_BY_ID["Ax2p"], "LR", ())
    assert out is fm.odot(fm.odot(fm.odot(fm.lnot(x1), fm.lnot(x1)), x1), x2)


def test_apply_axiom_errors():
    f = fm.oplus(x1, x2)
    with pytest.raises(rw.NoMatchAtPosition):
        rw.apply_axiom(f, MV_BY_ID["Ax3p"], "LR", ())
    with pytest.raises(ValueError, match=r"position \[4\] has no child 4 at depth 0"):
        rw.apply_axiom(f, MV_BY_ID["Ax1"], "LR", (4,))


def test_apply_axiom_rl_needs_binding_for_fresh_metavariables():
    # 1 -> x+1 leaves x free; the binding must come from the trace.
    with pytest.raises(rw.NoMatchAtPosition):
        rw.apply_axiom(fm.ONE, MV_BY_ID["Ax4"], "RL", ())
    out = rw.apply_axiom(fm.ONE, MV_BY_ID["Ax4"], "RL", (), binding={1: x2})
    assert out is fm.oplus(x2, fm.ONE)


def test_apply_axiom_rejects_wrong_explicit_binding():
    f = fm.oplus(x1, fm.ZERO)
    with pytest.raises(rw.NoMatchAtPosition):
        rw.apply_axiom(f, MV_BY_ID["Ax5"], "LR", (), binding={1: x2})


def test_position_stability():
    rng = random.Random(51)
    for _ in range(200):
        f = random_formula(rng, 3, 4)
        quads = rw.applicable_rewrites(f, MV)
        if not quads:
            continue
        ax, direction, pos, binding = rng.choice(quads)
        out = rw.apply_axiom(f, ax, direction, pos, binding)
        src, dst = ax.side(direction)
        assert rw.subformula_at(out, pos) is substitute(dst, binding)


def test_rewrite_preserves_truth_function():
    rng = random.Random(52)
    done = 0
    while done < 150:
        f = random_formula(rng, 2, 4)
        quads = rw.applicable_rewrites(f, MV)
        if not quads:
            continue
        ax, direction, pos, binding = rng.choice(quads)
        out = rw.apply_axiom(f, ax, direction, pos, binding)
        for point in FiniteGrid(6, 2).points():
            assert evaluate(f, point) == evaluate(out, point), (ax.id, direction)
        done += 1


# ---------------------------------------------------------------------------
# Graph rewriting
# ---------------------------------------------------------------------------


def test_apply_axiom_on_graph_example():
    inner = GraphNode(fm.oplus(x1, fm.ZERO))
    peer = GraphNode(fm.odot(fm.lnot(x1), fm.ZERO))
    out = GraphNode(fm.oplus(fm.odot(x1, x1), fm.lnot(x2)))
    g = SubstitutionGraph((1, 2, 1), ((inner, peer), (out,)))
    g2 = rw.apply_axiom_on_graph(g, 1, 1, MV_BY_ID["Ax5"], "LR", ())
    assert g2.node(1, 1).formula is x1
    assert g2.node(1, 1).certificate is None
    assert g2.node(2, 1).formula is out.formula


def test_apply_axiom_on_graph_input_target():
    g = random_graph(random.Random(53))
    with pytest.raises(ValueError, match="input nodes carry no rewritable formula"):
        rw.apply_axiom_on_graph(g, 0, 1, MV_BY_ID["Ax1"], "LR", ())


def test_graph_rewrite_preserves_represented_truth_function():
    rng = random.Random(54)
    done = 0
    while done < 60:
        g = random_graph(rng)
        level = rng.randint(1, g.depth)
        index = rng.randint(1, g.widths[level])
        quads = rw.applicable_rewrites(g.node(level, index).formula, MV)
        if not quads:
            continue
        ax, direction, pos, binding = rng.choice(quads)
        g2 = rw.apply_axiom_on_graph(g, level, index, ax, direction, pos, binding)
        n = g.widths[0]
        for point in FiniteGrid(3, n).points():
            assert graph_evaluator(g)(point) == graph_evaluator(g2)(point)
        done += 1


# ---------------------------------------------------------------------------
# Appendix-style substitution/rewrite commutation properties
# ---------------------------------------------------------------------------


def test_rewriting_inside_a_substitutor_commutes_with_substitution():
    # Rewriting one substitutor and then substituting equals substituting and
    # then rewriting at every occurrence site of that variable, one axiom
    # application per site.
    rng = random.Random(55)
    done = 0
    while done < 100:
        tau = random_formula(rng, 3, 3)
        zeta = random_substitution(rng, 3, 2)
        p = rng.randint(1, 3)
        quads = rw.applicable_rewrites(zeta[p], MV)
        if not quads:
            continue
        ax, direction, pos, binding = rng.choice(quads)
        changed = rw.apply_axiom(zeta[p], ax, direction, pos, binding)
        zeta2 = dict(zeta)
        zeta2[p] = changed
        lhs = substitute(tau, zeta2)
        sites = [
            site
            for site in rw.all_positions(tau)
            if rw.subformula_at(tau, site) is fm.var(p)
        ]
        rhs = substitute(tau, zeta)
        for site in sites:
            rhs = rw.apply_axiom(rhs, ax, direction, tuple(site) + tuple(pos), binding)
        assert rhs is lhs
        done += 1


def test_rewriting_the_substitutee_commutes_with_substitution():
    # (tau rewritten) zeta  ==  (tau zeta) rewritten at the shifted position.
    rng = random.Random(56)
    done = 0
    while done < 100:
        tau = random_formula(rng, 3, 3)
        zeta = random_substitution(rng, 3, 2)
        quads = rw.applicable_rewrites(tau, MV)
        if not quads:
            continue
        ax, direction, pos, binding = rng.choice(quads)
        tau2 = rw.apply_axiom(tau, ax, direction, pos, binding)
        lhs = substitute(tau2, zeta)
        shifted_binding = {i: substitute(f, zeta) for i, f in binding.items()}
        src, _ = ax.side(direction)
        target = substitute(rw.subformula_at(tau, pos), zeta)
        assert substitute(src, shifted_binding) is target
        rhs = rw.apply_axiom(substitute(tau, zeta), ax, direction, pos, shifted_binding)
        assert lhs is rhs
        done += 1


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def intro_trace() -> rw.DerivationTrace:
    start = fm.odot(fm.odot(fm.lnot(x1), fm.lnot(x1)), fm.odot(x1, x2))
    steps = (
        rw.Step("Ax2p", "LR", ()),
        rw.Step("Ax2p", "RL", (0,)),
        rw.Step("Ax1p", "LR", (0, 1)),
        rw.Step("Ax3p", "LR", (0, 1)),
        rw.Step("Ax4p", "LR", (0,)),
        rw.Step("Ax1p", "LR", ()),
        rw.Step("Ax4p", "LR", ()),
    )
    return rw.DerivationTrace(start, steps)


def test_intro_derivation_replays_to_zero():
    assert rw.replay(intro_trace(), MV_BY_ID)[-1] is fm.ZERO


def test_empty_trace_is_reflexive():
    t = rw.DerivationTrace(x1, ())
    assert rw.replay(t, MV_BY_ID)[-1] is x1
    assert rw.replay(t, MV_BY_ID)[-1] is not x2


def test_forged_step_fails_with_index():
    t = rw.DerivationTrace(
        fm.oplus(x1, fm.ZERO),
        (
            rw.Step("Ax5", "LR", ()),
            rw.Step("Ax3p", "LR", ()),  # x1 is not an instance of x * !x
        ),
    )
    with pytest.raises(rw.NoMatchAtPosition) as err:
        rw.replay(t, MV_BY_ID)
    assert str(err.value).startswith("step 1: ")


def test_unknown_axiom_is_a_bad_step():
    t = rw.DerivationTrace(fm.oplus(x1, fm.ZERO), (rw.Step("Ax5", "LR", ()), rw.Step("Ax99", "LR", ())))
    with pytest.raises(ValueError) as err:
        rw.replay(t, MV_BY_ID)
    assert str(err.value) == "step 1: unknown axiom 'Ax99'"


def test_forged_binding_fails():
    t = rw.DerivationTrace(
        fm.oplus(x1, fm.ZERO),
        (rw.Step("Ax5", "LR", (), binding={1: x2}),),
    )
    with pytest.raises(rw.NoMatchAtPosition, match="^step 0: "):
        rw.replay(t, MV_BY_ID)


def test_trace_jsonl_roundtrip():
    t = intro_trace()
    text = rw.trace_to_jsonl(t)
    start, steps = rw.steps_from_jsonl(text)
    assert start is t.start
    assert tuple(steps) == t.steps
    # A graph trace, whose steps carry a node and a binding; a blank line is skipped.
    g = rw.DerivationTrace(fm.oplus(x1, x2), (
        rw.Step("Ax5", "RL", (0,), node=(1, 1)),
        rw.Step("Ax4p", "RL", (0, 1), binding={1: fm.odot(x1, x2), 2: x3}, node=(2, 1)),
    ))
    first, *rest = rw.trace_to_jsonl(g).splitlines(keepends=True)
    start, steps = rw.steps_from_jsonl("".join([first, "\n", *rest]))
    assert start is g.start
    assert tuple(steps) == g.steps


def test_binding_order_is_left_to_right():
    # Trace files write "bind" in binding insertion order: x before y.
    target = fm.oplus(x3, fm.odot(x1, x2))
    binding = rw.match_instantiation(MV_BY_ID["Ax1"].lhs, target)
    assert list(binding) == [1, 2]
    step = rw.Step("Ax1", "LR", (), binding=binding)
    line = rw.trace_to_jsonl(rw.DerivationTrace(target, (step,))).splitlines()[1]
    expected = {"axiom": "Ax1", "dir": "LR", "pos": [], "bind": {"x": "x3", "y": "(odot x1 x2)"}}
    assert line == json.dumps(expected)


def test_trace_soundness_over_random_traces():
    rng = random.Random(57)
    for _ in range(30):
        f = random_formula(rng, 2, 3)
        states = [f]
        steps = []
        for _ in range(rng.randint(1, 10)):
            quads = rw.applicable_rewrites(states[-1], MV)
            if not quads:
                break
            ax, direction, pos, binding = rng.choice(quads)
            steps.append(rw.Step(ax.id, direction, pos, binding))
            states.append(rw.apply_axiom(states[-1], ax, direction, pos, binding))
        trace = rw.DerivationTrace(f, tuple(steps))
        assert rw.replay(trace, MV_BY_ID)[-1] is states[-1]
        for point in FiniteGrid(4, 2).points():
            assert evaluate(f, point) == evaluate(states[-1], point)


# ---------------------------------------------------------------------------
# Symmetry glossary
# ---------------------------------------------------------------------------


def test_render_symmetry_commutativity():
    lhs, rhs = rw.render_symmetry(MV_BY_ID["Ax1p"])
    assert lhs == "rho(x + y - 1)"
    assert rhs == "rho(y + x - 1)"


def test_render_symmetry_zero_case():
    ax = MV_BY_ID["Ax3p"]
    env = {1: F(1, 3)}
    assert rho_value(ax.lhs, env) == rho_value(ax.rhs, env) == 0


def test_all_sixteen_symmetries_agree_on_grid():
    for ax in MV:
        arity = axiom_arity(ax)
        for point in FiniteGrid(12, arity).points():
            env = {i + 1: v for i, v in enumerate(point)}
            assert rho_value(ax.lhs, env) == rho_value(ax.rhs, env), ax.id


@pytest.mark.parametrize("spec", ["MV", "MVk:2", "MVk:5"])
def test_rendered_text_denotes_its_value(spec):
    # Read as ordinary arithmetic with rho = relu, each glossary text has the
    # value of its side: a subtracted difference is in parentheses.
    def relu(t):
        return max(t, 0)

    for ax in rw.catalog(spec):
        texts = rw.render_symmetry(ax)
        for point in FiniteGrid(4, axiom_arity(ax)).points():
            names = {"rho": relu, **dict(zip("xyz", point))}
            env = {i + 1: v for i, v in enumerate(point)}
            for side, text in zip((ax.lhs, ax.rhs), texts):
                value = eval(text, {"__builtins__": {}}, names)
                assert value == rho_value(side, env) == evaluate(side, point), (ax.id, text)


def test_rendered_sides_match_formula_semantics():
    for ax in MV:
        arity = axiom_arity(ax)
        for point in FiniteGrid(4, arity).points():
            env = {i + 1: v for i, v in enumerate(point)}
            assert rho_value(ax.lhs, env) == evaluate(ax.lhs, point), ax.id
