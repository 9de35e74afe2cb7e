import itertools
import json
import pathlib
import random
from fractions import Fraction as F

import pytest

from helpers import (
    box_forced_network, brute_extrema, encloses, interval_propagation, layer, net, random_network, rational_network,
    width,
)
from luknet import bounds, numerics
from luknet.bounds import BudgetExceeded, exact_extrema
from luknet.network import NodeRef, apply_activation, eval_network, network_from_dict, network_from_json

POOL_EXTREMA = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pool_extrema.json"


def test_affine_over_cube():
    n = net(2, layer([[1, -1]], [0], ["none"]))
    iv = exact_extrema(n, "output")
    assert (iv.lo, iv.hi) == (-1, 1)


def test_nprime_range():
    n = net(
        1,
        layer([[-1]], [1], ["relu"]),
        layer([[-1]], [1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )
    iv = exact_extrema(n, "output")
    assert (iv.lo, iv.hi) == (0, 1)


def test_hidden_node_extrema_and_activation():
    n = net(
        1,
        layer([[2]], [-1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )
    pre = exact_extrema(n, NodeRef(1, 1))
    assert (pre.lo, pre.hi) == (-1, 1)
    post = exact_extrema(n, NodeRef(1, 1), activated=True)
    assert (post.lo, post.hi) == (0, 1)


def test_clip_node_post_activation_in_unit_interval():
    rng = random.Random(21)
    for _ in range(20):
        n = random_network(rng, rng.randint(1, 2), [rng.randint(1, 3)], activation="clip")
        for i in range(1, width(n, 1) + 1):
            iv = exact_extrema(n, NodeRef(1, i), activated=True)
            assert 0 <= iv.lo <= iv.hi <= 1


def test_interval_propagation_contains_exact():
    rng = random.Random(22)
    for _ in range(40):
        dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        n = random_network(rng, rng.randint(1, 3), dims)
        ref = NodeRef(n.depth, 1)
        exact = exact_extrema(n, ref)
        loose = interval_propagation(n, ref)
        assert encloses(loose, exact)


def test_matches_brute_force_on_random_networks():
    rng = random.Random(23)
    for _ in range(30):
        shape = rng.choice([[2], [3], [2, 2], [3, 2], [1, 2, 2]])
        n = random_network(rng, rng.randint(1, 2), shape)
        ref = NodeRef(n.depth, 1)
        iv = exact_extrema(n, ref)
        lo, hi = brute_extrema(n, ref)
        assert (iv.lo, iv.hi) == (lo, hi)


def test_mixed_activation_brute_force():
    rng = random.Random(24)
    for _ in range(12):
        n = random_network(rng, 2, [rng.randint(1, 2), rng.randint(1, 2)], activation="clip")
        ref = NodeRef(n.depth, 1)
        iv = exact_extrema(n, ref)
        lo, hi = brute_extrema(n, ref)
        assert (iv.lo, iv.hi) == (lo, hi)


def test_budget_exceeded():
    rng = random.Random(25)
    n = random_network(rng, 3, [4, 4])
    with pytest.raises(BudgetExceeded):
        exact_extrema(n, "output", node_budget=2)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            exact_extrema(n, "output", node_budget=bad)


def test_budget_error_names_node_and_sense():
    # A branch counts once per sense still open on it, and the message names
    # the node the branch splits next and every sense open there.
    n = net(1, layer([[2], [-2]], [-1, 1], ["relu", "relu"]), layer([[1, 1]], [0], ["none"]))
    with pytest.raises(BudgetExceeded) as exc:
        exact_extrema(n, "output", node_budget=1)
    # The root counts 2, one per sense, before it splits node (1,1).
    assert str(exc.value) == (
        "branch-and-bound budget of 1 exceeded at node (1,1) while minimising and maximising"
    )
    # Both senses stay open on each of its 7 branches, so budget 14 completes.
    with pytest.raises(BudgetExceeded) as exc:
        exact_extrema(n, "output", node_budget=7)
    assert str(exc.value) == (
        "branch-and-bound budget of 7 exceeded at node (2,1) while minimising and maximising"
    )
    assert exact_extrema(n, "output", node_budget=14) == (0, 1)
    # Here one sense is pruned on the branch where the count passes the budget.
    n = net(
        2,
        layer([[1, -2], [1, -3], [-1, -1]], [-1, 1, 1], ["relu"] * 3),
        layer([[-3, 0, -1]], [-3], ["none"]),
    )
    with pytest.raises(BudgetExceeded) as exc:
        exact_extrema(n, "output", node_budget=12)
    assert str(exc.value) == "branch-and-bound budget of 12 exceeded at node (1,3) while minimising"
    n = net(2, layer([[2, 1], [-3, 3]], [-2, 1], ["relu", "relu"]), layer([[3, 0]], [-1], ["none"]))
    with pytest.raises(BudgetExceeded) as exc:
        exact_extrema(n, "output", node_budget=10)
    assert str(exc.value) == "branch-and-bound budget of 10 exceeded at node (2,1) while maximising"


def test_least_completing_budget_is_a_threshold():
    # Raising is monotone in the budget: below the least completing budget
    # every budget raises, at or above it every budget returns the answer.
    rng = random.Random(27)
    for _ in range(25):
        shape = rng.choice([[2], [3], [2, 2], [3, 2]])
        n = random_network(rng, rng.randint(1, 2), shape, activation=rng.choice(["relu", "clip"]))
        expect = brute_extrema(n, NodeRef(n.depth, 1))
        least = 1
        while True:
            try:
                exact_extrema(n, "output", node_budget=least)
                break
            except BudgetExceeded:
                least += 1
        for budget in (least, least + 1, 2 * least, None):
            iv = exact_extrema(n, "output", node_budget=budget)
            assert (iv.lo, iv.hi) == expect


@pytest.mark.parametrize("name, least", [
    ("dag.json", 33), ("intro3_nstar.json", 18), ("search/relu_6x12x12_seed2.json", 7_612),
])
def test_least_completing_budget_of_fixtures(fixtures_dir, name, least):
    n = network_from_json((fixtures_dir / name).read_text())
    with pytest.raises(BudgetExceeded):
        exact_extrema(n, "output", node_budget=least - 1)
    assert exact_extrema(n, "output", node_budget=least) == exact_extrema(n, "output")


def test_search_deeper_than_the_recursion_limit():
    # One branch per hidden node: the walk is 1 100 branches deep.
    iv = exact_extrema(box_forced_network(1100), "output")
    assert (iv.lo, iv.hi) == (1100, 2200)


def test_budget_generous_is_fine():
    rng = random.Random(26)
    n = random_network(rng, 2, [2])
    iv = exact_extrema(n, "output", node_budget=10_000)
    assert iv.lo <= iv.hi


@pytest.mark.parametrize("activation", ["relu", "clip", "mixed"])
def test_rational_networks_match_brute_force(activation):
    rng = random.Random({"relu": 31, "clip": 32, "mixed": 33}[activation])
    for _ in range(20):
        hidden = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        n = rational_network(rng, rng.randint(1, 2), hidden, activation)
        for j in range(1, n.depth + 1):
            for i in range(1, width(n, j) + 1):
                ref = NodeRef(j, i)
                lo, hi = brute_extrema(n, ref)
                iv = exact_extrema(n, ref)
                assert (iv.lo, iv.hi) == (lo, hi)
                assert encloses(interval_propagation(n, ref), iv)
                act = n.layers[j - 1].activations[i - 1]
                post = exact_extrema(n, ref, activated=True)
                assert (post.lo, post.hi) == (apply_activation(act, lo), apply_activation(act, hi))


def test_frozen_oracle_answers():
    # The first 40 "ok" networks of the 2x4-4 shape in the benchmark's
    # extrema pool, against their frozen vertex-enumeration answers.
    pool = json.loads(POOL_EXTREMA.read_text())
    entries = [e for e in pool["2x4-4"] if e["class"] == "ok"][:40]
    assert len(entries) == 40
    for e in entries:
        iv = exact_extrema(network_from_dict(e["net"]), "output", node_budget=250)
        assert (iv.lo, iv.hi) == tuple(F(v) for v in e["expect"])


def count_steps(monkeypatch) -> list[int]:
    """A one-item list that counts the simplex's steps from now on: its
    pivots and its bound flips, which the explicit cube's rows pivoted."""
    steps = [0]
    for name in ("_pivot", "_flip"):
        def counted(*args, real=getattr(numerics, name)):
            steps[0] += 1
            return real(*args)

        monkeypatch.setattr(numerics, name, counted)
    return steps


def test_frozen_budget_classes(monkeypatch):
    # The first 10 networks of every shape in the benchmark's extrema pool
    # keep their frozen class at the pool's budget: 15 of the 40 exceed it.
    # A search that visits other branches would move some across the line.
    # The count of simplex steps pins Bland's rule: another entering or
    # leaving choice, or another row cut, would change it.  An "ok" network's
    # search completes, so its count is the sum over both senses' trees; an
    # over-budget search's count also depends on where the budget stops it.
    steps = count_steps(monkeypatch)
    pool = json.loads(POOL_EXTREMA.read_text())
    budget = pool.pop("about")["budget"]
    exceeded = 0
    by_class = {"ok": 0, "budget": 0}
    for entries in pool.values():
        for e in entries[:10]:
            n = network_from_dict(e["net"])
            before = steps[0]
            if e["class"] == "budget":
                with pytest.raises(BudgetExceeded):
                    exact_extrema(n, "output", node_budget=budget)
                exceeded += 1
            else:
                exact_extrema(n, "output", node_budget=budget)
            by_class[e["class"]] += steps[0] - before
    assert exceeded == 15
    assert by_class == {"ok": 890, "budget": 2_218}


def test_large_entry_network(fixtures_dir, monkeypatch):
    # The (6,[12,12]) relu network of perfbench.nets.random_relu_net, seed 2,
    # weights -3..3: its tableaux reach far larger entries and determinants
    # than the pool's.  The count of simplex steps pins Bland's rule on it,
    # and the answer must enclose the network's values on the grid I_2^6.  It
    # lies in fixtures/search/, out of the fixtures that every extraction test
    # reads.
    steps = count_steps(monkeypatch)
    n = network_from_json((fixtures_dir / "search" / "relu_6x12x12_seed2.json").read_text())
    iv = exact_extrema(n, "output")
    assert (iv.lo, iv.hi) == (F(-215, 2), F(65))
    assert steps[0] == 10_605
    values = [eval_network(n, x) for x in itertools.product((F(0), F(1, 2), F(1)), repeat=6)]
    assert iv.lo <= min(values) and max(values) <= iv.hi


def test_frozen_cuts_and_leaves(fixtures_dir, monkeypatch):
    # The sample of test_frozen_budget_classes and the network of
    # test_large_entry_network, whose hidden node (2,7) is one more input: its
    # form is read off the output forms of level 1.  The calls to numerics.cut
    # count the branches probed and those to numerics.minimum the leaves
    # solved: a branch whose tableau went to another would move them, even
    # where the pivots and the budget classes stay.  The "ok" networks are
    # pinned on their own: a completed search cuts each branch either sense
    # visits once, and solves each leaf once per sense that reaches it and
    # that the box of the leaf's form over the cube leaves open.
    calls = {"cut": 0, "minimum": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(bounds, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(bounds, name, counted)
    pool = json.loads(POOL_EXTREMA.read_text())
    budget = pool.pop("about")["budget"]
    for cls, expect in (("ok", {"cut": 873, "minimum": 298}), ("budget", {"cut": 2_045, "minimum": 508})):
        for entries in pool.values():
            for e in entries[:10]:
                if e["class"] == cls:
                    try:
                        exact_extrema(network_from_dict(e["net"]), "output", node_budget=budget)
                    except BudgetExceeded:
                        assert cls == "budget"
        assert calls == expect
        calls.update(cut=0, minimum=0)
    n = network_from_json((fixtures_dir / "search" / "relu_6x12x12_seed2.json").read_text())
    exact_extrema(n, "output")
    assert calls == {"cut": 4_223, "minimum": 633}
    calls.update(cut=0, minimum=0)
    steps = count_steps(monkeypatch)
    iv = exact_extrema(n, NodeRef(2, 7))
    assert (iv.lo, iv.hi) == (F(-39), F(9))
    assert calls == {"cut": 186, "minimum": 83}
    assert steps[0] == 472


def test_search_builds_no_fraction_per_branch(monkeypatch):
    # A pool network whose search visits 151 branches.  The incumbent, the
    # prune checks and each leaf's optimum, an int ratio, are ints: no leaf
    # builds a Fraction, and each sense builds one, its answer.
    class Counted(F):
        made = compared = 0

        def __new__(cls, *args, **kwargs):
            Counted.made += 1
            return super().__new__(cls, *args, **kwargs)

    # Arithmetic on a Counted value yields a Counted value, so a Fraction
    # built from a leaf's optimum is counted too.
    for name in ("add", "sub", "mul", "truediv"):
        for method in (f"__{name}__", f"__r{name}__"):
            base = getattr(F, method)
            setattr(Counted, method, lambda a, b, base=base: Counted(base(a, b)))
    for method in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        def compare(a, b, base=getattr(F, method)):
            Counted.compared += 1
            return base(a, b)

        setattr(Counted, method, compare)
    leaves = 0
    minimum = bounds.minimum

    def counted_minimum(*args):
        nonlocal leaves
        leaves += 1
        return minimum(*args)

    monkeypatch.setattr(bounds, "minimum", counted_minimum)
    monkeypatch.setattr(bounds, "Fraction", Counted)
    monkeypatch.setattr(numerics, "Fraction", Counted)
    e = json.loads(POOL_EXTREMA.read_text())["2x4-4"][10]
    n = network_from_dict(e["net"])
    with pytest.raises(BudgetExceeded):
        exact_extrema(n, "output", node_budget=150)
    Counted.made = Counted.compared = 0
    leaves = 0
    iv = exact_extrema(n, "output")
    assert Counted.compared <= 1  # Interval checks lo <= hi
    assert leaves == 36
    assert Counted.made <= 2
    assert (iv.lo, iv.hi) == tuple(F(v) for v in e["expect"])
