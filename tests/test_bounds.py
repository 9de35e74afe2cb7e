import json
import pathlib
import random
from fractions import Fraction as F

import pytest

from helpers import brute_extrema, layer, net, random_network
from luknet.bounds import BudgetExceeded, exact_extrema, interval_propagation
from luknet.network import NONE, Layer, Network, NodeRef, apply_activation, network_from_dict

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
        for i in range(1, n.width(1) + 1):
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
        assert loose.encloses(exact)


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
    n = net(1, layer([[2], [-2]], [-1, 1], ["relu", "relu"]), layer([[1, 1]], [0], ["none"]))
    with pytest.raises(BudgetExceeded) as exc:
        exact_extrema(n, "output", node_budget=1)
    assert str(exc.value) == "branch-and-bound budget of 1 exceeded at node (1,2) while minimising"
    # The minimum visits 7 branches; the 8th is the first of the maximum.
    with pytest.raises(BudgetExceeded) as exc:
        exact_extrema(n, "output", node_budget=7)
    assert str(exc.value) == "branch-and-bound budget of 7 exceeded at node (1,1) while maximising"


def test_budget_generous_is_fine():
    rng = random.Random(26)
    n = random_network(rng, 2, [2])
    iv = exact_extrema(n, "output", node_budget=10_000)
    assert iv.lo <= iv.hi


def rational_network(rng: random.Random, n: int, hidden: list[int], activation: str) -> Network:
    """Weights and biases with denominator 2 or 3 per layer, |w| <= 3, so the
    levels' denominators d_j exceed 1; activation "mixed" draws relu or clip
    per node."""

    def draw(prev: int, acts: tuple[str, ...]) -> Layer:
        q = rng.choice((2, 3))
        rows = tuple(tuple(F(rng.randint(-3 * q, 3 * q), q) for _ in range(prev)) for _ in acts)
        return Layer(rows, tuple(F(rng.randint(-3 * q, 3 * q), q) for _ in acts), acts)

    layers = []
    prev = n
    for w in hidden:
        mixed = activation == "mixed"
        acts = tuple(rng.choice(("relu", "clip")) if mixed else activation for _ in range(w))
        layers.append(draw(prev, acts))
        prev = w
    layers.append(draw(prev, (NONE,)))
    return Network(n, tuple(layers))


@pytest.mark.parametrize("activation", ["relu", "clip", "mixed"])
def test_rational_networks_match_brute_force(activation):
    rng = random.Random({"relu": 31, "clip": 32, "mixed": 33}[activation])
    for _ in range(20):
        hidden = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        n = rational_network(rng, rng.randint(1, 2), hidden, activation)
        for j in range(1, n.depth + 1):
            for i in range(1, n.width(j) + 1):
                ref = NodeRef(j, i)
                lo, hi = brute_extrema(n, ref)
                iv = exact_extrema(n, ref)
                assert (iv.lo, iv.hi) == (lo, hi)
                assert interval_propagation(n, ref).encloses(iv)
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


def test_frozen_budget_classes():
    # The first 10 networks of every shape in the benchmark's extrema pool
    # keep their frozen class at the pool's budget: 15 of the 40 exceed it.
    # A search that visits other branches would move some across the line.
    pool = json.loads(POOL_EXTREMA.read_text())
    budget = pool.pop("about")["budget"]
    exceeded = 0
    for entries in pool.values():
        for e in entries[:10]:
            n = network_from_dict(e["net"])
            if e["class"] == "budget":
                with pytest.raises(BudgetExceeded):
                    exact_extrema(n, "output", node_budget=budget)
                exceeded += 1
            else:
                exact_extrema(n, "output", node_budget=budget)
    assert exceeded == 15
