import json
import random
from fractions import Fraction as F

import pytest

from helpers import (
    brute_non_degenerate,
    layer,
    net,
    random_network,
    rational_network,
    reference_is_non_degenerate,
    reference_non_degenerate,
)
from luknet import bounds
from luknet.network import (
    Layer,
    Network,
    NodeRef,
    box,
    eval_network,
    is_non_degenerate,
    network_from_json,
    network_to_json,
    node_local_map,
    node_preactivations,
    scaled_layer,
)


def nprime() -> Network:
    # rho(1 - rho(1 - x)): identity on [0,1], constant outside.
    return net(
        1,
        layer([[-1]], [1], ["relu"]),
        layer([[-1]], [1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )


def dag_network() -> Network:
    return net(
        2,
        layer([[1, 2], [-2, 0]], [-1, 1], ["relu", "relu"]),
        layer([[-1, 1], [1, -1]], [1, -1], ["relu", "relu"]),
        layer([[-1, -1]], [1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )


def test_eval_nprime():
    n = nprime()
    assert eval_network(n, [F(1, 2)]) == F(1, 2)
    assert eval_network(n, [F(0)]) == 0
    assert eval_network(n, [F(1)]) == 1


def test_eval_constant_zero_network():
    nstar = net(
        2,
        layer([[-2, 0], [1, 1], [1, 1]], [1, 0, -1], ["relu"] * 3),
        layer([[1, 0, 1]], [-1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )
    assert eval_network(nstar, [F(1, 2), F(1, 2)]) == 0
    for x in ([F(0), F(0)], [F(1), F(0)], [F(0), F(1)], [F(1), F(1)], [F(1, 3), F(2, 3)]):
        assert eval_network(nstar, x) == 0


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError, match="expected 1 inputs, got 2"):
        eval_network(nprime(), [F(0), F(0)])


def test_node_local_map():
    d = dag_network()
    w, b, act = node_local_map(d, NodeRef(1, 1))
    assert (w, b, act) == ((F(1), F(2)), F(-1), "relu")
    w, b, act = node_local_map(d, NodeRef(4, 1))
    assert (w, b, act) == ((F(1),), F(0), "none")
    with pytest.raises(ValueError):
        node_local_map(d, NodeRef(0, 1))  # input layer has no local map


def test_input_interval_examples():
    assert box((1, 2), -1, [(0, 1)] * 2) == (-1, 2)
    assert box((-2,), 1, [(0, 1)]) == (-1, 1)
    assert box((), 5, []) == (5, 5)
    assert box((1, -2, 0), 3, [(-1, 2), (0, 5), (-7, 7)]) == (-8, 5)


def test_input_interval_bounds_attained():
    rng = random.Random(8)
    for _ in range(100):
        d = rng.randint(1, 4)
        w = tuple(rng.randint(-4, 4) for _ in range(d))
        b = rng.randint(-3, 3)
        lo, hi = box(w, b, [(0, 1)] * d)
        at_lo = [1 if c < 0 else 0 for c in w]
        at_hi = [1 if c > 0 else 0 for c in w]
        assert sum(c * v for c, v in zip(w, at_lo)) + b == lo
        assert sum(c * v for c, v in zip(w, at_hi)) + b == hi


def test_piecewise_affinity_on_fixed_pattern_segment():
    # If the activation pattern is constant along [a,b] (checked by sampling),
    # the midpoint value is the average of the endpoint values.
    rng = random.Random(9)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        network = random_network(rng, n, [rng.randint(1, 3)])
        a = [F(rng.randint(0, 8), 8) for _ in range(n)]
        b = [F(rng.randint(0, 8), 8) for _ in range(n)]
        mid = [(p + q) / 2 for p, q in zip(a, b)]
        signs = []
        for x in (a, b, mid):
            pre = node_preactivations(network, x)
            signs.append(tuple(t > 0 for lay in pre[:-1] for t in lay))
        if signs[0] != signs[1] or signs[0] != signs[2]:
            continue
        va, vb, vm = (eval_network(network, x) for x in (a, b, mid))
        assert vm == (va + vb) / 2
        done += 1


def test_clip_network_values_stay_in_unit_interval():
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randint(1, 3)
        network = random_network(rng, n, [rng.randint(1, 3)], activation="clip")
        x = [F(rng.randint(0, 6), 6) for _ in range(n)]
        pre = node_preactivations(network, x)
        for lay, acts in zip(pre[:-1], network.layers):
            for t, act in zip(lay, acts.activations):
                assert act == "clip"
                clipped = min(max(t, F(0)), F(1))
                assert 0 <= clipped <= 1


def test_non_degenerate_examples():
    ok, why = is_non_degenerate(nprime())
    assert ok and why is None
    dead = net(1, layer([[1]], [-5], ["relu"]), layer([[1]], [0], ["none"]))
    ok, why = is_non_degenerate(dead)
    assert not ok and "never active" in why
    dup = net(
        2,
        layer([[1, 0], [1, 0]], [0, 0], ["relu", "relu"]),
        layer([[1, 1]], [0], ["none"]),
    )
    ok, why = is_non_degenerate(dup)
    assert not ok and "identical local maps" in why
    zero_out = net(1, layer([[1]], [0], ["relu"]), layer([[0]], [0], ["none"]))
    ok, why = is_non_degenerate(zero_out)
    assert not ok and "zero incoming" in why


def test_non_degenerate_matches_brute_oracle():
    rng = random.Random(11)
    for _ in range(25):
        network = random_network(rng, rng.randint(1, 2), [rng.randint(1, 3)])
        assert is_non_degenerate(network)[0] == brute_non_degenerate(network)


def test_non_degenerate_matches_search_reference():
    # Vertex witnesses change which nodes are searched, never a verdict or
    # its message; most of these draws are degenerate.
    rng = random.Random(26)
    verdicts = []
    for _ in range(500):
        hidden = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        network = random_network(rng, rng.randint(1, 4), hidden)
        verdict = is_non_degenerate(network)
        assert verdict == reference_non_degenerate(network)
        verdicts.append(verdict[0])
    assert 0 < verdicts.count(True) < verdicts.count(False)


def count_searches(monkeypatch) -> list:
    """The nodes the exact search, ``bounds.extrema``, runs on from now on, in order."""
    searched = []
    search = bounds.extrema

    def counting(layers, ref, *args, **kwargs):
        searched.append(ref)
        return search(layers, ref, *args, **kwargs)

    monkeypatch.setattr(bounds, "extrema", counting)
    return searched


def test_unwitnessed_node_is_searched(monkeypatch):
    # relu(-8 relu(2x - 1) + 4 relu(x) - 1) is positive only near x = 1/2,
    # so no vertex shows node (2,1) positive; the layer-1 nodes are settled.
    network = net(
        1,
        layer([[2], [1]], [-1, 0], ["relu", "relu"]),
        layer([[-8, 4]], [-1], ["relu"]),
        layer([[1]], [0], ["none"]),
    )
    assert bounds.vertex_witnessed([scaled_layer(lay) for lay in network.layers]) == [[True, True], [False]]
    searched = count_searches(monkeypatch)
    assert is_non_degenerate(network) == (True, None)
    assert searched == [NodeRef(2, 1)]
    assert brute_non_degenerate(network)


def test_witnessed_network_is_not_searched(monkeypatch):
    # relu(x1 - x2) and relu(x1 + x2 - 1) are positive at (1, 0) and (1, 1).
    two = net(
        2, layer([[1, -1], [1, 1]], [0, -1], ["relu", "relu"]), layer([[1, 1]], [0], ["none"])
    )
    searched = count_searches(monkeypatch)
    for network in (nprime(), two):
        assert is_non_degenerate(network) == (True, None)
    assert searched == []


def _planted(rng: random.Random) -> Network:
    """A rational relu network with, at random, a planted twin, a hidden node
    whose box over the cube is never or always positive, or an all-zero
    output row."""
    hidden = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
    network = rational_network(rng, rng.randint(1, 3), hidden, "relu")
    layers = list(network.layers)
    plant = rng.choice(("twin", "never", "always", "zero", "none"))
    j = rng.randrange(len(layers) - 1)
    lay, nxt = layers[j], layers[j + 1]
    rows, biases = list(lay.weights), list(lay.biases)
    i = rng.randrange(len(rows))
    if plant == "twin":
        rows.append(rows[i])
        biases.append(biases[i])
        layers[j + 1] = Layer(tuple((*r, F(rng.randint(-3, 3), 2)) for r in nxt.weights),
                              nxt.biases, nxt.activations)
    elif plant in ("never", "always"):
        lo, hi = sum(w for w in rows[i] if w < 0), sum(w for w in rows[i] if w > 0)
        biases[i] = -hi - F(rng.randint(0, 2), 3) if plant == "never" else -lo + F(rng.randint(1, 3), 3)
    elif plant == "zero":
        out = layers[-1]
        layers[-1] = Layer(((F(0),) * len(out.weights[0]),), out.biases, out.activations)
    layers[j] = Layer(tuple(rows), tuple(biases), ("relu",) * len(rows))
    return Network(network.input_dim, tuple(layers))


def test_degeneracy_on_int_keys_matches_the_fraction_check():
    # The check on integer layers gives the Fraction check's verdict and
    # message, byte for byte, on seeded rational networks with planted
    # twins, never- and always-active nodes and all-zero output rows; each
    # refusal message is reached at least 10 times, and so is a pass.
    rng = random.Random(38)
    seen = {"identical local maps": 0, "never active": 0, "always active": 0, "zero incoming": 0, None: 0}
    for _ in range(600):
        network = _planted(rng)
        verdict = is_non_degenerate(network)
        assert verdict == reference_is_non_degenerate(network)
        seen[next((k for k in seen if k and k in (verdict[1] or "")), None)] += 1
    assert min(seen.values()) >= 10, seen


def test_json_roundtrip():
    d = dag_network()
    text = network_to_json(d)
    assert network_from_json(text) == d
    data = json.loads(text)
    assert data["input_dim"] == 2
    assert data["layers"][0]["weights"] == [["1", "2"], ["-2", "0"]]
    assert data["layers"][0]["activation"] == ["relu", "relu"]


def test_structural_equality_is_strict():
    a = net(1, layer([[1], [0]], [0, 0], ["relu", "relu"]), layer([[1, 0]], [0], ["none"]))
    b = net(1, layer([[0], [1]], [0, 0], ["relu", "relu"]), layer([[0, 1]], [0], ["none"]))
    assert a != b


def test_validation_rejects_bad_shapes():
    with pytest.raises(Exception):
        net(1, layer([[1, 2]], [0], ["relu"]), layer([[1]], [0], ["none"]))
    with pytest.raises(ValueError):
        net(1, layer([[1]], [0], ["none"]), layer([[1]], [0], ["none"]))
    with pytest.raises(ValueError):
        net(1, layer([[1], [1]], [0, 1], ["relu", "relu"]))  # output width != 1
