"""Regenerate the frozen input pools of the benchmark.

    python3 perfbench/freeze.py roundtrip   # writes perfbench/pool_roundtrip.json
    python3 perfbench/freeze.py extrema     # writes perfbench/pool_extrema.json

The pools are frozen so that a later change to the library cannot change
which inputs the benchmark draws.  Candidates are drawn from FREEZE_SEED and
kept or rejected on exact verdicts (range, non-degeneracy, budget), each
verdict made once, here.  A run of the benchmark only samples from the pools.
"""
from __future__ import annotations

import json
import os
import platform
import random
import signal
import sys
import time
from fractions import Fraction
from math import ceil, floor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import nets  # noqa: E402
from luknet.bounds import BudgetExceeded, exact_extrema  # noqa: E402
from luknet.construct import roundtrip  # noqa: E402
from luknet.network import is_non_degenerate, network_from_dict  # noqa: E402

FREEZE_SEED = 20261017
VERDICT_BUDGET = 200_000  # large enough to be an exact verdict on these shapes
INT_VALUES = list(range(-3, 4))
HALF_VALUES = [Fraction(k, 2) for k in range(-6, 7)]
FAST_S = 2.5  # round trips at or under this are "fast"; the benchmark's limit is 4 s
SLOW_S = 6.0  # round trips still running after this are slow candidates ...
CONFIRM_S = 10.0  # ... and slow once a second run outlives this too
MAX_NARROW = 1200  # fast networks kept with sigma width <= 16; wider ones are all kept
MIN_SLOW = 24  # drawing goes on until this many slow networks
EXTREMA_BUDGET = 250  # the node budget the benchmark passes to exact_extrema
EXTREMA_SHAPES = {"2x4-4": (2, [4, 4], 240), "3x4-4-4": (3, [4, 4, 4], 120),
                  "3x6-6": (3, [6, 6], 100), "4x6-6": (4, [6, 6], 140)}


class Guard(Exception):
    pass


def _alarm(*_):
    raise Guard()


def guarded(seconds, fn, *args, **kwargs):
    """(result, elapsed) of fn, or (Guard(), elapsed) when it outlives seconds."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs), time.perf_counter() - t0
    except Guard as e:
        return e, time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def corpus_candidate(rng, values, inputs, depths, max_width):
    """One relu network with exact range inside [0,1], or (None, reason).

    Mirrors the shape distribution of the round-trip corpus: an out-of-range
    draw is shifted by an integer bias when its span fits in [0,1], or wrapped
    in a clamp pair rho(g+t) - rho(g+t-1) otherwise.
    """
    n = rng.choice(inputs)
    hidden = [rng.randint(1, max_width) for _ in range(rng.choice(depths))]
    base = nets.random_relu_net(rng, n, hidden, values)
    rng_out, _ = guarded(30, exact_extrema, network_from_dict(base), "output",
                         node_budget=VERDICT_BUDGET)
    if isinstance(rng_out, Guard):
        return None, "range verdict took over 30 s"
    lo, hi = rng_out.lo, rng_out.hi
    if lo == hi:
        return None, "constant"
    out = base["layers"][-1]
    if 0 <= lo and hi <= 1:
        cand = base
    elif ceil(-lo) <= floor(1 - hi):
        shifted = dict(out, biases=[str(Fraction(out["biases"][0]) + ceil(-lo))])
        cand = dict(base, layers=base["layers"][:-1] + [shifted])
    elif hi - lo > 1 and len(hidden) <= 2:
        b = Fraction(out["biases"][0]) + floor(-lo)
        row = out["weights"][0]
        pair = {"weights": [row, row], "biases": [str(b), str(b - 1)],
                "activation": ["relu", "relu"]}
        differ = {"weights": [["1", "-1"]], "biases": ["0"], "activation": ["none"]}
        cand = dict(base, layers=base["layers"][:-1] + [pair, differ])
    else:
        return None, "range not fixable"
    if nets.dead_nodes(cand):
        return None, "hidden node without outgoing weight"
    net = network_from_dict(cand)
    verdict, _ = guarded(30, is_non_degenerate, net, node_budget=VERDICT_BUDGET)
    if isinstance(verdict, Guard):
        return None, "degeneracy verdict took over 30 s"
    if not verdict[0]:
        return None, "degenerate"
    final, _ = guarded(30, exact_extrema, net, "output", node_budget=VERDICT_BUDGET)
    if isinstance(final, Guard) or final.lo < 0 or final.hi > 1:
        return None, "final range"
    return cand, None


# Formula constructors and LP entry points: their call count is a
# machine-independent measure of an item's work, by which the benchmark
# splits each stratum into bins.
COUNTED = [("luknet.formula", name) for name in ("lnot", "oplus", "odot", "delta", "scale")]
COUNTED += [("luknet.bounds", "lp_extremum"), ("luknet.bounds", "lp_feasible")]


def count_ops(fn, *args, **kwargs):
    """(result of fn(*args), calls it made to the COUNTED functions)."""
    calls = [0]
    saved = []
    for modname, attr in COUNTED:
        module = sys.modules[modname]
        original = getattr(module, attr)
        saved.append((module, attr, original))

        def counting(*a, _original=original, **k):
            calls[0] += 1
            return _original(*a, **k)

        setattr(module, attr, counting)
    try:
        return fn(*args, **kwargs), calls[0]
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def timed_roundtrip(cand, flavor):
    net = network_from_dict(cand)
    back, elapsed = guarded(SLOW_S, roundtrip, net, flavor=flavor)
    if isinstance(back, Guard):
        return "slow", elapsed
    if back != net:
        return "mismatch", elapsed
    return ("fast" if elapsed <= FAST_S else "between"), elapsed


def confirm_slow(integer, rejected):
    """Re-run every slow candidate with a longer guard; drop those that finish.

    The first pass can misjudge a network near the benchmark's limit when the
    machine is busy; a slow network must outlive 2.5 times the 4 s limit.
    """
    kept = []
    for entry in integer:
        if entry["class"] == "slow":
            back, elapsed = guarded(CONFIRM_S, roundtrip, network_from_dict(entry["net"]))
            if not isinstance(back, Guard):
                rejected["integer round trip between"] = rejected.get(
                    "integer round trip between", 0) + 1
                continue
        kept.append(entry)
    return kept


def freeze_roundtrip():
    rng = random.Random(FREEZE_SEED)
    rejected: dict[str, int] = {}
    integer, half, mismatches = [], [], []
    fast = slow = kept_narrow = 0

    def reject(why):
        rejected[why] = rejected.get(why, 0) + 1

    while slow < MIN_SLOW:
        cand, why = corpus_candidate(rng, INT_VALUES, [1, 1, 2, 2, 3], [0, 1, 1, 2, 2, 3], 4)
        if cand is None:
            reject(why)
            continue
        cls, elapsed = timed_roundtrip(cand, "integer")
        entry = {"net": cand, "sigma": nets.sigma_widths(cand), "class": cls,
                 "freeze_s": round(elapsed, 3)}
        if cls == "slow":
            slow += 1
            integer.append(entry)
        elif cls == "fast":
            fast += 1
            narrow = sum(entry["sigma"]) <= 16
            kept_narrow += narrow
            if not narrow or kept_narrow <= MAX_NARROW:
                entry["ops"] = count_ops(roundtrip, network_from_dict(cand))[1]
                integer.append(entry)
        else:
            reject(f"integer round trip {cls}")
            if cls == "mismatch":
                mismatches.append(cand)
        if (fast + slow) % 100 == 0:
            print("integer", fast, "fast", slow, "slow", rejected, flush=True)
    integer = confirm_slow(integer, rejected)
    while len(half) < 160:
        cand, why = corpus_candidate(rng, HALF_VALUES, [1, 1, 2, 2], [0, 1, 1, 2], 3)
        if cand is None:
            reject(f"half: {why}")
            continue
        verdicts = [timed_roundtrip(cand, f) for f in ("rational", "real")]
        if all(cls == "fast" for cls, _ in verdicts):
            half.append({"net": cand, "sigma": nets.sigma_widths(cand),
                         "freeze_s": [round(t, 3) for _, t in verdicts]})
        else:
            reject("half round trip " + "/".join(cls for cls, _ in verdicts))
            if any(cls == "mismatch" for cls, _ in verdicts):
                mismatches.append(cand)
    about = {
        "seed": FREEZE_SEED,
        "rule": "integer: n in {1,1,2,2,3}, 0-3 hidden layers of width 1-4, |w| <= 3; "
                "half: weights k/2 with |k| <= 6, n in {1,1,2,2}, 0-2 hidden layers of "
                "width 1-3; kept when exact range lies in [0,1] (after an integer shift or "
                "clamp pair), every hidden node has a nonzero outgoing weight, the network "
                "is non-degenerate and the round trip returns it unchanged; class fast = "
                f"round trip within {FAST_S} s when frozen (all with sigma width > 16 kept, the "
                f"first {MAX_NARROW} narrower ones), slow = still running after {SLOW_S} s "
                f"and again after {CONFIRM_S} s; ops = formula constructor calls and LP "
                "solves of a fast round trip",
        "fast_drawn": fast,
        "rejected": rejected,
        "mismatch": mismatches,
    }
    return {"about": about, "integer": integer, "half": half}


def extrema_or_budget(net):
    """Extrema at the benchmark's budget, or the BudgetExceeded it raised."""
    try:
        return exact_extrema(net, "output", node_budget=EXTREMA_BUDGET)
    except BudgetExceeded as e:
        return e


def freeze_extrema():
    rng = random.Random(FREEZE_SEED + 1)
    pools, rejected = {}, {}
    for name, (n, hidden, count) in EXTREMA_SHAPES.items():
        entries = []
        while len(entries) < count:
            cand = nets.random_relu_net(rng, n, hidden, INT_VALUES)
            got, elapsed = guarded(20, count_ops, extrema_or_budget, network_from_dict(cand))
            if isinstance(got, Guard):
                rejected[name] = rejected.get(name, 0) + 1
                continue
            result, ops = got
            entry = {"net": cand, "class": "ok", "ops": ops, "freeze_s": round(elapsed, 3)}
            if isinstance(result, BudgetExceeded):
                entry["class"] = "budget"
            if n == 2:
                lo, hi = nets.oracle_extrema(cand)
                entry["expect"] = [str(lo), str(hi)]
            entries.append(entry)
        pools[name] = entries
        print(name, sum(e["class"] == "budget" for e in entries), "of", count, "over budget",
              flush=True)
    about = {
        "seed": FREEZE_SEED + 1,
        "rule": "random relu networks, integer |w| <= 3, no range filter; class budget = "
                f"exact_extrema raised BudgetExceeded at node_budget={EXTREMA_BUDGET}; "
                "ops = LP solves and feasibility probes of that call; "
                "expect = vertex-enumeration oracle (n = 2 only)",
        "budget": EXTREMA_BUDGET,
        "rejected_over_20s": rejected,
    }
    return {"about": about, **pools}


def host() -> str:
    """The machine the pool's timings (freeze_s, fast/slow classes) come from."""
    return f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}"


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    which = sys.argv[1] if len(sys.argv) > 1 else ""
    if which == "roundtrip":
        data = freeze_roundtrip()
    elif which == "extrema":
        data = freeze_extrema()
    else:
        print("usage: freeze.py roundtrip|extrema", file=sys.stderr)
        return 2
    data["about"]["host"] = host()
    path = os.path.join(HERE, f"pool_{which}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
