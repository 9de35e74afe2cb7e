"""The three workloads: what each item runs, how its answer is judged, and the
seeded schedule of cycles it draws its inputs from.

A cycle is a fixed list of slots, each drawing from one stratum of the input
pool (sigma width, ladder shape, weight rung; split into bins by frozen op
count).  The seed decides which input fills each
slot; a run takes cycles until its time is up and reports whole cycles only,
so every run measures the same mix however fast the program is.  No input is
used twice in a run.
"""
from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import sys
from fractions import Fraction
from itertools import permutations, product

import isolate
import nets
import spans

MiB = 1 << 20
LIMIT_S = 4.0  # wall-time limit of one item (one library call or one CLI invocation)
FORK_CAP = 512 * MiB  # address-space cap of a forked in-process item
CLI_CAP = 64 * MiB  # address-space cap of a CLI invocation


def _library(root: str) -> None:
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def item(slot_id: str, label: str, sigma, reply: dict, child, trace_rep=None,
         untraced_wall=None) -> dict:
    """Parent-side record of one item; outcome "ok" means the call succeeded."""
    return {
        "id": slot_id, "label": label, "sigma": sigma,
        "outcome": reply["outcome"], "wall": reply.get("wall", child.wall),
        "rss_kb": child.maxrss_kb, "bytes": 0, "wrong": None, "trace": trace_rep,
        "untraced_wall": untraced_wall,
    }


def run_forked(call, report, traced: bool):
    """One library call in a fresh child; traced runs add an untraced twin.

    Returns (reply, child, trace report, untraced wall).  The twin runs first
    in its own fork, so neither run sees the other's caches; its wall time is
    the base of trace.overhead_ratio.
    """
    if not traced:
        reply, child = isolate.call_forked(call, report, LIMIT_S, FORK_CAP)
        return reply, child, None, None
    base, _ = isolate.call_forked(call, lambda o, v: {}, LIMIT_S, FORK_CAP)
    tracer = spans.Tracer()

    def traced_report(outcome, value):
        out = report(outcome, value)
        out["trace"] = tracer.report()
        return out

    reply, child = isolate.call_forked(
        lambda: tracer.root(call), traced_report, LIMIT_S, FORK_CAP,
        prepare=lambda: spans.install(tracer)
    )
    rep = reply.pop("trace", None)
    if rep is not None:
        rep["wall"] = reply["wall"]
    return reply, child, rep, base.get("wall")


class Workload:
    name = ""
    strata: list = []  # (stratum key, slots per cycle)

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.rng = random.Random(seed)

    def cycles(self):
        """Seeded cycles of slots, drawing each stratum without replacement."""
        queues = {}
        for key, _ in self.strata:
            pool = list(self.pool[key])
            self.rng.shuffle(pool)
            queues[key] = pool
        while True:
            cycle = []
            for key, count in self.strata:
                if len(queues[key]) < count:
                    return
                cycle.extend(queues[key][:count])
                del queues[key][:count]
            self.rng.shuffle(cycle)
            yield cycle

    def probe_argv(self) -> list[str]:
        return [sys.executable, os.path.join(self.root, "perfbench", "run.py"),
                "--workload", self.name, "--seed", str(self.seed), "--probe-setup"]

    def setup(self) -> None:
        """Import luknet and parse every input of the pool."""
        _library(self.root)
        from luknet.network import network_from_dict
        for entries in self.pool.values():
            for e in entries:
                e["network"] = network_from_dict(e["net"])

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# roundtrip_corpus
# ---------------------------------------------------------------------------


def _plain(net) -> dict:
    """Wire-format dict of a luknet Network, built from its fields."""
    return nets.make_net(net.input_dim, [(l.weights, l.biases, l.activations) for l in net.layers])


def binned(entries: list[dict], bins: int, prefix: str) -> dict[str, list[dict]]:
    """Split entries by their frozen op count into `bins` equal strata.

    One slot per bin gives every cycle the same spread of cheap and costly
    inputs, which keeps run-to-run spread small without fixing the inputs.
    """
    ranked = sorted(entries, key=lambda e: e["ops"])
    return {f"{prefix}:{b}": ranked[b * len(ranked) // bins:(b + 1) * len(ranked) // bins]
            for b in range(bins)}


class RoundtripCorpus(Workload):
    """construct.roundtrip on frozen corpus networks, checked for identity."""

    name = "roundtrip_corpus"
    # (stratum, lowest and highest sigma width, slots per cycle); sigma width
    # is the total of hidden clip nodes after relu-to-clip splitting.  Each
    # stratum's networks are binned by op count, one slot per bin.  Mid-width
    # networks are over-represented against the corpus so that item_p90_ms
    # falls among many similar items instead of in the sparse tail.
    buckets = [("s1-4", 1, 4, 8), ("s5-8", 5, 8, 8), ("s9-16", 9, 16, 16),
               ("s17-32", 17, 32, 16), ("s33+", 33, 10 ** 9, 2)]

    def __init__(self, root, seed):
        super().__init__(root, seed)
        with open(os.path.join(root, "perfbench", "pool_roundtrip.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        entries = [{"id": f"rt-{i}", "flavor": "integer", **e}
                   for i, e in enumerate(data["integer"])]
        self.pool = {"slow": [e for e in entries if e["class"] == "slow"]}
        for name, lo, hi, slots in self.buckets:
            fast = [e for e in entries if e["class"] == "fast" and lo <= sum(e["sigma"]) <= hi]
            self.pool.update(binned(fast, slots, name))
        for j, e in enumerate(data["half"]):  # alternate flavours over the half-integer pool
            flavor = ("rational", "real")[j % 2]
            self.pool.setdefault(f"half-{flavor}", []).append(
                {"id": f"rt-h{j}-{flavor}", "flavor": flavor, **e})
        self.strata = [(key, 1) for key in self.pool]

    def run_slot(self, slot, traced: bool) -> list[dict]:
        import luknet.construct as construct
        net, flavor = slot["network"], slot["flavor"]
        reply, child, rep, base = run_forked(
            lambda: construct.roundtrip(net, flavor=flavor),
            lambda outcome, value: {"net": _plain(value)} if outcome == "ok" else {},
            traced)
        it = item(slot["id"], nets.shape(slot["net"]), slot["sigma"], reply, child, rep, base)
        if it["outcome"] == "ok":
            if nets.canonical(reply["net"]) != nets.canonical(slot["net"]):
                it["wrong"] = "round trip differs from the input network"
            it["bytes"] = len(json.dumps(reply["net"], indent=2, sort_keys=True)) + 1
        return [it]


# ---------------------------------------------------------------------------
# extrema_ladder
# ---------------------------------------------------------------------------


class ExtremaLadder(Workload):
    """bounds.exact_extrema on frozen random networks of four shapes."""

    name = "extrema_ladder"
    # (shape, slots per cycle for its "ok" networks, binned by op count).
    shapes = [("2x4-4", 8), ("3x4-4-4", 6), ("3x6-6", 6), ("4x6-6", 6)]
    # One more slot draws from the middle half, by op count, of this shape's
    # over-budget networks: the time to exhaust the budget varies fourfold
    # across that class, and a run has too few budget slots to average it out.
    budget_shape = "4x6-6"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        with open(os.path.join(root, "perfbench", "pool_extrema.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        self.budget = data["about"]["budget"]
        self.pool = {}
        for shape, slots in self.shapes:
            entries = [{"id": f"ex-{shape}-{i}", **e} for i, e in enumerate(data[shape])]
            self.pool.update(binned([e for e in entries if e["class"] == "ok"], slots, shape))
            if shape == self.budget_shape:
                over = sorted((e for e in entries if e["class"] == "budget"),
                              key=lambda e: e["ops"])
                self.pool[f"{shape}/budget"] = over[len(over) // 4:3 * len(over) // 4]
        self.strata = [(key, 1) for key in self.pool]

    def run_slot(self, slot, traced: bool) -> list[dict]:
        import luknet.bounds as bounds
        net, budget = slot["network"], self.budget
        reply, child, rep, base = run_forked(
            lambda: bounds.exact_extrema(net, "output", node_budget=budget),
            lambda outcome, v: {"lo": str(v.lo), "hi": str(v.hi)} if outcome == "ok" else {},
            traced)
        it = item(slot["id"], nets.shape(slot["net"]), None, reply, child, rep, base)
        if it["outcome"] == "ok":
            lo, hi = Fraction(reply["lo"]), Fraction(reply["hi"])
            expect = slot.get("expect")
            parsed = nets.parse_net(slot["net"])
            values = nets.grid_values(parsed, 4 if parsed[0] <= 2 else 3)
            if expect is not None and (lo, hi) != tuple(map(Fraction, expect)):
                it["wrong"] = f"[{lo}, {hi}] but the oracle gives [{expect[0]}, {expect[1]}]"
            elif not lo <= min(values) <= max(values) <= hi:
                it["wrong"] = f"[{lo}, {hi}] misses grid values in [{min(values)}, {max(values)}]"
            it["bytes"] = len(f"output: [{lo}, {hi}]\n")
        return [it]


# ---------------------------------------------------------------------------
# cli_weight_ladder
# ---------------------------------------------------------------------------

# (rung, base row, bias): clamp pairs clip(m.x + b) on [0,1]^3; graph JSON
# grows about tenfold per unit of weight, up to the rung that no longer fits
# under the CLI memory cap.
RUNGS = [("w2", (2, 1, 1), -1), ("w3a", (3, 2, 1), -2), ("w3b", (3, 3, 2), -2),
         ("w4", (4, 3, 2), -4), ("w5", (5, 4, 3), -5), ("w6a", (6, 5, 4), -9),
         ("w6b", (6, 5, 4), -6), ("w7", (7, 6, 5), -7)]
# One cycle climbs the ladder twice, so the heavy rungs are spread over it.
# w6a, the heaviest rung that passes, runs twice so that item_p90_ms falls
# among its invocations rather than between rungs.
CLI_ORDER = ["w2", "w3a", "w5", "w3b", "w4", "w6a", "w2", "w3a", "w6b", "w3b", "w4", "w6a", "w7"]
CHECK_GRID = 2  # check-equiv --grid: (2+1)^3 points
ANSWER_GRID = 4  # own evaluator: (4+1)^3 points


def variants(row, bias):
    """Every permutation and reflection x_i -> 1 - x_i of a clamp pair's row.

    They realise the same function up to a symmetry of the cube, so their
    formula trees have the same length and their graph JSON the same size.
    """
    out = set()
    for perm in set(permutations(row)):
        for flips in product((False, True), repeat=len(row)):
            m = tuple(-w if f else w for w, f in zip(perm, flips))
            out.add((m, bias + sum(w for w, f in zip(perm, flips) if f)))
    return sorted(out)


class CliWeightLadder(Workload):
    """luknet extract -> construct -> check-equiv as child processes."""

    name = "cli_weight_ladder"
    strata = [(r, CLI_ORDER.count(r)) for r, _, _ in RUNGS]

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.pool = {}
        for rung, row, bias in RUNGS:
            self.pool[rung] = [
                {"id": f"cli-{rung}-{k}", "rung": rung, "net": nets.clamp_pair(m, b),
                 "sigma": nets.sigma_widths(nets.clamp_pair(m, b))}
                for k, (m, b) in enumerate(variants(row, bias))
            ]
        self.tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def cycles(self):
        for cycle in super().cycles():  # chains run in CLI_ORDER, not shuffled
            by_rung = {}
            for slot in cycle:
                by_rung.setdefault(slot["rung"], []).append(slot)
            yield [by_rung[r].pop() for r in CLI_ORDER]

    def probe_argv(self) -> list[str]:
        return [sys.executable, "-m", "luknet.cli", "--help"]

    def setup(self) -> None:
        os.makedirs(self.tmp, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.tmp))  # only when no other run uses it

    def _exec(self, argv: list[str]) -> tuple[dict, isolate.Child, str]:
        child = isolate.run_exec(argv, self.env, LIMIT_S, CLI_CAP)
        text = child.output.decode(errors="replace")
        if child.killed:
            outcome = "timeout"
        elif child.status == 0:
            outcome = "ok"
        elif "MemoryError" in text:
            outcome = "memory"
        else:
            outcome = f"exit {child.status}"
        return {"outcome": outcome, "wall": child.wall}, child, text

    def _invoke(self, argv: list[str], traced: bool):
        """(reply, child, trace report, untraced wall, output text) of one invocation.

        A traced invocation runs perfbench/cli_child.py, which calls
        luknet.cli.main in process under the span wrappers; its untraced
        twin runs the same script without them.  Both run under the CLI cap.
        """
        if not traced:
            reply, child, text = self._exec([sys.executable, "-m", "luknet.cli"] + argv)
            return reply, child, None, None, text
        script = os.path.join(self.root, "perfbench", "cli_child.py")
        report = os.path.join(self.tmp, "report.json")
        walls = []
        for flag in ("0", "1"):
            if os.path.exists(report):
                os.remove(report)
            reply, child, text = self._exec([sys.executable, script, report, flag] + argv)
            rep = None
            if os.path.exists(report):
                with open(report, encoding="utf-8") as fh:
                    rep = json.load(fh)
                walls.append(rep["wall"])
        if rep is not None and "spans" in rep:
            reply["wall"] = rep["wall"]
        else:
            rep = None
        return reply, child, rep, walls[0] if len(walls) == 2 else None, text

    def run_slot(self, slot, traced: bool) -> list[dict]:
        tag = slot["id"]
        net_path = os.path.join(self.tmp, f"{tag}.json")
        graph_path = os.path.join(self.tmp, f"{tag}.graph.json")
        back_path = os.path.join(self.tmp, f"{tag}.back.json")
        with open(net_path, "w", encoding="utf-8") as fh:
            json.dump(slot["net"], fh, indent=2, sort_keys=True)
        steps = [("extract", ["extract", net_path, "-o", graph_path]),
                 ("construct", ["construct", graph_path, "-o", back_path]),
                 ("check-equiv", ["check-equiv", net_path, graph_path, "--grid", str(CHECK_GRID)])]
        items = []
        try:
            for step, argv in steps:
                reply, child, rep, base, text = self._invoke(argv, traced)
                it = item(f"{tag}-{step}", slot["rung"], slot["sigma"], reply, child, rep, base)
                items.append(it)
                if it["outcome"] != "ok":
                    if step == "check-equiv" and child.status == 1 and "counterexample" in text:
                        it["wrong"] = "check-equiv found a counterexample: " + text.strip()[-200:]
                    break
                if step == "extract":
                    it["bytes"] = os.path.getsize(graph_path)
                elif step == "construct":
                    it["wrong"] = self._judge(slot["net"], back_path)
                elif not text.startswith("equal on all"):
                    it["wrong"] = "check-equiv printed: " + text.strip()[-200:]
        finally:
            for path in (net_path, graph_path, back_path):
                if os.path.exists(path):
                    os.remove(path)
        return items

    @staticmethod
    def _judge(net: dict, back_path: str) -> str | None:
        with open(back_path, encoding="utf-8") as fh:
            back = json.load(fh)
        if nets.canonical(back) != nets.canonical(net):
            return "constructed network differs from the input"
        a, b = nets.parse_net(net), nets.parse_net(back)
        for x in nets.grid(3, ANSWER_GRID):
            if nets.evaluate(a, x) != nets.evaluate(b, x):
                return f"constructed network differs at {x}"
        return None


WORKLOADS = {w.name: w for w in (RoundtripCorpus, ExtremaLadder, CliWeightLadder)}
