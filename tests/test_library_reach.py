"""Every function in the library is entered by some command of the CLI, or
is pinned here with the reason it stays.

A child interpreter installs ``sys.setprofile`` before it imports the
library, runs a small ladder of CLI commands in process, and writes the
first line of every library code object it saw enter.  The ladder covers
the fixtures (not ``fixtures/search/``, whose search takes minutes under a
profiler) through every command, and a few hand-made inputs for the error
paths.  A function is keyed by its module and its name in the AST through
that line, which for a decorated function is the line of its first
decorator (``co_qualname`` is not in Python 3.10).  So a routine that only
tests call is a visible decision: delete it, move it to ``tests/helpers.py``,
or pin it below with the open ROADMAP item that will call it.
"""
import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import luknet

SRC = pathlib.Path(luknet.__file__).resolve().parent
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# Module-qualified name: why it stays although no command enters it.  A
# pinned class counts as reached when an entered function of its module
# names it.
PINNED = {
    "extract.formula_for_certificate": "perfbench/spans.py traces it by name",
    "extract.rho_to_sigma": "the Network form of extract.sigma_layers; perfbench/spans.py traces it",
    "formula.Formula.__repr__": "Python's repr(); item 15 bounds its text by the DAG",
    "formula.Formula.length": "item 15 reports tree sizes; perfbench/spans.py reads it",
    "formula._tree_sizes": "the one fold that Formula.length and Formula.__repr__ read",
    "graph.formula_graph": "items 4 and 5: a formula as a depth-1 graph to construct and decide",
    "graph.represented_formula": "item 15 measures the represented formula",
    "network.is_non_degenerate": "the Network form of network.degeneracy; perfbench/ calls it",
    "numerics.Infeasible": "item 1: raised by lp_extremum alone",
    "numerics.lp_extremum": "item 1: the optimising point and the decision query",
    "numerics.lp_feasible": "item 1: the decision query",
    "rewrite.all_positions": "item 16 replaces tree positions by DAG terms",
    "rewrite.applicable_rewrites": "item 16 enumerates rewrites on the DAG",
    "rewrite.replay": "item 16 replays formula-level traces",
    "rewrite.trace_to_jsonl": "item 15 names its tent-graph output",
}

# Inputs for the paths no fixture takes, written next to the ladder's outputs.
INPUTS = {
    # clip(2x1) as a hidden node: it comes back as a relu pair, a MISMATCH.
    "clip2.json": '{"input_dim": 1, "layers": ['
    '{"weights": [["2"]], "biases": ["0"], "activation": ["clip"]}, '
    '{"weights": [["1"]], "biases": ["0"], "activation": ["none"]}]}',
    # x1 certified by clip(x1 + 1), which re-extracts to the constant 1.
    "forged.json": '{"widths": [1, 1], "terms": ["x1"], "nodes": [[{"formula": 0, '
    '"certificate": {"m": ["1"], "b": "1", "flavor": "integer"}}]]}',
    "delta.txt": "(delta 2 x1)",
    "scale.txt": "(scale 1/2 x1)",
    "bad.txt": "(foo x1)",
    "ax5.jsonl": '{"axiom": "Ax5", "dir": "RL", "pos": [], "node": [1, 1]}\n',
    # A bounds search one of whose LPs moves an input from 0 to 1: a bound flip.
    "flip.json": '{"input_dim": 2, "layers": ['
    '{"weights": [["-3", "-1"], ["-2", "0"]], "biases": ["3", "2"], "activation": ["relu", "relu"]}, '
    '{"weights": [["3", "-1"]], "biases": ["2"], "activation": ["none"]}]}',
}

# The fixture networks that roundtrip refuses as degenerate.
DEGENERATE = {"intro2_peer", "intro3_nstar", "never_active", "zero_net"}
HALF_INTEGER = {"half_relu"}  # run in the rational flavour


def ladder(tmp: pathlib.Path) -> list[tuple[list[str], int]]:
    """The CLI commands of the run, with outputs in tmp, each with its exit code."""
    fix, out = (lambda name: str(FIXTURES / name)), (lambda name: str(tmp / name))
    runs: list[tuple[list[str], int]] = []
    for path in sorted(FIXTURES.glob("*.json")):
        net, graph = str(path), out(f"{path.stem}.graph.json")
        flavor = ["--flavor", "rational"] if path.stem in HALF_INTEGER else []
        runs += [
            (["extract", net, *flavor, "-o", graph], 0),
            (["construct", graph, "-o", out(f"{path.stem}.net.json")], 0),
            (["roundtrip", net, *flavor], 1 if path.stem in DEGENERATE else 0),
            (["bounds", net], 0),
            (["check-equiv", net, graph, "--grid", "2", "--samples", "2"], 0),
        ]
    intro2 = out("intro2.graph.json")
    runs += [
        (["extract", fix("halfgrid_kinked.json"), "--flavor", "rational", "-o", out("r.json")], 0),
        (["extract", fix("halfgrid_kinked.json"), "--flavor", "real", "--check-range", "-o", out("r.json")], 0),
        (["roundtrip", fix("intro2.json"), "--flavor", "real"], 0),
        (["roundtrip", out("clip2.json")], 1),
        (["bounds", fix("dag.json"), "--node", "1,2", "--activated"], 0),
        (["bounds", fix("dag.json"), "--budget", "1"], 1),
        (["bounds", out("flip.json")], 0),
        (["check-equiv", fix("halfgrid_identity.json"), fix("halfgrid_kinked.json"), "--grid", "4"], 1),
        (["check-equiv", out("delta.txt"), out("scale.txt"), "--grid", "4"], 0),
        (["check-equiv", out("bad.txt"), out("scale.txt")], 2),
        (["construct", out("forged.json"), "-o", out("n.json")], 1),
        (["rewrite", intro2, "--trace", out("ax5.jsonl"), "-o", out("ax5.graph.json")], 0),
        (["construct", out("ax5.graph.json"), "-o", out("n.json")], 1),
        (["rewrite", intro2, "--trace", fix("intro_derivation.jsonl"), "-o", out("g.json")], 2),
    ]
    for spec in ("MV", "MVk:3", "DMV:2", "RMV:1/2"):
        runs.append((["axioms", "--set", spec, "--render-symmetry"], 0))
    return runs


def run_ladder(tmp: pathlib.Path) -> None:
    """Run the ladder under the profiler; write its exit codes and the
    (module, first line) of every library code object it entered to
    tmp/entered.json."""
    for name, text in INPUTS.items():
        (tmp / name).write_text(text)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    from luknet.cli import main

    codes = []
    for argv, _ in ladder(tmp):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
    sys.setprofile(None)
    files = {f: pathlib.Path(f).resolve() for f, _ in entered}
    lines = sorted([files[f].stem, n] for f, n in entered if files[f].parent == SRC)
    (tmp / "entered.json").write_text(json.dumps({"codes": codes, "entered": lines}))


def functions(tree: ast.Module) -> dict[int, tuple[str, set[str]]]:
    """Each function of a module, nested ones too, by the first line of its
    code object: its qualified name and the names it reads."""
    found = {}
    stack: list[tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                stack.append((child, name + "."))
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list], default=child.lineno)
                    found[first] = (name, {n.id for n in ast.walk(child) if isinstance(n, ast.Name)})
            else:
                stack.append((child, prefix))
    return found


def audit(sources: dict[str, str], entered: set[tuple[str, int]], pinned: dict[str, str]) -> list[str]:
    """Each function of the modules (name: source) that is neither entered
    nor pinned, and each pin that names nothing or something reached."""
    defined, classes, reached = set(), set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        own = {f"{module}.{c.name}" for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}
        classes |= own
        for line, (name, reads) in functions(tree).items():
            defined.add(f"{module}.{name}")
            if (module, line) in entered:
                reached.add(f"{module}.{name}")
                reached |= own & {f"{module}.{n}" for n in reads}
    return sorted(
        [f"{name} is never entered" for name in defined - reached - pinned.keys()]
        + [f"{name} is pinned but not defined" for name in pinned.keys() - defined - classes]
        + [f"{name} is pinned but reached" for name in pinned.keys() & reached]
    )


def test_detector_sees_stale_pins():
    code = (
        "class Gone(Exception):\n    pass\n"
        "class Kept(Exception):\n    pass\n"
        "def wrap(fn):\n    return fn\n"
        "@wrap\n"
        "def entered():\n    def inner():\n        raise Gone\n    return inner\n"
        "def pinned():\n    raise Kept\n"
        "def unpinned():\n    pass\n"
        "def pinned_but_entered():\n    pass\n"
    )
    # wrap, entered (by its decorator's line), inner and pinned_but_entered.
    entered = {("m", 5), ("m", 7), ("m", 9), ("m", 16)}
    pins = dict.fromkeys(["m.pinned", "m.Kept", "m.Gone", "m.pinned_but_entered", "m.removed"], "")
    assert audit({"m": code}, entered, pins) == [
        "m.Gone is pinned but reached",
        "m.pinned_but_entered is pinned but reached",
        "m.removed is pinned but not defined",
        "m.unpinned is never entered",
    ]
    assert "m.entered is never entered" in audit({"m": code}, entered - {("m", 7)}, pins)


def test_every_library_function_is_entered_or_pinned(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "entered.json").read_text())
    assert result["codes"] == [code for _, code in ladder(tmp_path)]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert audit(sources, {tuple(k) for k in result["entered"]}, PINNED) == []


if __name__ == "__main__":
    run_ladder(pathlib.Path(sys.argv[1]))
