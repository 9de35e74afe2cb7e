"""The benchmark's traced run rebinds library functions by module attribute
and measures the formulas of every graph it sees; a rename or a change of
what it reads must fail here, not only in a traced benchmark run."""
import importlib
import importlib.util
import pathlib

from helpers import layer, net
from luknet.extract import extract_graph
from luknet.formula import postorder

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    spans = _load_spans()
    assert spans.TARGETS
    for modname, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_graph_sizes_match_postorder():
    # clip(3x1 + 2x2 + x3 - 2) as a clamp pair, the shape of the CLI ladder.
    row = [3, 2, 1]
    clamp = net(3, layer([row, row], [-2, -3], ["relu", "relu"]), layer([[1, -1]], [0], ["none"]))
    g = extract_graph(clamp)
    formulas = [node.formula for level in g.nodes for node in level]
    sizes = _load_spans().graph_sizes("extract", g)
    assert sizes["dag_nodes"] == len(set().union(*map(postorder, formulas)))
    assert sizes["tree_length"] == max(f.length for f in formulas)
    assert sizes["dag_nodes"] > len(formulas)
