import json

import pytest

from luknet.cli import main
from luknet.graph import graph_from_json
from luknet.network import network_from_json


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roundtrip_fixture(fixtures_dir, capsys):
    code, out, _ = run(capsys, "roundtrip", str(fixtures_dir / "intro2.json"))
    assert code == 0
    assert "identical" in out


def test_extract_then_construct_files(fixtures_dir, tmp_path, capsys):
    gpath = tmp_path / "g.json"
    code, _, _ = run(capsys, "extract", str(fixtures_dir / "dag.json"), "-o", str(gpath))
    assert code == 0
    g = graph_from_json(gpath.read_text())
    assert g.widths[0] == 2
    npath = tmp_path / "n.json"
    code, _, _ = run(capsys, "construct", str(gpath), "-o", str(npath))
    assert code == 0
    rebuilt = network_from_json(npath.read_text())
    original = network_from_json((fixtures_dir / "dag.json").read_text())
    assert rebuilt == original


def test_extract_degenerate_exits_one(tmp_path, capsys):
    dead = {
        "input_dim": 1,
        "layers": [
            {"weights": [["1"]], "biases": ["-5"], "activation": ["relu"]},
            {"weights": [["1"]], "biases": ["0"], "activation": ["none"]},
        ],
    }
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(dead))
    code, _, err = run(capsys, "extract", str(path), "-o", str(tmp_path / "g.json"))
    assert code == 1
    assert "degenerate" in err


def test_budget_reaches_degeneracy_check(tmp_path, capsys):
    # Every hidden node is settled by an exact extrema search, and a budget
    # of one branch cannot settle this one.
    dead = {
        "input_dim": 1,
        "layers": [
            {"weights": [["1"]], "biases": ["-5"], "activation": ["relu"]},
            {"weights": [["1"]], "biases": ["0"], "activation": ["none"]},
        ],
    }
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(dead))
    for argv in (("extract", str(path), "-o", str(tmp_path / "g.json")), ("roundtrip", str(path))):
        code, _, err = run(capsys, *argv, "--budget", "1")
        assert code == 1
        assert "budget exceeded" in err


def test_json_number_weight_exits_two(tmp_path, capsys):
    spec = {
        "input_dim": 1,
        "layers": [{"weights": [[1]], "biases": ["0"], "activation": ["none"]}],
    }
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "extract", str(path), "-o", str(tmp_path / "g.json"))
    assert code == 2
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("input_dim", [1.9, True, "1"])
def test_non_integer_input_dim_exits_two(tmp_path, capsys, input_dim):
    spec = {
        "input_dim": input_dim,
        "layers": [{"weights": [["1"]], "biases": ["0"], "activation": ["none"]}],
    }
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "bounds", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_non_integer_graph_width_exits_two(fixtures_dir, tmp_path, capsys):
    gpath = tmp_path / "g.json"
    code, _, _ = run(capsys, "extract", str(fixtures_dir / "intro2.json"), "-o", str(gpath))
    assert code == 0
    data = json.loads(gpath.read_text())
    data["widths"][0] += 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "check-equiv", str(bad), str(gpath))
    assert code == 2
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_check_equiv_networks(fixtures_dir, capsys):
    code, out, _ = run(
        capsys,
        "check-equiv",
        str(fixtures_dir / "chain6_a.json"),
        str(fixtures_dir / "chain6_b.json"),
        "--grid",
        "12",
    )
    assert code == 0
    assert "equal" in out


def test_check_equiv_counterexample_exits_one(fixtures_dir, capsys):
    code, out, _ = run(
        capsys,
        "check-equiv",
        str(fixtures_dir / "halfgrid_identity.json"),
        str(fixtures_dir / "halfgrid_kinked.json"),
        "--grid",
        "4",
    )
    assert code == 1
    assert "counterexample" in out


def test_check_equiv_formula_against_network(fixtures_dir, tmp_path, capsys):
    fpath = tmp_path / "f.txt"
    fpath.write_text("0\n")
    code, _, _ = run(
        capsys,
        "check-equiv",
        str(fpath),
        str(fixtures_dir / "zero_net.json"),
        "--grid",
        "6",
        "--samples",
        "50",
    )
    assert code == 0


def test_axioms_listing(capsys):
    code, out, _ = run(capsys, "axioms", "--set", "MV")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 16
    code, out, _ = run(capsys, "axioms", "--set", "MV", "--render-symmetry")
    assert code == 0
    assert "rho(" in out


def test_axioms_sets(capsys):
    for spec, count in (("MVk:1", 18), ("DMV:2", 20)):
        code, out, _ = run(capsys, "axioms", "--set", spec)
        assert code == 0
        assert len(out.strip().splitlines()) == count


def test_bounds_output_and_node(fixtures_dir, capsys):
    code, out, _ = run(capsys, "bounds", str(fixtures_dir / "intro2.json"))
    assert code == 0
    assert "[0, 1]" in out
    code, out, _ = run(
        capsys, "bounds", str(fixtures_dir / "dag.json"), "--node", "1,1"
    )
    assert code == 0
    assert "[-1, 2]" in out


def test_bounds_budget_env(fixtures_dir, capsys, monkeypatch):
    monkeypatch.setenv("LUK_NODE_BUDGET", "1")
    code, _, err = run(capsys, "bounds", str(fixtures_dir / "dag.json"))
    assert code == 1
    assert "budget" in err


def test_rewrite_applies_graph_trace(fixtures_dir, tmp_path, capsys):
    gpath = tmp_path / "g.json"
    code, _, _ = run(capsys, "extract", str(fixtures_dir / "intro2.json"), "-o", str(gpath))
    assert code == 0
    trace = tmp_path / "t.jsonl"
    # [v_out] = x1 becomes not not x1 (certificate dropped).
    trace.write_text('{"axiom": "Ax7", "dir": "LR", "pos": [], "node": [3, 1]}\n')
    out_path = tmp_path / "g2.json"
    code, _, _ = run(capsys, "rewrite", str(gpath), "--trace", str(trace), "-o", str(out_path))
    assert code == 0
    g2 = graph_from_json(out_path.read_text())
    assert g2.node(3, 1).certificate is None
    code, _, err = run(capsys, "construct", str(out_path), "-o", str(tmp_path / "n.json"))
    assert code == 1
    assert "not normal" in err


# A 3-neuron tent of weight 24 on [0,1]: its graph has 5 004 distinct
# subterms, but the expanded tree of its largest node has about 8e26 leaves.
TENT = {
    "input_dim": 1,
    "layers": [
        {"weights": [["24"], ["24"], ["24"]], "biases": ["0", "-1", "-2"], "activation": ["relu"] * 3},
        {"weights": [["1", "-2", "1"]], "biases": ["0"], "activation": ["none"]},
    ],
}


def extract_tent(tmp_path, capsys):
    npath, gpath = tmp_path / "tent.json", tmp_path / "tent.graph.json"
    npath.write_text(json.dumps(TENT))
    code, _, _ = run(capsys, "extract", str(npath), "-o", str(gpath))
    assert code == 0
    return npath, gpath


def test_tent_extract_construct_check_equiv(tmp_path, capsys):
    npath, gpath = extract_tent(tmp_path, capsys)
    assert gpath.stat().st_size < 200_000
    code, _, _ = run(capsys, "construct", str(gpath), "-o", str(tmp_path / "back.json"))
    assert code == 0
    assert network_from_json((tmp_path / "back.json").read_text()) == network_from_json(npath.read_text())
    code, out, _ = run(capsys, "check-equiv", str(npath), str(gpath))
    assert code == 0
    assert out.startswith("equal on all 13 points")


def test_tent_rewrite_failure_is_one_line(tmp_path, capsys):
    _, gpath = extract_tent(tmp_path, capsys)
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"axiom": "Ax7", "dir": "RL", "pos": [], "node": [2, 1]}\n')
    code, _, err = run(capsys, "rewrite", str(gpath), "--trace", str(trace), "-o", str(tmp_path / "g2.json"))
    assert code == 1
    assert err == "trace failed: step 0: subformula at position [] is not an instance of the right side of Ax7\n"


def graph_nodes(nodes):
    return {"widths": [1, 1], "terms": ["x1"], "nodes": nodes}


def cert(**fields):
    fields = {"m": ["1"], "b": "0", "flavor": "integer", **fields}
    certificate = {k: v for k, v in fields.items() if v is not None}
    return graph_nodes([[{"formula": 0, "certificate": certificate}]])


def graph_file(terms, index=1):
    return {"widths": [1, 1], "terms": terms, "nodes": [[{"formula": index, "certificate": None}]]}


@pytest.mark.parametrize(
    "data,message",
    [
        (graph_file(["x1", "not 2", "not 0"]), "child 2 is not an earlier term"),
        (graph_file(["x1", "not 1"]), "child 1 is not an earlier term"),
        (graph_file(["x1", "not 9"]), "child 9 is not an earlier term"),
        (graph_file(["x1", "not -1"]), "child -1 is not an earlier term"),
        (graph_file(["x1", "not 0.0"]), "child 0.0 is not an earlier term"),
        (graph_file(["x1", "not 0"], -1), "names term -1"),
        (graph_file(["x1", "not 0"], 2), "names term 2"),
        (graph_file(["x1", "not 0"], True), "must be an integer"),
        (graph_file(["x1", "not 0"], 1.0), "must be an integer"),
        (graph_file(["x1", "nand 0 0"]), "unknown operator 'nand'"),
        (graph_file(["x1", "oplus 0"]), "oplus takes 2 arguments"),
        (graph_file(["x1", "not 0 0"]), "not takes 1 argument"),
        (graph_file(["x1", "delta 0 0"]), "positive integer divisor"),
        (graph_file(["x1", "scale 3/2 0"]), "factor in [0,1]"),
        (graph_file(["x1", "scale -1/2 0"]), "factor in [0,1]"),
        (graph_file(["x0", "not 0"]), "not an atom"),
        (graph_file(["x1", 1]), "not a string"),
        (graph_file("x1"), "list of strings"),
        ({"widths": [1, 1], "nodes": [[{"formula": "(not x1)", "certificate": None}]]}, '"terms"'),
        (graph_nodes(5), "nodes must be a list"),
        (graph_nodes([5]), "nodes of level 1 must be a list"),
        (graph_nodes([[5]]), "node (1,1) must be an object"),
        (graph_nodes([[{"certificate": None}]]), 'node (1,1) has no "formula"'),
        (graph_nodes([[{"formula": 0, "certificate": 5}]]), "certificate of node (1,1) must be"),
        (cert(m=5), "certificate of node (1,1) m must be a list"),
        (cert(b=None), 'certificate of node (1,1) has no "b"'),
        (cert(flavor=None), 'certificate of node (1,1) has no "flavor"'),
        ({"terms": ["x1"], "nodes": [[{"formula": 0}]]}, 'graph has no "widths"'),
        ({"widths": 2, "terms": ["x1"], "nodes": [[{"formula": 0}]]}, "widths must be a list"),
        ({"widths": [1, 1], "terms": ["x1"]}, 'graph has no "nodes"'),
    ],
)
def test_malformed_term_table_exits_two(tmp_path, capsys, data, message):
    path = tmp_path / "bad.graph.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "construct", str(path), "-o", str(tmp_path / "n.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert message in err


def test_usage_error_exits_two(fixtures_dir, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run(capsys, "check-equiv", str(bad), str(fixtures_dir / "dag.json"))
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bounds_budget_error_is_one_line(fixtures_dir, capsys):
    code, out, err = run(capsys, "bounds", str(fixtures_dir / "dag.json"), "--budget", "1")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("budget exceeded: branch-and-bound budget of 1 exceeded at node (")
    assert err.rstrip().endswith(("while minimising", "while maximising"))


@pytest.mark.parametrize(
    "command,argv,env,message",
    [
        ("bounds", ["--budget", "-3"], None, "--budget must be a positive integer, got -3"),
        ("bounds", ["--budget", "0"], None, "--budget must be a positive integer, got 0"),
        ("roundtrip", ["--budget", "0"], None, "--budget must be a positive integer, got 0"),
        ("bounds", [], "0", "LUK_NODE_BUDGET must be a positive integer, got 0"),
        ("bounds", [], "many", "LUK_NODE_BUDGET must be a positive integer, got many"),
        ("bounds", ["--node", "2"], None, "--node must be LAYER,INDEX, got 2"),
        ("bounds", ["--node", "1,x"], None, "--node must be LAYER,INDEX, got 1,x"),
        ("bounds", ["--node", "1,2,3"], None, "--node must be LAYER,INDEX, got 1,2,3"),
    ],
)
def test_bad_budget_or_node_exits_two(fixtures_dir, capsys, monkeypatch, command, argv, env,
                                      message):
    # A budget or node that makes no sense is bad input, not a negative result.
    if env is None:
        monkeypatch.delenv("LUK_NODE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("LUK_NODE_BUDGET", env)
    code, out, err = run(capsys, command, str(fixtures_dir / "dag.json"), *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def one_layer(**fields):
    spec = {"weights": [["1"]], "biases": ["0"], "activation": ["none"], **fields}
    return {"input_dim": 1, "layers": [{k: v for k, v in spec.items() if v is not None}]}


@pytest.mark.parametrize(
    "data,message",
    [
        ([], "network must be an object"),
        ({"input_dim": 1, "layers": 5}, "layers must be a list"),
        ({"input_dim": 1, "layers": [5]}, "layer 1 must be an object"),
        ({"layers": one_layer()["layers"]}, 'network has no "input_dim"'),
        ({"input_dim": 1}, 'network has no "layers"'),
        (one_layer(weights=3), "layer 1 weights must be a list"),
        (one_layer(weights=[3]), "layer 1 weight row 1 must be a list"),
        (one_layer(biases="0"), "layer 1 biases must be a list"),
        (one_layer(activation="none"), "layer 1 activation must be a list"),
        (one_layer(activation=None), 'layer 1 has no "activation"'),
        (one_layer(weights=None), 'layer 1 has no "weights"'),
        (one_layer(biases=None), 'layer 1 has no "biases"'),
    ],
)
def test_malformed_network_shape_exits_two(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "bounds", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert message in err
