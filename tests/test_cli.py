import json
import os
import pathlib
import random
import resource
import subprocess
import sys

import pytest

import luknet
from helpers import POOL_ROUNDTRIP, box_forced_network, corpus_network, layer, net
from luknet import bounds, cli
from luknet.cli import main
from luknet.equiv import FiniteGrid
from luknet.graph import graph_from_json
from luknet.network import eval_network, network_from_json, network_to_json


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roundtrip_fixture(fixtures_dir, capsys):
    code, out, _ = run(capsys, "roundtrip", str(fixtures_dir / "intro2.json"))
    assert code == 0
    assert "identical" in out


def test_half_integer_fixture(fixtures_dir, tmp_path, capsys):
    # half_relu.json, relu(3/2 x - 1/2)/2 + 1/4, is the one fixture with
    # non-integer weights: it round-trips in the rational and the real
    # flavour, and its rational graph constructs back to it.
    half = fixtures_dir / "half_relu.json"
    for flavor in ("rational", "real"):
        assert run(capsys, "roundtrip", str(half), "--flavor", flavor) == (0, "roundtrip: identical\n", "")
    gpath, npath = tmp_path / "g.json", tmp_path / "n.json"
    assert run(capsys, "extract", str(half), "--flavor", "rational", "-o", str(gpath))[0] == 0
    assert run(capsys, "construct", str(gpath), "-o", str(npath))[0] == 0
    assert npath.read_text() == half.read_text()


def test_roundtrip_mismatch_and_ignore_permutation(fixtures_dir, tmp_path):
    # The pool's former node-order mismatch (pair_order.json) and corpus seed
    # 7709's former dead-node mismatch (dead_node.json) come back identical,
    # the option that forgave the first is gone, and a network that is not
    # the image of a relu network still prints MISMATCH; run as the module's
    # __main__.
    src = str(pathlib.Path(luknet.__file__).resolve().parent.parent)

    def roundtrip(path, *flags):
        return subprocess.run(
            [sys.executable, "-m", "luknet.cli", "roundtrip", str(path), *flags],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )

    pair_order = fixtures_dir / "pair_order.json"
    assert json.loads(pair_order.read_text()) == json.loads(POOL_ROUNDTRIP.read_text())["about"]["mismatch"][0]
    done = roundtrip(pair_order)
    assert (done.returncode, done.stdout, done.stderr) == (0, "roundtrip: identical\n", "")
    done = roundtrip(pair_order, "--ignore-permutation")
    assert done.returncode == 2
    assert "unrecognized arguments: --ignore-permutation" in done.stderr
    # Hidden node (1,1) has an all-zero outgoing column and the row of node
    # (1,3)'s clip copies, with which it merges.
    dead_node = fixtures_dir / "dead_node.json"
    assert network_from_json(dead_node.read_text()) == corpus_network(random.Random(7709))
    done = roundtrip(dead_node)
    assert (done.returncode, done.stdout, done.stderr) == (0, "roundtrip: identical\n", "")
    # A hidden clip node of L > 1 comes back as a relu pair.
    clip = net(1, layer([[2]], [0], ["clip"]), layer([[1]], [0], ["none"]))
    path = tmp_path / "clip.json"
    path.write_text(network_to_json(clip))
    done = roundtrip(path)
    assert (done.returncode, done.stderr) == (1, "")
    lines = done.stdout.splitlines()
    assert lines[0] == "roundtrip: MISMATCH"
    assert "  layer 1 width: 1 vs 2" in lines


@pytest.mark.parametrize("weight,bias", [("\u0661", "0"), ("1", "0\n"), ("2/2", "-0")])
def test_non_canonical_rational_exits_two(tmp_path, capsys, weight, bias):
    # An Arabic-Indic one, a trailing newline, 2/2 and -0 are not the wire
    # format, though Fraction() reads them all; the identity x would round-trip.
    path = tmp_path / "n.json"
    path.write_text(json.dumps(
        {"input_dim": 1, "layers": [{"weights": [[weight]], "biases": [bias], "activation": ["none"]}]}))
    code, out, err = run(capsys, "roundtrip", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


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


DEAD = {  # relu(x - 5): hidden node (1,1) is never active
    "input_dim": 1,
    "layers": [
        {"weights": [["1"]], "biases": ["-5"], "activation": ["relu"]},
        {"weights": [["1"]], "biases": ["0"], "activation": ["none"]},
    ],
}


def test_extract_degenerate_roundtrip_refuses(tmp_path, capsys):
    # extract takes any network; only roundtrip needs a non-degenerate one.
    path, gpath, npath = tmp_path / "dead.json", tmp_path / "g.json", tmp_path / "n.json"
    path.write_text(json.dumps(DEAD))
    code, _, err = run(capsys, "extract", str(path), "-o", str(gpath))
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "construct", str(gpath), "-o", str(npath))
    assert (code, err) == (0, "")
    dead, rebuilt = network_from_json(path.read_text()), network_from_json(npath.read_text())
    for x in FiniteGrid(12, 1).points():
        assert eval_network(rebuilt, x) == min(max(eval_network(dead, x), 0), 1)
    code, out, err = run(capsys, "roundtrip", str(path))
    assert (code, out) == (1, "")
    assert err == "roundtrip refused: hidden node (1,1) is never active (max -4 <= 0)\n"


def test_roundtrip_bad_flavor_exits_two_before_search(tmp_path, capsys, monkeypatch):
    # Bad input wins over the degeneracy search: the integer flavour on a
    # degenerate half-integer network is an input error.
    def no_search(*args, **kwargs):
        raise AssertionError("searched before the input was checked")

    monkeypatch.setattr(bounds, "exact_extrema", no_search)
    half = dict(DEAD, layers=[dict(DEAD["layers"][0], weights=[["1/2"]]), DEAD["layers"][1]])
    path = tmp_path / "half.json"
    path.write_text(json.dumps(half))
    code, out, err = run(capsys, "roundtrip", str(path), "--flavor", "integer")
    assert (code, out) == (2, "")
    assert err == "error: integer flavor requires integer weights and biases\n"


def relu_net(weight):
    return {
        "input_dim": 1,
        "layers": [
            {"weights": [[weight]], "biases": ["0"], "activation": ["relu"]},
            {"weights": [["1"]], "biases": ["0"], "activation": ["none"]},
        ],
    }


def test_extract_check_range(tmp_path, capsys, monkeypatch):
    # The range check runs before the extraction: a failing check peels nothing.
    extracted = []
    extract_graph = cli.extract_graph

    def counted(*args, **kwargs):
        extracted.append(args)
        return extract_graph(*args, **kwargs)

    monkeypatch.setattr(cli, "extract_graph", counted)
    npath, gpath = tmp_path / "n.json", tmp_path / "g.json"
    npath.write_text(json.dumps(relu_net("2")))
    code, _, err = run(capsys, "extract", str(npath), "--check-range", "-o", str(gpath))
    assert (code, err) == (1, "realized range [0, 2] leaves [0,1]\n")
    assert not gpath.exists()
    assert extracted == []
    npath.write_text(json.dumps(relu_net("1")))
    code, _, err = run(capsys, "extract", str(npath), "--check-range", "-o", str(gpath))
    assert (code, err) == (0, "")
    assert graph_from_json(gpath.read_text()).widths == (1, 1, 1)
    assert len(extracted) == 1


def test_budget_reaches_degeneracy_check(tmp_path, capsys):
    # roundtrip searches every hidden node that no cube vertex settles, and
    # relu(x - 5) is positive at none; extract --check-range searches the
    # output node.  A budget of one branch cannot settle either.
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(DEAD))
    extract = ("extract", str(path), "--check-range", "-o", str(tmp_path / "g.json"))
    for argv in (extract, ("roundtrip", str(path))):
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


@pytest.mark.parametrize("m", [["-1"] * 7, ["-1", "0", "0", "0"]])
def test_certificate_row_of_the_wrong_length_exits_two(tmp_path, capsys, m):
    npath, gpath = tmp_path / "n.json", tmp_path / "g.json"
    npath.write_text(network_to_json(net(1, layer([[-1]], [1], ["none"]))))
    code, _, _ = run(capsys, "extract", str(npath), "-o", str(gpath))
    assert code == 0
    data = json.loads(gpath.read_text())
    data["nodes"][0][0]["certificate"]["m"] = m
    gpath.write_text(json.dumps(data))
    code, out, err = run(capsys, "construct", str(gpath), "-o", str(tmp_path / "back.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "node (1,1)" in err
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


def test_check_equiv_rejects_negative_samples_before_any_work(fixtures_dir, capsys):
    code, out, err = run(
        capsys,
        "check-equiv",
        str(fixtures_dir / "chain6_a.json"),
        str(fixtures_dir / "chain6_b.json"),
        "--samples",
        "-2",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --samples must be a non-negative integer, got -2\n"


def test_check_equiv_decodes_each_file_once(fixtures_dir, tmp_path, capsys, monkeypatch):
    # The schema check's decode is the only one: the network and the graph
    # are built from the decoded values.  The count printed is the one checked.
    net, graph = str(fixtures_dir / "dag.json"), str(tmp_path / "dag.graph.json")
    assert run(capsys, "extract", net, "-o", graph)[0] == 0
    decodes = 0
    loads = json.loads

    def counted(*args, **kwargs):
        nonlocal decodes
        decodes += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert run(capsys, "check-equiv", net, graph, "--grid", "3") == (0, "equal on all 16 points of I_3^2\n", "")
    assert decodes == 2


def test_check_equiv_network_arity_mismatch_exits_two(fixtures_dir, tmp_path, capsys):
    fpath = tmp_path / "f.txt"
    fpath.write_text("x3\n")
    lhs = str(fixtures_dir / "intro2.json")
    code, out, err = run(capsys, "check-equiv", lhs, str(fpath))
    assert (code, out) == (2, "")
    assert err == f"error: {lhs} expects 1 inputs but the comparison uses 3\n"


def test_check_equiv_seeded_sample_counterexample(fixtures_dir, capsys):
    # The grid I_2 misses the kink; the seeded points are pinned by the first
    # one that finds it.
    code, out, _ = run(
        capsys,
        "check-equiv",
        str(fixtures_dir / "halfgrid_identity.json"),
        str(fixtures_dir / "halfgrid_kinked.json"),
        "--grid",
        "2",
        "--samples",
        "20",
    )
    assert code == 1
    assert out == "equal on all 3 points of I_2^1\nsample counterexample at (6209/6312): 6209/6312 != 1\n"


def test_axioms_listing(capsys):
    code, out, _ = run(capsys, "axioms", "--set", "MV")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 16
    code, out, _ = run(capsys, "axioms", "--set", "MV", "--render-symmetry")
    assert code == 0
    assert "Ax1p: (odot x1 x2) = (odot x2 x1)  |  rho(x + y - 1) = rho(y + x - 1)" in out.splitlines()
    code, out, _ = run(capsys, "axioms", "--set", "DMV:2", "--render-symmetry")
    assert code == 0
    no_rho = "AxD2: (oplus (delta 2 x1) (delta 2 x1)) = x1  |  (no rho form: non-MV connective)"
    assert no_rho in out.splitlines()


def test_axioms_sets(capsys):
    for spec, count in (("MVk:1", 18), ("DMV:2", 20)):
        code, out, _ = run(capsys, "axioms", "--set", spec)
        assert code == 0
        assert len(out.strip().splitlines()) == count


def test_reader_closing_the_pipe_early_exits_two():
    # As in `luknet axioms --set MVk:20 | head -c 10`: the reader leaves while
    # 148 kB of catalog, more than a pipe holds, are still to be written.
    src = str(pathlib.Path(luknet.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "luknet.cli", "axioms", "--set", "MVk:20"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b"Ax1: (oplu"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err == "error: standard output closed before all output was written\n"


def test_bounds_output_and_node(fixtures_dir, capsys):
    code, out, _ = run(capsys, "bounds", str(fixtures_dir / "intro2.json"))
    assert code == 0
    assert "[0, 1]" in out
    code, out, _ = run(
        capsys, "bounds", str(fixtures_dir / "dag.json"), "--node", "1,1"
    )
    assert code == 0
    assert "[-1, 2]" in out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "dag.json", "--budget", "\u0663\u0663"],
        ["check-equiv", "dag.json", "dag.json", "--grid", "1_0"],
        ["check-equiv", "dag.json", "dag.json", "--samples", "+2"],
    ],
)
def test_count_options_take_ascii_integers_only(fixtures_dir, capsys, argv):
    # int() would read these as 33, 10 and 2; the options read an optional -
    # and ASCII digits, as --node parts and axiom-set counts do.
    with pytest.raises(SystemExit) as exc:
        main([str(fixtures_dir / a) if a.endswith(".json") else a for a in argv])
    assert exc.value.code == 2


def test_bounds_budget_error_is_one_line(fixtures_dir, capsys):
    path = str(fixtures_dir / "dag.json")
    code, out, err = run(capsys, "bounds", path, "--budget", "1")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err == (
        "budget exceeded: branch-and-bound budget of 1 exceeded at node (1,1) "
        "while minimising and maximising\n"
    )
    # 33 is the least budget under which the search of dag.json completes.
    assert run(capsys, "bounds", path, "--budget", "32") == (
        1, "", "budget exceeded: branch-and-bound budget of 32 exceeded at node (2,1) while maximising\n"
    )
    expect = (0, "output: [0, 1]\n", "")
    assert run(capsys, "bounds", path, "--budget", "33") == run(capsys, "bounds", path) == expect


def test_roundtrip_budget_pin(fixtures_dir, capsys):
    # 36 is the least budget under which the round trip of dag.json
    # completes: the searches of its degeneracy check and of its output
    # range count their branches as the Network-level search does.
    path = str(fixtures_dir / "dag.json")
    assert run(capsys, "roundtrip", path, "--budget", "36") == (0, "roundtrip: identical\n", "")
    assert run(capsys, "roundtrip", path, "--budget", "35") == (
        1, "", "budget exceeded: branch-and-bound budget of 35 exceeded at node (3,1) while minimising\n"
    )


# Each id keeps the name its case had while a row could also set the budget
# through the environment, so the case names stay stable.
@pytest.mark.parametrize(
    "command,argv,message",
    [
        pytest.param(command, argv, message, id=f"{command}-argv{i}-None-{message}")
        for i, command, argv, message in [
            (0, "bounds", ["--budget", "-3"], "--budget must be a positive integer, got -3"),
            (1, "bounds", ["--budget", "0"], "--budget must be a positive integer, got 0"),
            (2, "roundtrip", ["--budget", "0"], "--budget must be a positive integer, got 0"),
            (5, "bounds", ["--node", "2"], "--node must be LAYER,INDEX, got 2"),
            (6, "bounds", ["--node", "1,x"], "--node must be LAYER,INDEX, got 1,x"),
            (7, "bounds", ["--node", "1,2,3"], "--node must be LAYER,INDEX, got 1,2,3"),
            (8, "extract", ["--budget", "0", "-o", os.devnull],
             "--budget must be a positive integer, got 0"),
            (9, "bounds", ["--node", "1,99"], "node index 99 out of range 1..2"),
            (10, "bounds", ["--node", "9,1"], "layer 9 out of range 1..4"),
            # A node index is an optional - and ASCII digits, as every count is.
            (11, "bounds", ["--node", "\u0661,\u0662"], "--node must be LAYER,INDEX, got \u0661,\u0662"),
            (12, "bounds", ["--node", "0_1,2"], "--node must be LAYER,INDEX, got 0_1,2"),
            (13, "bounds", ["--node", "+1,+2"], "--node must be LAYER,INDEX, got +1,+2"),
            (14, "bounds", ["--node", " 1, 2"], "--node must be LAYER,INDEX, got  1, 2"),
        ]
    ],
)
def test_bad_budget_or_node_exits_two(fixtures_dir, capsys, command, argv, message):
    # A budget or node that makes no sense is bad input, not a negative result.
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


def test_bounds_deeper_than_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(network_to_json(box_forced_network(1100)))
    code, out, err = run(capsys, "bounds", str(path))
    assert (code, out, err) == (0, "output: [1100, 2200]\n", "")


def test_out_of_memory_exits_two(tmp_path):
    # The graph of the w = 128 clamp pair clip(128a + 127b + 126c - 192)
    # does not fit in a 64 MiB address space: one line and exit 2, no file.
    row = ["128", "127", "126"]
    path = tmp_path / "w128.json"
    path.write_text(json.dumps({"input_dim": 3, "layers": [
        {"weights": [row, row], "biases": ["-192", "-193"], "activation": ["relu", "relu"]},
        {"weights": [["1", "-1"]], "biases": ["0"], "activation": ["none"]},
    ]}))
    out = tmp_path / "w128.graph.json"
    cap = 64 * 2**20
    src = str(pathlib.Path(luknet.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "luknet.cli", "extract", str(path), "-o", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory (MemoryError)\n")
    assert not out.exists()


STEP = {"axiom": "Ax7", "dir": "LR", "pos": [], "node": [1, 1]}


@pytest.mark.parametrize(
    "line,message",
    [
        ({**STEP, "pos": 5}, "trace line 2 pos must be a list, got int"),
        ({**STEP, "pos": ["a"]}, "trace line 2 pos entry must be an integer, got 'a'"),
        ({**STEP, "node": 5}, "trace line 2 node must be a list, got int"),
        ({**STEP, "node": ["1", "1"]}, "trace line 2 node entry must be an integer, got '1'"),
        ({**STEP, "node": [1]}, "trace line 2 node must be [level, index], got [1]"),
        ({**STEP, "bind": {"x": 5}}, "trace line 2 bind x must be a string, got int"),
        ({**STEP, "bind": {"w": "x1"}}, "trace line 2 bind names 'w', not one of x, y, z"),
        ({**STEP, "bind": 5}, "trace line 2 bind must be an object, got int"),
        ({**STEP, "axiom": 7}, "trace line 2 axiom must be a string, got int"),
        ({**STEP, "dir": "up"}, "trace line 2 dir must be LR or RL, got 'up'"),
        ({"pos": []}, 'trace line 2 has no "axiom"'),
        ([STEP], "trace line 2 must be an object, got list"),
        ({"start": 5}, "trace line 2 start must be a string, got int"),
        ("not json", "trace line 2 is not JSON: Expecting value at column 1"),
        ({**STEP, "bind": {"x": "(oplus"}}, "trace line 2 bind x: unexpected end of input (at byte 6)"),
        ({"start": "(not x1"}, "trace line 2 start: expected ')' (at byte 7)"),
    ],
)
def test_malformed_trace_exits_two(tmp_path, capsys, line, message):
    gpath, trace = tmp_path / "g.json", tmp_path / "t.jsonl"
    gpath.write_text(json.dumps(graph_file(["x1", "not 0"])))
    text = line if type(line) is str else json.dumps(line)
    trace.write_text(json.dumps(STEP) + "\n" + text + "\n")
    out_path = tmp_path / "g2.json"
    code, out, err = run(capsys, "rewrite", str(gpath), "--trace", str(trace), "-o", str(out_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"axiom": "Ax99"}, "step 0: unknown axiom 'Ax99'"),
        ({"pos": [-1]}, "step 0: position [-1] has no child -1 at depth 0, where the subterm has 1"),
        ({"node": [0, 1]}, "step 0: input nodes carry no rewritable formula"),
        ({"node": [5, 5]}, "step 0: no node (5,5)"),
        ({"node": None}, "step 0: graph trace step lacks a node reference"),
    ],
)
def test_bad_rewrite_step_exits_two(tmp_path, capsys, fields, message):
    gpath, trace = tmp_path / "g.json", tmp_path / "t.jsonl"
    gpath.write_text(json.dumps(graph_file(["x1", "not 0"])))
    step = {k: v for k, v in {**STEP, **fields}.items() if v is not None}
    trace.write_text(json.dumps(step) + "\n")
    out_path = tmp_path / "g2.json"
    code, out, err = run(capsys, "rewrite", str(gpath), "--trace", str(trace), "-o", str(out_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


def test_rewrite_bringing_in_a_variable_beyond_the_width_exits_two(fixtures_dir, tmp_path, capsys):
    # Binding x to x7 on a width-1 node is bad input, not a negative result.
    gpath, trace, out_path = tmp_path / "g.json", tmp_path / "t.jsonl", tmp_path / "g2.json"
    assert run(capsys, "extract", str(fixtures_dir / "intro2.json"), "-o", str(gpath))[0] == 0
    steps = [
        {"axiom": "Ax5", "dir": "RL", "pos": [0], "node": [1, 1]},
        {"axiom": "Ax4p", "dir": "RL", "pos": [0, 1], "node": [1, 1], "bind": {"x": "x7"}},
    ]
    trace.write_text("".join(json.dumps(s) + "\n" for s in steps))
    code, out, err = run(capsys, "rewrite", str(gpath), "--trace", str(trace), "-o", str(out_path))
    assert (code, out, err) == (2, "", "error: step 1: rewrite introduces x7 beyond width 1\n")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["axioms", "--set", "Bogus"], "unknown axiom set 'Bogus'"),
        (["axioms", "--set", "MVk:x"], "unknown axiom set 'MVk:x'"),
        (["rewrite", "GRAPH", "--trace", "TRACE", "--axioms", "Bogus", "-o", "OUT"],
         "unknown axiom set 'Bogus'"),
        (["axioms", "--set", "MVk:1_0"], "unknown axiom set 'MVk:1_0'"),
        (["axioms", "--set", "MVk: 3"], "unknown axiom set 'MVk: 3'"),
        (["axioms", "--set", "MVk:0"], "k must be >= 1"),
        (["axioms", "--set", "DMV:0"], "max_n must be >= 1"),
        (["axioms", "--set", "RMV:2"], "scalar 2 outside [0,1]"),
    ],
)
def test_bad_axiom_set_exits_two(tmp_path, capsys, argv, message):
    # rewrite and axioms load the rewrite engine on demand; its errors still
    # end in one error line and exit 2.
    paths = {"GRAPH": tmp_path / "g.json", "TRACE": tmp_path / "t.jsonl", "OUT": tmp_path / "o.json"}
    paths["GRAPH"].write_text(json.dumps(graph_file(["x1", "not 0"])))
    paths["TRACE"].write_text(json.dumps(STEP) + "\n")
    code, out, err = run(capsys, *(str(paths.get(a, a)) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not paths["OUT"].exists()


@pytest.mark.parametrize("out", ["DIR", "MISSING/o.json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "NET", "-o", "OUT"],
        ["construct", "GRAPH", "-o", "OUT"],
        ["rewrite", "GRAPH", "--trace", "TRACE", "-o", "OUT"],
    ],
)
def test_unwritable_output_exits_two(fixtures_dir, tmp_path, capsys, argv, out):
    # An -o path that is a directory or lies in a missing one is bad input:
    # one error line and exit 2, where an uncaught OSError would exit 1.
    paths = {
        "NET": fixtures_dir / "intro2.json",
        "GRAPH": tmp_path / "g.json",
        "TRACE": tmp_path / "t.jsonl",
        "OUT": tmp_path / out,
    }
    (tmp_path / "DIR").mkdir()
    assert run(capsys, "extract", str(paths["NET"]), "-o", str(paths["GRAPH"]))[0] == 0
    paths["TRACE"].write_text('{"axiom": "Ax7", "dir": "LR", "pos": [], "node": [3, 1]}\n')
    code, stdout, err = run(capsys, *(str(paths.get(a, a)) for a in argv))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {paths['OUT']}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("opener", ["[", '{"a": '])
@pytest.mark.parametrize(
    "argv,what",
    [
        (["bounds", "DEEP"], "network file"),
        (["construct", "DEEP", "-o", "OUT"], "graph file"),
        (["check-equiv", "DEEP", "DEEP"], "DEEP"),
        (["rewrite", "GRAPH", "--trace", "DEEP", "-o", "OUT"], "trace line 1"),
    ],
)
def test_deeply_nested_json_exits_two(tmp_path, capsys, opener, argv, what):
    paths = {name: str(tmp_path / name) for name in ("DEEP", "GRAPH", "OUT")}
    (tmp_path / "DEEP").write_text(opener * 100_000)
    (tmp_path / "GRAPH").write_text(json.dumps(graph_file(["x1", "not 0"])))
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out, err) == (2, "", f"error: {paths.get(what, what)} is nested too deeply to decode\n")
