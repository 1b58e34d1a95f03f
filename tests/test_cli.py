import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import prodstruct.cli as cli
import prodstruct.decomposition
import prodstruct.exact
from prodstruct.cli import main
from prodstruct.constructions import complete, cycle, path, stacked_triangulation
from prodstruct.decomposition import (Layering, PathDecomposition, TreeDecomposition,
                                      bfs_layering, check_layering, validate)
from prodstruct.graphs import Digraph, Graph, apex
from prodstruct.products import (DirectedProductEmbedding, ProductEmbedding, strong,
                                 validate_directed_embedding, validate_embedding)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_gen_and_exact(tmp_path, capsys):
    k4 = tmp_path / "k4.json"
    code, rep = run(capsys, "gen", "complete", "--params", "4", "-o", str(k4))
    assert code == 0 and rep["outputs"]["n"] == 4
    code, rep = run(capsys, "exact", "ttw", str(k4))
    assert code == 0 and rep["outputs"]["value"] == 3
    code, rep = run(capsys, "exact", "twtw", str(k4), "--c", "1")
    assert code == 0 and rep["outputs"]["value"] == 1


def test_exact_twtw_reports_its_quotients_as_data(tmp_path, capsys, monkeypatch):
    # the quotients go into the report as to_data(), with no to_json round trip
    c6 = tmp_path / "c6.json"
    c6.write_text(cycle(6).to_json())
    calls = []
    real = Graph.to_json
    monkeypatch.setattr(Graph, "to_json", lambda g: calls.append(g) or real(g))
    code, rep = run(capsys, "exact", "twtw", str(c6), "--c", "1")
    assert code == 0 and calls == []
    _, (_, _, q1, q2) = prodstruct.exact.twtw_exact(cycle(6), 1)
    w = rep["outputs"]["witness"]
    assert [w["quotient1"], w["quotient2"]] == [json.loads(real(q1)), json.loads(real(q2))]


def test_gen_hex_witness_round_trip(tmp_path, capsys):
    out = tmp_path / "hex.json"
    code, rep = run(capsys, "gen", "hex", "--params", "3", "-o", str(out))
    assert code == 0
    code, rep = run(capsys, "check", "pd", str(out), str(out) + ".witness.json")
    assert code == 0 and rep["outputs"]["ok"]


def test_product_and_check_ortho(tmp_path, capsys):
    p = tmp_path / "p3.json"
    run(capsys, "gen", "path", "--params", "3", "-o", str(p))
    s = tmp_path / "s.json"
    code, rep = run(capsys, "product", "strong", str(p), str(p), "-o", str(s))
    assert code == 0
    g = Graph.from_json(s.read_text())
    assert g.n == 9 and g.m == 20


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["exact", "tw", str(bad)])
    capsys.readouterr()
    assert code == 2
    code = main(["exact", "tw", str(tmp_path / "missing.json")])
    capsys.readouterr()
    assert code == 2


COMMANDS = "'gen', 'product', 'embed', 'decomp', 'check', 'exact', 'probe'"
EXACT_KINDS = ("'tw', 'pw', 'bw', 'td', 'ttw', 'tpw', 'tbw', 'ttd', 'tree-maxdeg', "
               "'tree-longest-path', 'twintw', 'twtw'")
TOP_USAGE = "usage: prodstruct [-h] {gen,product,embed,decomp,check,exact,probe} ..."


# argv -> the line it prints: the error on stdout, or for help the first line
# of the usage
USAGE_LINES = {
    ("exact", "nope", "x.json"):
        f"prodstruct exact: error: argument kind: invalid choice: 'nope' (choose from {EXACT_KINDS})",
    ("decomp", "bipartite-star", "g.json", "--side", "-1,1"):
        "prodstruct decomp: error: argument --side: expected one argument",
    ("exact", "tw", "g.json", "--c", "one"):
        "prodstruct exact: error: argument --c: invalid int value: 'one'",
    (): "prodstruct: error: the following arguments are required: cmd",
    ("--help",): TOP_USAGE,
    ("exact", "--help"): "usage: prodstruct exact [-h] [--c C] [--max-n MAX_N]",
    ("exact", "tw", "g.json", "--bogus"): "prodstruct: error: unrecognized arguments: --bogus",
    ("bogus",): f"prodstruct: error: argument cmd: invalid choice: 'bogus' (choose from {COMMANDS})",
    ("exa", "tw", "g.json"):
        f"prodstruct: error: argument cmd: invalid choice: 'exa' (choose from {COMMANDS})",
    ("exact",): "prodstruct exact: error: the following arguments are required: kind, inputs",
    ("-h",): TOP_USAGE,
    ("exact", "-h"): "usage: prodstruct exact [-h] [--c C] [--max-n MAX_N]",
}


@pytest.mark.parametrize("argv,code", [
    (["exact", "nope", "x.json"], 2),
    (["decomp", "bipartite-star", "g.json", "--side", "-1,1"], 2),
    (["exact", "tw", "g.json", "--c", "one"], 2),
    ([], 2),
    (["--help"], 0),
    (["exact", "--help"], 0),
    (["exact", "tw", "g.json", "--bogus"], 2),
    (["bogus"], 2),
    (["exa", "tw", "g.json"], 2),
    (["exact"], 2),
    (["-h"], 0),
    (["exact", "-h"], 0),
])
def test_usage_errors_and_help_return_their_exit_code(argv, code, monkeypatch, capsys):
    # argparse's exit status comes back from main; no SystemExit escapes
    monkeypatch.setenv("COLUMNS", "80")     # the width argparse wraps help to
    line = USAGE_LINES[tuple(argv)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.splitlines()[0] == line
    else:   # argparse's message on stderr, and the same line as the error on stdout
        assert "usage:" in err
        assert json.loads(out) == {"error": err.splitlines()[-1]} == {"error": line}


def test_check_td_out_of_range_adhesion_fails(tmp_path, capsys):
    """An adhesion set {5, 6} outside the graph is a failed check, not a crash."""
    g = tmp_path / "g.json"
    g.write_text(path(3).to_json())
    td = tmp_path / "td.json"
    td.write_text(TreeDecomposition(3, [{0, 1, 5, 6}, {2, 5, 6}], [(0, 1)]).to_json())
    code, rep = run(capsys, "check", "td", str(g), str(td))
    out = rep["outputs"]
    assert code == 1 and not out["ok"] and not out["taut"]
    assert "bag 0 mentions out-of-range vertex 5" in out["errors"]


def test_check_failure_exit_code(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(Graph(3, [(0, 1), (1, 2), (0, 2)]).to_json())
    td = tmp_path / "td.json"
    td.write_text(json.dumps({"host_n": 3, "nodes": 2,
                              "tree_edges": [[0, 1]],
                              "bags": [[0, 1], [1, 2]]}))
    code, rep = run(capsys, "check", "td", str(g), str(td))
    assert code == 1 and not rep["outputs"]["ok"]


@pytest.mark.parametrize("kind", ["td", "pd", "ortho"])
def test_non_integer_host_n_is_bad_input(kind, tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(Graph(3, [(0, 1), (1, 2)]).to_json())
    td = TreeDecomposition(3, [{0, 1}, {1, 2}], [(0, 1)])
    d = json.loads((PathDecomposition(3, td.bags) if kind == "pd" else td).to_json())
    d["host_n"] = "3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    good = tmp_path / "td.json"
    good.write_text(td.to_json())
    inputs = [g, good, bad] if kind == "ortho" else [g, bad]
    code, rep = run(capsys, "check", kind, *map(str, inputs))
    assert code == 2
    assert rep["error"].startswith("InputError: ") and "host_n must be an integer" in rep["error"]


# a triangle with a float outer face, and K4 with a boolean rotation entry:
# both passed the rotation and face checks, since 1.0 == 1 and True == 1
FLOAT_OUTER = '{"n": 3, "rotation": [[1, 2], [2, 0], [0, 1]], "outer": [0.0, 1.0, 2.0]}'
BOOLEAN_ROTATION = ('{"n": 4, "rotation": [[3, true, 2], [3, 2, 0], [3, 0, 1], [1, 0, 2]],'
                    ' "outer": [0, 1, 2]}')
TRIANGULATION_IDS = "n, rotation and outer entries must be integers"
# layers of 0.0 or true passed the cover check and were written out as bags
LAYER_IDS = "layer members must be integers"
# embeddings of path(3) in path(3) boxtimes K_1 (boxtimes K_c) with a float
# map coordinate or a float c
P3_FACTORS = '"factors": [{"n": 3, "edges": [[0, 1], [1, 2]]}, {"n": 1, "edges": []}]'
FLOAT_MAP = '{%s, "c": null, "map": [[0, 0], [1.0, 0], [2, 0]]}' % P3_FACTORS
FLOAT_C = '{%s, "c": 1.5, "map": [[0, 0, 0], [1, 0, 0], [2, 0, 0]]}' % P3_FACTORS
# path(3) in a directed path boxslash a single vertex: D1 boxslash D2 has no K_c
# factor, and a bag embedding with c 7 or no c at all was glued all the same
P3_ARCS = '"factors": [{"n": 3, "arcs": [[0, 1], [1, 2]]}, {"n": 1, "arcs": []}]'
DIRECTED_C = '{%s, "c": 7, "map": [[0, 0], [1, 0], [2, 0]]}' % P3_ARCS
DIRECTED_NO_C = '{%s, "map": [[0, 0], [1, 0], [2, 0]]}' % P3_ARCS
# decompositions of path(3) whose tree edge or node count is true or a float:
# true and 2.0 passed the tree and node-count checks and were written out
TD_IDS = "nodes and tree-edge endpoints must be integers"
BOOLEAN_EDGE = '{"host_n": 3, "nodes": 2, "tree_edges": [[0, true]], "bags": [[0, 1], [1, 2]]}'
FLOAT_EDGE = '{"host_n": 3, "nodes": 2, "tree_edges": [[0, 1.0]], "bags": [[0, 1], [1, 2]]}'
BOOLEAN_NODES = '{"host_n": 3, "nodes": true, "tree_edges": [], "bags": [[0, 1, 2]]}'
FLOAT_NODES = '{"host_n": 3, "nodes": 2.0, "tree_edges": [[0, 1]], "bags": [[0, 1], [1, 2]]}'
# two disjoint triangles: every face a triangle, but 6 - 6 + 4 faces != 2
TWO_TRIANGLES = ('{"n": 6, "rotation": [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]],'
                 ' "outer": [0, 1, 2]}')


@pytest.mark.parametrize("cmd, text, message", [
    (["exact", "tw"], '{"n": true, "edges": []}', "n must be an integer"),
    (["exact", "tw"], '{"n": 2, "edges": [[false, true]]}', "non-integer endpoint"),
    (["product", "dstrong"], '{"n": 2, "arcs": [[0, 1.0]]}', "arc endpoints must be integers"),
    (["check", "triangulation"], FLOAT_OUTER, TRIANGULATION_IDS),
    (["decomp", "planar-lexbfs"], FLOAT_OUTER, TRIANGULATION_IDS),
    (["check", "triangulation"], BOOLEAN_ROTATION, TRIANGULATION_IDS),
    (["decomp", "planar-lexbfs"], BOOLEAN_ROTATION, TRIANGULATION_IDS),
    (["decomp", "layering-path"], '{"layers": [[0], [1.0, 2]]}', LAYER_IDS),
    (["decomp", "layering-path"], '{"layers": [[0], [true], [2]]}', LAYER_IDS),
    (["embed", "partition-check"], '{"parts": [[0, true], [2]]}', "True is not an integer"),
    (["embed", "partition-check"], '{"parts": [[0, 1.0], [2]]}', "1.0 is not an integer"),
    (["check", "embedding"], FLOAT_MAP, "integer map coordinates"),
    (["check", "embedding"], FLOAT_C, "c must be an integer or null"),
    (["check", "triangulation"], TWO_TRIANGLES, "Euler formula violated"),
    (["check", "dembedding"], DIRECTED_C, "null with digraph factors"),
    (["check", "dembedding"], DIRECTED_NO_C, "malformed embedding: 'c'"),
    (["check", "td"], BOOLEAN_EDGE, TD_IDS),
    (["check", "td"], FLOAT_EDGE, TD_IDS),
    (["check", "td"], BOOLEAN_NODES, TD_IDS),
    (["check", "td"], FLOAT_NODES, TD_IDS),
    (["check", "pd"], '{"host_n": 3, "bags": [[0, 1], [1.0, 2]]}', "bag members must be integers"),
    (["product", "dstrong"], '{"n": true, "arcs": []}', "n must be an integer"),
    (["decomp", "layering-path"], '{"layers": [[0, 1], [1, 2]]}', "layers overlap"),
    (["decomp", "layering-path"], '{"layers": [[0], [2]]}', "layers do not cover the host"),
    (["embed", "partition-check"], '{"parts": [[0, 5], [1, 2]]}', "vertex 5 out of range"),
], ids=["boolean n", "boolean endpoints", "float arc endpoint",
        "float outer check", "float outer lexbfs",
        "boolean rotation check", "boolean rotation lexbfs",
        "float layer", "boolean layer", "boolean part", "float part",
        "float map coordinate", "float c", "two triangles",
        "directed c", "directed no c", "boolean tree edge", "float tree edge",
        "boolean nodes", "float nodes", "float bag member", "boolean digraph n",
        "overlapping layers", "uncovered layers", "part vertex out of range"])
def test_non_integer_graph_ids_are_bad_input(cmd, text, message, tmp_path, capsys):
    # and other inputs of a legal JSON shape that their reader refuses
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    files = [str(bad)] * (2 if cmd[0] == "product" else 1)
    if cmd[1] in ("partition-check", "embedding", "dembedding", "td", "pd"):
        # a path on 3 vertices, then the payloads
        g = tmp_path / "g.json"
        g.write_text(Graph(3, [(0, 1), (1, 2)]).to_json())
        files = [str(g)] + [str(bad)] * (2 if cmd[1] == "partition-check" else 1)
    code, rep = run(capsys, *cmd, *files)
    assert code == 2
    assert rep["error"].startswith("InputError: ") and message in rep["error"]


def test_unwritable_out_path_is_bad_input(tmp_path, capsys):
    out = tmp_path / "missing" / "p3.json"
    code, rep = run(capsys, "gen", "path", "--params", "3", "-o", str(out))
    assert code == 2 and rep["error"].startswith(f"InputError: cannot write {out}: ")


def test_runs_without_numpy():
    """numpy is a test and benchmark dependency only: every prodstruct module
    imports, and the CLI runs, with numpy blocked."""
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['numpy'] = None\n"
        "import prodstruct\n"
        "for m in pkgutil.walk_packages(prodstruct.__path__, 'prodstruct.'):\n"
        "    importlib.import_module(m.name)\n"
        "from prodstruct.cli import main\n"
        "sys.exit(main(['gen', 'cycle', '--params', '5']))\n")
    src = os.path.dirname(os.path.dirname(prodstruct.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["outputs"]["n"] == 5


def test_probe_mixing(capsys):
    code, rep = run(capsys, "probe", "mixing", "--n", "20", "--d", "16",
                    "--samples", "50", "--seed", "4")
    assert code == 0 and rep["outputs"]["failures"] == 0


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_probe_mixing_needs_a_sample(samples, capsys):
    code, rep = run(capsys, "probe", "mixing", "--n", "40", "--d", "16",
                    "--samples", samples, "--seed", "7")
    assert code == 2 and rep["error"].startswith("GraphError: samples must be at least 1")


@pytest.mark.parametrize("n", ["1", "6"])
def test_probe_mixing_needs_a_degree(n, capsys):
    code, rep = run(capsys, "probe", "mixing", "--n", n, "--d", "0",
                    "--samples", "5", "--seed", "7")
    assert code == 2 and rep["error"].startswith("GraphError: d must be at least 1")


def test_gen_requires_seed_for_random(capsys):
    code = main(["gen", "random-regular", "--params", "8,3"])
    capsys.readouterr()
    assert code == 2


def test_report_reproducible(tmp_path, capsys):
    args = ["gen", "stacked", "--params", "12", "--seed", "9"]
    code1, rep1 = run(capsys, *args)
    code2, rep2 = run(capsys, *args)
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert code1 == code2 == 0 and rep1 == rep2


def test_decomp_planar(tmp_path, capsys):
    st = tmp_path / "st.json"
    run(capsys, "gen", "stacked", "--params", "15", "--seed", "2", "-o", str(st))
    td = tmp_path / "td.json"
    code, rep = run(capsys, "decomp", "planar-lexbfs", str(st), "-o", str(td))
    assert code == 0 and rep["outputs"]["max_span"] <= 3
    g = tmp_path / "g.json"
    run(capsys, "gen", "v8", "-o", str(g))
    code, rep = run(capsys, "check", "td", str(g), str(td))
    assert code == 1  # host mismatch: valid inputs, failing check


# -- report, options and exit codes ------------------------------------------

def test_report_records_the_argv_given_to_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["x", "--whatever"])
    code, rep = run(capsys, "gen", "path", "--params", "3")
    assert code == 0 and rep["command"] == ["gen", "path", "--params", "3"]


@pytest.mark.parametrize("argv", [
    ["gen", "path", "--params", "x"],
    ["gen", "hex", "--params", "3", "--diagonals", "1,x"],
    ["embed", "apex-partition", "GRAPH", "--v1", "0,x"],
    ["embed", "apex-fan", "GRAPH", "--ordering", "0,1.5"],
    ["decomp", "bipartite-star", "GRAPH", "--side", "x"],
])
def test_non_integer_csv_option_is_bad_input(argv, tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(Graph(3, [(0, 1), (1, 2)]).to_json())
    code, rep = run(capsys, *[str(g) if a == "GRAPH" else a for a in argv])
    assert code == 2 and rep["error"].startswith("InputError: ")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One parseable file of each input kind; a payload is the empty object."""
    d = tmp_path_factory.mktemp("kinds")
    texts = {
        "graph": Graph(3, [(0, 1), (1, 2)]).to_json(),
        "digraph": Digraph(3, [(0, 1)]).to_json(),
        "td": TreeDecomposition(3, [{0, 1}, {1, 2}], [(0, 1)]).to_json(),
        "pd": PathDecomposition(3, [{0, 1}, {1, 2}]).to_json(),
        "triangulation": stacked_triangulation(5, 0).to_json(),
        "layering": Layering(3, [[0], [1], [2]]).to_json(),
        "json": "{}",
        "malformed": "{not json",
        "wrong shape": "[]",
    }
    for kind, text in texts.items():
        (d / kind).write_text(text)
    return {kind: str(d / kind) for kind in texts}


def registry_cases():
    for op, (kind, _) in cli.PRODUCTS.items():
        yield "product", op, (kind, kind)
    for cmd, registry in (("embed", cli.EMBED), ("decomp", cli.DECOMP), ("check", cli.CHECK)):
        for kind, (kinds, _) in registry.items():
            yield cmd, kind, kinds
    for param in cli.EXACT:
        yield "exact", param, ("graph",)


# each case's test id ends in its index ("kinds25"): check dembedding, the
# latest kind, goes last so that the ids of the others stay put
MALFORMED = sorted(registry_cases(), key=lambda case: case[:2] == ("check", "dembedding"))


@pytest.mark.parametrize("cmd,kind,kinds", MALFORMED)
def test_malformed_input_is_bad_input(cmd, kind, kinds, valid_files, capsys):
    files = [valid_files[k] for k in kinds]
    attempts = [files[:-1], files + files[:1]]
    for i in range(len(files)):
        attempts += [files[:i] + [valid_files[bad]] + files[i + 1:]
                     for bad in ("malformed", "wrong shape")]
    if "json" in kinds:
        attempts.append(files)          # every payload is {}, of no valid shape
    for inputs in attempts:
        code, rep = run(capsys, cmd, kind, *inputs)
        assert code == 2 and rep["error"].startswith("InputError: "), (inputs, rep)


@pytest.mark.parametrize("family", [f for f, (names, _) in cli.FAMILIES.items()
                                    if names is not None])
def test_wrong_params_count_is_bad_input(family, capsys):
    names = cli.FAMILIES[family][0]
    params = ",".join(["1"] * (len(names) + 1))
    code, rep = run(capsys, "gen", family, "--params", params, "--seed", "1")
    assert code == 2 and rep["error"].startswith("InputError: ")


# -- every kind runs to success on tiny inputs -------------------------------

@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny inputs, name -> (object, path of its JSON file).  An object with
    no to_json is a payload, written with json.dumps."""
    d = tmp_path_factory.mktemp("tiny")
    p2 = path(2)
    k3_td, k3_pd = TreeDecomposition(3, [range(3)], []), PathDecomposition(3, [range(3)])
    tournament = {"n": 3, "arcs": [[0, 1], [0, 2], [1, 2]]}
    k3_dembedding = {"factors": [tournament, {"n": 1, "arcs": []}], "c": None,
                     "map": [[0, 0], [1, 0], [2, 0]]}
    p2_js = json.loads(p2.to_json())
    objects = {
        "p2": p2, "p3": path(3), "c4": cycle(4), "dp2": Digraph(2, [(0, 1)]),
        "two_tri": Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        "two_tri_td": TreeDecomposition(4, [{0, 1, 2}, {1, 2, 3}], [(0, 1)]),
        "triangulation": stacked_triangulation(5, 0),
        "c4_layering": bfs_layering(cycle(4), 0),
        "c4_td": TreeDecomposition(4, [{0, 1, 3}, {1, 2, 3}], [(0, 1)]),
        "p3_td": TreeDecomposition(3, [{0, 1}, {1, 2}], [(0, 1)]),
        "p3_pd": PathDecomposition(3, [{0, 1}, {1, 2}]),
        "k2_td": TreeDecomposition(2, [{0, 1}], []),
        "k4": strong(p2, p2),
        "k4_embedding": ProductEmbedding(strong(p2, p2), (p2, p2), None,
                                         ((0, 0), (0, 1), (1, 0), (1, 1))),
        "torsos": [json.loads(k3_td.to_json())] * 2,
        "pairs": [[json.loads(k3_td.to_json()), json.loads(k3_pd.to_json())]] * 2,
        "bag_embeddings": [k3_dembedding] * 2,
        "bag_embeddings_c7": [dict(k3_dembedding, c=7)] * 2,
        "bag_embeddings_no_c": [{k: v for k, v in k3_dembedding.items() if k != "c"}] * 2,
        "k3": complete(3), "k3_dembedding": k3_dembedding,
        "e3": Graph(3), "k5": complete(5),
        "empty": Graph(0), "empty_layering": Layering(0, []),
        "empty_td": TreeDecomposition(0, [()], []),
        "rows": {"parts": [[0, 1], [2, 3]]},
        "cols": {"parts": [[0, 3], [1, 2]]},
        # embeddings of p2 in p2 boxtimes p2, p2 boxtimes p2 boxtimes K_1 and
        # p2 boxtimes (2 isolated vertices), each with one fault
        "short_map": {"factors": [p2_js, p2_js], "c": None, "map": [[0, 0]]},
        "kc_out_of_range": {"factors": [p2_js, p2_js], "c": 1, "map": [[0, 0, 0], [0, 1, 5]]},
        "far_second": {"factors": [p2_js, {"n": 2, "edges": []}], "c": None,
                       "map": [[0, 0], [0, 1]]},
    }
    made = {}
    for name, obj in objects.items():
        (d / name).write_text(obj.to_json() if hasattr(obj, "to_json") else json.dumps(obj))
        made[name] = (obj, str(d / name))
    return made


def _read(path):
    return pathlib.Path(path).read_text()


def _embedding_file(path, guest, directed=False):
    """The written embedding of guest, parsed without the CLI's parser."""
    d = json.loads(_read(path))
    kind = Digraph if directed else Graph
    factors = tuple(kind.from_json(json.dumps(f)) for f in d["factors"])
    images = tuple(map(tuple, d["map"]))
    if directed:
        return validate_directed_embedding(DirectedProductEmbedding(guest, factors, images))
    return validate_embedding(ProductEmbedding(guest, factors, d["c"], images))


def _valid(graph, *files):
    """Re-check: each written (kind, -o suffix) file decomposes t[graph]."""
    return lambda t, out, outputs: all(
        validate(t[graph][0], kind.from_json(_read(out + suffix))).ok
        for kind, suffix in files)


def _embeds(guest, suffix="", directed=False):
    """Re-check: the written embedding of guest(t) is valid."""
    return lambda t, out, outputs: _embedding_file(out + suffix, guest(t), directed) == []


def _n(n):
    return lambda t, out, outputs: outputs["n"] == n


TD, PD = TreeDecomposition, PathDecomposition

# "cmd kind [label]" -> (arguments, tiny input names among them; exit code;
#                        recheck(tiny, -o path, outputs) of what was written)
RUNS = {
    "product cartesian": (["p2", "p3"], 0, _n(6)),
    "product direct": (["p2", "p3"], 0, _n(6)),
    "product strong": (["p2", "p3"], 0, _n(6)),
    "product dstrong": (["dp2", "dp2"], 0, _n(4)),
    "embed join-product": (["p2", "p2"], 0, _embeds(lambda t: complete(5))),
    "embed move-apex": (["p2", "p2"], 0, _embeds(lambda t: complete(5))),
    "embed apex-partition": (["c4", "--v1", "0,2"], 0, _embeds(lambda t: t["c4"][0])),
    "embed partition-check": (["c4", "rows", "cols"], 0, _embeds(lambda t: t["c4"][0])),
    "embed partition-check violated": (
        ["c4", "rows", "rows"], 1, lambda t, out, outputs: outputs["violating_pair"] == [0, 0]),
    "embed degree-partition": (["c4", "--threshold", "2"], 0, lambda t, out, outputs:
                               sorted(sum(outputs["parts"], [])) == [0, 1, 2, 3]),
    "embed apex-fan": (["p3", "--ordering", "0,1,2", "--path-len", "2", "--a", "1"], 0,
                       _embeds(lambda t: apex(strong(path(3), path(2))), directed=True)),
    "embed glue-directed": (["two_tri", "two_tri_td", "bag_embeddings", "--h", "2"], 0,
                            _embeds(lambda t: t["two_tri"][0], directed=True)),
    "decomp planar-lexbfs": (["triangulation"], 0, lambda t, out, outputs: validate(
        t["triangulation"][0].graph, TD.from_json(_read(out))).ok),
    "decomp bfs-layering": (["c4"], 0, lambda t, out, outputs: check_layering(
        t["c4"][0], Layering.from_json(_read(out)))),
    "decomp layering-path": (["c4_layering"], 0, _valid("c4", (PD, ""))),
    "decomp layering-path empty": (["empty_layering"], 0, lambda t, out, outputs:
                                   json.loads(_read(out))["bags"] == [[]]),
    "decomp witness-bandwidth": (["c4", "c4_layering", "c4_td"], 0, _valid("c4", (TD, ""))),
    "decomp witness-partition": (["c4", "c4_layering", "c4_td"], 0,
                                 lambda t, out, outputs: outputs["k"] == 2),
    "decomp witness-bandwidth empty": (["empty", "empty_layering", "empty_td"], 0,
                                       lambda t, out, outputs: outputs["k"] == 0),
    "decomp witness-partition empty": (["empty", "empty_layering", "empty_td"], 0,
                                       lambda t, out, outputs: outputs["parts"] == []),
    "decomp bipartite-ortho": (["c4", "--side", "0,2"], 0, _valid("c4", (PD, ".0"), (PD, ".1"))),
    "decomp bipartite-star": (["c4", "--side", "0,2"], 0, _valid("c4", (PD, ""))),
    "decomp glue-tree-f": (["two_tri", "two_tri_td", "torsos"], 0, _valid("two_tri", (TD, ""))),
    "decomp glue-ortho": (["two_tri", "two_tri_td", "pairs"], 0, _valid(
        "two_tri", (TD, ".0"), (PD, ".1"))),
    "decomp project-product": (["k4", "k4_embedding", "k2_td", "k2_td"], 0,
                               _valid("k4", (TD, ".0"), (TD, ".1"))),
    "check td": (["p3", "p3_td"], 0, None),
    "check pd": (["p3", "p3_pd"], 0, None),
    "check ortho": (["p3", "p3_td", "p3_td"], 0, lambda t, out, outputs: outputs["value"] == 2),
    "check embedding": (["k4", "k4_embedding"], 0, None),
    "check dembedding": (["k3", "k3_dembedding"], 0, None),
    "check embedding short map": (["p2", "short_map"], 1, lambda t, out, outputs:
                                  outputs["errors"] == ["map covers 1 vertices, guest has 2"]),
    "check embedding K_c out of range": (
        ["p2", "kc_out_of_range"], 1, lambda t, out, outputs: outputs["errors"] == [
            "vertex 1: K_c coordinate out of range"]),
    "check embedding far second coordinates": (
        ["p2", "far_second"], 1, lambda t, out, outputs: outputs["errors"] == [
            "edge (0,1): second coordinates 0,1 not equal-or-adjacent"]),
    "check triangulation": (["triangulation"], 0, None),
    **{f"exact {param}": (["p3"], 0, lambda t, out, outputs: outputs["value"] >= 0)
       for param in cli.EXACT},
    "gen hex": (["--params", "3"], 0, lambda t, out, outputs: validate(
        Graph.from_json(_read(out)), PD.from_json(_read(out + ".witness.json"))).ok),
    "gen separating": (["--params", "1"], 0, lambda t, out, outputs: validate(
        Graph.from_json(_read(out)), TD.from_json(_read(out + ".witness.json"))).ok),
    "gen tightness": (["--params", "1,1,1"], 0, _embeds(lambda t: complete(3), ".witness.json")),
}


def test_every_registry_kind_has_a_success_run():
    assert {f"{cmd} {kind}" for cmd, kind, _ in registry_cases()} <= set(RUNS)


def _argv(case, tiny):
    """The argv of a RUNS case, without -o."""
    return case.split()[:2] + [tiny[a][1] if a in tiny else a for a in RUNS[case][0]]


@pytest.mark.parametrize("case", list(RUNS))
def test_success_run(case, tiny, tmp_path, capsys):
    """Each kind runs to its exit code on tiny inputs; what it wrote re-checks
    from the definitions."""
    cmd = case.split()[0]
    _, want, recheck = RUNS[case]
    out = str(tmp_path / "out.json")
    argv = _argv(case, tiny)
    if cmd not in ("check", "exact"):
        argv += ["-o", out]
    code, rep = run(capsys, *argv)
    assert code == want, rep
    if cmd == "check":
        assert rep["outputs"]["ok"] is (want == 0)
    if recheck is not None:
        assert recheck(tiny, out, rep["outputs"])


# embed kind -> (the check kind that re-reads what it writes on its RUNS
#                inputs, and the guest of that embedding)
WRITTEN = {
    "join-product": ("embedding", lambda t: complete(5)),
    "move-apex": ("embedding", lambda t: complete(5)),
    "apex-partition": ("embedding", lambda t: t["c4"][0]),
    "partition-check": ("embedding", lambda t: t["c4"][0]),
    "apex-fan": ("dembedding", lambda t: apex(strong(path(3), path(2)))),
    "glue-directed": ("dembedding", lambda t: t["two_tri"][0]),
}


@pytest.mark.parametrize("kind", list(WRITTEN))
def test_written_embedding_rechecks(kind, tiny, tmp_path, capsys):
    """What an embed kind writes passes its check kind; with one image moved
    onto another it fails; the other check kind refuses to read it."""
    check, guest = WRITTEN[kind]
    out, g, moved = (str(tmp_path / name) for name in ("e.json", "g.json", "moved.json"))
    args = [tiny[a][1] if a in tiny else a for a in RUNS[f"embed {kind}"][0]]
    assert run(capsys, "embed", kind, *args, "-o", out)[0] == 0
    pathlib.Path(g).write_text(guest(tiny).to_json())
    code, rep = run(capsys, "check", check, g, out)
    assert code == 0 and rep["outputs"] == {"ok": True, "errors": []}
    d = json.loads(_read(out))
    d["map"][0] = d["map"][1]
    pathlib.Path(moved).write_text(json.dumps(d))
    code, rep = run(capsys, "check", check, g, moved)
    assert code == 1 and "map not injective" in rep["outputs"]["errors"]
    other = "dembedding" if check == "embedding" else "embedding"
    code, rep = run(capsys, "check", other, g, out)
    assert code == 2 and rep["error"].startswith("InputError: malformed embedding: ")


@pytest.mark.parametrize("argv,error", [
    (["decomp", "bipartite-ortho", "e3", "--side", "99"],
     "DecompositionError: side vertex 99 out of range for n=3"),
    (["decomp", "bipartite-star", "p2", "--side", "0,5"],
     "DecompositionError: side vertex 5 out of range for n=2"),
    (["embed", "degree-partition", "k5", "--threshold", "1"],
     "GraphError: vertex 0 keeps more than 1 neighbours in its part"),
    (["embed", "glue-directed", "two_tri", "two_tri_td", "bag_embeddings", "--h", "1"],
     "DecompositionError: adhesion 2 exceeds declared 1"),
    (["embed", "glue-directed", "two_tri", "two_tri_td", "bag_embeddings_c7"],
     "InputError: malformed bag embeddings entry 0: "
     "c must be an integer or null, and null with digraph factors"),
    (["embed", "glue-directed", "two_tri", "two_tri_td", "bag_embeddings_no_c"],
     "InputError: malformed bag embeddings entry 0: 'c'"),
    (["gen", "hex", "--params", "2", "--diagonals", "7"],
     "GraphError: need 1 diagonal bits, each 0 or 1"),
])
def test_refused_input_exits_2_and_writes_nothing(argv, error, tiny, tmp_path, capsys):
    out = tmp_path / "out.json"
    code, rep = run(capsys, *[tiny[a][1] if a in tiny else a for a in argv], "-o", str(out))
    assert code == 2 and rep == {"error": error}
    assert list(tmp_path.iterdir()) == []


def test_outside_input_never_takes_the_unchecked_path(tiny, monkeypatch, capsys):
    """Graph._from_adj and Digraph._from_out trust the sets they are given;
    every input file and payload must be read through the checked constructors."""
    def refuse(sets):
        raise AssertionError("an unchecked constructor was called")
    monkeypatch.setattr(Graph, "_from_adj", staticmethod(refuse))
    monkeypatch.setattr(Digraph, "_from_out", staticmethod(refuse))
    with pytest.raises(AssertionError):
        strong(path(2), path(2))
    files = {"graph": "two_tri", "digraph": "dp2", "td": "two_tri_td", "pd": "p3_pd",
             "triangulation": "triangulation", "layering": "c4_layering"}
    assert set(files) == set(cli.LOADERS)
    for kind, name in files.items():
        text = _read(tiny[name][1])
        assert cli.LOADERS[kind].from_json(text).to_json() == text
    checks = [["td", "two_tri", "two_tri_td"], ["pd", "p3", "p3_pd"],
              ["ortho", "p3", "p3_td", "p3_td"], ["embedding", "k4", "k4_embedding"],
              ["dembedding", "k3", "k3_dembedding"], ["triangulation", "triangulation"]]
    assert {kind for kind, *_ in checks} == set(cli.CHECK)
    for kind, *names in checks:
        code, rep = run(capsys, "check", kind, *[tiny[name][1] for name in names])
        assert code == 0 and rep["outputs"]["ok"], (kind, rep)


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(g, max_n=None):
        raise RuntimeError("boom")
    monkeypatch.setattr(prodstruct.exact, "treewidth_exact", broken)
    g = tmp_path / "g.json"
    g.write_text(Graph(3, [(0, 1)]).to_json())
    code, rep = run(capsys, "exact", "tw", str(g))
    assert code == 3 and rep == {"error": "internal RuntimeError: boom"}


def test_handlers_look_library_functions_up_when_called(tmp_path, capsys, monkeypatch):
    """A replaced module or class attribute must see the CLI's calls."""
    calls = []

    def recording(owner, name):
        real = getattr(owner, name)

        def stub(*a, **k):
            calls.append(name)
            return real(*a, **k)
        monkeypatch.setattr(owner, name, staticmethod(stub) if owner is Graph else stub)

    recording(prodstruct.exact, "treewidth_exact")
    recording(prodstruct.decomposition, "glue_orthogonal")
    recording(Graph, "from_json")
    g = tmp_path / "g.json"
    g.write_text(Graph(3, [(0, 1), (1, 2), (0, 2)]).to_json())
    td = tmp_path / "td.json"
    td.write_text(TreeDecomposition(3, [{0, 1, 2}], []).to_json())
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[json.loads(td.read_text()),
                                  json.loads(PathDecomposition(3, [{0, 1, 2}]).to_json())]]))
    code, rep = run(capsys, "exact", "tw", str(g))
    assert code == 0 and rep["outputs"]["value"] == 2
    code, rep = run(capsys, "decomp", "glue-ortho", str(g), str(td), str(pairs))
    assert code == 0 and rep["outputs"]["orthogonality"] == 3
    assert calls == ["from_json", "treewidth_exact", "from_json", "glue_orthogonal"]


def test_report_hashes_json_payload_inputs(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(Graph(3, [(0, 1), (1, 2), (0, 2)]).to_json())
    td = tmp_path / "td.json"
    td.write_text(TreeDecomposition(3, [{0, 1, 2}], []).to_json())
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[json.loads(td.read_text()),
                                  json.loads(PathDecomposition(3, [{0, 1, 2}]).to_json())]]))
    code, rep = run(capsys, "decomp", "glue-ortho", str(g), str(td), str(pairs))
    assert code == 0
    assert sorted(rep["inputs"]) == sorted(map(str, (g, td, pairs)))
    assert rep["inputs"][str(pairs)] == hashlib.sha256(pairs.read_bytes()).hexdigest()


NOT_UTF8 = b'{"n": 3, "edges": [[0, 1]], "note": "\xff"}'


@pytest.mark.parametrize("argv", [
    ["exact", "tw", "BAD"],
    ["check", "td", "p3", "BAD"],
    ["decomp", "glue-tree-f", "two_tri", "two_tri_td", "BAD"],
])
def test_a_file_that_is_not_utf8_is_bad_input(argv, tiny, tmp_path, capsys):
    """Decoding happens inside the parse, so a byte that is not UTF-8 is
    malformed input (exit 2), not an internal error."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    code, rep = run(capsys, *[str(bad) if a == "BAD" else tiny[a][1] if a in tiny else a
                              for a in argv])
    assert code == 2
    assert rep["error"].startswith(f"InputError: malformed {bad}: 'utf-8' codec can't decode")


def test_inputs_digest_is_the_sha256_of_the_file_bytes(tmp_path, capsys):
    """A CRLF file reports the digest of its own bytes and the outputs of its
    LF twin."""
    text = json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}, indent=1)
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    reps = {}
    for f in (lf, crlf):
        code, reps[f] = run(capsys, "exact", "tw", str(f))
        assert code == 0
        assert reps[f]["inputs"] == {str(f): hashlib.sha256(f.read_bytes()).hexdigest()}
    assert reps[lf]["inputs"][str(lf)] != reps[crlf]["inputs"][str(crlf)]
    assert reps[lf]["outputs"] == reps[crlf]["outputs"]


# -- the report writer ------------------------------------------------------

# str keys with quotes, backslashes, control and non-ASCII characters
_keys = st.text(st.sampled_from('"\\\x00\x1f\n\u00e9\u2603\ud800') | st.characters(),
                max_size=5)
_ints = st.integers(-2 ** 70, 2 ** 70)
_json_values = st.recursive(
    st.none() | st.booleans() | _ints | st.floats() | _keys,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.lists(_ints | st.booleans(), max_size=5)
                  | st.lists(_ints, max_size=5).map(tuple)
                  | st.dictionaries(_keys, kids, max_size=4)
                  | st.dictionaries(_ints, kids, max_size=3)),
    max_leaves=24)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(x=_json_values)
def test_dump_writes_what_json_dumps_writes(x):
    assert cli._dump(x) == json.dumps(x, indent=2, sort_keys=True)


# one run of each subcommand, and of every exact kind, its values inline
TEXT_RUNS = (["gen tightness", "product strong", "embed apex-fan", "decomp glue-ortho",
              "check ortho"] + [f"exact {param}" for param in cli.EXACT])


@pytest.mark.parametrize("case", TEXT_RUNS + ["probe mixing"])
def test_report_is_json_dumps_indent_2(case, tiny, capsys):
    argv = (["probe", "mixing", "--n", "20", "--d", "16", "--samples", "50", "--seed", "4"]
            if case == "probe mixing" else _argv(case, tiny))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# -- no internal error on tiny legal input ----------------------------------

# fixed examples, so the property costs the same few seconds on every run
settings.register_profile("tiny-exact", max_examples=300, deadline=None,
                          derandomize=True, database=None)


@st.composite
def tiny_graphs(draw):
    n = draw(st.integers(0, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@settings(settings.get_profile("tiny-exact"))
@given(g=tiny_graphs(), kind=st.sampled_from(sorted(cli.EXACT)),
       c=st.integers(-2, 9), max_n=st.one_of(st.none(), st.integers(-3, 40)))
def test_exact_never_exits_3_on_tiny_input(g, kind, c, max_n):
    # every oracle, odd --c and --max-n values included: 0, 1 or 2, never a bug
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "g.json")
        pathlib.Path(p).write_text(g.to_json())
        argv = ["exact", kind, p, "--c", str(c)]
        if max_n is not None:
            argv += ["--max-n", str(max_n)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
    assert code in (0, 1, 2), (argv, out.getvalue())


# -- no internal error on tiny legal input of every other kind ---------------

settings.register_profile("tiny-cli", max_examples=400, deadline=None,
                          derandomize=True, database=None)

OTHER_KINDS = ([("check", kind) for kind in cli.CHECK] + [("decomp", kind) for kind in cli.DECOMP]
               + [("embed", kind) for kind in cli.EMBED] + [("probe", "mixing")])


def _members(top):
    return st.lists(st.integers(0, top), unique=True, max_size=4) if top >= 0 else st.just([])


def _csv(n):
    return st.lists(st.integers(-1, n), max_size=4).map(lambda xs: ",".join(map(str, xs)))


def _groups(draw, n):
    """A partition of range(n) into nonempty groups, in order of first label."""
    label = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return [[v for v in range(n) if label[v] == x] for x in dict.fromkeys(label)]


@st.composite
def _graph(draw, n):
    pairs = list(itertools.combinations(range(n), 2))
    return {"n": n, "edges": draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []}


@st.composite
def _digraph(draw):
    n = draw(st.integers(0, 3))
    arcs = list(itertools.permutations(range(n), 2))
    return {"n": n, "arcs": draw(st.lists(st.sampled_from(arcs), unique=True)) if arcs else []}


# Each decomposition, layering or embedding below is half the time one that
# is valid for any graph on its n vertices, so that the commands also run
# past their input checks; the other half has any members, n itself out of
# range.

@st.composite
def _td(draw, n):
    nodes = draw(st.integers(1, 4))
    if draw(st.booleans()):         # a star whose centre holds every vertex
        return {"host_n": n, "nodes": nodes,
                "bags": [list(range(n))] + [draw(_members(n - 1)) for _ in range(1, nodes)],
                "tree_edges": [[0, i] for i in range(1, nodes)]}
    return {"host_n": n, "nodes": nodes, "bags": [draw(_members(n)) for _ in range(nodes)],
            "tree_edges": [[draw(st.integers(0, i - 1)), i] for i in range(1, nodes)]}


@st.composite
def _pd(draw, n):
    if draw(st.booleans()):
        return {"host_n": n, "bags": [list(range(n))]}
    return {"host_n": n, "bags": draw(st.lists(_members(n), min_size=1, max_size=4))}


@st.composite
def _layering(draw, n):
    return {"layers": [list(range(n))] if draw(st.booleans()) else _groups(draw, n)}


@st.composite
def _embedding(draw, n, guest=None, directed=False):
    if guest is not None and draw(st.booleans()):   # guest inside guest boxtimes K_1 (boxtimes K_c)
        c = draw(st.none() | st.integers(1, 3))
        return {"factors": [guest, {"n": 1, "edges": []}], "c": c,
                "map": [[v, 0] + ([] if c is None else [0]) for v in range(n)]}
    if directed:
        factors = [draw(_digraph()), draw(_digraph())]
    else:
        factors = [draw(_graph(draw(st.integers(1, 3)))) for _ in range(2)]
    a, b = (f["n"] for f in factors)
    return {"factors": factors, "c": None if directed else draw(st.none() | st.integers(0, 3)),
            "map": [[draw(st.integers(0, a)), draw(st.integers(0, b))] for _ in range(n)]}


@st.composite
def other_cli_cases(draw, kinds=OTHER_KINDS):
    """A tiny legal argv for one CHECK, DECOMP, EMBED or probe kind: its
    input files as JSON objects, and option values in range or just out."""
    cmd, kind = draw(st.sampled_from(kinds))
    opts = []

    def option(flag, values):
        if draw(st.booleans()):
            opts.append(f"{flag}={draw(values)}")
    if cmd == "probe":
        for flag, lo, hi in (("--n", 4, 10), ("--d", 1, 4), ("--samples", 1, 20)):
            opts.append(f"{flag}={draw(st.integers(lo, hi) | st.integers(-1, 1))}")
        opts.append(f"--seed={draw(st.integers(-1, 5))}")
        return [cmd, kind] + opts, []
    n = draw(st.integers(0, 6))
    kinds = {"check": cli.CHECK, "decomp": cli.DECOMP, "embed": cli.EMBED}[cmd][kind][0]
    files = []
    bags = sizes = ()
    for k in kinds:
        if k == "graph":
            files.append(draw(_graph(n)))
        elif k == "digraph":
            files.append(draw(_digraph()))
        elif k in ("td", "pd"):
            host = sizes[len(files) - 2] if sizes else n     # project-product: its factors
            files.append(draw((_td if k == "td" else _pd)(host)))
            bags = [len(b) for b in files[-1]["bags"]]
        elif k == "layering":
            files.append(draw(_layering(n)))
        elif k == "triangulation":
            files.append(json.loads(stacked_triangulation(
                draw(st.integers(3, 7)), draw(st.integers(0, 3))).to_json()))
        elif (cmd, kind) == ("embed", "partition-check"):
            files.append({"parts": _groups(draw, n) if draw(st.booleans())
                          else draw(st.lists(_members(n), max_size=4))})
        elif (cmd, kind) in (("decomp", "project-product"), ("check", "embedding")):
            files.append(draw(_embedding(n, files[0])))
            sizes = [f["n"] for f in files[-1]["factors"]]
        elif (cmd, kind) == ("check", "dembedding"):
            files.append(draw(_embedding(n, directed=True)))
        else:       # one entry per node of the decomposition before it
            entry = {"glue-directed": lambda m: _embedding(m, directed=True),
                     "glue-tree-f": _td,
                     "glue-ortho": lambda m: st.tuples(_td(m), _pd(m))}[kind]
            files.append([draw(entry(m)) for m in bags])
    if cmd == "embed":
        for flag in ("--p", "--q", "--c", "--threshold", "--path-len", "--a", "--h"):
            option(flag, st.integers(-1, 3))
        option("--v1", _csv(n))
        option("--ordering", _csv(n) | st.permutations(range(n)).map(
            lambda xs: ",".join(map(str, xs))))
        if draw(st.booleans()):
            opts.append("--include-apex")
    elif cmd == "decomp":
        option("--root", st.integers(-1, n))
        option("--side", _csv(n))
    return [cmd, kind] + opts, files


def _run_case(case, d):
    """Run a drawn case with its input files and -o in directory d: its
    argv, exit code and stdout."""
    argv, files = case
    paths = [os.path.join(d, f"in{i}.json") for i in range(len(files))]
    for p, obj in zip(paths, files):
        pathlib.Path(p).write_text(json.dumps(obj))
    argv = argv[:2] + paths + argv[2:]
    if argv[0] in ("decomp", "embed"):
        argv += ["-o", os.path.join(d, "out.json")]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return argv, code, out.getvalue()


@settings(settings.get_profile("tiny-cli"))
@given(case=other_cli_cases())
def test_other_commands_never_exit_3_on_tiny_input(case):
    # every CHECK, DECOMP and EMBED kind and probe mixing: 0, 1 or 2, never a bug
    with tempfile.TemporaryDirectory() as d:
        argv, code, out = _run_case(case, d)
    assert code in (0, 1, 2), (argv, case[1], out)


GRAPH_DECOMP = [("decomp", kind) for kind, (inputs, _) in cli.DECOMP.items()
                if inputs[0] == "graph"]


@settings(settings.get_profile("tiny-cli"))
@given(case=other_cli_cases(GRAPH_DECOMP))
def test_decomp_exit_0_writes_decompositions_of_its_graph(case):
    # a td or pd written on exit 0 validates against the input graph, and
    # the bipartite pair is at most 2-orthogonal
    with tempfile.TemporaryDirectory() as d:
        argv, code, out = _run_case(case, d)
        if code != 0:
            return
        g, outputs = Graph.from_json(json.dumps(case[1][0])), json.loads(out)["outputs"]
        for key, path in outputs.items():
            written = json.loads(_read(path)) if key.startswith("file") else {}
            if "bags" in written:
                kind = TreeDecomposition if "tree_edges" in written else PathDecomposition
                assert validate(g, kind.from_json(json.dumps(written))).ok, (argv, case[1], written)
    if argv[1] == "bipartite-ortho":
        assert outputs["orthogonality"] <= 2, (argv, case[1])
