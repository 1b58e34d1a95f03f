"""Command-line front end.

Every command prints a RunReport JSON on stdout and writes value files with
-o/--out.  Exit codes: 0 ok / 1 failed / 2 bad input / 3 internal error.
Bad input is an unreadable or malformed file or option, a failed
precondition or a size cap; any other exception is a bug in the program.
main returns the code and never raises SystemExit: a usage error that
argparse rejects returns 2 with its message on stderr and as the error on
stdout, and --help returns 0.  An argv that names a command is parsed by
that command's subparser alone.  Reports are written by `_dump`, with the text
of `json.dumps(report, indent=2, sort_keys=True)`: json uses its C encoder
only when no indent is set.  Input files are read and hashed as bytes.

One registry per subcommand maps each kind to its input file kinds and its
handler, and argparse takes its choices from the registry keys.  Handlers
look library functions up when called (`X.treewidth_exact`, `Graph.from_json`)
and hold none, so that a tracer or test that replaces one sees every call.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import traceback

from . import constructions as C
from . import decomposition as D
from . import exact as X
from . import planar as PL
from . import products as P
from .graphs import Digraph, Graph, GraphError, VertexPartition


class InputError(ValueError):
    pass


BAD_INPUT = (InputError, GraphError, D.DecompositionError, P.EmbeddingError,
             PL.EmbeddingInvalid, X.InstanceTooLarge)


def _parse(what, parse, *args):
    """parse(*args), with outside data of the wrong shape reported as bad input."""
    try:
        return parse(*args)
    except (ValueError, KeyError, TypeError) as ex:
        raise InputError(f"malformed {what}: {ex}")


# input file kind -> the class whose from_json parses it; a "json" file is a
# payload that its handler parses
LOADERS = {"graph": Graph, "digraph": Digraph, "td": D.TreeDecomposition,
           "pd": D.PathDecomposition, "triangulation": PL.PlaneTriangulation,
           "layering": D.Layering}


def _csv_ints(text, flag):
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise InputError(f"{flag} takes comma-separated integers, got {text!r}")


def _seed(args, what):
    if args.seed is None:
        raise InputError(f"{what} requires --seed")
    return args.seed


def _js(obj):
    return json.loads(obj.to_json())


_str = json.encoder.encode_basestring_ascii
# exact type -> its JSON text, as json.dumps writes it
_SCALARS = {str: _str, int: int.__repr__, bool: lambda b: "true" if b else "false",
            type(None): lambda _: "null"}


def _dump(x, ind="\n"):
    """json.dumps(x, indent=2, sort_keys=True), with each line after the first
    indented as `ind` says."""
    scalar = _SCALARS.get(type(x))
    if scalar is not None:
        return scalar(x)
    inner = ind + "  "
    if type(x) is dict and set(map(type, x)) == {str}:
        return ("{" + inner + ("," + inner).join(
            f"{_str(k)}: {_dump(x[k], inner)}" for k in sorted(x)) + ind + "}")
    if type(x) in (list, tuple) and x:
        items = (map(int.__repr__, x) if set(map(type, x)) == {int}
                 else (_dump(v, inner) for v in x))
        return "[" + inner + ("," + inner).join(items) + ind + "]"
    # floats, empty containers, dicts with other keys, anything else: encoded
    # JSON holds no raw newline, so indenting its lines is exact
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", ind)


class Run:
    """One command's RunReport: argv, the sha256 of every input file, outputs,
    files written."""

    def __init__(self, argv, args):
        self.outputs = {}
        self.report = {"command": argv, "inputs": {}, "outputs": self.outputs,
                       "seed": getattr(args, "seed", None)}
        self.out = getattr(args, "out", None)
        self.t0 = time.monotonic()

    def load(self, path, kind):
        try:
            with open(path, "rb", buffering=0) as f:
                data = f.read()
        except OSError as ex:
            raise InputError(f"cannot read {path}: {ex}")
        self.report["inputs"][path] = hashlib.sha256(data).hexdigest()
        # json.loads decodes the bytes, so a file that is not UTF-8 is malformed
        return _parse(path, json.loads if kind == "json" else LOADERS[kind].from_json, data)

    def inputs(self, args, kinds):
        """The positional input files, one of each declared kind, loaded."""
        if len(args.inputs) != len(kinds):
            raise InputError(f"{args.cmd} {args.kind} takes {len(kinds)} input files "
                             f"({', '.join(kinds)}), got {len(args.inputs)}")
        return [self.load(path, kind) for path, kind in zip(args.inputs, kinds)]

    def emit(self, text, inline_key, suffix="", file_key="file"):
        """Write text to the -o path plus suffix, or else inline it as JSON."""
        if self.out is None:
            self.outputs[inline_key] = json.loads(text)
            return
        path = self.out + suffix
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as ex:
            raise InputError(f"cannot write {path}: {ex}")
        self.outputs[file_key] = path

    def finish(self, ok=True):
        self.report["wall_time_s"] = round(time.monotonic() - self.t0, 3)
        print(_dump(self.report))
        return 0 if ok else 1


# -- JSON payloads --------------------------------------------------------

def _per_node(items, td, what, parse):
    """{x: parse(items[x], x)} for a JSON list with one entry per node of td."""
    if not isinstance(items, list) or len(items) != td.nodes:
        raise InputError(f"{what}: expected a list of {td.nodes} entries, one per node")
    return {x: _parse(f"{what} entry {x}", parse, item, x) for x, item in enumerate(items)}


# -- gen ------------------------------------------------------------------

def _plain(name, params):
    """A family whose generator takes --params and returns one graph."""
    return params, lambda p, a: (getattr(C, name)(*p), None, {})


def _hex(p, a):
    g, pd, orderings, spans = C.hex_graph(*p, _csv_ints(a.diagonals, "--diagonals") or None)
    return g, pd, {"orderings": orderings, "spans": spans}


def _tightness(p, a):
    g, f1, f2, e = C.tightness_example(*p)
    return g, e, {"factors": [f1.to_data(), f2.to_data()]}


# family -> (names of its --params, None for any number of them;
#            build(params, args) -> (graph or triangulation, witness or None,
#                                    extra outputs))
FAMILIES = {
    "path": _plain("path", ("n",)),
    "cycle": _plain("cycle", ("n",)),
    "complete": _plain("complete", ("n",)),
    "multipartite": (None, lambda p, a: (C.complete_multipartite(p), None, {})),
    "star": _plain("star", ("n",)),
    "grid2": _plain("grid2", ("m", "n")),
    "grid3": _plain("grid3", ("a", "b", "c")),
    "hex": (("n",), _hex),
    "tri-grid3": _plain("triangulated_grid3", ("a", "b", "c")),
    "pyramid": _plain("pyramid", ("n",)),
    "windmill": _plain("windmill", ("k",)),
    "flower": _plain("flower", ("k",)),
    "treedepth-family": _plain("treedepth_family", ("k", "c")),
    "separating": (("c",), lambda p, a: (*C.separating_graph(*p), {})),
    "v8": _plain("v8", ()),
    "stacked": (("n",), lambda p, a: (C.stacked_triangulation(*p, _seed(a, "stacked")),
                                      None, {})),
    "random-regular": (("n", "d"), lambda p, a: (
        C.random_regular(*p, _seed(a, "random-regular")), None, {})),
    "tightness": (("p", "q", "m"), _tightness),
}


def cmd_gen(run, args):
    names, build = FAMILIES[args.kind]
    p = _csv_ints(args.params, "--params")
    if names is not None and len(p) != len(names):
        raise InputError(f"gen {args.kind} takes {len(names)} --params ({','.join(names)})")
    made, witness, extra = build(p, args)
    if isinstance(made, PL.PlaneTriangulation):
        run.outputs["n"] = made.graph.n
        run.emit(made.to_json(), "triangulation")
    else:
        run.outputs.update(n=made.n, m=made.m, **extra)
        run.emit(made.to_json(), "graph")
    if witness is not None:
        run.emit(witness.to_json(), "witness", ".witness.json", "witness_file")
    return run.finish()


# -- product --------------------------------------------------------------

# op -> (kind of both inputs, name of the product in prodstruct.products)
PRODUCTS = {
    "cartesian": ("graph", "cartesian"),
    "direct": ("graph", "direct"),
    "strong": ("graph", "strong"),
    "dstrong": ("digraph", "directed_strong"),
}


def cmd_product(run, args):
    kind, name = PRODUCTS[args.kind]
    out = getattr(P, name)(*run.inputs(args, (kind, kind)))
    run.outputs["n"] = out.n
    run.emit(out.to_json(), "graph")
    return run.finish()


# -- embed ----------------------------------------------------------------

def _partition_check(out, a, g, d1, d2):
    parts = [_parse("parts", lambda d: VertexPartition(g.n, d["parts"]), d) for d in (d1, d2)]
    e, bad = P.partition_product_check(g, *parts, a.c)
    if e is None:
        out["violating_pair"] = list(bad)
    return e


def _apex_fan(out, a, h):
    j, f, e = P.orient_apex_fan(h, _csv_ints(a.ordering, "--ordering"), a.path_len, a.a)
    out["j"] = j.to_data()
    out["f"] = f.to_data()
    return e


def _glue_directed(out, a, g, td, embs):
    guests = [g.subgraph(bag)[0] for bag in td.bags]
    return P.glue_directed_products(g, td, _per_node(
        embs, td, "bag embeddings",
        lambda d, x: P.embedding_from_data(d, guests[x], Digraph)), a.h)


# kind -> (input kinds, handler(outputs, args, *inputs) -> the embedding to
#          write, already checked by its constructor, or None when there is none)
EMBED = {
    "join-product": (("graph", "graph"),
                     lambda out, a, g1, g2: P.embed_join_product(g1, g2, a.p, a.q)),
    "move-apex": (("graph", "graph"),
                  lambda out, a, g1, g2: P.embed_move_apex(g1, g2, a.p, a.q)),
    "apex-partition": (("graph",), lambda out, a, g: P.embed_apex_partition(
        g, _csv_ints(a.v1, "--v1"), a.include_apex)[0]),
    "partition-check": (("graph", "json", "json"), _partition_check),
    "degree-partition": (("graph",), lambda out, a, g: out.update(
        parts=[sorted(x) for x in P.degree_partition(g, a.threshold).parts])),
    "apex-fan": (("graph",), _apex_fan),
    "glue-directed": (("graph", "td", "json"), _glue_directed),
}


def cmd_embed(run, args):
    kinds, make = EMBED[args.kind]
    e = make(run.outputs, args, *run.inputs(args, kinds))
    if e is None:       # degree-partition, or partition-check found a violating pair
        return run.finish("violating_pair" not in run.outputs)
    # every handler's embedding comes out of a constructor that has already
    # passed it through the checker (products._checked), which raises on error
    run.outputs.update(valid=True, errors=[])
    run.emit(e.to_json(), "embedding")
    return run.finish()


# -- decomp ---------------------------------------------------------------

def _planar_lexbfs(out, a, pt):
    td, order, rep = PL.planar_bandwidth3_decomposition(pt, a.root)
    out.update(rep, order=order)
    return [td.to_json()]


def _witness_bandwidth(out, a, g, l, td):
    w = D.LayeredWitness(g, l, td)
    orderings, span = D.witness_to_bandwidth_decomposition(w)
    out.update(k=w.k, orderings=orderings, max_span=span)
    return [td.to_json()]


def _witness_partition(out, a, g, l, td):
    w = D.LayeredWitness(g, l, td)
    out.update(k=w.k, parts=[sorted(x) for x in D.witness_to_partition(w).parts])
    return []


def _glue_tree_f(out, a, g, td, pieces):
    torso_decomps = _per_node(pieces, td, "torso decompositions",
                              lambda d, x: D.TreeDecomposition.from_data(d))
    return [D.glue_tree_f(g, td, torso_decomps).to_json()]


def _pair(d, x):
    t, p = d
    return D.TreeDecomposition.from_data(t), D.PathDecomposition.from_data(p)


def _both(out, d1, d2):
    """Two decompositions of one graph to write, and their orthogonality."""
    out["orthogonality"] = D.orthogonality(d1, d2)
    return [d1.to_json(), d2.to_json()]


# kind -> (input kinds, handler(outputs, args, *inputs) -> texts of the files
#          to write: -o itself for one, -o.0, -o.1 for two)
DECOMP = {
    "planar-lexbfs": (("triangulation",), _planar_lexbfs),
    "bfs-layering": (("graph",),
                     lambda out, a, g: [D.bfs_layering(g, a.root or 0).to_json()]),
    "layering-path": (("layering",),
                      lambda out, a, l: [D.layering_to_path_decomposition(l).to_json()]),
    "witness-bandwidth": (("graph", "layering", "td"), _witness_bandwidth),
    "witness-partition": (("graph", "layering", "td"), _witness_partition),
    "bipartite-ortho": (("graph",), lambda out, a, g: _both(
        out, *D.bipartite_orthogonal_paths(g, _csv_ints(a.side, "--side")))),
    "bipartite-star": (("graph",), lambda out, a, g: [
        D.bipartite_star_decomposition(g, _csv_ints(a.side, "--side")).to_json()]),
    "glue-tree-f": (("graph", "td", "json"), _glue_tree_f),
    "glue-ortho": (("graph", "td", "json"), lambda out, a, g, td, pairs: _both(
        out, *D.glue_orthogonal(g, td, _per_node(pairs, td, "orthogonal pairs", _pair)))),
    "project-product": (("graph", "json", "td", "td"), lambda out, a, g, d, t1, t2: _both(
        out, *D.project_product_decomposition(
            _parse("embedding", P.embedding_from_data, d, g), t1, t2))),
}


def cmd_decomp(run, args):
    kinds, make = DECOMP[args.kind]
    files = make(run.outputs, args, *run.inputs(args, kinds))
    for i, text in enumerate(files):
        run.emit(text, f"value{i}", "" if len(files) == 1 else f".{i}", f"file{i}")
    return run.finish()


# -- check ----------------------------------------------------------------

def _check_decomposition(g, dec):
    rep = D.validate(g, dec)
    return {"ok": rep.ok, "errors": rep.errors[:10], "width": rep.width,
            "adhesion": rep.adhesion, "taut": rep.taut}


def _check_ortho(g, td1, td2):
    """Both decompositions validated, their errors prefixed td1: and td2:."""
    reps = D.validate(g, td1), D.validate(g, td2)
    ok = reps[0].ok and reps[1].ok
    errors = [f"td{i}: {err}" for i, rep in enumerate(reps, 1) for err in rep.errors]
    return {"ok": ok, "errors": errors[:10],
            "value": D.orthogonality(td1, td2) if ok else None}


def _verdict(errs):
    return {"ok": not errs, "errors": errs[:10]}


# kind -> (input kinds, handler(*inputs) -> outputs, whose "ok" is the verdict)
CHECK = {
    "td": (("graph", "td"), _check_decomposition),
    "pd": (("graph", "pd"), _check_decomposition),
    "ortho": (("graph", "td", "td"), _check_ortho),
    "embedding": (("graph", "json"), lambda g, d: _verdict(P.validate_embedding(
        _parse("embedding", P.embedding_from_data, d, g)))),
    "dembedding": (("graph", "json"), lambda g, d: _verdict(P.validate_directed_embedding(
        _parse("embedding", P.embedding_from_data, d, g, Digraph)))),
    "triangulation": (("triangulation",), lambda pt: {"ok": True, "n": pt.graph.n}),
}


def cmd_check(run, args):
    kinds, check = CHECK[args.kind]
    run.outputs.update(check(*run.inputs(args, kinds)))
    return run.finish(run.outputs["ok"])


# -- exact ----------------------------------------------------------------

def _exact(v, w, witness=_js):
    """An oracle's value and witness as outputs; no witness key when it is None."""
    return {"value": v} if w is None else {"value": v, "witness": witness(w)}


def _twtw_witness(w):
    p1, p2, q1, q2 = w
    return {"parts1": [sorted(x) for x in p1.parts], "parts2": [sorted(x) for x in p2.parts],
            "quotient1": _js(q1), "quotient2": _js(q2)}


# tree-f parameter -> the bag parameter f of tree_param_exact
TREE_F = {"ttw": "tw", "tpw": "pw", "tbw": "bw", "ttd": "td",
          "tree-maxdeg": "maxdeg", "tree-longest-path": "longest-path"}

# parameter -> handler(graph, args) -> outputs; the input is one graph
EXACT = {
    "tw": lambda g, a: _exact(*X.treewidth_exact(g, a.max_n)),
    "pw": lambda g, a: _exact(*X.pathwidth_exact(g, a.max_n)),
    "bw": lambda g, a: _exact(*X.bandwidth_exact(g, a.max_n), list),
    "td": lambda g, a: _exact(*X.treedepth_exact(g, a.max_n), list),
    **{param: lambda g, a, f=f: _exact(*X.tree_param_exact(g, f, a.max_n))
       for param, f in TREE_F.items()},
    "twintw": lambda g, a: _exact(*X.twintw_exact(g, a.max_n),
                                  lambda pair: [_js(t) for t in pair]),
    "twtw": lambda g, a: _exact(*X.twtw_exact(g, a.c, a.max_n), _twtw_witness),
}


def cmd_exact(run, args):
    g, = run.inputs(args, ("graph",))
    run.outputs.update(param=args.kind, **EXACT[args.kind](g, args))
    return run.finish()


# -- probe ----------------------------------------------------------------

def cmd_probe(run, args):
    g = C.random_regular(args.n, args.d, _seed(args, "probe mixing"))
    rep = X.expander_mixing_check(g, args.d, args.samples, args.seed)
    run.outputs.update(rep)
    return run.finish(rep["failures"] == 0)


# -- driver ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):   # on stdout as well, like every other exit's error
        print(json.dumps({"error": f"{self.prog}: error: {message}"}))
        super().error(message)


@functools.cache
def build_parser():
    """The argparse parser and its subparser per command, built once: they hold
    the cmd_* functions, and the handlers they dispatch to still look library
    functions up when called."""
    ap = _Parser(prog="prodstruct")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, fn, registry, inputs=True, out=True):
        p = sub.add_parser(name)
        p.add_argument("kind", choices=list(registry))
        if inputs:
            p.add_argument("inputs", nargs="*")
        if out:
            p.add_argument("-o", "--out", default=None)
        p.set_defaults(fn=fn)
        return p

    p = command("gen", cmd_gen, FAMILIES, inputs=False)
    p.add_argument("--params", default="")
    p.add_argument("--diagonals", default=None)
    p.add_argument("--seed", type=int, default=None)

    command("product", cmd_product, PRODUCTS)

    p = command("embed", cmd_embed, EMBED)
    for flag in ("--p", "--q", "--c", "--threshold", "--path-len"):
        p.add_argument(flag, type=int, default=1)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--v1", default="")
    p.add_argument("--ordering", default="")
    p.add_argument("--include-apex", action="store_true")

    p = command("decomp", cmd_decomp, DECOMP)
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--side", default="")

    command("check", cmd_check, CHECK, out=False)

    p = command("exact", cmd_exact, EXACT, out=False)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)

    p = command("probe", cmd_probe, ("mixing",), inputs=False, out=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    return ap, sub.choices


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    top, commands = build_parser()
    try:
        if argv and argv[0] in commands:    # one pass, by the command's own parser
            args, extras = commands[argv[0]].parse_known_args(argv[1:])
            if extras:      # the top parser's own error, as a full pass gives it
                top.error(f"unrecognized arguments: {' '.join(extras)}")
            args.cmd = argv[0]
        else:
            args = top.parse_args(argv)
    except SystemExit as ex:    # usage error (2) or --help (0), already printed
        return ex.code
    try:
        return args.fn(Run(argv, args), args)
    except BAD_INPUT as ex:
        code, error = 2, f"{type(ex).__name__}: {ex}"
    except Exception as ex:     # a bug, not bad input: keep its traceback on stderr
        traceback.print_exc()
        code, error = 3, f"internal {type(ex).__name__}: {ex}"
    print(json.dumps({"error": error}))
    return code


if __name__ == "__main__":
    sys.exit(main())
