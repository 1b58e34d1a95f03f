"""Command-line front end.

Every command prints a RunReport JSON on stdout and writes value files with
-o/--out.  Exit codes: 0 pass, 1 check failed, 2 invalid input (malformed
JSON, failed precondition, or size cap).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import constructions as C
from . import exact as X
from .decomposition import (TreeDecomposition, PathDecomposition, Layering,
                            DecompositionError, validate, orthogonality,
                            bfs_layering, layering_to_path_decomposition,
                            make_layered_witness,
                            witness_to_bandwidth_decomposition,
                            witness_to_partition, bipartite_orthogonal_paths,
                            bipartite_star_decomposition, glue_tree_f,
                            glue_orthogonal, project_product_decomposition)
from .graphs import Graph, Digraph, GraphError, VertexPartition
from .planar import PlaneTriangulation, EmbeddingInvalid, planar_bandwidth3_decomposition
from .products import (ProductEmbedding, DirectedProductEmbedding,
                       EmbeddingError, cartesian, direct, strong,
                       directed_strong, validate_embedding,
                       validate_directed_embedding, embed_join_product,
                       embed_move_apex, embed_apex_partition,
                       partition_product_check, degree_partition,
                       orient_apex_fan, glue_directed_products)


class InputError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as ex:
        raise InputError(f"cannot read {path}: {ex}")


def _load(path: str, parser):
    text = _read(path)
    try:
        return parser(text), hashlib.sha256(text.encode()).hexdigest()
    except (ValueError, KeyError, TypeError) as ex:
        raise InputError(f"malformed {path}: {ex}")


def _graph(path):
    return _load(path, Graph.from_json)


def _digraph(path):
    return _load(path, Digraph.from_json)


def _td(path):
    return _load(path, TreeDecomposition.from_json)


def _pd(path):
    return _load(path, PathDecomposition.from_json)


def _layering(path):
    def parse(text):
        d = json.loads(text)
        layers = d["layers"]
        return Layering(sum(len(l) for l in layers), layers)
    return _load(path, parse)


def _embedding_json(text: str, guest: Graph) -> ProductEmbedding:
    d = json.loads(text)
    factors = tuple(Graph.from_json(json.dumps(f)) for f in d["factors"])
    return ProductEmbedding(guest, factors, d["c"],
                            tuple(tuple(t) for t in d["map"]))


def _directed_embedding_json(text: str, guest: Graph) -> DirectedProductEmbedding:
    d = json.loads(text)
    factors = tuple(Digraph.from_json(json.dumps(f)) for f in d["factors"])
    return DirectedProductEmbedding(guest, factors,
                                    tuple(tuple(t) for t in d["map"]))


def _csv_ints(text: str) -> list:
    return [int(x) for x in text.split(",")] if text else []


class Run:
    def __init__(self, args):
        self.report = {"command": sys.argv[1:], "inputs": {}, "outputs": {},
                       "seed": getattr(args, "seed", None)}
        self.out = getattr(args, "out", None)
        self.t0 = time.monotonic()

    def record(self, path, digest):
        self.report["inputs"][path] = digest

    def write(self, text, suffix=""):
        if self.out is None:
            return None
        path = self.out + suffix
        with open(path, "w") as f:
            f.write(text)
        return path

    def finish(self, code=0):
        self.report["wall_time_s"] = round(time.monotonic() - self.t0, 3)
        print(json.dumps(self.report, indent=2, sort_keys=True))
        return code


# -- gen ------------------------------------------------------------------

def cmd_gen(args):
    run = Run(args)
    fam = args.family
    p = _csv_ints(args.params)
    witness = None
    extra = {}
    if fam == "path":
        g = C.path(*p)
    elif fam == "cycle":
        g = C.cycle(*p)
    elif fam == "complete":
        g = C.complete(*p)
    elif fam == "multipartite":
        g = C.complete_multipartite(p)
    elif fam == "star":
        g = C.star(*p)
    elif fam == "grid2":
        g = C.grid2(*p)
    elif fam == "grid3":
        g = C.grid3(*p)
    elif fam == "hex":
        diag = _csv_ints(args.diagonals) if args.diagonals else None
        g, pd, orderings, spans = C.hex_graph(p[0], diag)
        witness = pd.to_json()
        extra = {"orderings": orderings, "spans": spans}
    elif fam == "tri-grid3":
        g = C.triangulated_grid3(*p)
    elif fam == "pyramid":
        g = C.pyramid(*p)
    elif fam == "windmill":
        g = C.windmill(*p)
    elif fam == "flower":
        g = C.flower(*p)
    elif fam == "treedepth-family":
        g = C.treedepth_family(*p)
    elif fam == "separating":
        g, w = C.separating_graph(*p)
        witness = w.to_json()
    elif fam == "v8":
        g = C.v8()
    elif fam == "stacked":
        if args.seed is None:
            raise InputError("stacked requires --seed")
        pt = C.stacked_triangulation(p[0], args.seed)
        run.report["outputs"]["n"] = pt.graph.n
        path = run.write(pt.to_json())
        if path:
            run.report["outputs"]["file"] = path
        else:
            run.report["outputs"]["triangulation"] = json.loads(pt.to_json())
        return run.finish()
    elif fam == "random-regular":
        if args.seed is None:
            raise InputError("random-regular requires --seed")
        g = C.random_regular(p[0], p[1], args.seed)
    elif fam == "tightness":
        g, f1, f2, e = C.tightness_example(*p)
        witness = e.to_json()
        extra = {"factors": [json.loads(f1.to_json()), json.loads(f2.to_json())]}
    else:
        raise InputError(f"unknown family {fam!r}")
    run.report["outputs"].update({"n": g.n, "m": g.m, **extra})
    path = run.write(g.to_json())
    if path:
        run.report["outputs"]["file"] = path
    else:
        run.report["outputs"]["graph"] = json.loads(g.to_json())
    if witness is not None:
        wpath = run.write(witness, ".witness.json")
        if wpath:
            run.report["outputs"]["witness_file"] = wpath
        else:
            run.report["outputs"]["witness"] = json.loads(witness)
    return run.finish()


# -- product --------------------------------------------------------------

def cmd_product(args):
    run = Run(args)
    if args.op == "dstrong":
        a, da = _digraph(args.a)
        b, db = _digraph(args.b)
        out = directed_strong(a, b)
    else:
        a, da = _graph(args.a)
        b, db = _graph(args.b)
        out = {"cartesian": cartesian, "direct": direct, "strong": strong}[args.op](a, b)
    run.record(args.a, da)
    run.record(args.b, db)
    run.report["outputs"]["n"] = out.n
    path = run.write(out.to_json())
    if path:
        run.report["outputs"]["file"] = path
    else:
        run.report["outputs"]["graph"] = json.loads(out.to_json())
    return run.finish()


# -- embed ----------------------------------------------------------------

def cmd_embed(args):
    run = Run(args)
    kind = args.kind
    if kind in ("join-product", "move-apex"):
        a, da = _graph(args.inputs[0])
        b, db = _graph(args.inputs[1])
        run.record(args.inputs[0], da)
        run.record(args.inputs[1], db)
        fn = embed_join_product if kind == "join-product" else embed_move_apex
        e = fn(a, b, args.p, args.q)
    elif kind == "apex-partition":
        g, dg = _graph(args.inputs[0])
        run.record(args.inputs[0], dg)
        e, f1, f2 = embed_apex_partition(g, _csv_ints(args.v1), args.include_apex)
    elif kind == "partition-check":
        g, dg = _graph(args.inputs[0])
        run.record(args.inputs[0], dg)
        d1 = json.loads(_read(args.inputs[1]))
        d2 = json.loads(_read(args.inputs[2]))
        p1 = VertexPartition(g.n, d1["parts"])
        p2 = VertexPartition(g.n, d2["parts"])
        e, bad = partition_product_check(g, p1, p2, args.c)
        if e is None:
            run.report["outputs"]["violating_pair"] = list(bad)
            return run.finish(1)
    elif kind == "degree-partition":
        g, dg = _graph(args.inputs[0])
        run.record(args.inputs[0], dg)
        vp = degree_partition(g, args.threshold)
        run.report["outputs"]["parts"] = [sorted(x) for x in vp.parts]
        return run.finish()
    elif kind == "apex-fan":
        h, dh = _graph(args.inputs[0])
        run.record(args.inputs[0], dh)
        j, f, e = orient_apex_fan(h, _csv_ints(args.ordering), args.path_len, args.a)
        run.report["outputs"]["j"] = json.loads(j.to_json())
        run.report["outputs"]["f"] = json.loads(f.to_json())
    elif kind == "glue-directed":
        g, dg = _graph(args.inputs[0])
        td, dt = _td(args.inputs[1])
        run.record(args.inputs[0], dg)
        run.record(args.inputs[1], dt)
        embs = json.loads(_read(args.inputs[2]))
        bag_embeddings = {}
        for x in range(td.nodes):
            sub, _ = g.subgraph(td.bags[x])
            bag_embeddings[x] = _directed_embedding_json(json.dumps(embs[x]), sub)
        e = glue_directed_products(g, td, bag_embeddings, args.h)
    else:
        raise InputError(f"unknown embed kind {kind!r}")
    checker = (validate_directed_embedding
               if isinstance(e, DirectedProductEmbedding) else validate_embedding)
    errs = checker(e)
    run.report["outputs"]["valid"] = not errs
    run.report["outputs"]["errors"] = errs[:10]
    path = run.write(e.to_json())
    if path:
        run.report["outputs"]["file"] = path
    else:
        run.report["outputs"]["embedding"] = json.loads(e.to_json())
    return run.finish(0 if not errs else 1)


# -- decomp ---------------------------------------------------------------

def cmd_decomp(args):
    run = Run(args)
    kind = args.kind
    out = {}
    files = []
    if kind == "planar-lexbfs":
        pt, dp = _load(args.inputs[0], PlaneTriangulation.from_json)
        run.record(args.inputs[0], dp)
        td, order, rep = planar_bandwidth3_decomposition(pt, args.root)
        files.append(td.to_json())
        out = {"order": order, **rep}
    elif kind == "bfs-layering":
        g, dg = _graph(args.inputs[0])
        run.record(args.inputs[0], dg)
        l = bfs_layering(g, args.root or 0)
        files.append(l.to_json())
    elif kind == "layering-path":
        l, dl = _layering(args.inputs[0])
        run.record(args.inputs[0], dl)
        files.append(layering_to_path_decomposition(l).to_json())
    elif kind in ("witness-bandwidth", "witness-partition"):
        g, dg = _graph(args.inputs[0])
        l, dl = _layering(args.inputs[1])
        td, dt = _td(args.inputs[2])
        for p, d in zip(args.inputs, (dg, dl, dt)):
            run.record(p, d)
        w = make_layered_witness(g, l, td)
        out["k"] = w.k
        if kind == "witness-bandwidth":
            td2, orderings, span = witness_to_bandwidth_decomposition(g, w)
            files.append(td2.to_json())
            out.update({"orderings": orderings, "max_span": span})
        else:
            vp = witness_to_partition(w)
            out["parts"] = [sorted(x) for x in vp.parts]
    elif kind in ("bipartite-ortho", "bipartite-star"):
        g, dg = _graph(args.inputs[0])
        run.record(args.inputs[0], dg)
        side = _csv_ints(args.side)
        if kind == "bipartite-ortho":
            p1, p2 = bipartite_orthogonal_paths(g, side)
            files += [p1.to_json(), p2.to_json()]
            out["orthogonality"] = orthogonality(p1.as_tree(), p2.as_tree())
        else:
            files.append(bipartite_star_decomposition(g, side).to_json())
    elif kind == "glue-tree-f":
        g, dg = _graph(args.inputs[0])
        td, dt = _td(args.inputs[1])
        run.record(args.inputs[0], dg)
        run.record(args.inputs[1], dt)
        pieces = json.loads(_read(args.inputs[2]))
        torso_decomps = {x: TreeDecomposition.from_json(json.dumps(pieces[x]))
                         for x in range(td.nodes)}
        files.append(glue_tree_f(g, td, torso_decomps).to_json())
    elif kind == "glue-ortho":
        g, dg = _graph(args.inputs[0])
        td, dt = _td(args.inputs[1])
        run.record(args.inputs[0], dg)
        run.record(args.inputs[1], dt)
        raw = json.loads(_read(args.inputs[2]))
        pairs = {x: (TreeDecomposition.from_json(json.dumps(raw[x][0])),
                     PathDecomposition.from_json(json.dumps(raw[x][1])))
                 for x in range(td.nodes)}
        t, p = glue_orthogonal(g, td, pairs)
        files += [t.to_json(), p.to_json()]
        out["orthogonality"] = orthogonality(t, p.as_tree())
    elif kind == "project-product":
        g, dg = _graph(args.inputs[0])
        run.record(args.inputs[0], dg)
        e = _embedding_json(_read(args.inputs[1]), g)
        td1, d1 = _td(args.inputs[2])
        td2, d2 = _td(args.inputs[3])
        run.record(args.inputs[2], d1)
        run.record(args.inputs[3], d2)
        o1, o2 = project_product_decomposition(e, td1, td2)
        files += [o1.to_json(), o2.to_json()]
        out["orthogonality"] = orthogonality(o1, o2)
    else:
        raise InputError(f"unknown decomp kind {kind!r}")
    run.report["outputs"].update(out)
    for i, text in enumerate(files):
        suffix = "" if len(files) == 1 else f".{i}"
        path = run.write(text, suffix)
        if path:
            run.report["outputs"][f"file{i}"] = path
        else:
            run.report["outputs"][f"value{i}"] = json.loads(text)
    return run.finish()


# -- check ----------------------------------------------------------------

def cmd_check(args):
    run = Run(args)
    kind = args.kind
    if kind in ("td", "pd"):
        g, dg = _graph(args.inputs[0])
        dec, dd = (_td if kind == "td" else _pd)(args.inputs[1])
        run.record(args.inputs[0], dg)
        run.record(args.inputs[1], dd)
        rep = validate(g, dec)
        run.report["outputs"] = {"ok": rep.ok, "errors": rep.errors[:10],
                                 "width": rep.width, "adhesion": rep.adhesion,
                                 "taut": rep.taut}
        return run.finish(0 if rep.ok else 1)
    if kind == "ortho":
        g, dg = _graph(args.inputs[0])
        td1, d1 = _td(args.inputs[1])
        td2, d2 = _td(args.inputs[2])
        for p, d in zip(args.inputs, (dg, d1, d2)):
            run.record(p, d)
        ok = validate(g, td1).ok and validate(g, td2).ok
        run.report["outputs"] = {"ok": ok,
                                 "value": orthogonality(td1, td2) if ok else None}
        return run.finish(0 if ok else 1)
    if kind == "embedding":
        g, dg = _graph(args.inputs[0])
        run.record(args.inputs[0], dg)
        e = _embedding_json(_read(args.inputs[1]), g)
        errs = validate_embedding(e)
        run.report["outputs"] = {"ok": not errs, "errors": errs[:10]}
        return run.finish(0 if not errs else 1)
    if kind == "triangulation":
        pt, dp = _load(args.inputs[0], PlaneTriangulation.from_json)
        run.record(args.inputs[0], dp)
        run.report["outputs"] = {"ok": True, "n": pt.graph.n}
        return run.finish(0)
    raise InputError(f"unknown check kind {kind!r}")


# -- exact ----------------------------------------------------------------

def cmd_exact(args):
    run = Run(args)
    g, dg = _graph(args.graph)
    run.record(args.graph, dg)
    param = args.param
    mx = args.max_n
    out = {"param": param}
    if param == "tw":
        v, w = X.treewidth_exact(g, mx)
        out.update(value=v, witness=json.loads(w.to_json()))
    elif param == "pw":
        v, w = X.pathwidth_exact(g, mx)
        out.update(value=v, witness=json.loads(w.to_json()))
    elif param == "bw":
        v, w = X.bandwidth_exact(g, mx)
        out.update(value=v, witness=w)
    elif param == "td":
        v, w = X.treedepth_exact(g, mx)
        out.update(value=v, witness=w)
    elif param in ("ttw", "tpw", "tbw", "ttd", "tree-maxdeg", "tree-longest-path"):
        f = {"ttw": "tw", "tpw": "pw", "tbw": "bw", "ttd": "td",
             "tree-maxdeg": "maxdeg", "tree-longest-path": "longest-path"}[param]
        v, w = X.tree_param_exact(g, f, mx)
        out.update(value=v, witness=json.loads(w.to_json()))
    elif param == "twintw":
        v, pair = X.twintw_exact(g, mx)
        out["value"] = v
        if pair is not None:
            out["witness"] = [json.loads(t.to_json()) for t in pair]
    elif param == "twtw":
        v, w = X.twtw_exact(g, args.c, mx)
        out["value"] = v
        if w is not None:
            p1, p2, q1, q2 = w
            out["witness"] = {
                "parts1": [sorted(x) for x in p1.parts],
                "parts2": [sorted(x) for x in p2.parts],
                "quotient1": json.loads(q1.to_json()),
                "quotient2": json.loads(q2.to_json()),
            }
    else:
        raise InputError(f"unknown parameter {param!r}")
    run.report["outputs"] = out
    return run.finish()


# -- probe ----------------------------------------------------------------

def cmd_probe(args):
    run = Run(args)
    if args.kind != "mixing":
        raise InputError(f"unknown probe kind {args.kind!r}")
    if args.seed is None:
        raise InputError("probe mixing requires --seed")
    g = C.random_regular(args.n, args.d, args.seed)
    rep = X.expander_mixing_check(g, args.d, args.samples, args.seed)
    run.report["outputs"] = rep
    return run.finish(0 if rep["failures"] == 0 else 1)


# -- driver ---------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="prodstruct")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-n", dest="max_n", type=int, default=None)
        p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("gen")
    p.add_argument("family")
    p.add_argument("--params", default="")
    p.add_argument("--diagonals", default=None)
    common(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("product")
    p.add_argument("op", choices=["cartesian", "direct", "strong", "dstrong"])
    p.add_argument("a")
    p.add_argument("b")
    common(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("embed")
    p.add_argument("kind", choices=["join-product", "move-apex", "apex-partition",
                                    "partition-check", "degree-partition",
                                    "apex-fan", "glue-directed"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--v1", default="")
    p.add_argument("--include-apex", action="store_true")
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--ordering", default="")
    p.add_argument("--path-len", dest="path_len", type=int, default=1)
    p.add_argument("--a", dest="a", type=int, default=0)
    p.add_argument("--h", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("decomp")
    p.add_argument("kind", choices=["planar-lexbfs", "bfs-layering",
                                    "layering-path", "witness-bandwidth",
                                    "witness-partition", "bipartite-ortho",
                                    "bipartite-star", "glue-tree-f",
                                    "glue-ortho", "project-product"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--side", default="")
    common(p)
    p.set_defaults(fn=cmd_decomp)

    p = sub.add_parser("check")
    p.add_argument("kind", choices=["td", "pd", "ortho", "embedding",
                                    "triangulation"])
    p.add_argument("inputs", nargs="+")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("exact")
    p.add_argument("param", choices=["tw", "pw", "bw", "td", "ttw", "tpw",
                                     "tbw", "ttd", "tree-maxdeg",
                                     "tree-longest-path", "twintw", "twtw"])
    p.add_argument("graph")
    p.add_argument("--c", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("probe")
    p.add_argument("kind", choices=["mixing"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    common(p)
    p.set_defaults(fn=cmd_probe)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, GraphError, DecompositionError, EmbeddingError,
            EmbeddingInvalid, X.InstanceTooLarge, json.JSONDecodeError,
            TypeError, IndexError, KeyError) as ex:
        print(json.dumps({"error": f"{type(ex).__name__}: {ex}"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
