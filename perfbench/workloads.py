"""The four workloads: inputs made from the seed, and the CLI operations run
on them, each paired with its output check.

An operation is one `prodstruct` command line.  Its check receives the parsed
JSON report, re-checks every witness with the definition-first checkers of
check.py (reading the files the operation wrote), and returns the values
that are compared with the references frozen for DEFAULT_SEED.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import check as K
from check import G, need, read_json

DEFAULT_SEED = 0


@dataclass
class Op:
    key: str                  # unique within the workload; names the reference
    argv: list
    check: Callable           # report dict -> values compared with references
    probe: bool = False       # known-failing robustness probe: untimed
    instance: str = ""        # groups exact values for the inequality checks
    param: str = ""


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


# -- exact-large and exact-small --------------------------------------------

def _exact_check(path, param, c=1):
    def run(report):
        out = report["outputs"]
        v, w = out["value"], out.get("witness")
        need(out["param"] == param, "report names another parameter")
        g = G.load(path)
        if param == "tw":
            need(K.check_td_dict(g, w) == v, "tw witness width differs from the value")
        elif param == "pw":
            need(K.check_pd_dict(g, w) == v, "pw witness width differs from the value")
        elif param == "bw":
            K.check_permutation(w, g.n)
            need(K.ordering_span(g, w) == v, "bw ordering span differs from the value")
        elif param == "td":
            need(K.forest_depth(g, w) == v, "td forest depth differs from the value")
        elif param == "twintw":
            t1, t2 = w
            K.check_td_dict(g, t1)
            K.check_td_dict(g, t2)
            need(K.orthogonality(t1["bags"], t2["bags"]) == v,
                 "twintw witness orthogonality differs from the value")
        elif param == "twtw":
            p1, p2 = w["parts1"], w["parts2"]
            for parts, q in ((p1, w["quotient1"]), (p2, w["quotient2"])):
                K.check_partition(parts, g.n)
                K.same_graph(q, K.quotient(g, parts), "quotient")
            need(max(len(set(a) & set(b)) for a in p1 for b in p2) <= c,
                 "twtw parts meet in more than c vertices")
            need(max(K.small_treewidth(G.from_dict(w["quotient1"])),
                     K.small_treewidth(G.from_dict(w["quotient2"]))) == v,
                 "twtw quotient treewidths differ from the value")
        else:
            K.check_td_dict(g, w)
            bag_value = {"ttw": K.small_treewidth, "tree-maxdeg": K.max_degree,
                         "tree-longest-path": K.longest_path_order}.get(param)
            if bag_value is not None:
                need(max(bag_value(g.induced(b)) for b in w["bags"]) == v,
                     f"{param} witness bags do not attain the value")
        return {"value": v}
    return run


def _exact_ops(d, plan):
    ops = []
    for param, names in plan:
        for name in names:
            path = os.path.join(d, name + ".json")
            argv = ["exact", param, path] + (["--c", "1"] if param == "twtw" else [])
            ops.append(Op(f"{param} {name}", argv, _exact_check(path, param),
                          instance=name, param=param))
    return ops


def exact_large_graphs():
    import prodstruct.constructions as C
    # rr14_5, grid4x4 and rr16_7 are the graphs of benchmarks/bench_kernels.py
    # (same generator seeds); they run pw only, their tw takes 3-17 s each on
    # the pure kernels
    return {
        "rr13_4": C.random_regular(13, 4, 5),
        "rr12_3": C.random_regular(12, 3, 3),
        "cycle12": C.cycle(12),
        "grid3x4": C.grid2(3, 4),
        "rr14_5": C.random_regular(14, 5, 7),
        "grid4x4": C.grid2(4, 4),
        "rr16_7": C.random_regular(16, 7, 11),
        "hex4": C.hex_graph(4)[0],
    }


_DENSE_AND_LONG = ["rr13_4", "rr12_3", "cycle12", "grid3x4"]
EXACT_LARGE_PLAN = [
    ("tw", _DENSE_AND_LONG),
    ("pw", _DENSE_AND_LONG + ["rr14_5", "grid4x4", "rr16_7", "hex4"]),
]


def exact_small_graphs():
    import prodstruct.constructions as C
    return {
        "path10": C.path(10), "cycle10": C.cycle(10), "K6": C.complete(6),
        "star8": C.star(8), "cube": C.grid3(2, 2, 2), "hex3": C.hex_graph(3)[0],
        "pyramid3": C.pyramid(3), "windmill4": C.windmill(4), "flower3": C.flower(3),
        "v8": C.v8(), "K222": C.complete_multipartite([2, 2, 2]),
        "K233": C.complete_multipartite([2, 3, 3]),
        "separating1": C.separating_graph(1)[0],
        "rr10_3": C.random_regular(10, 3, 5),
        "stacked10": C.stacked_triangulation(10, 3).graph,
        "rr8_3": C.random_regular(8, 3, 5),
        "stacked7": C.stacked_triangulation(7, 3).graph,
        "cycle7": C.cycle(7), "path7": C.path(7), "cycle6": C.cycle(6),
        "grid2x4": C.grid2(2, 4),
    }


_WIDTH_FAMILIES = ["path10", "cycle10", "K6", "star8", "cube", "hex3", "pyramid3",
                   "windmill4", "flower3", "v8", "K222", "K233", "separating1",
                   "rr10_3", "stacked10"]
_TREE_F = ["v8", "rr8_3"]
EXACT_SMALL_PLAN = (
    [(p, _WIDTH_FAMILIES) for p in ("tw", "pw", "bw", "td")]
    + [(p, _TREE_F) for p in ("ttw", "tpw", "tbw", "ttd", "tree-maxdeg",
                              "tree-longest-path")]
    + [("twintw", ["K222", "cycle7", "stacked7"]),
       ("twtw", ["grid2x4", "path7", "K222", "cycle6"])]
)

# a <= b and a < b wherever one instance has both values
AT_MOST = [("tw", "pw"), ("pw", "bw"), ("ttw", "tpw"), ("tpw", "tbw")]
BELOW = [("tw", "td"), ("ttw", "ttd")]


def relation_failures(values):
    """Instances whose exact values break tw <= pw <= bw or tw < td."""
    bad = set()
    for (inst, param), v in values.items():
        for a, b in AT_MOST:
            if param == a and (inst, b) in values and not v <= values[(inst, b)]:
                bad.add(inst)
        for a, b in BELOW:
            if param == a and (inst, b) in values and not v < values[(inst, b)]:
                bad.add(inst)
    return bad


def relabel(g, seed):
    """g with its vertices renamed by a permutation drawn from `seed`."""
    from prodstruct.graphs import Graph
    from prodstruct.rng import SplitMix64
    perm = list(range(g.n))
    SplitMix64(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _setup_graphs(graphs):
    """Fixed graphs, relabelled by the seed (the identity at DEFAULT_SEED).

    Relabelling keeps every exact value and, up to bit-index arithmetic, the
    kernels' work, so seeds change the inputs but not the cost; the frozen
    values then hold at every seed.
    """
    def setup(d, seed):
        for i, (name, g) in enumerate(graphs().items()):
            if seed != DEFAULT_SEED:
                g = relabel(g, seed * 1_000_003 + i)
            _write(os.path.join(d, name + ".json"), g.to_json())
    return setup


# -- planar ------------------------------------------------------------------

PLANAR_SIZES = (250, 500, 1000)


def _planar_seed(seed, n):
    return seed * 7919 + n


def planar_setup(d, seed):
    """Nothing to make: `gen stacked` is the first timed operation."""


def planar_ops(d, seed):
    graphs = {}
    ops = []
    for n in PLANAR_SIZES:
        tri = os.path.join(d, f"tri{n}.json")
        gpath = os.path.join(d, f"g{n}.json")
        tdpath = os.path.join(d, f"td{n}.json")

        def gen(report, n=n, tri=tri, gpath=gpath):
            need(report["outputs"]["n"] == n, "gen stacked reports another n")
            g = K.check_triangulation(read_json(tri))
            need(g.n == n, "triangulation has another n")
            graphs[n] = g
            _write(gpath, g.to_json())        # input of `check td`, untimed
            return {"n": n, "sha256": K.file_sha256(tri)}

        def tri_ok(report, n=n):
            out = report["outputs"]
            need(out["ok"] is True and out["n"] == n, "triangulation check failed")
            return {"ok": True, "n": n}

        def decomp(report, n=n, tdpath=tdpath):
            out = report["outputs"]
            g = graphs[n]
            d_ = read_json(tdpath)
            width = K.check_td_dict(g, d_)
            K.check_permutation(out["order"], n)
            spans = K.bag_spans(g, d_["bags"], out["order"])
            need(spans == out["per_bag"], "per-bag spans differ from the order")
            need(max(spans) == out["max_span"] <= 3, "bag span exceeds 3")
            return {"width": width, "max_span": out["max_span"], "nodes": d_["nodes"]}

        def td_ok(report, n=n, tdpath=tdpath):
            out = report["outputs"]
            d_ = read_json(tdpath)
            width = max(len(b) for b in d_["bags"]) - 1
            adhesion, taut = K.adhesion_taut(graphs[n], d_["bags"], d_["tree_edges"])
            need(out["ok"] is True and out["width"] == width
                 and out["adhesion"] == adhesion and out["taut"] == taut, "check td disagrees")
            return {"ok": True, "width": width, "adhesion": adhesion, "taut": taut}

        ops += [
            Op(f"gen stacked {n}", ["gen", "stacked", "--params", str(n), "--seed",
                                    str(_planar_seed(seed, n)), "-o", tri], gen),
            Op(f"check triangulation {n}", ["check", "triangulation", tri], tri_ok),
            Op(f"decomp planar-lexbfs {n}", ["decomp", "planar-lexbfs", tri, "-o", tdpath],
               decomp),
            Op(f"check td {n}", ["check", "td", gpath, tdpath], td_ok),
        ]
    return ops


# -- product-glue ------------------------------------------------------------

GRID, CYCLE = (12, 12), 30
GLUE_SIZES = {"t150": 150, "o300": 300, "p1600": 1600}   # decomposition nodes
PROBE_NODES = 1500   # glue instances at least this big hit the recursion limit


def _single_bag(k):
    return {"host_n": k, "nodes": 1, "tree_edges": [], "bags": [list(range(k))]}


def stacked_graph(n, seed):
    """A random stacked triangulation as a plain graph, in insertion order:
    vertex x >= 3 is joined to the corners of a uniformly random inner face."""
    from prodstruct.rng import SplitMix64
    rng = SplitMix64(seed)
    edges, faces = [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]
    for x in range(3, n):
        i = rng.randrange(len(faces))
        faces[i], faces[-1] = faces[-1], faces[i]
        a, b, c = faces.pop()
        edges += [(a, x), (b, x), (c, x)]
        faces += [(a, b, x), (b, c, x), (a, c, x)]
    return G(n, edges)


def stacked_3tree(g):
    """Tree-decomposition of a stacked triangulation by insertion order.

    Node 0 holds the outer triangle {0, 1, 2}; vertex x >= 3 gets node x-2
    with bag {x} u (lower neighbours), hung below the node of its highest
    lower neighbour.  Every adhesion set is a triangle, so the decomposition
    is taut.
    """
    bags, edges = [[0, 1, 2]], []
    for x in range(3, g.n):
        lower = sorted(w for w in g.adj[x] if w < x)
        need(len(lower) == 3, "not a stacked triangulation in insertion order")
        bags.append([x] + lower)
        edges.append((max(lower) - 2 if max(lower) >= 3 else 0, x - 2))
    return {"host_n": g.n, "nodes": len(bags), "tree_edges": [list(e) for e in edges],
            "bags": [sorted(b) for b in bags]}


def _guest(a, b):
    """(A strong-product B) + K_1, the guest of `embed move-apex --p 1 --q 1`."""
    n = a.n * b.n
    return G(n + 1, list(K.strong_edges(a, b)) + [(v, n) for v in range(n)])


def glue_setup(d, seed):
    import prodstruct.constructions as C
    from prodstruct.graphs import bidirect
    a, b = C.grid2(*GRID), C.cycle(CYCLE)
    for name, g in (("a", a), ("b", b)):
        _write(os.path.join(d, name + ".json"), g.to_json())
        _write(os.path.join(d, "d" + name + ".json"), bidirect(g).to_json())
    # ids are row-major, so every window of one row plus one vertex holds
    # both ends of an edge; the apex a.n joins every bag
    width = GRID[1] + 1
    windows = [sorted(set(range(i, i + width)) | {a.n}) for i in range(a.n - width + 1)]
    _write(os.path.join(d, "fa_td.json"), json.dumps(
        {"host_n": a.n + 1, "nodes": len(windows), "bags": windows,
         "tree_edges": [[i, i + 1] for i in range(len(windows) - 1)]}))
    fan = [[0, i, i + 1, b.n] for i in range(1, b.n - 1)]
    _write(os.path.join(d, "fb_td.json"), json.dumps(
        {"host_n": b.n + 1, "nodes": len(fan), "bags": fan,
         "tree_edges": [[i, i + 1] for i in range(len(fan) - 1)]}))
    _write(os.path.join(d, "guest.json"),
           _guest(G.from_dict(json.loads(a.to_json())),
                  G.from_dict(json.loads(b.to_json()))).to_json())
    for i, (label, nodes) in enumerate(GLUE_SIZES.items()):
        g = stacked_graph(nodes + 2, seed * 7919 + 17 * i + 1)
        td = stacked_3tree(g)
        sizes = [len(bag) for bag in td["bags"]]
        _write(os.path.join(d, f"g_{label}.json"), g.to_json())
        _write(os.path.join(d, f"td_{label}.json"), json.dumps(td))
        _write(os.path.join(d, f"torso_{label}.json"),
               json.dumps([_single_bag(k) for k in sizes]))
        _write(os.path.join(d, f"pairs_{label}.json"), json.dumps(
            [[_single_bag(k), {"host_n": k, "bags": [list(range(k))]}] for k in sizes]))
        _write(os.path.join(d, f"emb_{label}.json"), json.dumps(
            [{"factors": [{"n": k, "arcs": [[u, v] for u in range(k) for v in range(u + 1, k)]},
                          {"n": 1, "arcs": []}],
              "c": None, "map": [[i, 0] for i in range(k)]} for k in sizes]))


def glue_ops(d, seed):
    p = lambda name: os.path.join(d, name)
    memo = {}

    def load(name):
        if name not in memo:
            memo[name] = G.load(p(name + ".json"))
        return memo[name]

    def product(kind, out_name):
        def run(report):
            out = G.load(p(out_name))
            K.check_graph_product(kind, load("a"), load("b"), out)
            return {"n": out.n, "m": len(out.edges)}
        return run

    def dstrong(report):
        out = read_json(p("ds.json"))
        K.check_directed_strong(read_json(p("da.json")), read_json(p("db.json")), out)
        return {"n": out["n"], "arcs": len(out["arcs"])}

    def embedding(out_name, guest, factors):
        def run(report):
            need(report["outputs"]["valid"] is True, "program reports an invalid embedding")
            g = guest()
            edges = K.check_embedding(g.n, g.edges, read_json(p(out_name)), factors())
            return {"guest_n": g.n, "guest_m": edges}
        return run

    def apex(g):
        return K.join(g, K.clique(1))

    half = list(range(GRID[1] * GRID[0] // 2))

    def degree_parts(report):
        parts = report["outputs"]["parts"]
        a = load("a")
        K.check_partition(parts, a.n)
        need(all(K.max_degree(a.induced(q)) <= 2 for q in parts),
             "a part induces degree above the threshold")
        return {"parts": [len(q) for q in parts]}

    def ok(report):
        need(report["outputs"]["ok"] is True, "program check failed")
        return {"ok": True}

    def project(report):
        g = load("guest")
        t1, t2 = read_json(p("proj.json.0")), read_json(p("proj.json.1"))
        w1, w2 = K.check_td_dict(g, t1), K.check_td_dict(g, t2)
        value = K.orthogonality(t1["bags"], t2["bags"])
        memo["ortho"] = value
        need(report["outputs"]["orthogonality"] == value, "orthogonality differs")
        return {"widths": [w1, w2], "orthogonality": value}

    def ortho(report):
        out = report["outputs"]
        need(out["ok"] is True and out["value"] == memo["ortho"], "check ortho disagrees")
        return {"ok": True, "value": out["value"]}

    def glue_ortho(label, out_name):
        def run(report):
            g = load("g_" + label)
            t, pd = read_json(p(out_name + ".0")), read_json(p(out_name + ".1"))
            w1, w2 = K.check_td_dict(g, t), K.check_pd_dict(g, pd)
            value = K.orthogonality(t["bags"], pd["bags"])
            need(report["outputs"]["orthogonality"] == value, "orthogonality differs")
            return {"widths": [w1, w2], "orthogonality": value}
        return run

    def glue_directed(label, out_name):
        def run(report):
            need(report["outputs"]["valid"] is True, "program reports an invalid embedding")
            emb = read_json(p(out_name))
            K.check_directed_embedding(load("g_" + label), emb)
            return {"factor_n": [f["n"] for f in emb["factors"]],
                    "factor_arcs": [len(f["arcs"]) for f in emb["factors"]]}
        return run

    def glue_tree_f(report):
        width = K.check_td_dict(load("g_t150"), read_json(p("gt.json")))
        return {"width": width}

    def checked_width(kind, label, out_name):
        def run(report):
            d_ = read_json(p(out_name))
            g = load("g_" + label)
            width = (K.check_td_dict if kind == "td" else K.check_pd_dict)(g, d_)
            need(report["outputs"]["ok"] is True and report["outputs"]["width"] == width,
                 f"check {kind} disagrees")
            return {"ok": True, "width": width}
        return run

    ab = [p("a.json"), p("b.json")]
    glue_in = lambda label, third: [p(f"g_{label}.json"), p(f"td_{label}.json"),
                                    p(f"{third}_{label}.json")]
    ops = [
        Op("product strong", ["product", "strong"] + ab + ["-o", p("s.json")],
           product("strong", "s.json")),
        Op("product cartesian", ["product", "cartesian"] + ab + ["-o", p("c.json")],
           product("cartesian", "c.json")),
        Op("product direct", ["product", "direct"] + ab + ["-o", p("x.json")],
           product("direct", "x.json")),
        Op("product dstrong", ["product", "dstrong", p("da.json"), p("db.json"),
                               "-o", p("ds.json")], dstrong),
        Op("embed move-apex", ["embed", "move-apex"] + ab + ["--p", "1", "--q", "1",
                                                           "-o", p("ma.json")],
           embedding("ma.json", lambda: load("guest"),
                     lambda: (apex(load("a")), apex(load("b"))))),
        Op("embed join-product", ["embed", "join-product"] + ab + ["--p", "2", "--q", "2",
                                                                 "-o", p("jp.json")],
           embedding("jp.json", lambda: K.join(K.join(load("a"), load("b")), K.clique(4)),
                     lambda: (K.join(load("a"), K.clique(2)), K.join(load("b"), K.clique(2))))),
        Op("embed apex-partition", ["embed", "apex-partition", p("a.json"),
                                    "--v1", ",".join(map(str, half)), "-o", p("ap.json")],
           embedding("ap.json", lambda: load("a"),
                     lambda: (apex(load("a").induced(half)),
                              apex(load("a").induced(set(range(load("a").n)) - set(half)))))),
        Op("embed degree-partition", ["embed", "degree-partition", p("a.json"),
                                      "--threshold", "2"], degree_parts),
        Op("check embedding", ["check", "embedding", p("guest.json"), p("ma.json")], ok),
        Op("decomp project-product", ["decomp", "project-product", p("guest.json"),
                                      p("ma.json"), p("fa_td.json"), p("fb_td.json"),
                                      "-o", p("proj.json")], project),
        Op("check ortho", ["check", "ortho", p("guest.json"), p("proj.json.0"),
                           p("proj.json.1")], ortho),
        Op("decomp glue-ortho 300", ["decomp", "glue-ortho"] + glue_in("o300", "pairs")
           + ["-o", p("go.json")], glue_ortho("o300", "go.json")),
        Op("check td glue-ortho 300", ["check", "td", p("g_o300.json"), p("go.json.0")],
           checked_width("td", "o300", "go.json.0")),
        Op("check pd glue-ortho 300", ["check", "pd", p("g_o300.json"), p("go.json.1")],
           checked_width("pd", "o300", "go.json.1")),
        Op("embed glue-directed 300", ["embed", "glue-directed"] + glue_in("o300", "emb")
           + ["--h", "3", "-o", p("gd.json")], glue_directed("o300", "gd.json")),
        Op("decomp glue-tree-f 150", ["decomp", "glue-tree-f"] + glue_in("t150", "torso")
           + ["-o", p("gt.json")], glue_tree_f),
        Op("check td glue-tree-f 150", ["check", "td", p("g_t150.json"), p("gt.json")],
           checked_width("td", "t150", "gt.json")),
        Op("probe glue-ortho 1600", ["decomp", "glue-ortho"] + glue_in("p1600", "pairs")
           + ["-o", p("gop.json")], glue_ortho("p1600", "gop.json"), probe=True),
        Op("probe glue-directed 1600", ["embed", "glue-directed"] + glue_in("p1600", "emb")
           + ["--h", "3", "-o", p("gdp.json")], glue_directed("p1600", "gdp.json"),
           probe=True),
    ]
    need(GLUE_SIZES["p1600"] >= PROBE_NODES, "probe instance below the probe size")
    return ops


@dataclass
class Workload:
    name: str
    setup: Callable           # (dir, seed) -> None: writes the inputs
    ops: Callable             # (dir, seed) -> [Op]
    seed_invariant: bool = False   # frozen values hold at every seed


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in [
    Workload("exact-large", _setup_graphs(exact_large_graphs),
             lambda d, seed: _exact_ops(d, EXACT_LARGE_PLAN), seed_invariant=True),
    Workload("exact-small", _setup_graphs(exact_small_graphs),
             lambda d, seed: _exact_ops(d, EXACT_SMALL_PLAN), seed_invariant=True),
    Workload("planar", planar_setup, planar_ops),
    Workload("product-glue", glue_setup, glue_ops),
]}
