"""The polynomial layer at scale, checked against simple quadratic oracles.

Each oracle below is the plain definition the fast code replaced: the face
walk that restarts at the smallest unused directed edge, the cotree read
from a dict keyed by directed-edge pairs, the bags as unions of three whole
root paths, the any-bag edge check, the leaf scan over every live node,
the neighbour scan over every tree edge, and the triangulation's graph built
from the set of all 2m rotation entries.  The fast code must give the same
faces, dual edges, bags, spans, errors, orders and neighbours, and the
planar pipeline and torso gluing must stay near-linear.
"""

import json
import random
import time
from types import SimpleNamespace

import networkx as nx
import pytest

from prodstruct.constructions import stacked_triangulation
from prodstruct.decomposition import (TreeDecomposition, _leaf_removal_order,
                                      glue_tree_f, validate)
from prodstruct.graphs import Graph
from prodstruct.planar import (EmbeddingInvalid, PlaneTriangulation, cotree, faces,
                               lex_bfs, planar_bandwidth3_decomposition)

from test_glue_deep import stacked_3tree
from test_planar import k4_triangulation


def walk_faces(pt) -> list:
    """Faces by repeated walks from the smallest unused directed edge."""
    succ = {}
    for v, rot in enumerate(pt.rotation):
        for i, u in enumerate(rot):
            succ[(u, v)] = (v, rot[(i - 1) % len(rot)])
    unused = set(succ)
    out = []
    while unused:
        start = min(unused)
        walk = [start]
        unused.discard(start)
        cur = succ[start]
        while cur != start:
            if cur not in unused:
                raise EmbeddingInvalid(f"face walk reuses edge {cur}: {walk}")
            walk.append(cur)
            unused.discard(cur)
            cur = succ[cur]
        if len(walk) != 3:
            raise EmbeddingInvalid(f"non-triangular face: {[e[0] for e in walk]}")
        out.append(tuple(e[0] for e in walk))
    if pt.graph.n - pt.graph.m + len(out) != 2:
        raise EmbeddingInvalid("Euler formula violated")
    return sorted(out)


def pair_dict_cotree(pt, t) -> list:
    """Dual edges from a dict keyed by directed-edge pairs and a set of tree edges."""
    face_of = {}
    for i, f in enumerate(pt.faces):
        a, b, c = f
        for de in ((a, b), (b, c), (c, a)):
            face_of[de] = i
    tree_edges = {(min(v, t.parent[v]), max(v, t.parent[v]))
                  for v in range(pt.graph.n) if t.parent[v] != -1}
    return [(face_of[(u, v)], face_of[(v, u)]) for u, v in pt.graph.edges()
            if (u, v) not in tree_edges]


def root_path(t, v) -> list:
    path = [v]
    while t.parent[path[-1]] != -1:
        path.append(t.parent[path[-1]])
    return path


def root_path_bags(pt, t) -> list:
    """Each face's bag as the union of its corners' whole root paths."""
    bags = []
    for f in pt.faces:
        bag = set()
        for x in f:
            bag.update(root_path(t, x))
        bags.append(bag)
    return bags


def pairwise_span(g, order) -> int:
    """Largest |i - j| over all pairs of order that are edges of g."""
    return max((j - i for i in range(len(order)) for j in range(i + 1, len(order))
                if g.has_edge(order[i], order[j])), default=0)


def relabeled(pt, seed):
    """pt with its vertex ids permuted at random."""
    n = pt.graph.n
    new = list(range(n))
    random.Random(seed).shuffle(new)
    rotation = [None] * n
    for v, rot in enumerate(pt.rotation):
        rotation[new[v]] = [new[u] for u in rot]
    g = Graph(n, [(new[u], new[v]) for u, v in pt.graph.edges()])
    return PlaneTriangulation(g, rotation, [new[v] for v in pt.outer_face])


PLANAR_CASES = [(4, None)] + [(n, seed) for n in (3, 4, 5, 10, 57, 250, 1000)
                              for seed in (0, 1, 2)]


def scan_neighbors(td, x) -> list:
    """Tree neighbours of node x by a scan over every tree edge."""
    return sorted([b for a, b in td.tree_edges if a == x]
                  + [a for a, b in td.tree_edges if b == x])


def scan_leaf_order(td):
    """Leaf-removal order by scanning every live node for the smallest leaf."""
    alive = set(range(td.nodes))
    deg = [0] * td.nodes
    adj = [set() for _ in range(td.nodes)]
    for x, y in td.tree_edges:
        adj[x].add(y)
        adj[y].add(x)
        deg[x] += 1
        deg[y] += 1
    order = []
    while len(alive) > 1:
        leaf = min(x for x in alive if deg[x] <= 1)
        nbr = min(adj[leaf] & alive)
        order.append((leaf, nbr))
        alive.discard(leaf)
        deg[nbr] -= 1
        adj[nbr].discard(leaf)
    return order, min(alive)


def test_faces_match_the_restarting_walk():
    for n in (3, 4, 10, 57, 250):
        for seed in (0, 1, 2):
            pt = stacked_triangulation(n, seed)
            assert faces(pt) == walk_faces(pt) == pt.faces


def test_faces_come_out_sorted_from_the_walk():
    """faces() does not sort: it takes the directed edges (u, v) in sorted
    order and lists each triangle once, as (u, v, w) from its least vertex."""
    for n in (3, 10, 57, 250):
        for seed in (0, 1, 2):
            for pt in (stacked_triangulation(n, seed),
                       relabeled(stacked_triangulation(n, seed), seed)):
                fs = faces(pt)
                assert fs == sorted(fs) == walk_faces(pt)
                assert all(f[0] == min(f) for f in fs)
                assert len(set(fs)) == len(fs)


@pytest.mark.parametrize("n,seed", PLANAR_CASES)
def test_cotree_bags_and_spans_match_the_oracles(n, seed):
    pt = k4_triangulation() if seed is None else stacked_triangulation(n, seed)
    t = lex_bfs(pt, min(pt.outer_face))
    fs, dual = cotree(pt, t)
    assert fs is pt.faces
    assert dual == pair_dict_cotree(pt, t)
    td, order, rep = planar_bandwidth3_decomposition(pt)
    bags = root_path_bags(pt, t)
    assert [set(b) for b in td.bags] == bags
    assert td.tree_edges == tuple(sorted((min(x, y), max(x, y)) for x, y in dual))
    assert order == t.order
    pos = {v: i for i, v in enumerate(order)}
    per_bag = [pairwise_span(pt.graph, sorted(b, key=pos.__getitem__)) for b in bags]
    assert rep == {"max_span": max(per_bag), "per_bag": per_bag}
    assert rep["max_span"] <= 3


def test_triangulation_errors_keep_their_type_and_text():
    pt = stacked_triangulation(10, 0)
    g, v = pt.graph, 4
    rot = pt.rotation[v]
    bad = {
        "repeated entry": list(rot) + [rot[0]],
        "repeated entry, same length": [rot[0], rot[0]] + list(rot[2:]),
        "missing neighbour": list(rot[1:]),
    }
    for what, r in bad.items():
        rotation = list(pt.rotation)
        rotation[v] = r
        with pytest.raises(EmbeddingInvalid) as err:
            PlaneTriangulation(g, rotation, (0, 1, 2))
        assert type(err.value) is EmbeddingInvalid, what
        assert str(err.value) == f"rotation at {v} inconsistent with adjacency", what
    for outer in [(2, 1, 0), (1, 0, 2), (0, 2, 1), (0, 1), (0, 1, 2, 0), (0, 0, 1),
                  (0, 1, "x"), (0, 1, [2]), ()]:
        with pytest.raises(EmbeddingInvalid) as err:
            PlaneTriangulation(g, pt.rotation, outer)
        assert type(err.value) is EmbeddingInvalid, outer
        assert str(err.value) == "outer_face is not a face of the traversal", outer
    for outer in [(0, 1, 2), (1, 2, 0), (2, 0, 1), [2, 0, 1]]:
        assert PlaneTriangulation(g, pt.rotation, outer).outer_face == tuple(outer)


def test_corrupted_rotation_gives_the_same_error():
    for n in (5, 10, 57):
        for seed in (0, 1, 2):
            pt = stacked_triangulation(n, seed)
            for v in range(n):
                rot = [list(r) for r in pt.rotation]
                rot[v][0], rot[v][1] = rot[v][1], rot[v][0]
                bad = SimpleNamespace(graph=pt.graph, rotation=rot)
                with pytest.raises(EmbeddingInvalid) as fast:
                    faces(bad)
                with pytest.raises(EmbeddingInvalid) as slow:
                    walk_faces(bad)
                assert str(fast.value) == str(slow.value)


def face_outcome(find, rs):
    try:
        return find(rs)
    except EmbeddingInvalid as ex:
        return str(ex)


def random_rotation_systems(rng):
    """Rotation systems on 3 to 8 vertices: random graphs with every rotation
    shuffled, and stacked triangulations with one rotation shuffled."""
    for n in range(3, 9):
        for _ in range(300):
            g = Graph(n, [(u, v) for v in range(n) for u in range(v)
                          if rng.random() < 0.6])
            rotation = [rng.sample(sorted(nbrs), len(nbrs)) for nbrs in g.adj]
            yield SimpleNamespace(graph=g, rotation=rotation)
        for seed in range(100):
            pt = stacked_triangulation(n, seed)
            rotation = [list(r) for r in pt.rotation]
            v = rng.randrange(n)
            rng.shuffle(rotation[v])
            yield SimpleNamespace(graph=pt.graph, rotation=rotation)


def test_faces_match_the_walk_on_random_rotation_systems():
    """Each edge's triangle test needs both of its conditions: the faces,
    or the exact error text, are those of the restarting walk."""
    rng = random.Random(7)
    outcomes = set()
    for rs in random_rotation_systems(rng):
        got = face_outcome(faces, rs)
        assert got == face_outcome(walk_faces, rs), rs.rotation
        outcomes.add(got.split(":")[0] if isinstance(got, str) else "ok")
    assert outcomes == {"ok", "non-triangular face", "Euler formula violated"}


def all_entries_from_json(text):
    d = json.loads(text)
    edges = {(min(u, v), max(u, v)) for v, rot in enumerate(d["rotation"]) for u in rot}
    return PlaneTriangulation(Graph(d["n"], edges), d["rotation"], d["outer"])


def outcome(parse, text):
    try:
        return "ok", parse(text).to_json()
    except (ValueError, TypeError, KeyError) as ex:
        return type(ex).__name__, str(ex)


def corrupted_triangulations(rng, d):
    """One fault each: an entry dropped, replaced (by a self-loop, another
    vertex, one out of range or another type) or moved, a key or a row
    dropped, a row added, n off by one."""
    n, rot = d["n"], d["rotation"]
    v = rng.randrange(n)
    i = rng.randrange(len(rot[v]))
    for what, entry in [("drop", []), ("self", [v]), ("other", [rng.randrange(n)]),
                        ("negative", [-1]), ("past n", [n]), ("float", [rot[v][i] + 0.5]),
                        ("integral float", [float(rot[v][i])]), ("text", [str(rot[v][i])]),
                        ("null", [None]), ("false", [False])]:
        r = json.loads(json.dumps(d))
        r["rotation"][v][i:i + 1] = entry
        yield what, r
    r = json.loads(json.dumps(d))
    r["rotation"][rng.randrange(n)].append(r["rotation"][v].pop(i))
    yield "moved", r
    for key in ("n", "rotation", "outer"):
        yield f"no {key}", {k: x for k, x in d.items() if k != key}
    yield "row dropped", {**d, "rotation": rot[:v] + rot[v + 1:]}
    yield "row added", {**d, "rotation": rot + [[rng.randrange(n + 1)]]}
    yield "n - 1", {**d, "n": n - 1}
    yield "n + 1", {**d, "n": n + 1}


# corruptions whose entry is no int: from_json refuses them before any graph
# is built, also the float 1.0 and the boolean False that the graph of all
# entries would take for 1 and 0
NON_INTEGER = ("float", "integral float", "text", "null", "false")


def test_triangulation_files_raise_as_the_graph_of_all_entries_does():
    # from_rotation reads each edge from its lower end only; a file whose
    # entries do not mirror must still be refused as before, word for word
    rng = random.Random(5)
    for n in (3, 4, 5, 8, 13):
        for seed in range(6):
            pt = stacked_triangulation(n, seed)
            assert pt.graph == all_entries_from_json(pt.to_json()).graph
            d = json.loads(pt.to_json())
            for what, bad in [("intact", d), *corrupted_triangulations(rng, d)]:
                text = json.dumps(bad)
                want = (("GraphError", "n, rotation and outer entries must be integers")
                        if what in NON_INTEGER else outcome(all_entries_from_json, text))
                assert outcome(PlaneTriangulation.from_json, text) == want, (what, text)


def test_validate_edge_errors_match_any_bag_oracle():
    rng = random.Random(3)
    uncovered = 0
    for n in (10, 57, 250):
        pt = stacked_triangulation(n, n)
        bw3, _, _ = planar_bandwidth3_decomposition(pt)
        for g, td in ((pt.graph, bw3), stacked_3tree(n, n)):
            for _ in range(3):
                bags = list(td.bags)
                for x in rng.sample(range(len(bags)), len(bags) // 3):
                    bags[x] = frozenset()
                broken = TreeDecomposition(td.host_n, bags, td.tree_edges)
                oracle = [f"edge ({u},{v}) in no bag" for u, v in g.edges()
                          if not any(u in b and v in b for b in bags)]
                errors = validate(g, broken).errors
                assert [e for e in errors if e.startswith("edge ")] == oracle
                uncovered += len(oracle)
    assert uncovered


def test_leaf_removal_order_matches_the_scan():
    rng = random.Random(5)
    for n in list(range(1, 40)) + [200, 1000]:
        ids = list(range(n))
        rng.shuffle(ids)
        edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
        td = TreeDecomposition(n, [{x} for x in range(n)], edges)
        assert _leaf_removal_order(td) == scan_leaf_order(td)
        assert all(td.neighbors(x) == scan_neighbors(td, x) for x in range(n))


@pytest.mark.parametrize("n", [3, 4, 5, 20, 200, 1000])
def test_faces_agree_with_networkx(n):
    for seed in (0, 1, 2):
        pt = stacked_triangulation(n, seed)
        g = nx.Graph(pt.graph.edges())
        g.add_nodes_from(range(n))
        assert nx.check_planarity(g)[0]
        emb = nx.PlanarEmbedding()
        emb.set_data({v: list(rot) for v, rot in enumerate(pt.rotation)})
        emb.check_structure()
        seen, nx_faces = set(), []
        for u, v in emb.edges():
            if (u, v) not in seen:
                nx_faces.append(frozenset(emb.traverse_face(u, v, mark_half_edges=seen)))
        assert len(nx_faces) == 2 * n - 4
        assert sorted(map(sorted, nx_faces)) == sorted(map(sorted, faces(pt)))


def test_planar_pipeline_at_ten_thousand_vertices():
    start = time.perf_counter()
    pt = stacked_triangulation(10_000, 1)
    td, order, rep = planar_bandwidth3_decomposition(pt)
    assert validate(pt.graph, td).ok
    assert rep["max_span"] <= 3 and len(order) == 10_000
    assert time.perf_counter() - start < 20


def test_planar_pipeline_grows_near_linearly():
    """Generate, decompose and validate at 10^3 and 10^4 vertices, best of 3.

    Bags are three root paths, so the output grows as n log n: the ratio is
    about 15, where one quadratic step would make it about 100.
    """
    def pipeline(n):
        start = time.perf_counter()
        pt = stacked_triangulation(n, 1)
        td, _, _ = planar_bandwidth3_decomposition(pt)
        assert validate(pt.graph, td).ok
        return time.perf_counter() - start

    small = large = float("inf")
    for _ in range(3):
        small = min(small, pipeline(1000))
        large = min(large, pipeline(10_000))
    assert large / small <= 25


def test_glue_tree_f_at_1600_nodes():
    g, td = stacked_3tree(1602, 1600)
    pieces = {x: TreeDecomposition(len(b), [range(len(b))], [])
              for x, b in enumerate(td.bags)}
    start = time.perf_counter()
    glued = glue_tree_f(g, td, pieces)
    assert time.perf_counter() - start < 10
    assert glued.nodes == 1600 and validate(g, glued).ok


def test_glue_tree_f_at_ten_thousand_nodes_hashes_no_graph(monkeypatch):
    """torso checks only what it reads, so nothing is looked up by graph."""
    g, td = stacked_3tree(10_002, 10_000)
    pieces = {x: TreeDecomposition(len(b), [range(len(b))], [])
              for x, b in enumerate(td.bags)}
    hashes = []
    real = Graph.__hash__
    monkeypatch.setattr(Graph, "__hash__", lambda self: hashes.append(1) or real(self))
    start = time.perf_counter()
    glued = glue_tree_f(g, td, pieces)
    assert time.perf_counter() - start < 3
    assert len(hashes) == 0
    assert glued.nodes == 10_000 and validate(g, glued).ok
