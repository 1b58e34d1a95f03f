"""Plane triangulations via rotation systems, Lex-BFS trees, tree-cotree
duals, root-path bags, and the bandwidth-3 decomposition.

Face traversal convention: from directed edge (u, v) the next directed edge
is (v, w) where w precedes u in rotation[v].  With rotations listed
clockwise this traces every face once per incident directed edge.

The faces are computed once per triangulation, when it is built, and are
read as `pt.faces`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graphs import Graph, GraphError, bfs_layers
from .decomposition import PathDecomposition, TreeDecomposition, _require, bag_span


class EmbeddingInvalid(ValueError):
    pass


class PlaneTriangulation:
    __slots__ = ("graph", "rotation", "outer_face", "faces")

    def __init__(self, graph: Graph, rotation, outer_face):
        rotation = tuple(tuple(r) for r in rotation)
        if len(rotation) != graph.n:
            raise EmbeddingInvalid("rotation length mismatch")
        for v, rot in enumerate(rotation):
            if sorted(rot) != sorted(graph.adj[v]):
                raise EmbeddingInvalid(f"rotation at {v} inconsistent with adjacency")
        self.graph = graph
        self.rotation = rotation
        self.outer_face = tuple(outer_face)
        fs = faces(self)
        if not any(_same_cycle(f, self.outer_face) for f in fs):
            raise EmbeddingInvalid("outer_face is not a face of the traversal")
        self.faces = fs

    def to_json(self) -> str:
        return json.dumps({
            "n": self.graph.n,
            "rotation": [list(r) for r in self.rotation],
            "outer": list(self.outer_face),
        })

    @staticmethod
    def from_json(text: str):
        d = json.loads(text)
        edges = {(min(u, v), max(u, v)) for v, rot in enumerate(d["rotation"])
                 for u in rot}
        g = Graph(d["n"], edges)
        return PlaneTriangulation(g, d["rotation"], d["outer"])


def _same_cycle(a, b) -> bool:
    if len(a) != len(b):
        return False
    n = len(a)
    return any(tuple(a[(i + j) % n] for j in range(n)) == tuple(b) for i in range(n))


def faces(pt: PlaneTriangulation) -> list:
    """All faces as oriented triangles; errors on non-triangular faces.

    Each walk starts at the smallest directed edge not yet walked.
    """
    g = pt.graph
    succ = {}
    for v, rot in enumerate(pt.rotation):
        deg = len(rot)
        for i, u in enumerate(rot):
            # next directed edge after entering v from u
            succ[(u, v)] = (v, rot[(i - 1) % deg])
    unused = set(succ.keys())
    out = []
    for start in sorted(succ):
        if start not in unused:
            continue
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
    if g.n - g.m + len(out) != 2:
        raise EmbeddingInvalid("Euler formula violated")
    return sorted(out)


@dataclass
class LexBfsTree:
    root: int
    parent: list             # parent[v], -1 at the root
    layers: list             # layer orderings, layers[i] is ordered
    order: list              # global order: concatenation of the layers

    def root_path(self, v: int) -> list:
        path = [v]
        while self.parent[path[-1]] != -1:
            path.append(self.parent[path[-1]])
        return path


def lex_bfs(pt: PlaneTriangulation, r: int) -> LexBfsTree:
    """BFS tree with lexicographic layer orderings.

    The parent of v in layer i+1 is its earliest neighbour in the layer-i
    ordering; layer i+1 is sorted by (parent position, vertex id).
    """
    if r not in pt.outer_face:
        raise GraphError(f"root {r} not on the outer face {pt.outer_face}")
    g = pt.graph
    parent = [-1] * g.n
    layers = [[r]]
    for found in bfs_layers(g.adj, r)[1:]:
        prev = layers[-1]
        pos = {v: i for i, v in enumerate(prev)}
        ranked = sorted((min(pos[u] for u in g.adj[w] if u in pos), w) for w in found)
        for p, w in ranked:
            parent[w] = prev[p]
        layers.append([w for _, w in ranked])
    if sum(map(len, layers)) != g.n:
        raise GraphError("triangulation not connected")
    order = [v for layer in layers for v in layer]
    return LexBfsTree(r, parent, layers, order)


def cotree(pt: PlaneTriangulation, t: LexBfsTree):
    """Spanning tree of the dual using exactly the non-tree primal edges.

    Returns (face list, dual edge list as face-index pairs).  faces() checks
    Euler's formula and lex_bfs connectivity, so the embedding is spherical
    and tree-cotree duality makes the dual edges a tree.
    """
    fs = pt.faces
    face_of = {}
    for i, f in enumerate(fs):
        a, b, c = f
        for de in ((a, b), (b, c), (c, a)):
            face_of[de] = i
    tree_edges = {(min(v, t.parent[v]), max(v, t.parent[v]))
                  for v in range(pt.graph.n) if t.parent[v] != -1}
    dual = []
    for u, v in pt.graph.edges():
        if (u, v) in tree_edges:
            continue
        dual.append((face_of[(u, v)], face_of[(v, u)]))
    return fs, dual


def planar_bandwidth3_decomposition(pt: PlaneTriangulation, r=None):
    """Bags = union of the three root paths of each face's corners.

    Returns (decomposition indexed by the cotree, global order, report)
    where report = {"max_span": s, "per_bag": [...]}; s <= 3 always.
    """
    if r is None:
        r = min(pt.outer_face)
    t = lex_bfs(pt, r)
    fs, dual = cotree(pt, t)
    bags = []
    for f in fs:
        bag = set()
        for x in f:
            bag.update(t.root_path(x))
        bags.append(bag)
    td = TreeDecomposition(pt.graph.n, bags, dual)
    _require(pt.graph, td, "face decomposition invalid")
    pos = {v: i for i, v in enumerate(t.order)}
    per_bag = [bag_span(pt.graph, sorted(bag, key=pos.__getitem__)) for bag in td.bags]
    return td, t.order, {"max_span": max(per_bag), "per_bag": per_bag}


def v8_fixture():
    """The 8-cycle (1,2,3,4,1',2',3',4') with chords ii' and its 4-bag
    path-decomposition; vertex ids: 1..4 -> 0..3, 1'..4' -> 4..7.

    The per-bag orderings realize span <= 3 (the order the bags are written
    in does not; see each ordering below).
    """
    cyc = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)]
    chords = [(0, 4), (1, 5), (2, 6), (3, 7)]
    g = Graph(8, cyc + chords)
    bags = [
        {0, 1, 4, 3, 7},   # {1, 2, 1', 4, 4'}
        {1, 4, 5, 3, 7},   # {2, 1', 2', 4, 4'}
        {1, 2, 5, 3, 7},   # {2, 3, 2', 4, 4'}
        {2, 5, 6, 3, 7},   # {3, 2', 3', 4, 4'}
    ]
    pd = PathDecomposition(8, bags)
    orderings = [
        [1, 0, 4, 3, 7],   # (2, 1, 1', 4, 4')
        [1, 5, 4, 3, 7],   # (2, 2', 1', 4, 4')
        [5, 1, 2, 3, 7],   # (2', 2, 3, 4, 4')
        [5, 6, 2, 3, 7],   # (2', 3', 3, 4, 4')
    ]
    return g, pd, orderings
