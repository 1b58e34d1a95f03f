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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

from .graphs import Graph, GraphError, bfs_layers
from .decomposition import PathDecomposition, TreeDecomposition, _require, bag_span


class EmbeddingInvalid(ValueError):
    pass


class PlaneTriangulation:
    __slots__ = ("graph", "rotation", "outer_face", "faces")

    def __init__(self, graph: Graph, rotation, outer_face):
        rotation = tuple(tuple(r) for r in rotation)
        _require_int_ids(graph.n, *rotation)
        if len(rotation) != graph.n:
            raise EmbeddingInvalid("rotation length mismatch")
        self.graph = graph
        self.rotation = rotation
        self.outer_face = tuple(outer_face)
        fs = faces(self)
        if not _is_face(fs, self.outer_face):
            raise EmbeddingInvalid("outer_face is not a face of the traversal")
        self.faces = fs

    def to_json(self) -> str:
        return json.dumps({
            "n": self.graph.n,
            "rotation": [list(r) for r in self.rotation],
            "outer": list(self.outer_face),
        })

    @staticmethod
    def from_rotation(n: int, rotation, outer_face):
        """The triangulation of a rotation system, its graph read in one pass
        over the entries: each edge from its lower end, u >= v, so that a
        self-loop entry still reaches Graph and is refused there."""
        g = Graph(n, [(v, u) for v, rot in enumerate(rotation) for u in rot if u >= v])
        return PlaneTriangulation(g, rotation, outer_face)

    @staticmethod
    def from_json(text: str):
        d = json.loads(text)
        try:
            return PlaneTriangulation.from_rotation(d["n"], d["rotation"], d["outer"])
        except (ValueError, TypeError, KeyError):
            # A malformed file.  An entry that is no int may break the graph
            # before the constructor's check, so check it first.
            # from_rotation drops an entry u < v whose mirror v is missing
            # from rotation[u], so it may refuse the file at another vertex;
            # raise what the graph of all 2m entries does.
            _require_int_ids(d["n"], d["outer"], *d["rotation"])
            edges = {(min(u, v), max(u, v)) for v, rot in enumerate(d["rotation"])
                     for u in rot}
            return PlaneTriangulation(Graph(d["n"], edges), d["rotation"], d["outer"])


def _require_int_ids(n, *rows):
    """Refuse an n or a row entry that is no int: 1.0 == 1 and True == 1
    would pass the rotation and face checks."""
    if {type(n), *map(type, chain(*rows))} != {int}:
        raise GraphError("n, rotation and outer entries must be integers")


def _is_face(fs, cycle) -> bool:
    """Whether cycle is a cyclic rotation of a face in fs, the sorted output
    of faces(): one lookup of the rotation that starts at its least vertex.
    A cycle with an entry that is no int is no face."""
    if len(cycle) != 3 or not all(type(x) is int for x in cycle):
        return False
    i = cycle.index(min(cycle))
    key = cycle[i:] + cycle[:i]
    j = bisect_left(fs, key)
    return j < len(fs) and fs[j] == key


def faces(pt: PlaneTriangulation) -> list:
    """All faces as oriented triangles, sorted; errors on a rotation that
    does not list each neighbour once and on non-triangular faces.

    Once each rotation lists each neighbour once, the face step is a
    permutation of the directed edges, so each edge (u, v) is tested alone:
    three steps bring it back iff its face is a triangle, listed once as
    (u, v, w) from its least vertex u, so in sorted order.  The first edge
    that fails is the smallest edge of the first bad face, which is walked
    only to name it.
    """
    g = pt.graph
    rotation = pt.rotation
    at = []     # at[v][u]: u's index in rotation[v]
    for v, (rot, nbrs) in enumerate(zip(rotation, g.adj)):
        at_v = {u: i for i, u in enumerate(rot)}
        if len(at_v) != len(rot) or at_v.keys() != nbrs:
            raise EmbeddingInvalid(f"rotation at {v} inconsistent with adjacency")
        at.append(at_v)
    out = []
    for u, rot in enumerate(rotation):
        for v in sorted(rot):
            w = rotation[v][at[v][u] - 1]
            if rotation[w][at[w][v] - 1] != u or rotation[u][at[u][w] - 1] != v:
                tails, x, y = [u], v, w
                while x != u or y != v:
                    tails.append(x)
                    x, y = y, rotation[y][at[y][x] - 1]
                raise EmbeddingInvalid(f"non-triangular face: {tails}")
            if u < v and u < w:
                out.append((u, v, w))
    if g.n - g.m + len(out) != 2:
        raise EmbeddingInvalid("Euler formula violated")
    return out


@dataclass
class LexBfsTree:
    root: int
    parent: list             # parent[v], -1 at the root
    layers: list             # layer orderings, layers[i] is ordered
    order: list              # global order: concatenation of the layers


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
    n = pt.graph.n
    face_of = {}
    for i, (a, b, c) in enumerate(fs):
        face_of[a * n + b] = face_of[b * n + c] = face_of[c * n + a] = i
    parent = t.parent
    dual = [(face_of[u * n + v], face_of[v * n + u]) for u, v in pt.graph.edges()
            if parent[u] != v and parent[v] != u]
    return fs, dual


def planar_bandwidth3_decomposition(pt: PlaneTriangulation, r=None):
    """Bags = union of the three root paths of each face's corners, each
    climbed from its corner until it meets the bag, so in O(|bag|).

    Returns (decomposition indexed by the cotree, global order, report)
    where report = {"max_span": s, "per_bag": [...]}; s <= 3 always.
    """
    if r is None:
        r = min(pt.outer_face)
    t = lex_bfs(pt, r)
    fs, dual = cotree(pt, t)
    parent = t.parent
    bags = []
    for f in fs:
        bag = set()
        for x in f:
            # a root path is closed upwards: stop where it meets the bag
            while x != -1 and x not in bag:
                bag.add(x)
                x = parent[x]
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
