"""Tree- and path-decompositions: values, validation, algebra, gluing.

Empty bags are permitted (projection pullbacks need them); the validators
treat them as trivially satisfying the axioms.  Path-decompositions are
finite sequences; constructions that conceptually index bags by the whole of
Z are realized with explicit finite offset arithmetic.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, repeat

from .graphs import Graph, VertexPartition, bfs_layers


class DecompositionError(ValueError):
    pass


def _tree_ok(nodes: int, edges):
    """The adjacency lists of the tree on 0..nodes-1 with these edges, or None."""
    if nodes == 0 or len(edges) != nodes - 1:
        return None
    adj = [[] for _ in range(nodes)]
    for x, y in edges:
        if not (0 <= x < nodes and 0 <= y < nodes) or x == y:
            return None
        adj[x].append(y)
        adj[y].append(x)
    return adj if sum(map(len, bfs_layers(adj, 0))) == nodes else None


def _host_and_bags(d: dict):
    """host_n and bags read from JSON, which must be integers: validate
    compares them with the graph's n and vertex range and indexes by them."""
    if type(d["host_n"]) is not int:
        raise DecompositionError("host_n must be an integer")
    if not all(type(v) is int for b in d["bags"] for v in b):
        raise DecompositionError("bag members must be integers")
    return d["host_n"], d["bags"]


class TreeDecomposition:
    __slots__ = ("host_n", "bags", "tree_edges", "_adj")

    def __init__(self, host_n: int, bags, tree_edges):
        self.host_n = host_n
        self.bags = tuple(frozenset(b) for b in bags)
        self.tree_edges = tuple(sorted((min(x, y), max(x, y)) for x, y in tree_edges))
        # tree_edges are sorted (min, max) pairs, so each adjacency list comes
        # out ascending: first the smaller neighbours, then the larger ones
        self._adj = _tree_ok(len(self.bags), self.tree_edges)
        if self._adj is None:
            raise DecompositionError("indexing graph is not a tree")

    @property
    def nodes(self) -> int:
        return len(self.bags)

    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def adhesion(self) -> int:
        return max((len(self.bags[x] & self.bags[y]) for x, y in self.tree_edges),
                   default=0)

    def neighbors(self, x: int) -> list:
        return list(self._adj[x])

    def to_json(self) -> str:
        return json.dumps({
            "host_n": self.host_n,
            "nodes": self.nodes,
            "tree_edges": [list(e) for e in self.tree_edges],
            "bags": [sorted(b) for b in self.bags],
        })

    @staticmethod
    def from_json(text: str) -> "TreeDecomposition":
        return TreeDecomposition.from_data(json.loads(text))

    @staticmethod
    def from_data(d) -> "TreeDecomposition":
        """The decomposition in parsed JSON data, checked as from_json checks it."""
        edges = [tuple(e) for e in d["tree_edges"]]
        # True == 1 and 2.0 == 2 would pass the tree and node-count checks
        if type(d["nodes"]) is not int or not all(type(x) is int for e in edges for x in e):
            raise DecompositionError("nodes and tree-edge endpoints must be integers")
        td = TreeDecomposition(*_host_and_bags(d), edges)
        if td.nodes != d["nodes"]:
            raise DecompositionError("node count mismatch")
        return td


class PathDecomposition(TreeDecomposition):
    """A tree-decomposition whose tree is the path 0 - 1 - ... - (nodes-1).

    Its JSON form has no tree_edges: the bag order gives them.
    """
    __slots__ = ()

    def __init__(self, host_n: int, bags):
        bags = tuple(bags)
        if not bags:
            raise DecompositionError("empty path-decomposition")
        super().__init__(host_n, bags, [(i, i + 1) for i in range(len(bags) - 1)])

    def to_json(self) -> str:
        return json.dumps({
            "host_n": self.host_n,
            "bags": [sorted(b) for b in self.bags],
        })

    @staticmethod
    def from_json(text: str) -> "PathDecomposition":
        return PathDecomposition.from_data(json.loads(text))

    @staticmethod
    def from_data(d) -> "PathDecomposition":
        return PathDecomposition(*_host_and_bags(d))


@dataclass
class ValidationReport:
    ok: bool
    errors: list
    width: int
    adhesion: int
    taut: bool


def validate(g: Graph, td) -> ValidationReport:
    """Check the three decomposition axioms; report width/adhesion/tautness.

    The tree is rooted at node 0, and a top of v is a node holding v whose
    parent does not: x is a top of the members of B_x - B_parent(x).  The
    node set of v is connected iff v has exactly one top.  Two subtrees meet
    iff one holds the other's top (Gavril 1974), so an edge uv between
    vertices with connected node sets is in a bag iff v is in B_top(u) or u
    is in B_top(v).  That rule needs one top at each end, so the edges at a
    vertex in no bag or with a split node set are tested on node sets.  An
    adhesion set with a member outside g is not taut.
    """
    errors = []
    if td.host_n != g.n:
        errors.append(f"host mismatch: decomposition host_n={td.host_n}, graph n={g.n}")
        return ValidationReport(False, errors, -1, -1, False)

    n, bags, adj, tree = g.n, td.bags, g.adj, td._adj
    vertices = set(range(n))
    # bfs_layers lists the children of each node together, in the order of
    # the nodes: a node with d tree neighbours has d - 1 children, the root d.
    # Each tree edge joins a node to its parent, so it is read once
    order = list(chain.from_iterable(bfs_layers(tree, 0)))
    parents = chain.from_iterable(repeat(x, len(tree[x]) - (x != 0)) for x in order)
    top, split = dict.fromkeys(bags[0], 0), set()
    adhesion, taut = 0, True
    for x, p in zip(order[1:], parents):
        new = bags[x] - bags[p]
        adhesion = max(adhesion, len(bags[x]) - len(new))
        if taut:
            adh = bags[x] - new
            taut = adh <= vertices and g.is_clique(adh)
        for v in new:
            if v in top:
                split.add(v)
            top[v] = x

    outside = top.keys() - vertices
    if outside:
        errors += [f"bag {x} mentions out-of-range vertex {v}"
                   for x, bag in enumerate(bags) for v in bag if v in outside]
    missing = vertices - top.keys()
    errors += [f"vertex {v} in no bag" for v in sorted(missing)]

    split &= vertices
    bad = missing | split
    uncovered = {(u, v) for u in range(n) if u not in bad
                 for v in adj[u] - bags[top[u]]
                 if u < v and v not in bad and u not in bags[top[v]]}
    if bad:
        # node sets for the vertices at the edges that the top rule skipped
        near = bad.union(*(adj[u] for u in bad))
        nodes_of = {v: set() for v in near}
        for x, bag in enumerate(bags):
            for v in bag & near:
                nodes_of[v].add(x)
        uncovered.update((u, v) if u < v else (v, u) for u in bad for v in adj[u]
                         if nodes_of[u].isdisjoint(nodes_of[v]))
    errors += [f"edge ({u},{v}) in no bag" for u, v in sorted(uncovered)]
    errors += [f"vertex {v} has a disconnected node set" for v in sorted(split)]
    return ValidationReport(not errors, errors, td.width(), adhesion, taut)


def _require(g: Graph, td, what: str) -> ValidationReport:
    """validate(g, td), raising with `what` and the first errors unless ok."""
    rep = validate(g, td)
    if not rep.ok:
        raise DecompositionError(f"{what}: {rep.errors[:3]}")
    return rep


def torso(g: Graph, td: TreeDecomposition, x: int) -> Graph:
    """g[B_x] plus a clique on each adhesion set at x, relabeled by sorted bag.

    It checks only what it reads: td.host_n == g.n and B_x within g's
    vertices, raising DecompositionError otherwise.  The rest of td is not
    validated; glue_tree_f validates td once, before it asks for any torso.
    """
    if td.host_n != g.n:
        raise DecompositionError(f"host mismatch: decomposition host_n={td.host_n}, graph n={g.n}")
    bag = sorted(td.bags[x])
    if bag and not (0 <= bag[0] and bag[-1] < g.n):
        raise DecompositionError(f"bag {x} has a vertex out of range for n={g.n}")
    index = {v: i for i, v in enumerate(bag)}
    edges = set()
    for u in bag:
        for v in g.adj[u]:
            if v in index and u < v:
                edges.add((index[u], index[v]))
    for y in td.neighbors(x):
        adh = sorted(td.bags[x] & td.bags[y])
        for i in range(len(adh)):
            for j in range(i + 1, len(adh)):
                edges.add((index[adh[i]], index[adh[j]]))
    return Graph(len(bag), edges)


def orthogonality(td1, td2) -> int:
    """Max over bag pairs of the intersection size.

    td1's bags are listed per vertex, and each bag of td2 counts how many of
    its members every bag of td1 holds: the work is the number of (vertex,
    td1 bag, td2 bag) incidences, not the bag pairs times their sizes.
    """
    if td1.host_n != td2.host_n:
        raise DecompositionError("host mismatch")
    at = defaultdict(list)
    for x, bag in enumerate(td1.bags):
        for v in bag:
            at[v].append(x)
    # the td1 bags of each member of b, counted at C level
    return max(max(Counter(chain.from_iterable(map(at.get, b, repeat(())))).values(),
                   default=0) for b in td2.bags)


def project_product_decomposition(e, td_h1: TreeDecomposition, td_h2: TreeDecomposition):
    """Pull factor decompositions back through a product embedding.

    A'_x = {v : e(v) has first coordinate in A_x} and symmetrically for the
    second factor.  Empty bags are kept so the tree shapes survive; the pair
    is at most (w1+1)(w2+1)*c orthogonal.
    """
    from .products import _checked
    _checked(e)
    for h, td in zip(e.factors, (td_h1, td_h2)):
        _require(h, td, "invalid factor decomposition")
    out1, out2 = (TreeDecomposition(e.guest.n, _pull_back(e, i, td), td.tree_edges)
                  for i, td in enumerate((td_h1, td_h2)))
    for out in (out1, out2):
        _require(e.guest, out, "pullback invalid")
    return out1, out2


def _pull_back(e, i: int, td: TreeDecomposition) -> list:
    """The bags {v : e(v)[i] in A_x}, through one guest list per factor vertex."""
    guests_at = [[] for _ in range(e.factors[i].n)]
    for v, t in enumerate(e.map):
        guests_at[t[i]].append(v)
    return [frozenset(chain.from_iterable(guests_at[a] for a in bag)) for bag in td.bags]


# -- layerings -----------------------------------------------------------

class Layering:
    __slots__ = ("host_n", "layers")

    def __init__(self, host_n: int, layers):
        layers = tuple(frozenset(l) for l in layers)
        seen = set()
        for l in layers:
            if l & seen:
                raise DecompositionError("layers overlap")
            seen |= l
        # 1.0 == 1 and True == 1 would pass the cover check
        if not all(type(v) is int for v in seen):
            raise DecompositionError("layer members must be integers")
        if seen != set(range(host_n)):
            raise DecompositionError("layers do not cover the host")
        # empty layers allowed at the tail only
        nonempty = [i for i, l in enumerate(layers) if l]
        if nonempty and nonempty != list(range(nonempty[-1] + 1)):
            raise DecompositionError("empty layer before a non-empty one")
        self.host_n = host_n
        self.layers = layers

    def layer_of(self) -> dict:
        return {v: i for i, l in enumerate(self.layers) for v in l}

    def to_json(self) -> str:
        return json.dumps({"layers": [sorted(l) for l in self.layers]})

    @staticmethod
    def from_json(text: str) -> "Layering":
        layers = json.loads(text)["layers"]
        return Layering(sum(len(l) for l in layers), layers)


def check_layering(g: Graph, l: Layering) -> bool:
    if l.host_n != g.n:
        return False
    idx = l.layer_of()
    return all(abs(idx[u] - idx[v]) <= 1 for u, v in g.edges())


@dataclass(frozen=True)
class LayeredWitness:
    """A layering and a tree-decomposition of one graph, both checked against
    it on construction.  k, the most vertices any bag shares with any layer,
    is read off them (0 for the empty graph)."""
    graph: Graph
    layering: Layering
    decomposition: TreeDecomposition

    def __post_init__(self):
        if not check_layering(self.graph, self.layering):
            raise DecompositionError("not a layering of g")
        _require(self.graph, self.decomposition, "invalid decomposition")

    @property
    def k(self) -> int:
        return max((len(l & b) for l in self.layering.layers
                    for b in self.decomposition.bags), default=0)


def bfs_layering(g: Graph, r: int) -> Layering:
    if not 0 <= r < g.n:
        raise DecompositionError(f"root {r} out of range for n={g.n}")
    layers = bfs_layers(g.adj, r)
    if sum(map(len, layers)) != g.n:
        missing = min(set(range(g.n)).difference(*layers))
        raise DecompositionError(f"graph disconnected: vertex {missing} unreached")
    return Layering(g.n, layers)


def layering_to_path_decomposition(l: Layering) -> PathDecomposition:
    """Bags L_i u L_{i+1} over the non-empty layers, or one bag holding them
    all when there are fewer than two (an empty bag for the empty graph)."""
    layers = [x for x in l.layers if x]
    bags = [layers[i] | layers[i + 1] for i in range(len(layers) - 1)]
    return PathDecomposition(l.host_n, bags or [frozenset().union(*layers)])


def bag_span(g: Graph, order) -> int:
    """The largest |i - j| over edges of g between order[i] and order[j], or 0:
    the bandwidth of the subgraph that order induces, under that order.
    Each edge is read once, from its earlier end, as pos[w] - i > 0."""
    pos = {v: i for i, v in enumerate(order)}
    later = set(pos)
    span = 0
    for i, v in enumerate(order):
        later.discard(v)
        for w in g.adj[v] & later:
            if pos[w] - i > span:
                span = pos[w] - i
    return span


def witness_to_bandwidth_decomposition(w: LayeredWitness):
    """(orderings, max_span): the bags of w's decomposition ordered by (layer,
    id), each of span at most 2k-1, and the largest span."""
    idx = w.layering.layer_of()
    orderings = [sorted(bag, key=lambda v: (idx[v], v)) for bag in w.decomposition.bags]
    max_span = max(bag_span(w.graph, order) for order in orderings)
    k = w.k
    if max_span > 2 * k - 1 and k > 0:
        raise DecompositionError(
            f"span {max_span} exceeds 2k-1={2 * k - 1}; witness malformed")
    return orderings, max_span


def witness_to_partition(w: LayeredWitness):
    """Split into odd layers X vs even layers Y.

    Each part induces a disjoint union of per-layer subgraphs, so a valid
    witness gives tw(g[X]), tw(g[Y]) <= k-1 (verified by the caller's oracle).
    """
    odd, even = set(), set()
    for i, l in enumerate(w.layering.layers):
        (odd if i % 2 == 1 else even).update(l)
    parts = [p for p in (sorted(even), sorted(odd)) if p]
    return VertexPartition(w.layering.host_n, parts)


# -- bipartite constructions ---------------------------------------------

def _check_bipartition(g: Graph, side):
    vertices, side = frozenset(range(g.n)), frozenset(side)
    if not side <= vertices:
        raise DecompositionError(f"side vertex {min(side - vertices)} out of range for n={g.n}")
    other = vertices - side
    for u, v in g.edges():
        if (u in side) == (v in side):
            raise DecompositionError(f"edge ({u},{v}) inside one side")
    return side, other


def bipartite_orthogonal_paths(g: Graph, side):
    """The 2-orthogonal pair: the star decompositions from each side, with
    bags {v_i} u W and {w_j} u V."""
    side, other = _check_bipartition(g, side)
    return _star_decomposition(g, side, other), _star_decomposition(g, other, side)


def bipartite_star_decomposition(g: Graph, side) -> PathDecomposition:
    """Bags {v_i} u W, or the one bag W when V is empty; each bag induces a
    star plus isolated vertices."""
    return _star_decomposition(g, *_check_bipartition(g, side))


def _star_decomposition(g: Graph, side, other) -> PathDecomposition:
    return PathDecomposition(g.n, [{v} | other for v in sorted(side)] or [other])


# -- gluing --------------------------------------------------------------

def _leaf_removal_order(td: TreeDecomposition):
    """Pairs (leaf, neighbor) in the order the induction strips them.

    Leaves are processed in ascending node id among the current leaves.
    """
    adj = [set(a) for a in td._adj]
    # adj holds live neighbours only, so a leaf's set is its one neighbour;
    # every node enters the heap once, when it becomes a leaf
    leaves = [x for x in range(td.nodes) if len(adj[x]) <= 1]
    order = []
    for _ in range(td.nodes - 1):
        leaf = heapq.heappop(leaves)
        (nbr,) = adj[leaf]
        order.append((leaf, nbr))
        adj[nbr].discard(leaf)
        if len(adj[nbr]) == 1:
            heapq.heappush(leaves, nbr)
    return order, leaves[0]


def _glue_steps(g: Graph, td: TreeDecomposition):
    """The checked start of every gluing lemma: td's report and the steps.

    td must be valid and taut.  The steps are (root, ∅), then (x, B_x ∩ B_y)
    for each leaf x stripped from its neighbour y, in reverse removal order:
    each node comes after y, and B_x meets the bags of the nodes before it
    exactly in that adhesion set.
    """
    rep = _require(g, td, "invalid decomposition")
    if not rep.taut:
        x, y = next((x, y) for x, y in td.tree_edges
                    if not g.is_clique(td.bags[x] & td.bags[y]))
        raise DecompositionError(f"decomposition not taut at tree edge ({x},{y})")
    removal, root = _leaf_removal_order(td)
    return rep, [(root, frozenset())] + [(x, td.bags[x] & td.bags[y])
                                         for x, y in reversed(removal)]


def _relabel(td: TreeDecomposition, x: int, bags) -> list:
    """Bags over the sorted bag B_x, in g's vertex ids."""
    order = sorted(td.bags[x])
    return [frozenset(order[v] for v in b) for b in bags]


class _TreeAttach:
    """The tree bags glued so far; each new piece hangs from them.

    at[v] lists the glued bags holding v, ascending.  The piece's lowest bag
    holding the adhesion set is linked to the lowest glued bag holding it.
    Neither search can fail: every clique lies in one bag of any
    tree-decomposition, and each piece is a validated decomposition of a
    graph in which the adhesion set is a clique (the torso, or g[B_x] since
    td is taut), so both the piece and the glued piece of y hold it.
    """

    def __init__(self):
        self.bags, self.edges, self.at = [], [], {}

    def add(self, bags, edges, adh):
        n_r = len(self.bags)
        if n_r:
            shortest = min((self.at[v] for v in adh), key=len, default=[0])
            a_star = next(t for t in shortest if adh <= self.bags[t])
            self.edges.append((a_star, n_r + next(i for i, b in enumerate(bags) if adh <= b)))
        for t, bag in enumerate(bags, n_r):
            for v in bag:
                self.at.setdefault(v, []).append(t)
        self.bags += bags
        self.edges += [(n_r + a, n_r + b) for a, b in edges]


def glue_tree_f(g: Graph, td: TreeDecomposition, torso_decomps: dict) -> TreeDecomposition:
    """Glue per-torso decompositions into one decomposition of g.

    torso_decomps[x] must be a valid decomposition of torso(g, td, x), whose
    vertex ids refer to the sorted bag B_x (the torso's labeling).  The
    pieces are glued in the order of _glue_steps, and their bags listed in
    that order; each piece's lowest bag holding the adhesion clique is linked
    to the lowest glued bag holding it.
    """
    _, steps = _glue_steps(g, td)
    tree = _TreeAttach()
    for x, adh in steps:
        piece = torso_decomps[x]
        _require(torso(g, td, x), piece, f"torso decomposition at node {x} invalid")
        tree.add(_relabel(td, x, piece.bags), piece.tree_edges, adh)

    glued = TreeDecomposition(g.n, tree.bags, tree.edges)
    _require(g, glued, "glued decomposition invalid")
    return glued


def glue_orthogonal(g: Graph, td: TreeDecomposition, pairs: dict):
    """Glue per-bag (tree, path) orthogonal pairs along a taut decomposition.

    pairs[x] = (TreeDecomposition, PathDecomposition) of g[B_x] in the sorted
    bag labeling.  The pieces are glued in the order of _glue_steps; tree
    parts are joined at the lowest-id bags containing the shared clique, and
    path parts are overlaid with the index shift aligning those bags
    (A'_i = A_i u E_{i-i*+j*}).
    """
    _, steps = _glue_steps(g, td)
    tree = _TreeAttach()
    # path[i] is the bag at path position i, and left the lowest position.
    # Each step leaves a valid path decomposition of what is glued so far, so
    # the positions holding v are an interval, and low[v] is its left end
    path, low, left = {}, {}, 0
    for x, adh in steps:
        r, p = pairs[x]
        sub, _ = g.subgraph(td.bags[x])
        for member in (r, p):
            _require(sub, member, f"pair at node {x} invalid")
        tree.add(_relabel(td, x, r.bags), r.tree_edges, adh)

        # position i holds path[i] u px[i - i* + j*]: j* is px's lowest bag
        # holding the clique adh, the intervals of adh all hold i*, and a
        # piece with an empty adh starts at left
        px = _relabel(td, x, p.bags)
        j_star = next(j for j, b in enumerate(px) if adh <= b)
        start = max((low[v] for v in adh), default=left) - j_star
        left = min(left, start)
        for i, bag in enumerate(px, start):
            path.setdefault(i, set()).update(bag)
            for v in bag:
                low[v] = min(low.get(v, i), i)

    # each piece overlaps the positions glued before it, so they leave no gap
    tree_out = TreeDecomposition(g.n, tree.bags, tree.edges)
    path_out = PathDecomposition(g.n, [path[i] for i in range(left, left + len(path))])
    for member in (tree_out, path_out):
        _require(g, member, "glued output invalid")
    return tree_out, path_out
