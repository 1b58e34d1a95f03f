"""Tree- and path-decompositions: values, validation, algebra, gluing.

Empty bags are permitted (projection pullbacks need them); the validators
treat them as trivially satisfying the axioms.  Path-decompositions are
finite sequences; constructions that conceptually index bags by the whole of
Z are realized with explicit finite offset arithmetic.
"""

from __future__ import annotations

import functools
import heapq
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .graphs import Graph, GraphError


class DecompositionError(ValueError):
    pass


def _tree_ok(nodes: int, edges) -> bool:
    if nodes == 0:
        return False
    if len(edges) != nodes - 1:
        return False
    adj = [[] for _ in range(nodes)]
    for x, y in edges:
        if not (0 <= x < nodes and 0 <= y < nodes) or x == y:
            return False
        adj[x].append(y)
        adj[y].append(x)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nodes


def _int_bags(bags):
    """Bags read from JSON, which must hold integers only: validate compares
    them with the vertex range and indexes by them."""
    if not all(type(v) is int for b in bags for v in b):
        raise DecompositionError("bag members must be integers")
    return bags


class TreeDecomposition:
    __slots__ = ("host_n", "bags", "tree_edges", "_adj")

    def __init__(self, host_n: int, bags, tree_edges):
        self.host_n = host_n
        self.bags = tuple(frozenset(b) for b in bags)
        self.tree_edges = tuple(sorted((min(x, y), max(x, y)) for x, y in tree_edges))
        if not _tree_ok(len(self.bags), self.tree_edges):
            raise DecompositionError("indexing graph is not a tree")
        self._adj = None        # tree adjacency lists, built by the first neighbors()

    @property
    def nodes(self) -> int:
        return len(self.bags)

    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def adhesion(self) -> int:
        return max((len(self.bags[x] & self.bags[y]) for x, y in self.tree_edges),
                   default=0)

    def neighbors(self, x: int) -> list:
        if self._adj is None:
            # tree_edges are sorted (min, max) pairs, so each list comes out
            # ascending: first the smaller neighbours, then the larger ones
            adj = [[] for _ in self.bags]
            for a, b in self.tree_edges:
                adj[a].append(b)
                adj[b].append(a)
            self._adj = adj
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
        d = json.loads(text)
        td = TreeDecomposition(d["host_n"], _int_bags(d["bags"]),
                               [tuple(e) for e in d["tree_edges"]])
        if td.nodes != d["nodes"]:
            raise DecompositionError("node count mismatch")
        return td


class PathDecomposition:
    __slots__ = ("host_n", "bags")

    def __init__(self, host_n: int, bags):
        bags = tuple(frozenset(b) for b in bags)
        if not bags:
            raise DecompositionError("empty path-decomposition")
        self.host_n = host_n
        self.bags = bags

    @property
    def nodes(self) -> int:
        return len(self.bags)

    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def as_tree(self) -> TreeDecomposition:
        return TreeDecomposition(
            self.host_n, self.bags,
            [(i, i + 1) for i in range(len(self.bags) - 1)])

    def to_json(self) -> str:
        return json.dumps({
            "host_n": self.host_n,
            "bags": [sorted(b) for b in self.bags],
        })

    @staticmethod
    def from_json(text: str) -> "PathDecomposition":
        d = json.loads(text)
        return PathDecomposition(d["host_n"], _int_bags(d["bags"]))


@dataclass
class ValidationReport:
    ok: bool
    errors: list
    width: int
    adhesion: int
    taut: bool


def validate(g: Graph, td) -> ValidationReport:
    """Check the three decomposition axioms; report width/adhesion/tautness.

    Accepts TreeDecomposition or PathDecomposition.
    """
    if isinstance(td, PathDecomposition):
        td = td.as_tree()
    errors = []
    if td.host_n != g.n:
        errors.append(f"host mismatch: decomposition host_n={td.host_n}, graph n={g.n}")
        return ValidationReport(False, errors, -1, -1, False)

    n = g.n
    nodes_of = [[] for _ in range(n)]
    for x, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < n:
                nodes_of[v].append(x)
            else:
                errors.append(f"bag {x} mentions out-of-range vertex {v}")

    errors += [f"vertex {v} in no bag" for v in range(n) if not nodes_of[v]]

    # edge uv is in a bag iff the node sets of u and v meet; only the
    # uncovered edges are sorted, into g.edges() order.  One node set is
    # held as a frozenset at a time, to keep the memory of a large check flat
    uncovered = []
    for u, xs in enumerate(nodes_of):
        nu = frozenset(xs)
        uncovered += [(u, v) for v in g.adj[u] if u < v and nu.isdisjoint(nodes_of[v])]
    errors += [f"edge ({u},{v}) in no bag" for u, v in sorted(uncovered)]

    # the tree-nodes of v induce a forest in the tree, and a forest is
    # connected iff it has one node more than it has edges; out-of-range
    # members never reach the check below
    shared = Counter(chain.from_iterable(td.bags[x] & td.bags[y] for x, y in td.tree_edges))
    errors += [f"vertex {v} has a disconnected node set" for v, xs in enumerate(nodes_of)
               if xs and len(xs) - shared[v] != 1]

    width = td.width()
    adhesion = td.adhesion()
    taut = all(g.is_clique(td.bags[x] & td.bags[y]) for x, y in td.tree_edges)
    return ValidationReport(not errors, errors, width, adhesion, taut)


def torso(g: Graph, td: TreeDecomposition, x: int) -> Graph:
    """g[B_x] plus a clique on each adhesion set at x, relabeled by sorted bag."""
    _require_valid(g, td)
    bag = sorted(td.bags[x])
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


@functools.lru_cache(maxsize=1)
def _require_valid(g: Graph, td: TreeDecomposition) -> None:
    """Raise unless td is a valid decomposition of g.

    Both are immutable, so the last valid pair is remembered: glue_tree_f
    asks for the torso at every node of one decomposition, and validating
    all of it each time would make gluing quadratic in the node count.
    """
    rep = validate(g, td)
    if not rep.ok:
        raise DecompositionError(f"invalid decomposition: {rep.errors[:3]}")


def orthogonality(td1, td2) -> int:
    """Max over bag pairs of the intersection size."""
    if td1.host_n != td2.host_n:
        raise DecompositionError("host mismatch")
    return max(len(a & b) for a in td1.bags for b in td2.bags)


def project_product_decomposition(e, td_h1: TreeDecomposition, td_h2: TreeDecomposition):
    """Pull factor decompositions back through a product embedding.

    A'_x = {v : e(v) has first coordinate in A_x} and symmetrically for the
    second factor.  Empty bags are kept so the tree shapes survive; the pair
    is at most (w1+1)(w2+1)*c orthogonal.
    """
    from .products import validate_embedding
    h1, h2 = e.factors[0], e.factors[1]
    errs = validate_embedding(e)
    if errs:
        raise DecompositionError(f"invalid embedding: {errs[:3]}")
    for h, td in ((h1, td_h1), (h2, td_h2)):
        rep = validate(h, td)
        if not rep.ok:
            raise DecompositionError(f"invalid factor decomposition: {rep.errors[:3]}")
    out1, out2 = (TreeDecomposition(e.guest.n, _pull_back(e, i, td), td.tree_edges)
                  for i, td in enumerate((td_h1, td_h2)))
    for out in (out1, out2):
        rep = validate(e.guest, out)
        if not rep.ok:
            raise DecompositionError(f"pullback invalid: {rep.errors[:3]}")
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


@dataclass
class LayeredWitness:
    layering: Layering
    decomposition: TreeDecomposition
    k: int

    def measure_k(self) -> int:
        return max(len(l & b) for l in self.layering.layers if l
                   for b in self.decomposition.bags)


def make_layered_witness(g: Graph, l: Layering, td: TreeDecomposition) -> LayeredWitness:
    if not check_layering(g, l):
        raise DecompositionError("not a layering of g")
    rep = validate(g, td)
    if not rep.ok:
        raise DecompositionError(f"invalid decomposition: {rep.errors[:3]}")
    w = LayeredWitness(l, td, 0)
    w.k = w.measure_k()
    return w


def bfs_layering(g: Graph, r: int) -> Layering:
    if not 0 <= r < g.n:
        raise DecompositionError(f"root {r} out of range for n={g.n}")
    dist = {r: 0}
    frontier = [r]
    layers = [[r]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        if nxt:
            layers.append(sorted(nxt))
        frontier = nxt
    if len(dist) != g.n:
        missing = min(set(range(g.n)) - set(dist))
        raise DecompositionError(f"graph disconnected: vertex {missing} unreached")
    return Layering(g.n, layers)


def layering_to_path_decomposition(l: Layering) -> PathDecomposition:
    layers = [x for x in l.layers if x]
    if len(layers) == 1:
        return PathDecomposition(l.host_n, [layers[0]])
    bags = [layers[i] | layers[i + 1] for i in range(len(layers) - 1)]
    return PathDecomposition(l.host_n, bags)


def witness_to_bandwidth_decomposition(g: Graph, w: LayeredWitness):
    """Per-bag orderings by (layer, id); span per bag is at most 2k-1.

    Returns (decomposition, orderings, max_span).
    """
    if w.measure_k() != w.k:
        raise DecompositionError("witness k does not match measurement")
    if not check_layering(g, w.layering):
        raise DecompositionError("invalid layering")
    rep = validate(g, w.decomposition)
    if not rep.ok:
        raise DecompositionError(f"invalid decomposition: {rep.errors[:3]}")
    idx = w.layering.layer_of()
    orderings = []
    max_span = 0
    for bag in w.decomposition.bags:
        order = sorted(bag, key=lambda v: (idx[v], v))
        pos = {v: i for i, v in enumerate(order)}
        for u in order:
            for v in g.adj[u]:
                if v in pos:
                    max_span = max(max_span, abs(pos[u] - pos[v]))
        orderings.append(order)
    if max_span > 2 * w.k - 1 and w.k > 0:
        raise DecompositionError(
            f"span {max_span} exceeds 2k-1={2 * w.k - 1}; witness malformed")
    return w.decomposition, orderings, max_span


def witness_to_partition(w: LayeredWitness):
    """Split into odd layers X vs even layers Y.

    Each part induces a disjoint union of per-layer subgraphs, so a valid
    witness gives tw(g[X]), tw(g[Y]) <= k-1 (verified by the caller's oracle).
    """
    from .graphs import VertexPartition
    odd, even = set(), set()
    for i, l in enumerate(w.layering.layers):
        (odd if i % 2 == 1 else even).update(l)
    parts = [p for p in (sorted(even), sorted(odd)) if p]
    return VertexPartition(w.layering.host_n, parts)


# -- bipartite constructions ---------------------------------------------

def _check_bipartition(g: Graph, side):
    side = frozenset(side)
    other = frozenset(range(g.n)) - side
    for u, v in g.edges():
        if (u in side) == (v in side):
            raise DecompositionError(f"edge ({u},{v}) inside one side")
    return side, other


def bipartite_orthogonal_paths(g: Graph, side):
    """The 2-orthogonal pair: bags {v_i} u W and {w_j} u V."""
    side, other = _check_bipartition(g, side)
    if not side or not other:
        # degenerate: fall back to a single full bag on each axis
        full = frozenset(range(g.n))
        pd = PathDecomposition(g.n, [full])
        return pd, pd
    first = PathDecomposition(g.n, [{v} | other for v in sorted(side)])
    second = PathDecomposition(g.n, [{w} | side for w in sorted(other)])
    return first, second


def bipartite_star_decomposition(g: Graph, side) -> PathDecomposition:
    """Bags {v_i} u W; each bag induces a star plus isolated vertices."""
    side, other = _check_bipartition(g, side)
    if not side:
        return PathDecomposition(g.n, [other])
    return PathDecomposition(g.n, [{v} | other for v in sorted(side)])


# -- gluing --------------------------------------------------------------

def _leaf_removal_order(td: TreeDecomposition):
    """Pairs (leaf, neighbor) in the order the induction strips them.

    Leaves are processed in ascending node id among the current leaves.
    """
    adj = [set() for _ in range(td.nodes)]
    for x, y in td.tree_edges:
        adj[x].add(y)
        adj[y].add(x)
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


def glue_tree_f(g: Graph, td: TreeDecomposition, torso_decomps: dict) -> TreeDecomposition:
    """Glue per-torso decompositions into one decomposition of g.

    torso_decomps[x] must be a valid decomposition of torso(g, td, x), whose
    vertex ids refer to the sorted bag B_x (the torso's labeling).  Each piece
    is attached at the lowest-id bag containing the adhesion clique.
    """
    rep = validate(g, td)
    if not rep.ok or not rep.taut:
        raise DecompositionError("input decomposition must be valid and taut")

    globalized = {}
    offsets = {}
    all_bags = []
    all_edges = []
    for x in range(td.nodes):
        piece = torso_decomps[x]
        tx = torso(g, td, x)
        prep = validate(tx, piece)
        if not prep.ok:
            raise DecompositionError(f"torso decomposition at node {x} invalid: {prep.errors[:3]}")
        bag_order = sorted(td.bags[x])
        offsets[x] = len(all_bags)
        globalized[x] = [frozenset(bag_order[v] for v in b) for b in piece.bags]
        all_bags.extend(globalized[x])
        all_edges.extend((offsets[x] + a, offsets[x] + b) for a, b in piece.tree_edges)

    for x, y in td.tree_edges:
        adh = td.bags[x] & td.bags[y]
        try:
            ax = min(i for i, b in enumerate(globalized[x]) if adh <= b)
            ay = min(i for i, b in enumerate(globalized[y]) if adh <= b)
        except ValueError:
            raise DecompositionError(
                f"adhesion clique of tree edge ({x},{y}) not inside one torso bag")
        all_edges.append((offsets[x] + ax, offsets[y] + ay))

    glued = TreeDecomposition(g.n, all_bags, all_edges)
    grep = validate(g, glued)
    if not grep.ok:
        raise DecompositionError(f"glued decomposition invalid: {grep.errors[:3]}")
    return glued


def glue_orthogonal(g: Graph, td: TreeDecomposition, pairs: dict):
    """Glue per-bag (tree, path) orthogonal pairs along a taut decomposition.

    pairs[x] = (TreeDecomposition, PathDecomposition) of g[B_x] in the sorted
    bag labeling.  The induction removes leaves in ascending node id; tree
    parts are joined at the lowest-id bags containing the shared clique, and
    path parts are overlaid with the index shift aligning those bags
    (A'_i = A_i u E_{i-i*+j*}).
    """
    rep = validate(g, td)
    if not rep.ok or not rep.taut:
        raise DecompositionError("input decomposition must be valid and taut")

    def globalize(x):
        bag_order = sorted(td.bags[x])
        r, p = pairs[x]
        sub, _ = g.subgraph(td.bags[x])
        for member in (r, p):
            mrep = validate(sub, member)
            if not mrep.ok:
                raise DecompositionError(f"pair at node {x} invalid: {mrep.errors[:3]}")
        rg = [frozenset(bag_order[v] for v in b) for b in r.bags]
        pg = [frozenset(bag_order[v] for v in b) for b in p.bags]
        return rg, r.tree_edges, pg

    removal, root = _leaf_removal_order(td)
    # put the stripped leaves back in reverse removal order, each onto the
    # decomposition of everything put back before it.  tree_at[v] lists the
    # glued tree bags holding v, ascending.  Each step leaves a valid path
    # decomposition of what is glued so far, so the path bags holding v are
    # the positions span[v][0]..span[v][1], and list index = position - origin.
    tree_bags, tree_edges, path_bags = [], [], []
    tree_at, span, origin = {}, {}, 0

    def add_tree(bags, edges):
        n_r = len(tree_bags)
        for t, bag in enumerate(bags, n_r):
            for v in bag:
                tree_at.setdefault(v, []).append(t)
        tree_bags.extend(bags)
        tree_edges.extend((n_r + a, n_r + b) for a, b in edges)

    def add_path(bags, shift):
        """Overlay bags[j] onto path index j + shift, growing the path as needed."""
        nonlocal origin
        if shift < 0:
            path_bags[:0] = [set() for _ in range(-shift)]
            origin += shift
            shift = 0
        path_bags.extend(set() for _ in range(shift + len(bags) - len(path_bags)))
        for j, bag in enumerate(bags):
            path_bags[j + shift] |= bag
            pos = j + shift + origin
            for v in bag:
                lo, hi = span.get(v, (pos, pos))
                span[v] = (min(lo, pos), max(hi, pos))

    def lowest(bags, adh, x):
        for i, b in enumerate(bags):
            if adh <= b:
                return i
        raise DecompositionError(
            f"adhesion clique at node {x} not inside one bag of a member")

    rg, r_edges, pg = globalize(root)
    add_tree(rg, r_edges)
    add_path(pg, 0)
    for x, y in reversed(removal):
        tx, tx_edges, px = globalize(x)
        adh = td.bags[x] & td.bags[y]
        p_star = lowest(tx, adh, x)
        j_star = lowest(px, adh, x)
        if adh:
            # the glued pieces passed validate, so the clique adh lies in
            # one glued tree bag and the path spans of its vertices meet
            shortest = min((tree_at[v] for v in adh), key=len)
            a_star = next(t for t in shortest if adh <= tree_bags[t])
            i_star = max(span[v][0] for v in adh) - origin
        else:
            a_star = i_star = 0

        tree_edges.append((a_star, len(tree_bags) + p_star))
        add_tree(tx, tx_edges)
        # path index i holds path_bags[i] u px[i - i* + j*]
        add_path(px, i_star - j_star)

    tree_out = TreeDecomposition(g.n, tree_bags, tree_edges)
    path_out = PathDecomposition(g.n, path_bags)
    for member in (tree_out, path_out):
        mrep = validate(g, member)
        if not mrep.ok:
            raise DecompositionError(f"glued output invalid: {mrep.errors[:3]}")
    return tree_out, path_out
