"""Tree- and path-decompositions: values, validation, algebra, gluing.

Empty bags are permitted (projection pullbacks need them); the validators
treat them as trivially satisfying the axioms.  Path-decompositions are
finite sequences; constructions that conceptually index bags by the whole of
Z are realized with explicit finite offset arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


class TreeDecomposition:
    __slots__ = ("host_n", "bags", "tree_edges")

    def __init__(self, host_n: int, bags, tree_edges):
        self.host_n = host_n
        self.bags = tuple(frozenset(b) for b in bags)
        self.tree_edges = tuple(sorted((min(x, y), max(x, y)) for x, y in tree_edges))
        if not _tree_ok(len(self.bags), self.tree_edges):
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
        return sorted([b for a, b in self.tree_edges if a == x]
                      + [a for a, b in self.tree_edges if b == x])

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
        td = TreeDecomposition(d["host_n"], d["bags"], [tuple(e) for e in d["tree_edges"]])
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
        return PathDecomposition(d["host_n"], d["bags"])


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

    nodes_of = [[] for _ in range(g.n)]
    for x, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.n):
                errors.append(f"bag {x} mentions out-of-range vertex {v}")
            else:
                nodes_of[v].append(x)

    for v in range(g.n):
        if not nodes_of[v]:
            errors.append(f"vertex {v} in no bag")

    for u, v in g.edges():
        if not any(u in b and v in b for b in td.bags):
            errors.append(f"edge ({u},{v}) in no bag")

    adj = [[] for _ in range(td.nodes)]
    for x, y in td.tree_edges:
        adj[x].append(y)
        adj[y].append(x)
    for v in range(g.n):
        xs = set(nodes_of[v])
        if not xs:
            continue
        start = min(xs)
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w in xs and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != xs:
            errors.append(f"vertex {v} has a disconnected node set")

    width = td.width()
    adhesion = td.adhesion()
    taut = all(g.is_clique(td.bags[x] & td.bags[y]) for x, y in td.tree_edges)
    return ValidationReport(not errors, errors, width, adhesion, taut)


def torso(g: Graph, td: TreeDecomposition, x: int) -> Graph:
    """g[B_x] plus a clique on each adhesion set at x, relabeled by sorted bag."""
    rep = validate(g, td)
    if not rep.ok:
        raise DecompositionError(f"invalid decomposition: {rep.errors[:3]}")
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
    pull1 = [frozenset(v for v in range(e.guest.n) if e.map[v][0] in bag)
             for bag in td_h1.bags]
    pull2 = [frozenset(v for v in range(e.guest.n) if e.map[v][1] in bag)
             for bag in td_h2.bags]
    out1 = TreeDecomposition(e.guest.n, pull1, td_h1.tree_edges)
    out2 = TreeDecomposition(e.guest.n, pull2, td_h2.tree_edges)
    for out in (out1, out2):
        rep = validate(e.guest, out)
        if not rep.ok:
            raise DecompositionError(f"pullback invalid: {rep.errors[:3]}")
    return out1, out2


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


def check_layering(g: Graph, l: Layering) -> bool:
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
    # decomposition of everything put back before it
    tree_bags, tree_edges, path_bags = globalize(root)
    tree_edges = list(tree_edges)
    for x, y in reversed(removal):
        tx, tx_edges, px = globalize(x)
        adh = td.bags[x] & td.bags[y]

        def lowest(bags):
            for i, b in enumerate(bags):
                if adh <= b:
                    return i
            raise DecompositionError(
                f"adhesion clique at node {x} not inside one bag of a member")

        a_star = lowest(tree_bags)
        p_star = lowest(tx)
        i_star = lowest(path_bags)
        j_star = lowest(px)

        n_r = len(tree_bags)
        tree_edges += [(n_r + a, n_r + b) for a, b in tx_edges]
        tree_edges.append((a_star, n_r + p_star))
        tree_bags += tx

        # overlay paths: global index i holds path_bags[i] union px[i - i* + j*]
        shift = i_star - j_star  # px index j sits at global index j + shift
        lo = min(0, shift)
        hi = max(len(path_bags) - 1, shift + len(px) - 1)
        merged = []
        for i in range(lo, hi + 1):
            bag = frozenset()
            if 0 <= i < len(path_bags):
                bag |= path_bags[i]
            j = i - shift
            if 0 <= j < len(px):
                bag |= px[j]
            merged.append(bag)
        path_bags = merged

    tree_out = TreeDecomposition(g.n, tree_bags, tree_edges)
    path_out = PathDecomposition(g.n, path_bags)
    for member in (tree_out, path_out):
        mrep = validate(g, member)
        if not mrep.ok:
            raise DecompositionError(f"glued output invalid: {mrep.errors[:3]}")
    return tree_out, path_out
