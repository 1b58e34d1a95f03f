"""Graph products and the constructive product embeddings.

Product vertex ids are row-major: factor pair (i, j) lives at id i*|V(B)|+j,
so embeddings serialize deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from .graphs import Graph, Digraph, GraphError, VertexPartition, apex, complete_join, quotient
from .decomposition import TreeDecomposition, DecompositionError, _glue_steps


class EmbeddingError(ValueError):
    pass


def _product(n1: int, n2: int, rects, extra: frozenset = frozenset()) -> list:
    """The neighbour sets of a product on the ids (x, y) -> x*n2 + y: the set
    of (x, y) is the union of A[x] x B[y] over the (A, B) pairs in rects, less
    (x, y) itself, plus the ids in `extra`.  A and B hold id sets of the first
    and second factor, so the product is built in time linear in its size."""
    freeze = extra.union if extra else frozenset
    sets = []
    for x in range(n1):
        rows = [([i * n2 for i in a[x]], b) for a, b in rects]
        for y in range(n2):
            s = {r + j for bases, b in rows for r in bases for j in b[y]}
            s.discard(x * n2 + y)
            sets.append(freeze(s))
    return sets


def _closed(sets) -> list:
    return [s | {v} for v, s in enumerate(sets)]


def _singletons(n: int) -> list:
    return [(v,) for v in range(n)]


def cartesian(a: Graph, b: Graph) -> Graph:
    """(i,j)(k,l) is an edge iff i = k and jl in E(b), or ik in E(a) and j = l."""
    return Graph._from_adj(_product(a.n, b.n, [(_singletons(a.n), b.adj),
                                               (a.adj, _singletons(b.n))]))


def direct(a: Graph, b: Graph) -> Graph:
    """(i,j)(k,l) is an edge iff ik in E(a) and jl in E(b)."""
    return Graph._from_adj(_product(a.n, b.n, [(a.adj, b.adj)]))


def strong(a: Graph, b: Graph) -> Graph:
    """Closed neighbourhoods: (i,j)(k,l) is an edge iff i = k or ik in E(a),
    and j = l or jl in E(b)."""
    return Graph._from_adj(_product(a.n, b.n, [(_closed(a.adj), _closed(b.adj))]))


def directed_strong(d1: Digraph, d2: Digraph) -> Digraph:
    """Arc (x,y)->(x',y') iff each coordinate stays or follows an arc: the
    strong product of closed out-sets."""
    return Digraph._from_out(_product(d1.n, d2.n, [(_closed(d1.out), _closed(d2.out))]))


# -- embeddings ----------------------------------------------------------

@dataclass(frozen=True)
class ProductEmbedding:
    """Injective map from guest vertices into 2 or 3 strong-product factors.

    The third factor, when present, is a complete graph K_c given by its
    order c alone.
    """
    guest: Graph
    factors: tuple            # (Graph, Graph)
    c: Optional[int]          # None for 2-factor embeddings
    map: tuple                # guest vertex -> (x, y) or (x, y, z)

    def to_json(self) -> str:
        return json.dumps({
            "factors": [f.to_data() for f in self.factors],
            "c": self.c,
            "map": [list(t) for t in self.map],
        })


@dataclass(frozen=True)
class DirectedProductEmbedding:
    guest: Graph
    factors: tuple            # (Digraph, Digraph)
    map: tuple                # guest vertex -> (x, y)
    c = None                  # a class attribute, not a field: no K_c factor

    to_json = ProductEmbedding.to_json


def embedding_from_data(d, guest: Graph, factor=Graph):
    """The embedding of guest in JSON data d, as to_json writes it; with factor=Digraph
    a DirectedProductEmbedding, whose c is null: D1 boxslash D2 has no K_c factor."""
    factors = tuple(factor.from_data(f) for f in d["factors"])
    images = tuple(tuple(t) for t in d["map"])
    if len(factors) != 2 or not all(type(x) is int for t in images for x in t):
        raise EmbeddingError("an embedding has 2 factors and integer map coordinates")
    if d["c"] is not None and (factor is Digraph or type(d["c"]) is not int):
        raise EmbeddingError("c must be an integer or null, and null with digraph factors")
    if factor is Digraph:
        return DirectedProductEmbedding(guest, factors, tuple((x, y) for x, y in images))
    return ProductEmbedding(guest, factors, d["c"], images)


def _check_map(e) -> tuple:
    """The map check of both embedding checkers: the map's length, each
    image's arity, integer coordinates and range, and injectivity.  Returns
    the errors and the guest vertices whose image cannot be looked up (all of
    them when the map's length is wrong)."""
    g = e.guest
    width = 3 if e.c is not None else 2
    if len(e.map) != g.n:
        return [f"map covers {len(e.map)} vertices, guest has {g.n}"], range(g.n)
    errors, bad = [], set()
    for v, t in enumerate(e.map):
        if len(t) != width:
            errors.append(f"vertex {v}: tuple arity {len(t)} != {width}")
            bad.add(v)
            continue
        if not all(type(x) is int for x in t):      # 1.0 passes the range check
            errors.append(f"vertex {v}: non-integer coordinate")
            bad.add(v)
            continue
        if not (0 <= t[0] < e.factors[0].n and 0 <= t[1] < e.factors[1].n):
            errors.append(f"vertex {v}: coordinate out of range")
            bad.add(v)
        if e.c is not None and not (0 <= t[2] < e.c):
            errors.append(f"vertex {v}: K_c coordinate out of range")
    if len(set(e.map)) != len(e.map):
        errors.append("map not injective")
    return errors, bad


def _edges_to_check(g: Graph, bad) -> list:
    """The edges of g in g.edges() order, less those at a vertex in bad."""
    edges = g.edges()
    return [(u, v) for u, v in edges if u not in bad and v not in bad] if bad else edges


def _neighbours_equal_or_adjacent(e, i: int) -> bool:
    """Whether every guest vertex's neighbours have i-th coordinates in the
    closed neighbourhood of its own: one set test per vertex."""
    coord = [t[i] for t in e.map]
    adj = e.factors[i].adj
    closed = {a: adj[a] | {a} for a in set(coord)}
    return all(closed[coord[u]].issuperset(map(coord.__getitem__, nbrs))
               for u, nbrs in enumerate(e.guest.adj))


def validate_embedding(e: ProductEmbedding) -> list:
    """Invariant checker, independent of the embedding constructors.

    Returns a list of violation strings (empty = valid).  When the map check
    passes, no edge has identical images, and both coordinate rules are
    tested per vertex; the edge list is walked only to word the errors.
    """
    errors, bad = _check_map(e)
    if not errors and all(_neighbours_equal_or_adjacent(e, i) for i in (0, 1)):
        return errors
    adj1, adj2 = e.factors[0].adj, e.factors[1].adj
    for u, v in _edges_to_check(e.guest, bad):
        tu, tv = e.map[u], e.map[v]
        if tu == tv:
            errors.append(f"edge ({u},{v}): identical images")
            continue
        if tu[0] != tv[0] and tv[0] not in adj1[tu[0]]:
            errors.append(f"edge ({u},{v}): first coordinates {tu[0]},{tv[0]} not equal-or-adjacent")
        if tu[1] != tv[1] and tv[1] not in adj2[tu[1]]:
            errors.append(f"edge ({u},{v}): second coordinates {tu[1]},{tv[1]} not equal-or-adjacent")
        # K_c is complete: distinct third coordinates are always adjacent
    return errors


def validate_directed_embedding(e: DirectedProductEmbedding) -> list:
    """Each guest edge must be an arc of D1 boxslash D2 in some direction."""
    errors, bad = _check_map(e)
    d1, d2 = e.factors

    def arc(tu, tv):
        (x, y), (xp, yp) = tu, tv
        if (x, y) == (xp, yp):
            return False
        return ((x == xp or d1.has_arc(x, xp))
                and (y == yp or d2.has_arc(y, yp)))

    for u, v in _edges_to_check(e.guest, bad):
        if not (arc(e.map[u], e.map[v]) or arc(e.map[v], e.map[u])):
            errors.append(f"edge ({u},{v}) realized in neither direction")
    return errors


def _checked(e, what: str = "invalid embedding"):
    """e, raising with `what` and the first errors unless its type's checker passes it."""
    errs = (validate_directed_embedding if isinstance(e, DirectedProductEmbedding)
            else validate_embedding)(e)
    if errs:
        raise EmbeddingError(f"{what}: {errs[:3]}")
    return e


# -- join lemmas ---------------------------------------------------------

def _join_lemma(a: Graph, b: Graph, p: int, q: int, join, head: list) -> ProductEmbedding:
    """The join of some parts and K_pq inside (A+K_p) boxtimes (B+K_q).

    `join(ones)` builds that guest from `ones`, the pq copies of K_1 whose
    join is K_pq.  `head` maps the parts' vertices; r_{i,j}, the clique
    vertex (i-1)q+(j-1) after them, maps to (a_i, b_j), where a_i = a.n+i-1
    and b_j = b.n+j-1 are the joined clique vertices.
    """
    if p < 1 or q < 1:
        raise GraphError("need p, q >= 1")
    k1 = Graph(1)               # K_k is the join of k copies of K_1
    guest = join([k1] * (p * q))
    f1, f2 = complete_join(a, *[k1] * p), complete_join(b, *[k1] * q)
    mapping = head + [(a.n + i, b.n + j) for i in range(p) for j in range(q)]
    return _checked(ProductEmbedding(guest, (f1, f2), None, tuple(mapping)))


def embed_join_product(a: Graph, b: Graph, p: int, q: int) -> ProductEmbedding:
    """A+B+K_pq inside (A+K_p) boxtimes (B+K_q).

    Guest layout: A's ids, then B's, then r_{i,j} at a.n+b.n+(i-1)q+(j-1).
    Map: A-vertex x -> (x, b1); B-vertex y -> (a1, y); r_{i,j} -> (a_i, b_j).
    """
    return _join_lemma(a, b, p, q, lambda ones: complete_join(a, b, *ones),
                       [(x, b.n) for x in range(a.n)] + [(a.n, y) for y in range(b.n)])


def embed_move_apex(a: Graph, b: Graph, p: int, q: int) -> ProductEmbedding:
    """(A boxtimes B)+K_pq inside (A+K_p) boxtimes (B+K_q), identity on AxB."""
    n = a.n * b.n

    def join(ones):
        # the product's sets are built with the clique ids already in them
        clique = range(n, n + len(ones))
        ids = frozenset(clique)
        every = ids.union(range(n))
        return Graph._from_adj(_product(a.n, b.n, [(_closed(a.adj), _closed(b.adj))], ids)
                               + [every - {r} for r in clique])
    return _join_lemma(a, b, p, q, join, [(v // b.n, v % b.n) for v in range(n)])


def embed_apex_partition(g: Graph, v1, include_apex: bool = False):
    """g (or apex(g)) inside apex(g[V1]) boxtimes apex(g[V2]).

    Returns (embedding, factor1, factor2).  V1-vertices map to (i, apex2),
    V2-vertices to (apex1, j); the optional dominant guest vertex maps to
    (apex1, apex2).
    """
    v1 = frozenset(v1)
    if not v1 <= set(range(g.n)):
        raise GraphError("v1 not a vertex subset")
    v2 = frozenset(range(g.n)) - v1
    g1, order1 = g.subgraph(v1)
    g2, order2 = g.subgraph(v2)
    f1, f2 = apex(g1), apex(g2)
    apex1, apex2 = g1.n, g2.n
    idx1 = {v: i for i, v in enumerate(order1)}
    idx2 = {v: i for i, v in enumerate(order2)}
    guest = apex(g) if include_apex else g
    mapping = []
    for v in range(g.n):
        if v in v1:
            mapping.append((idx1[v], apex2))
        else:
            mapping.append((apex1, idx2[v]))
    if include_apex:
        mapping.append((apex1, apex2))
    e = _checked(ProductEmbedding(guest, (f1, f2), None, tuple(mapping)))
    return e, f1, f2


def partition_product_check(g: Graph, p1: VertexPartition, p2: VertexPartition, c: int):
    """Partition characterization of 3-term product containment.

    If every part-pair intersection has size <= c, returns
    (embedding into g/P1 boxtimes g/P2 boxtimes K_c, None); otherwise
    (None, (i, j)) naming the violating part pair.  K_c coordinates enumerate
    each intersection in ascending vertex id.
    """
    if c < 1:
        raise GraphError("need c >= 1")
    if p1.n != g.n or p2.n != g.n:
        raise GraphError("partition size mismatch")
    for i, a1 in enumerate(p1.parts):
        for j, a2 in enumerate(p2.parts):
            if len(a1 & a2) > c:
                return None, (i, j)
    q1 = quotient(g, p1)
    q2 = quotient(g, p2)
    mapping = []
    for v in range(g.n):
        i = p1.part_of[v]
        j = p2.part_of[v]
        z = sorted(p1.parts[i] & p2.parts[j]).index(v)
        mapping.append((i, j, z))
    return _checked(ProductEmbedding(g, (q1, q2), c, tuple(mapping))), None


# -- degree partitions (max-cut local search) ----------------------------

def degree_partition(g: Graph, threshold: int) -> VertexPartition:
    """Local-search max cut: start from even/odd ids, repeatedly move the
    lowest-id vertex with more same-side than cross-side neighbours.

    At a local optimum every vertex has at most floor(deg/2) same-side
    neighbours, so Delta<=3 gives parts of max degree <=1 and Delta<=4 gives
    max degree <=2.  Raises GraphError if a part has a vertex of degree above
    threshold, which Delta <= 2*threshold + 1 rules out.
    """
    if threshold not in (1, 2):
        raise GraphError("threshold must be 1 or 2")
    if g.n == 0:
        raise GraphError("empty graph has no partition")
    side = [v % 2 for v in range(g.n)]
    same = [sum(side[w] == side[v] for w in g.adj[v]) for v in range(g.n)]
    # a min-heap of every improvable vertex, plus stale entries skipped when
    # popped; a flip changes only the counts of the flipped vertex and its
    # neighbours
    heap = [v for v in range(g.n) if 2 * same[v] > len(g.adj[v])]
    while heap:
        v = heappop(heap)
        if 2 * same[v] <= len(g.adj[v]):
            continue
        side[v] ^= 1
        same[v] = len(g.adj[v]) - same[v]
        for w in g.adj[v]:
            if side[w] == side[v]:
                same[w] += 1
                if 2 * same[w] > len(g.adj[w]):
                    heappush(heap, w)
            else:
                same[w] -= 1
    over = [v for v in range(g.n) if same[v] > threshold]
    if over:
        raise GraphError(f"vertex {over[0]} keeps more than {threshold} neighbours in its part")
    parts = [[v for v in range(g.n) if side[v] == s] for s in (0, 1)]
    return VertexPartition(g.n, [p for p in parts if p])


# -- apex-fan orientation ------------------------------------------------

def orient_apex_fan(h: Graph, ordering, path_len: int, a: int):
    """Directed factors for (h boxtimes P) + K_a inside J boxslash F.

    J = h + K_a with h's edges oriented along `ordering` (earlier -> later),
    all apex->h arcs, and apex-apex arcs lower id -> higher id.  F is a fan:
    a bidirected path of path_len vertices plus a hub (id path_len) with
    hub->path arcs.  Guest ids: (v, j) at v*path_len+j, apexes after.
    """
    ordering = list(ordering)
    if sorted(ordering) != list(range(h.n)):
        raise GraphError("ordering is not a permutation of V(h)")
    if path_len < 1 or a < 0:
        raise GraphError("need path_len >= 1 and a >= 0")
    pos = {v: i for i, v in enumerate(ordering)}
    arcs = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in h.edges()]
    for i in range(a):
        for v in range(h.n):
            arcs.append((h.n + i, v))
        for j in range(i + 1, a):
            arcs.append((h.n + i, h.n + j))
    j_graph = Digraph(h.n + a, arcs)

    f_arcs = []
    for j in range(path_len - 1):
        f_arcs.append((j, j + 1))
        f_arcs.append((j + 1, j))
    hub = path_len
    for j in range(path_len):
        f_arcs.append((hub, j))
    f_graph = Digraph(path_len + 1, f_arcs)

    p = Graph(path_len, [(j, j + 1) for j in range(path_len - 1)])
    guest = complete_join(strong(h, p), *[Graph(1)] * a)
    mapping = [(v // path_len, v % path_len) for v in range(h.n * path_len)]
    mapping += [(h.n + i, hub) for i in range(a)]
    emb = _checked(DirectedProductEmbedding(guest, (j_graph, f_graph), tuple(mapping)))
    return j_graph, f_graph, emb


# -- directed gluing -----------------------------------------------------

def glue_directed_products(g: Graph, td: TreeDecomposition, bag_embeddings: dict,
                           h: Optional[int] = None) -> DirectedProductEmbedding:
    """Leaf-by-leaf gluing of per-bag directed product embeddings.

    bag_embeddings[x] embeds g[B_x] (sorted-bag labeling) into J1 boxslash J2.
    At each step the stripped leaf's factors are disjointly added and arcs are
    drawn from the projection K_i of the shared clique's current image to every
    vertex of the new factor.  Output indegree and underlying-treewidth bounds
    (d_i + h, c_i + h) are validated by the caller's oracle at desk scale.
    """
    rep, steps = _glue_steps(g, td)
    if h is not None and rep.adhesion > h:
        raise DecompositionError(f"adhesion {rep.adhesion} exceeds declared {h}")

    # each step's factors are added disjointly to the factors glued before it
    n1 = n2 = 0
    arcs1, arcs2, image = [], [], {}
    for x, adh in steps:
        e = bag_embeddings[x]
        sub, bag_order = g.subgraph(td.bags[x])
        if e.guest != sub:
            raise EmbeddingError(f"bag embedding at node {x} is not over g[B_{x}]")
        _checked(e, f"bag embedding at node {x} invalid")
        j1, j2 = e.factors
        k1 = {image[v][0] for v in adh}
        k2 = {image[v][1] for v in adh}
        arcs1 += [(u + n1, v + n1) for u, v in j1.arcs()]
        arcs1 += [(u, w + n1) for u in k1 for w in range(j1.n)]
        arcs2 += [(u + n2, v + n2) for u, v in j2.arcs()]
        arcs2 += [(u, w + n2) for u in k2 for w in range(j2.n)]
        for i, v in enumerate(bag_order):
            if v not in image:
                ex, ey = e.map[i]
                image[v] = (ex + n1, ey + n2)
        n1 += j1.n
        n2 += j2.n

    d1, d2 = Digraph(n1, arcs1), Digraph(n2, arcs2)
    mapping = tuple(image[v] for v in range(g.n))
    return _checked(DirectedProductEmbedding(g, (d1, d2), mapping))
