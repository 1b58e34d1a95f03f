"""Graph products and the constructive product embeddings.

Product vertex ids are row-major: factor pair (i, j) lives at id i*|V(B)|+j,
so embeddings serialize deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .graphs import (Graph, Digraph, GraphError, VertexPartition,
                     complete_join, apex, quotient, bidirect, underlying)
from .decomposition import (TreeDecomposition, PathDecomposition,
                            DecompositionError, validate)


class EmbeddingError(ValueError):
    pass


def pair_id(i: int, j: int, nb: int) -> int:
    return i * nb + j


def cartesian(a: Graph, b: Graph) -> Graph:
    edges = []
    for i in range(a.n):
        for u, v in b.edges():
            edges.append((pair_id(i, u, b.n), pair_id(i, v, b.n)))
    for u, v in a.edges():
        for j in range(b.n):
            edges.append((pair_id(u, j, b.n), pair_id(v, j, b.n)))
    return Graph(a.n * b.n, edges)


def direct(a: Graph, b: Graph) -> Graph:
    edges = []
    for u, v in a.edges():
        for x, y in b.edges():
            edges.append((pair_id(u, x, b.n), pair_id(v, y, b.n)))
            edges.append((pair_id(u, y, b.n), pair_id(v, x, b.n)))
    return Graph(a.n * b.n, edges)


def strong(a: Graph, b: Graph) -> Graph:
    return Graph(a.n * b.n, cartesian(a, b).edges() + direct(a, b).edges())


def directed_strong(d1: Digraph, d2: Digraph) -> Digraph:
    """Arc (x,y)->(x',y') iff each coordinate stays or follows an arc."""
    arcs = []
    for x in range(d1.n):
        for xp in range(d1.n):
            if x != xp and not d1.has_arc(x, xp):
                continue
            for y in range(d2.n):
                for yp in range(d2.n):
                    if y != yp and not d2.has_arc(y, yp):
                        continue
                    if (x, y) == (xp, yp):
                        continue
                    arcs.append((pair_id(x, y, d2.n), pair_id(xp, yp, d2.n)))
    return Digraph(d1.n * d2.n, arcs)


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
            "factors": [json.loads(f.to_json()) for f in self.factors],
            "c": self.c,
            "map": [list(t) for t in self.map],
        })


@dataclass(frozen=True)
class DirectedProductEmbedding:
    guest: Graph
    factors: tuple            # (Digraph, Digraph)
    map: tuple                # guest vertex -> (x, y)

    def to_json(self) -> str:
        return json.dumps({
            "factors": [json.loads(f.to_json()) for f in self.factors],
            "c": None,
            "map": [list(t) for t in self.map],
        })


def _coord_ok(a, b, factor: Graph) -> bool:
    return a == b or factor.has_edge(a, b)


def validate_embedding(e: ProductEmbedding) -> list:
    """Invariant checker, independent of the embedding constructors.

    Returns a list of violation strings (empty = valid).
    """
    errors = []
    g = e.guest
    width = 3 if e.c is not None else 2
    if len(e.map) != g.n:
        return [f"map covers {len(e.map)} vertices, guest has {g.n}"]
    for v, t in enumerate(e.map):
        if len(t) != width:
            errors.append(f"vertex {v}: tuple arity {len(t)} != {width}")
            continue
        if not (0 <= t[0] < e.factors[0].n and 0 <= t[1] < e.factors[1].n):
            errors.append(f"vertex {v}: coordinate out of range")
        if e.c is not None and not (0 <= t[2] < e.c):
            errors.append(f"vertex {v}: K_c coordinate out of range")
    if len(set(e.map)) != len(e.map):
        errors.append("map not injective")
    for u, v in g.edges():
        tu, tv = e.map[u], e.map[v]
        if tu == tv:
            errors.append(f"edge ({u},{v}): identical images")
            continue
        if not _coord_ok(tu[0], tv[0], e.factors[0]):
            errors.append(f"edge ({u},{v}): first coordinates {tu[0]},{tv[0]} not equal-or-adjacent")
        if not _coord_ok(tu[1], tv[1], e.factors[1]):
            errors.append(f"edge ({u},{v}): second coordinates {tu[1]},{tv[1]} not equal-or-adjacent")
        # K_c is complete: distinct third coordinates are always adjacent
    return errors


def validate_directed_embedding(e: DirectedProductEmbedding) -> list:
    """Each guest edge must be an arc of D1 boxslash D2 in some direction."""
    errors = []
    g = e.guest
    d1, d2 = e.factors
    if len(e.map) != g.n:
        return [f"map covers {len(e.map)} vertices, guest has {g.n}"]
    for v, (x, y) in enumerate(e.map):
        if not (0 <= x < d1.n and 0 <= y < d2.n):
            errors.append(f"vertex {v}: coordinate out of range")
    if len(set(e.map)) != len(e.map):
        errors.append("map not injective")

    def arc(tu, tv):
        (x, y), (xp, yp) = tu, tv
        if (x, y) == (xp, yp):
            return False
        return ((x == xp or d1.has_arc(x, xp))
                and (y == yp or d2.has_arc(y, yp)))

    for u, v in g.edges():
        if not (arc(e.map[u], e.map[v]) or arc(e.map[v], e.map[u])):
            errors.append(f"edge ({u},{v}) realized in neither direction")
    return errors


def _checked(e):
    checker = (validate_directed_embedding
               if isinstance(e, DirectedProductEmbedding) else validate_embedding)
    errs = checker(e)
    if errs:
        raise EmbeddingError("; ".join(errs[:3]))
    return e


# -- join lemmas ---------------------------------------------------------

def embed_join_product(a: Graph, b: Graph, p: int, q: int) -> ProductEmbedding:
    """A+B+K_pq inside (A+K_p) boxtimes (B+K_q).

    Guest layout: A's ids, then B's, then r_{i,j} at a.n+b.n+(i-1)q+(j-1).
    Map: A-vertex x -> (x, b1); B-vertex y -> (a1, y); r_{i,j} -> (a_i, b_j),
    where a_i = a.n+i-1 and b_j = b.n+j-1 are the joined clique vertices.
    """
    if p < 1 or q < 1:
        raise GraphError("need p, q >= 1")
    guest = complete_join(complete_join(a, b), Graph(p * q))
    # make K_pq an actual clique in the guest
    base = a.n + b.n
    extra = [(base + i, base + j) for i in range(p * q) for j in range(i + 1, p * q)]
    guest = Graph(guest.n, guest.edges() + extra)
    f1 = complete_join(a, Graph(p))
    f1 = Graph(f1.n, f1.edges() + [(a.n + i, a.n + j)
                                   for i in range(p) for j in range(i + 1, p)])
    f2 = complete_join(b, Graph(q))
    f2 = Graph(f2.n, f2.edges() + [(b.n + i, b.n + j)
                                   for i in range(q) for j in range(i + 1, q)])
    mapping = [(x, b.n) for x in range(a.n)]
    mapping += [(a.n, y) for y in range(b.n)]
    for i in range(p):
        for j in range(q):
            mapping.append((a.n + i, b.n + j))
    return _checked(ProductEmbedding(guest, (f1, f2), None, tuple(mapping)))


def embed_move_apex(a: Graph, b: Graph, p: int, q: int) -> ProductEmbedding:
    """(A boxtimes B)+K_pq inside (A+K_p) boxtimes (B+K_q), identity on AxB."""
    if p < 1 or q < 1:
        raise GraphError("need p, q >= 1")
    guest = complete_join(strong(a, b), Graph(p * q))
    base = a.n * b.n
    extra = [(base + i, base + j) for i in range(p * q) for j in range(i + 1, p * q)]
    guest = Graph(guest.n, guest.edges() + extra)
    f1 = complete_join(a, Graph(p))
    f1 = Graph(f1.n, f1.edges() + [(a.n + i, a.n + j)
                                   for i in range(p) for j in range(i + 1, p)])
    f2 = complete_join(b, Graph(q))
    f2 = Graph(f2.n, f2.edges() + [(b.n + i, b.n + j)
                                   for i in range(q) for j in range(i + 1, q)])
    mapping = [(v // b.n, v % b.n) for v in range(a.n * b.n)]
    for i in range(p):
        for j in range(q):
            mapping.append((a.n + i, b.n + j))
    return _checked(ProductEmbedding(guest, (f1, f2), None, tuple(mapping)))


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
    max degree <=2.
    """
    if threshold not in (1, 2):
        raise GraphError("threshold must be 1 or 2")
    side = [v % 2 for v in range(g.n)]
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            same = sum(1 for w in g.adj[v] if side[w] == side[v])
            if 2 * same > len(g.adj[v]):
                side[v] ^= 1
                improved = True
                break
    if g.n == 0:
        raise GraphError("empty graph has no partition")
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
    guest = complete_join(strong(h, p), Graph(a))
    base = h.n * path_len
    guest = Graph(guest.n, guest.edges() + [(base + i, base + j)
                                            for i in range(a) for j in range(i + 1, a)])
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
    rep = validate(g, td)
    if not rep.ok:
        raise DecompositionError(f"invalid decomposition: {rep.errors[:3]}")
    if not rep.taut:
        bad = min(f"({x},{y})" for x, y in td.tree_edges
                  if not g.is_clique(td.bags[x] & td.bags[y]))
        raise DecompositionError(f"decomposition not taut at tree edge {bad}")
    if h is not None and rep.adhesion > h:
        raise DecompositionError(f"adhesion {rep.adhesion} exceeds declared {h}")

    def globalize(x):
        e = bag_embeddings[x]
        bag_order = sorted(td.bags[x])
        sub, _ = g.subgraph(td.bags[x])
        if e.guest != sub:
            raise EmbeddingError(f"bag embedding at node {x} is not over g[B_{x}]")
        errs = validate_directed_embedding(e)
        if errs:
            raise EmbeddingError(f"bag embedding at node {x} invalid: {errs[:3]}")
        return e, bag_order

    from .decomposition import _leaf_removal_order
    removal, root = _leaf_removal_order(td)

    # put the stripped leaves back in reverse removal order; each one's factors
    # are added disjointly to the factors of everything put back before it
    e, bag_order = globalize(root)
    n1, n2 = e.factors[0].n, e.factors[1].n
    arcs1, arcs2 = list(e.factors[0].arcs), list(e.factors[1].arcs)
    image = {bag_order[v]: e.map[v] for v in range(len(bag_order))}
    for x, y in reversed(removal):
        e, bag_order = globalize(x)
        j1, j2 = e.factors
        adh = sorted(td.bags[x] & td.bags[y])
        k1 = {image[v][0] for v in adh}
        k2 = {image[v][1] for v in adh}
        arcs1 += [(u + n1, v + n1) for u, v in j1.arcs]
        arcs1 += [(u, w + n1) for u in k1 for w in range(j1.n)]
        arcs2 += [(u + n2, v + n2) for u, v in j2.arcs]
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
