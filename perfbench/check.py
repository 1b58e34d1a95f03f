"""Definition-first checkers for the benchmark's operation outputs.

Nothing here imports prodstruct: every witness is re-checked from plain JSON
data against the textbook definitions, with algorithms chosen to differ from
the package's own validators (union-find for tree shape, edge counting for
the connectivity axiom, explicit product rules for embeddings).
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations


class CheckFailed(Exception):
    """An operation's output violates a definition or a frozen reference."""


def need(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class G:
    """Plain undirected graph: n, sorted edge list and adjacency sets."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        self.adj = [set() for _ in range(n)]
        for u, v in self.edges:
            need(0 <= u < n and 0 <= v < n and u != v, f"bad edge {(u, v)}")
            self.adj[u].add(v)
            self.adj[v].add(u)
        need(len(set(self.edges)) == len(self.edges), "repeated edge")

    @staticmethod
    def from_dict(d):
        return G(d["n"], [tuple(e) for e in d["edges"]])

    @staticmethod
    def load(path):
        return G.from_dict(read_json(path))

    def to_json(self):
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges]})

    def induced(self, vertices):
        """Induced subgraph relabelled by ascending original id."""
        order = sorted(vertices)
        index = {v: i for i, v in enumerate(order)}
        return G(len(order), [(index[u], index[v]) for u in order
                              for v in self.adj[u] if v in index and u < v])


# -- decompositions ---------------------------------------------------------

def check_tree(nodes, tree_edges):
    """Union-find: nodes-1 edges joining distinct components span a tree."""
    need(nodes >= 1, "decomposition has no nodes")
    need(len(tree_edges) == nodes - 1, "indexing graph edge count is not nodes-1")
    parent = list(range(nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in tree_edges:
        need(0 <= x < nodes and 0 <= y < nodes, f"tree edge {(x, y)} out of range")
        rx, ry = find(x), find(y)
        need(rx != ry, f"tree edge {(x, y)} closes a cycle")
        parent[rx] = ry


def check_decomposition(g, bags, tree_edges):
    """The three axioms of a tree-decomposition; returns the width.

    Connectivity is checked by counting: the nodes holding v induce a
    subforest of the tree, which is connected iff it has one edge fewer
    than nodes.
    """
    bags = [set(b) for b in bags]
    check_tree(len(bags), tree_edges)
    holders = [[] for _ in range(g.n)]
    for x, bag in enumerate(bags):
        for v in bag:
            need(0 <= v < g.n, f"bag {x} holds out-of-range vertex {v}")
            holders[v].append(x)
    for v in range(g.n):
        need(holders[v], f"vertex {v} in no bag")
    for u, v in g.edges:
        a, b = (u, v) if len(holders[u]) <= len(holders[v]) else (v, u)
        need(any(b in bags[x] for x in holders[a]), f"edge {(u, v)} in no bag")
    shared = [0] * g.n
    for x, y in tree_edges:
        for v in bags[x] & bags[y]:
            shared[v] += 1
    for v in range(g.n):
        need(shared[v] == len(holders[v]) - 1, f"nodes holding {v} are not connected")
    return max(len(b) for b in bags) - 1


def check_td_dict(g, d):
    need(d["host_n"] == g.n, "decomposition host_n differs from the graph")
    need(d["nodes"] == len(d["bags"]), "node count differs from bag count")
    return check_decomposition(g, d["bags"], [tuple(e) for e in d["tree_edges"]])


def check_pd_dict(g, d):
    need(d["host_n"] == g.n, "decomposition host_n differs from the graph")
    bags = d["bags"]
    return check_decomposition(g, bags, [(i, i + 1) for i in range(len(bags) - 1)])


def adhesion_taut(g, bags, tree_edges):
    """Largest adhesion set, and whether every adhesion set is a clique."""
    bags = [set(b) for b in bags]
    adhesion, taut = 0, True
    for x, y in tree_edges:
        common = bags[x] & bags[y]
        adhesion = max(adhesion, len(common))
        taut = taut and all(b in g.adj[a] for a, b in combinations(common, 2))
    return adhesion, taut


def orthogonality(bags1, bags2):
    sets2 = [set(b) for b in bags2]
    return max(len(s & set(a)) for a in bags1 for s in sets2)


# -- orderings and forests --------------------------------------------------

def check_permutation(order, n):
    need(sorted(order) == list(range(n)), "ordering is not a permutation")


def ordering_span(g, order):
    """Bandwidth of an ordering: the longest edge, in positions."""
    pos = {v: i for i, v in enumerate(order)}
    return max((abs(pos[u] - pos[v]) for u, v in g.edges), default=0)


def bag_spans(g, bags, order):
    """Per bag, the longest edge inside it when the bag is listed by `order`."""
    rank = {v: i for i, v in enumerate(order)}
    out = []
    for bag in bags:
        pos = {v: i for i, v in enumerate(sorted(bag, key=rank.__getitem__))}
        out.append(max((abs(pos[u] - pos[v]) for u in bag for v in g.adj[u]
                        if v in pos), default=0))
    return out


def forest_depth(g, parent):
    """Depth (vertices on the longest root path) of an elimination forest.

    The forest must be acyclic and every edge must join a vertex to one of
    its ancestors.
    """
    n = g.n
    need(len(parent) == n, "parent array length differs from n")
    depth = [0] * n

    def walk(v):
        chain = []
        while v != -1 and depth[v] == 0:
            need(0 <= v < n, f"parent {v} out of range")
            need(len(chain) <= n, "parent array has a cycle")
            chain.append(v)
            v = parent[v]
        base = 0 if v == -1 else depth[v]
        for w in reversed(chain):
            base += 1
            depth[w] = base

    for v in range(n):
        walk(v)

    def is_ancestor(a, v):
        while v != -1:
            if v == a:
                return True
            v = parent[v]
        return False

    for u, v in g.edges:
        need(is_ancestor(u, v) or is_ancestor(v, u),
             f"edge {(u, v)} joins vertices that are not ancestor-related")
    return max(depth, default=0)


# -- small exact values, by the subset recurrences --------------------------

def _component_boundary(adj_mask, t, v, full):
    comp = 1 << v
    while True:
        grown = comp
        rest = comp
        while rest:
            low = rest & -rest
            grown |= adj_mask[low.bit_length() - 1] & t
            rest ^= low
        if grown == comp:
            break
        comp = grown
    boundary = 0
    rest = comp
    while rest:
        low = rest & -rest
        boundary |= adj_mask[low.bit_length() - 1]
        rest ^= low
    return bin(boundary & full & ~t & ~(1 << v)).count("1")


def small_treewidth(g):
    """Treewidth by TW(S) = min_v max(TW(S-v), |Q(S-v, v)|); n <= 10 only."""
    need(g.n <= 10, "small_treewidth is for n <= 10")
    if g.n == 0:
        return -1
    masks = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    full = (1 << g.n) - 1
    tw = [0] * (full + 1)
    for s in range(1, full + 1):
        tw[s] = min(max(tw[s & ~(1 << v)], _component_boundary(masks, s & ~(1 << v), v, full))
                    for v in range(g.n) if s >> v & 1)
    return tw[full]


def max_degree(g):
    return max((len(a) for a in g.adj), default=0)


def longest_path_order(g):
    best = 0

    def extend(v, seen):
        nonlocal best
        best = max(best, len(seen))
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                extend(w, seen)
                seen.discard(w)

    for v in range(g.n):
        extend(v, {v})
    return best


def quotient(g, parts):
    part_of = {}
    for i, p in enumerate(parts):
        for v in p:
            part_of[v] = i
    edges = {(min(part_of[u], part_of[v]), max(part_of[u], part_of[v]))
             for u, v in g.edges if part_of[u] != part_of[v]}
    return G(len(parts), edges)


def check_partition(parts, n):
    flat = sorted(v for p in parts for v in p)
    need(flat == list(range(n)), "parts do not partition the vertex set")
    need(all(parts), "empty part")


# -- plane triangulations ---------------------------------------------------

def check_triangulation(d):
    """Rotation system of a plane triangulation; returns its graph.

    Faces are traced with the package's convention (after entering v from u,
    leave towards the neighbour preceding u in rotation[v]); every face must
    be a triangle, the outer face must be one of them, and Euler's formula
    must hold.
    """
    n, rotation = d["n"], d["rotation"]
    need(len(rotation) == n, "rotation length differs from n")
    arcs = {(u, v) for v, rot in enumerate(rotation) for u in rot}
    need(all((v, u) in arcs for u, v in arcs), "rotation is not symmetric")
    for v, rot in enumerate(rotation):
        need(len(set(rot)) == len(rot) and v not in rot, f"bad rotation at {v}")
    g = G(n, {(min(u, v), max(u, v)) for u, v in arcs})
    need(len(g.edges) == 3 * n - 6, "edge count is not 3n-6")
    where = {(v, u): i for v, rot in enumerate(rotation) for i, u in enumerate(rot)}
    seen = set()
    faces = []
    for start in sorted(arcs):
        if start in seen:
            continue
        walk = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            walk.append(cur[0])
            u, v = cur
            rot = rotation[v]
            cur = (v, rot[where[(v, u)] - 1])
        need(cur == start and len(walk) == 3, f"face through {start} is not a triangle")
        faces.append(tuple(walk))
    need(n - len(g.edges) + len(faces) == 2, "Euler's formula fails")
    outer = tuple(d["outer"])
    rotations_of = {outer[i:] + outer[:i] for i in range(3)}
    need(any(f in rotations_of for f in faces), "outer face is not a face")
    return g


# -- products and embeddings ------------------------------------------------

def strong_edges(a, b):
    """Edges of A strong-product B, ids i*|B|+j."""
    nb = b.n
    close_a = [sorted(a.adj[i] | {i}) for i in range(a.n)]
    close_b = [sorted(b.adj[j] | {j}) for j in range(b.n)]
    for i in range(a.n):
        for j in range(nb):
            p = i * nb + j
            for x in close_a[i]:
                for y in close_b[j]:
                    q = x * nb + y
                    if p < q:
                        yield p, q


def check_graph_product(kind, a, b, out):
    """Every edge of `out` obeys the product rule and the count is exact."""
    nb = b.n
    need(out.n == a.n * b.n, f"{kind} product has {out.n} vertices")
    for p, q in out.edges:
        (i, j), (x, y) = divmod(p, nb), divmod(q, nb)
        ai, bj = (i == x, x in a.adj[i]), (j == y, y in b.adj[j])
        if kind == "cartesian":
            ok = (ai[0] and bj[1]) or (ai[1] and bj[0])
        elif kind == "direct":
            ok = ai[1] and bj[1]
        else:
            ok = (ai[0] or ai[1]) and (bj[0] or bj[1])
        need(ok, f"{kind} product edge {(p, q)} breaks the product rule")
    ma, mb = len(a.edges), len(b.edges)
    expect = {"cartesian": a.n * mb + b.n * ma, "direct": 2 * ma * mb,
              "strong": a.n * mb + b.n * ma + 2 * ma * mb}[kind]
    need(len(out.edges) == expect, f"{kind} product has {len(out.edges)} edges, want {expect}")


def check_directed_strong(d1, d2, out):
    n2 = d2["n"]
    a1 = {tuple(x) for x in d1["arcs"]}
    a2 = {tuple(x) for x in d2["arcs"]}
    arcs = [tuple(x) for x in out["arcs"]]
    need(out["n"] == d1["n"] * n2, "directed product vertex count")
    need(len(set(arcs)) == len(arcs), "repeated arc")
    for p, q in arcs:
        (x, y), (xp, yp) = divmod(p, n2), divmod(q, n2)
        need((x == xp or (x, xp) in a1) and (y == yp or (y, yp) in a2) and p != q,
             f"arc {(p, q)} breaks the directed strong product rule")
    expect = (d1["n"] + len(a1)) * (n2 + len(a2)) - d1["n"] * n2
    need(len(arcs) == expect, f"directed product has {len(arcs)} arcs, want {expect}")


def join(a, b):
    """A + B: a's ids first, every cross pair adjacent."""
    return G(a.n + b.n, a.edges + [(u + a.n, v + a.n) for u, v in b.edges]
             + [(u, a.n + v) for u in range(a.n) for v in range(b.n)])


def clique(k):
    return G(k, combinations(range(k), 2))


def same_graph(d, g, what):
    need(d["n"] == g.n and sorted(map(tuple, d["edges"])) == g.edges,
         f"{what} differs from its definition")


def check_embedding(guest_n, guest_edges, emb, factors=None):
    """Injective map into F1 x F2 (x K_c) with every guest edge realised."""
    f = [G.from_dict(x) for x in emb["factors"]]
    if factors is not None:
        for got, want, name in zip(emb["factors"], factors, ("first", "second")):
            same_graph(got, want, f"{name} factor")
    c = emb["c"]
    width = 2 if c is None else 3
    images = [tuple(t) for t in emb["map"]]
    need(len(images) == guest_n, "map does not cover the guest")
    need(len(set(images)) == guest_n, "map is not injective")
    for t in images:
        need(len(t) == width, "tuple arity")
        need(0 <= t[0] < f[0].n and 0 <= t[1] < f[1].n, "coordinate out of range")
        need(c is None or 0 <= t[2] < c, "K_c coordinate out of range")
    edges = 0
    for u, v in guest_edges:
        s, t = images[u], images[v]
        need((s[0] == t[0] or t[0] in f[0].adj[s[0]])
             and (s[1] == t[1] or t[1] in f[1].adj[s[1]]),
             f"guest edge {(u, v)} is not realised in the product")
        edges += 1
    return edges


def check_directed_embedding(g, emb):
    d1, d2 = emb["factors"]
    a1 = {tuple(x) for x in d1["arcs"]}
    a2 = {tuple(x) for x in d2["arcs"]}
    images = [tuple(t) for t in emb["map"]]
    need(len(images) == g.n and len(set(images)) == g.n, "map is not a bijection onto images")
    for x, y in images:
        need(0 <= x < d1["n"] and 0 <= y < d2["n"], "coordinate out of range")

    def arc(s, t):
        return (s != t and (s[0] == t[0] or (s[0], t[0]) in a1)
                and (s[1] == t[1] or (s[1], t[1]) in a2))

    for u, v in g.edges:
        need(arc(images[u], images[v]) or arc(images[v], images[u]),
             f"guest edge {(u, v)} is realised in neither direction")
