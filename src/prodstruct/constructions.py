"""Deterministic generators for the graph families used across the package.

Id layouts are documented per generator; everything is deterministic given
(parameters, seed).
"""

from __future__ import annotations

import itertools

from .graphs import Graph, GraphError, apex, complete_join, subgraph_contained
from .decomposition import PathDecomposition, TreeDecomposition, _require, bag_span
from .planar import PlaneTriangulation, v8_fixture
from .products import ProductEmbedding, EmbeddingError, cartesian, strong, _checked
from .rng import SplitMix64


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("need n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 1:
        raise GraphError("need n >= 1")
    if n <= 2:
        return path(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("need n >= 1")
    return Graph(n, itertools.combinations(range(n), 2))


def complete_multipartite(sizes) -> Graph:
    """Parts occupy consecutive id blocks in the order given."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError("need nonempty positive part sizes")
    return complete_join(*[Graph(s) for s in sizes])


def star(n: int) -> Graph:
    """K_{1,n}: center 0, leaves 1..n."""
    if n < 0:
        raise GraphError("need n >= 0")
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def grid2(m: int, n: int) -> Graph:
    """P_m box P_n; vertex (i, j) has id i*n + j."""
    return cartesian(path(m), path(n))


def grid3(a: int, b: int, c: int) -> Graph:
    """P_a box P_b box P_c; vertex (i, j, k) has id i*b*c + j*c + k."""
    return cartesian(path(a), cartesian(path(b), path(c)))


def hex_graph(n: int, diagonals=None):
    """The n x n grid with every internal face triangulated.

    diagonals: one bit per cell, row-major over the (n-1)^2 cells; 0 adds the
    NE-SW diagonal (r, c+1)-(r+1, c) (the default everywhere), 1 adds
    (r, c)-(r+1, c+1).  Returns (graph, column-pair path-decomposition,
    per-bag orderings, per-bag spans); with the default diagonals every span
    is at most 2 (orderings interleave the two columns row by row).
    """
    if n < 2:
        raise GraphError("need n >= 2")
    cells = (n - 1) * (n - 1)
    if diagonals is None:
        diagonals = [0] * cells
    diagonals = list(diagonals)
    if len(diagonals) != cells or not all(d in (0, 1) for d in diagonals):
        raise GraphError(f"need {cells} diagonal bits, each 0 or 1")
    g = grid2(n, n)
    edges = list(g.edges())
    for r in range(n - 1):
        for c in range(n - 1):
            if diagonals[r * (n - 1) + c]:
                edges.append((r * n + c, (r + 1) * n + c + 1))
            else:
                edges.append((r * n + c + 1, (r + 1) * n + c))
    g = Graph(n * n, edges)
    orderings = [[r * n + c for r in range(n) for c in (j, j + 1)] for j in range(n - 1)]
    pd = PathDecomposition(g.n, orderings)
    return g, pd, orderings, [bag_span(g, order) for order in orderings]


def triangulated_grid2(g1: Graph, g2: Graph) -> Graph:
    """G1 box G2 plus one diagonal per edge pair: the diagonal (x,y)-(x',y')
    for the edges x < x' of G1 and y < y' of G2."""
    g = cartesian(g1, g2)
    edges = list(g.edges())
    for x, xp in g1.edges():
        for y, yp in g2.edges():
            edges.append((x * g2.n + y, xp * g2.n + yp))
    return Graph(g.n, edges)


def triangulated_grid3(a: int, b: int, c: int) -> Graph:
    """P_a box P_b box P_c with every axis-aligned unit square triangulated.

    Each unit square lies in exactly one axis slice, and its diagonal joins
    its least corner p to the opposite corner p + e_u + e_v.  This is one
    arbitrary representative of the many triangulations the construction
    admits.
    """
    g = grid3(a, b, c)
    dims = (a, b, c)
    step = (b * c, c, 1)
    edges = list(g.edges())
    for u_ax in range(3):
        for v_ax in range(u_ax + 1, 3):
            for p in itertools.product(*(range(d) for d in dims)):
                if p[u_ax] + 1 >= dims[u_ax] or p[v_ax] + 1 >= dims[v_ax]:
                    continue
                base = p[0] * step[0] + p[1] * step[1] + p[2] * step[2]
                edges.append((base, base + step[u_ax] + step[v_ax]))
    return Graph(g.n, edges)


def pyramid(n: int) -> Graph:
    """(P_n box P_n) + K_1; the apex has the last id."""
    return apex(grid2(n, n))


def windmill(k: int) -> Graph:
    """Apex over a k-edge matching; matching pairs (2i, 2i+1), apex id 2k."""
    if k < 0:
        raise GraphError("need k >= 0")
    return apex(Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]))


def flower(k: int) -> Graph:
    """Apex over k disjoint triangles; triangle i on {3i, 3i+1, 3i+2}."""
    if k < 0:
        raise GraphError("need k >= 0")
    edges = []
    for i in range(k):
        base = 3 * i
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    return apex(Graph(3 * k, edges))


def treedepth_family(k: int, c: int) -> Graph:
    """G_0 = K_1; G_i adds, per i-clique of G_{i-1} (lexicographic order),
    an independent set of i*i*c + 1 vertices complete to the clique.

    td(G_k) <= k + 1 (checked by the oracle in tests).
    """
    if not (0 <= k <= 2) or not (1 <= c <= 2):
        raise GraphError("supported range: 0 <= k <= 2, 1 <= c <= 2")
    g = Graph(1)
    for i in range(1, k + 1):
        cliques = [comb for comb in itertools.combinations(range(g.n), i)
                   if g.is_clique(comb)]
        n = g.n
        edges = list(g.edges())
        for clique in cliques:
            fresh = range(n, n + i * i * c + 1)
            edges += [(v, w) for v in clique for w in fresh]
            n += i * i * c + 1
        g = Graph(n, edges)
    return g


def separating_graph(c: int):
    """Clique S on c+1 vertices plus, per pair of S-vertices, a (c x c)-grid
    complete to the pair.  Ids: S = 0..c, then grid copies in pair order.

    Returns (graph, witness): the witness tree-decomposition has root bag S
    and, per pair, a chain of star bags; every bag's induced subgraph has
    treedepth at most 4.
    """
    if not (1 <= c <= 2):
        raise GraphError("supported range: 1 <= c <= 2")
    s = list(range(c + 1))
    edges = list(itertools.combinations(s, 2))
    n = c + 1
    bags = [frozenset(s)]
    tree_edges = []
    for v, w in itertools.combinations(s, 2):
        base = n
        grid = grid2(c, c)
        edges += [(base + x, base + y) for x, y in grid.edges()]
        edges += [(u, base + x) for u in (v, w) for x in range(grid.n)]
        n += grid.n
        # chain of star bags over the grid's bipartition
        side_a = sorted(x for x in range(grid.n)
                        if (x // c + x % c) % 2 == 0)
        side_b = [base + x for x in range(grid.n)
                  if (x // c + x % c) % 2 == 1]
        prev = 0
        for a in side_a:
            bags.append(frozenset([v, w, base + a] + side_b))
            tree_edges.append((prev, len(bags) - 1))
            prev = len(bags) - 1
    g = Graph(n, edges)
    witness = TreeDecomposition(n, bags, tree_edges)
    _require(g, witness, "witness construction broke")
    return g, witness


def v8() -> Graph:
    return v8_fixture()[0]


def stacked_triangulation(n: int, seed: int) -> PlaneTriangulation:
    """Random stacked plane triangulation: start from K_3 and insert n - 3
    vertices, each into a uniformly random inner face.
    """
    if n < 3:
        raise GraphError("need n >= 3")
    rng = SplitMix64(seed)
    rotation = [[1, 2], [2, 0], [0, 1]]
    inner = [(1, 0, 2)]
    for x in range(3, n):
        a, b, c = inner.pop(rng.randrange(len(inner)))
        rotation[b].insert(rotation[b].index(a), x)
        rotation[c].insert(rotation[c].index(b), x)
        rotation[a].insert(rotation[a].index(c), x)
        rotation.append([a, b, c])
        inner += [(a, b, x), (b, c, x), (c, a, x)]
    return PlaneTriangulation.from_rotation(n, rotation, (0, 1, 2))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple d-regular graph by legal stub pairing with restarts.

    Each step pops a random stub and pairs it with a uniformly random stub
    that creates neither a loop nor a repeated edge; dead ends restart the
    whole pairing.  Deterministic given the seed.
    """
    if d >= n or d < 0:
        raise GraphError("need 0 <= d < n")
    if (n * d) % 2:
        raise GraphError("n*d must be even")
    if d == 0:
        return Graph(n)
    rng = SplitMix64(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        adj = [set() for _ in range(n)]
        edges = []
        while stubs:
            u = stubs.pop()
            legal = [i for i, w in enumerate(stubs)
                     if w != u and w not in adj[u]]
            if not legal:
                break
            i = legal[rng.randrange(len(legal))]
            w = stubs.pop(i)
            adj[u].add(w)
            adj[w].add(u)
            edges.append((u, w))
        if not stubs:
            return Graph(n, edges)


def tightness_example(p: int, q: int, m: int):
    """K_{pq,m,m} with factors K_{p,m}, K_{q,m} and an embedding into their
    strong product.

    For p = q = 1 the embedding is explicit (apex to the pair of centers,
    each m-part along one factor's leaves); otherwise it is found by
    subgraph search and its absence raises EmbeddingError.
    """
    if p < 1 or q < 1 or m < p * q:
        raise GraphError("need p, q >= 1 and m >= p*q")
    guest = complete_multipartite([p * q, m, m])
    f1 = complete_multipartite([p, m])
    f2 = complete_multipartite([q, m])
    if p == 1 and q == 1:
        mapping = [(0, 0)]
        mapping += [(k, 0) for k in range(1, m + 1)]
        mapping += [(0, k) for k in range(1, m + 1)]
    else:
        if guest.n > 12:
            raise GraphError("search cap: guest larger than 12 vertices")
        found = subgraph_contained(guest, strong(f1, f2))
        if found is None:
            raise EmbeddingError(
                f"K_{{{p*q},{m},{m}}} is not contained in K_{{{p},{m}}} x K_{{{q},{m}}}")
        mapping = [(found[v] // f2.n, found[v] % f2.n) for v in range(guest.n)]
    e = _checked(ProductEmbedding(guest, (f1, f2), None, tuple(mapping)))
    return guest, f1, f2, e
