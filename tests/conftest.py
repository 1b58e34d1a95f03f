"""Shared helpers: seeded random instances and independent mini-oracles.

The mini-oracles here are deliberately written differently from the package
implementations (definition-first brute force) so the two can disagree.  The
raw-enumeration references at the end (twintw_raw, twtw_raw,
raw_bag_path_check) refuse hosts above RAW_MAX_N vertices.  The certificate
references (node_set_validate, edge_validate_embedding) are the plain
per-edge checkers that the package's per-vertex checkers replaced,
is_valid_subgraph_map checks a subgraph_contained witness, and components
floods each component, as the treedepth and PMC tables did before they
shared one subset-component table.
"""

import heapq
import itertools
from array import array
from collections import Counter

import prodstruct.exact
import prodstruct.exact._kernels
from prodstruct.decomposition import TreeDecomposition, ValidationReport, validate
from prodstruct.exact import InstanceTooLarge, longest_path_order, treewidth_exact
from prodstruct.exact._kernels import flood
from prodstruct.graphs import Graph, subgraph_contained
from prodstruct.products import strong
from prodstruct.rng import SplitMix64

RAW_MAX_N = 4


def counting(monkeypatch, name, module=prodstruct.exact):
    """A list that gets one entry per call of module.name, patched for the test."""
    calls = []
    real = getattr(module, name)

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)
    monkeypatch.setattr(module, name, counted)
    return calls


def queued(monkeypatch):
    """A list that gets one entry per state the subset searches queue: the
    searches' array is swapped for a subclass that counts append calls."""
    appends = []

    class Counted(array):
        def append(self, x):
            appends.append(1)
            super().append(x)
    monkeypatch.setattr(prodstruct.exact._kernels, "array", Counted)
    return appends


def random_graph(rng: SplitMix64, n: int, p_num=1, p_den=2) -> Graph:
    """Edge-probability p_num/p_den graph on n vertices."""
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.randrange(p_den) < p_num]
    return Graph(n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g beside h, h's ids shifted past g's."""
    return Graph(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])


def random_graph_max_degree(rng: SplitMix64, n: int, max_deg: int) -> Graph:
    cand = list(itertools.combinations(range(n), 2))
    rng.shuffle(cand)
    deg = [0] * n
    edges = []
    for u, v in cand:
        if deg[u] < max_deg and deg[v] < max_deg and rng.randrange(2):
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)


def random_tree(rng: SplitMix64, n: int) -> Graph:
    """Random labeled tree: each vertex attaches to a random earlier one."""
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def connected_atlas(max_n: int):
    """One representative per isomorphism class of connected graphs, n <= max_n."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g
    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(G):
            out.append(Graph(n, [tuple(sorted(e)) for e in G.edges()]))
    return out


def components(masks, within: int) -> list:
    """[(C, N(C))] for the components C of the subgraph that `within` induces,
    the component of the lowest vertex first, each flooded from that vertex;
    N(C) is the set of vertices outside C with a neighbour in C.  The
    reference for the shared low_table and the PMC sweep."""
    out = []
    rest = within
    while rest:
        comp, reach = flood(masks, within, (rest & -rest).bit_length() - 1)
        out.append((comp, reach & ~comp))
        rest ^= comp
    return out


# -- definition-first mini-oracles (for n <= ~7) --------------------------

def brute_bandwidth(g: Graph) -> int:
    best = g.n
    for perm in itertools.permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(perm)}
        span = max((abs(pos[u] - pos[v]) for u, v in g.edges()), default=0)
        best = min(best, span)
    return best


def brute_treedepth(g: Graph) -> int:
    def rec(vs):
        vs = frozenset(vs)
        if not vs:
            return 0
        sub, order = g.subgraph(vs)
        comps = sub.components()
        if len(comps) > 1:
            return max(rec({order[v] for v in c}) for c in comps)
        return 1 + min(rec(vs - {order[v]}) for v in range(sub.n))
    return rec(range(g.n))


def brute_vertex_separation(g: Graph) -> int:
    """Pathwidth as min over orderings of max boundary.

    The orderings are walked depth first, so orderings that share a prefix
    share its boundaries, and a prefix whose boundary already reaches the best
    width found is not extended: none of its orderings can do better."""
    best = g.n

    def walk(seen, worst):
        nonlocal best
        if worst >= best:
            return
        if len(seen) == g.n:
            best = worst
            return
        for v in range(g.n):
            if v not in seen:
                nxt = seen | {v}
                boundary = {w for u in nxt for w in g.adj[u]} - nxt
                walk(nxt, max(worst, len(boundary)))
    walk(frozenset(), 0)
    return best


def check_elimination_forest(g: Graph, parent, depth: int) -> bool:
    """parent array is a forest whose closure contains g, height == depth."""
    if len(parent) != g.n:
        return False

    def ancestors(v):
        out = []
        while parent[v] != -1:
            v = parent[v]
            out.append(v)
        return out

    heights = [1 + len(ancestors(v)) for v in range(g.n)]
    if g.n and max(heights) != depth:
        return False
    for u, v in g.edges():
        if u not in ancestors(v) and v not in ancestors(u):
            return False
    return True


# -- raw-enumeration references (for n <= RAW_MAX_N) ---------------------

def _raw_cap(g: Graph, what: str):
    if g.n > RAW_MAX_N:
        raise InstanceTooLarge(f"{what}: n={g.n} exceeds cap {RAW_MAX_N}")


def _all_tree_shapes(m: int):
    """All labeled trees on m nodes (via Pruefer sequences)."""
    if m == 1:
        return [[]]
    if m == 2:
        return [[(0, 1)]]
    shapes = []
    for seq in itertools.product(range(m), repeat=m - 2):
        deg = [1] * m
        for x in seq:
            deg[x] += 1
        edges = []
        leaves = [i for i in range(m) if deg[i] == 1]
        heapq.heapify(leaves)
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, x))
            deg[x] -= 1
            if deg[x] == 1:
                heapq.heappush(leaves, x)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.append((u, v))
        shapes.append(edges)
    return shapes


def _valid_bag_families(g: Graph):
    """All valid tree-decompositions with <= n inclusion-free bags, as bag sets.

    Raw enumeration for tiny hosts; used to cross-check the clique-tree
    reductions.  Restricting to inclusion-free families is safe for
    universally-quantified bag properties: merging a bag into a superset
    neighbour only removes bags.
    """
    n = g.n
    subsets = [frozenset(c) for r in range(1, n + 1)
               for c in itertools.combinations(range(n), r)]
    families = []
    for m in range(1, n + 1):
        for combo in itertools.combinations(subsets, m):
            if any(a < b for a in combo for b in combo):
                continue
            for shape in _all_tree_shapes(m):
                td = TreeDecomposition(n, combo, shape)
                if validate(g, td).ok:
                    families.append(frozenset(combo))
                    break
    return sorted(set(families), key=lambda f: sorted(map(sorted, f)))


def twintw_raw(g: Graph) -> int:
    """TwIntTw by raw bag-family enumeration (n <= RAW_MAX_N cross-check)."""
    _raw_cap(g, "twintw_raw")
    fams = _valid_bag_families(g)
    return min(max(len(a & b) for a in f1 for b in f2)
               for f1 in fams for f2 in fams)


def _graphs_on(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def twtw_raw(g: Graph) -> int:
    """twtw (c = 1) by explicit host-pair enumeration (n <= RAW_MAX_N cross-check)."""
    _raw_cap(g, "twtw_raw")
    hosts = [h for n1 in range(1, g.n + 1) for h in _graphs_on(n1)]
    host_tw = [(h, treewidth_exact(h)[0]) for h in hosts]
    for k in itertools.count(0):
        pool = [h for h, tw in host_tw if tw <= k]
        for h1 in pool:
            for h2 in pool:
                if h1.n * h2.n < g.n:
                    continue
                if subgraph_contained(g, strong(h1, h2)) is not None:
                    return k


def raw_bag_path_check(g: Graph, n: int) -> bool:
    """Raw-enumeration verdict over all (inclusion-free) tree-decompositions."""
    _raw_cap(g, "raw_bag_path_check")
    for fam in _valid_bag_families(g):
        if not any(longest_path_order(g.subgraph(b)[0]) >= n for b in fam):
            return False
    return True


# -- certificate references ------------------------------------------------

def is_valid_subgraph_map(h: Graph, g: Graph, phi: dict) -> bool:
    """Independent check that phi witnesses h contained in g."""
    if sorted(phi.keys()) != list(range(h.n)):
        return False
    if len(set(phi.values())) != h.n:
        return False
    if not all(0 <= x < g.n for x in phi.values()):
        return False
    return all(g.has_edge(phi[u], phi[v]) for u, v in h.edges())


def node_set_validate(g: Graph, td) -> ValidationReport:
    """validate by node sets: edge uv is in a bag iff the node sets of u and
    v meet, and a node set is connected iff it has one node more than the
    tree edges xy with v in B_x and B_y."""
    errors = []
    if td.host_n != g.n:
        errors.append(f"host mismatch: decomposition host_n={td.host_n}, graph n={g.n}")
        return ValidationReport(False, errors, -1, -1, False)
    n = g.n
    nodes_of = [[] for _ in range(n)]
    outside = set()
    for x, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < n:
                nodes_of[v].append(x)
            else:
                outside.add(v)
                errors.append(f"bag {x} mentions out-of-range vertex {v}")
    errors += [f"vertex {v} in no bag" for v in range(n) if not nodes_of[v]]
    uncovered = []
    for u, xs in enumerate(nodes_of):
        nu = frozenset(xs)
        uncovered += [(u, v) for v in g.adj[u] if u < v and nu.isdisjoint(nodes_of[v])]
    errors += [f"edge ({u},{v}) in no bag" for u, v in sorted(uncovered)]
    shared, adhesion, taut = Counter(), 0, True
    for x, y in td.tree_edges:
        adh = td.bags[x] & td.bags[y]
        shared.update(adh)
        adhesion = max(adhesion, len(adh))
        taut = taut and adh.isdisjoint(outside) and g.is_clique(adh)
    errors += [f"vertex {v} has a disconnected node set" for v, xs in enumerate(nodes_of)
               if xs and len(xs) - shared[v] != 1]
    return ValidationReport(not errors, errors, td.width(), adhesion, taut)


def edge_validate_embedding(e) -> list:
    """validate_embedding edge by edge: the map check, then every guest edge
    whose end images can be looked up, in g.edges() order."""
    g = e.guest
    width = 3 if e.c is not None else 2
    if len(e.map) != g.n:
        return [f"map covers {len(e.map)} vertices, guest has {g.n}"]
    errors, bad = [], set()
    for v, t in enumerate(e.map):
        if len(t) != width:
            errors.append(f"vertex {v}: tuple arity {len(t)} != {width}")
            bad.add(v)
        elif not all(type(x) is int for x in t):
            errors.append(f"vertex {v}: non-integer coordinate")
            bad.add(v)
        else:
            if not (0 <= t[0] < e.factors[0].n and 0 <= t[1] < e.factors[1].n):
                errors.append(f"vertex {v}: coordinate out of range")
                bad.add(v)
            if e.c is not None and not (0 <= t[2] < e.c):
                errors.append(f"vertex {v}: K_c coordinate out of range")
    if len(set(e.map)) != len(e.map):
        errors.append("map not injective")
    for u, v in g.edges():
        if u in bad or v in bad:
            continue
        tu, tv = e.map[u], e.map[v]
        if tu == tv:
            errors.append(f"edge ({u},{v}): identical images")
            continue
        for i, word in ((0, "first"), (1, "second")):
            if tu[i] != tv[i] and not e.factors[i].has_edge(tu[i], tv[i]):
                errors.append(f"edge ({u},{v}): {word} coordinates {tu[i]},{tv[i]}"
                              " not equal-or-adjacent")
    return errors
