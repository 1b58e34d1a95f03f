"""The breadth-first searches against copies of their earlier loops.

`bfs_layers` is the one graph search of the graph, decomposition and planar
layers.  The reference oracles below are the loops it replaced: the frontier
loop of `bfs_layering` (before its layers were sorted), the Lex-BFS loop, the
stack searches of `Graph.components` and `Graph.is_connected`, and the tree
check `_tree_ok`.  Each pair must give the same values and the same errors.
"""

import re
from types import SimpleNamespace

import pytest

import prodstruct.constructions as C
from conftest import random_graph, random_tree
from prodstruct.decomposition import DecompositionError, _tree_ok, bfs_layering
from prodstruct.graphs import Graph, GraphError, bfs_layers
from prodstruct.planar import lex_bfs
from prodstruct.rng import SplitMix64


# -- reference oracles: the earlier loops ---------------------------------

def plain_frontiers(adj, r):
    """The frontier loop of bfs_layering, each layer in discovery order."""
    dist = {r: 0}
    frontier = [r]
    layers = [[r]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        if nxt:
            layers.append(nxt)
        frontier = nxt
    return layers


def plain_bfs_layering(g, r):
    """bfs_layering's layers as sets, or its error text."""
    if not 0 <= r < g.n:
        return f"root {r} out of range for n={g.n}"
    layers = plain_frontiers(g.adj, r)
    reached = {v for layer in layers for v in layer}
    if len(reached) != g.n:
        missing = min(set(range(g.n)) - reached)
        return f"graph disconnected: vertex {missing} unreached"
    return [frozenset(layer) for layer in layers]


def plain_lex_bfs(g, r):
    """(parent, layers, order) of Lex-BFS from r, or None if g is disconnected."""
    parent = [-1] * g.n
    layers = [[r]]
    seen = {r}
    while True:
        prev = layers[-1]
        pos = {v: i for i, v in enumerate(prev)}
        nxt = set()
        for v in prev:
            for w in g.adj[v]:
                if w not in seen:
                    nxt.add(w)
        if not nxt:
            break
        ranked = []
        for w in nxt:
            p = min((pos[u] for u in g.adj[w] if u in pos))
            parent[w] = prev[p]
            ranked.append((p, w))
        layer = [w for _, w in sorted(ranked)]
        layers.append(layer)
        seen |= nxt
    if len(seen) != g.n:
        return None
    return parent, layers, [v for layer in layers for v in layer]


def plain_components(g):
    seen = set()
    out = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            for w in g.adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(sorted(comp))
    return out


def plain_is_connected(g):
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def plain_tree_ok(nodes, edges):
    if nodes == 0 or len(edges) != nodes - 1:
        return None
    adj = [[] for _ in range(nodes)]
    for x, y in edges:
        if not (0 <= x < nodes and 0 <= y < nodes) or x == y:
            return None
        adj[x].append(y)
        adj[y].append(x)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return adj if len(seen) == nodes else None


# -- instances -------------------------------------------------------------

def seeded_graphs():
    """Dense graphs (mostly connected) and sparse ones (mostly not)."""
    rng = SplitMix64(57)
    out = [Graph(1), Graph(4), Graph(2, [(0, 1)])]
    for i in range(60):
        n = 1 + i % 30
        out.append(random_graph(rng, n, 1, 2 if i % 2 else 3 * n))
    for i in range(12):
        # a random tree plus chords: connected, with long layers
        t = random_tree(rng, 10 + 5 * i)
        extra = [(rng.randrange(t.n), rng.randrange(t.n)) for _ in range(i)]
        out.append(Graph(t.n, t.edges() + [(u, v) for u, v in extra if u != v]))
    return out


GRAPHS = seeded_graphs()
TRIANGULATIONS = [C.stacked_triangulation(n, seed)
                  for n, seed in [(10, 1), (10, 2), (25, 3), (60, 4), (150, 5), (300, 6),
                                  (300, 7)]]


def edge_lists():
    """(nodes, edges): trees, forests, wrong counts, loops, out-of-range ends."""
    rng = SplitMix64(91)
    out = [(0, []), (1, []), (1, [(0, 0)]), (2, [(0, 1)]), (2, [(1, 0)]), (2, [(0, 0)]),
           (3, [(0, 1), (0, 1)]), (3, [(0, 1), (1, 3)]), (3, [(-1, 0), (0, 1)])]
    for i in range(40):
        n = 2 + i % 20
        edges = random_tree(rng, n).edges()
        rng.shuffle(edges)
        kind = i % 5
        if kind == 1:           # a forest and a repeated edge: n - 1 edges
            edges[-1] = edges[0]
        elif kind == 2:         # a forest with too few edges
            edges.pop()
        elif kind == 3:         # one edge too many
            edges.append((0, n - 1))
        elif kind == 4:         # an end out of range
            u, _ = edges[-1]
            edges[-1] = (u, n + rng.randrange(3)) if rng.randrange(2) else (-1, u)
        out.append((n, [tuple(e) for e in edges]))
    return out


# -- the comparisons ---------------------------------------------------------

@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_graph_searches_match_plain_loops(g):
    assert g.components() == plain_components(g)
    assert g.is_connected() == plain_is_connected(g)
    for r in range(-1, g.n + 1):
        if 0 <= r < g.n:
            assert bfs_layers(g.adj, r) == plain_frontiers(g.adj, r)
        expected = plain_bfs_layering(g, r)
        if isinstance(expected, str):
            with pytest.raises(DecompositionError, match=f"^{re.escape(expected)}$"):
                bfs_layering(g, r)
        else:
            assert list(bfs_layering(g, r).layers) == expected


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_lex_bfs_matches_plain_loop_on_any_graph(g):
    # lex_bfs reads only the graph and the outer face of a triangulation
    pt = SimpleNamespace(graph=g, outer_face=tuple(range(g.n)))
    for r in range(g.n):
        expected = plain_lex_bfs(g, r)
        if expected is None:
            with pytest.raises(GraphError, match="triangulation not connected"):
                lex_bfs(pt, r)
        else:
            t = lex_bfs(pt, r)
            assert (t.root, t.parent, t.layers, t.order) == (r, *expected)


@pytest.mark.parametrize("pt", TRIANGULATIONS, ids=lambda pt: f"n{pt.graph.n}")
def test_lex_bfs_matches_plain_loop_on_triangulations(pt):
    g = pt.graph
    for r in pt.outer_face:
        t = lex_bfs(pt, r)
        assert (t.parent, t.layers, t.order) == plain_lex_bfs(g, r)
        assert bfs_layers(g.adj, r) == plain_frontiers(g.adj, r)
        assert list(bfs_layering(g, r).layers) == plain_bfs_layering(g, r)


@pytest.mark.parametrize("nodes,edges", edge_lists())
def test_tree_check_matches_plain_loop(nodes, edges):
    assert _tree_ok(nodes, edges) == plain_tree_ok(nodes, edges)
