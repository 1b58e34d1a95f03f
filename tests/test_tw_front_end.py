"""The treewidth front end against the unreduced treewidth DP.

treewidth_exact and _treewidth_value first eliminate simplicial vertices and
almost simplicial ones of degree at most a lower bound (MMD+ once a vertex
is blocked), and run treewidth_dp only on what is left.  The reference is
treewidth_dp on the masks of the whole graph.  On every graph of networkx's
atlas (n <= 7, disconnected ones included) and on seeded graphs with n <= 11,
the value must be the reference's, the witness must validate with width equal
to the value, and _tw_at_most must answer "tw <= k?" by it at every level k.
"""

import pytest

import prodstruct.constructions as C
from conftest import random_graph
from prodstruct.decomposition import validate
from prodstruct.exact import (_contraction_degeneracy, _reduce, _treewidth_value, _tw_at_most,
                              treewidth_exact)
from prodstruct.exact._kernels import treewidth_dp
from prodstruct.graphs import Graph
from prodstruct.rng import SplitMix64


def atlas_graphs():
    """Every graph of the atlas, one per isomorphism class with n <= 7."""
    from networkx.generators.atlas import graph_atlas_g
    return [Graph(G.number_of_nodes(), [tuple(sorted(e)) for e in G.edges()])
            for G in graph_atlas_g()]


def seeded_graphs():
    """n = 6-11 at edge densities 1/8 to 7/8, and disjoint unions of two."""
    rng = SplitMix64(31)
    out = [random_graph(rng, 6 + i % 6, 1 + i % 7, 8) for i in range(150)]
    for i in range(30):
        a = 2 + i % 5
        g, h = random_graph(rng, a, 6, 8), random_graph(rng, 9 - a, 1 + i % 7, 8)
        out.append(Graph(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]))
    return out


def assert_front_end_exact(g):
    ref = treewidth_dp(g.adjacency_masks())[0] if g.n else -1
    value, td = treewidth_exact(g)
    assert value == ref, (g.n, g.edges())
    rep = validate(g, td)
    assert rep.ok and rep.width == value, (g.n, g.edges(), rep)
    assert _treewidth_value(g) == value, (g.n, g.edges())
    masks = tuple(g.adjacency_masks())
    levels = [_tw_at_most(masks, k) for k in range(g.n)]
    assert levels == [value <= k for k in range(g.n)], (g.n, g.edges())


def test_front_end_matches_the_dp_on_the_atlas():
    graphs = atlas_graphs()
    assert len(graphs) == 1253 and any(not g.is_connected() for g in graphs)
    for g in graphs:
        assert_front_end_exact(g)


def test_front_end_matches_the_dp_on_seeded_graphs():
    graphs = seeded_graphs()
    assert any(not g.is_connected() for g in graphs)
    for g in graphs:
        assert_front_end_exact(g)


@pytest.mark.parametrize("g", [C.cycle(12), C.grid2(3, 4), C.random_regular(12, 3, 3),
                               C.random_regular(13, 4, 5), C.hex_graph(4)[0]],
                         ids=["cycle12", "grid3x4", "rr12_3", "rr13_4", "hex4"])
def test_front_end_matches_the_dp_on_larger_graphs(g):
    assert_front_end_exact(g)


def test_rules_fire_as_stated():
    # a path of simplicial vertices raises low to 1 and empties
    adj = C.path(4).adjacency_masks()
    order = []
    assert _reduce(adj, 0b1111, 0, order) == (0, 1, False) and order == [0, 1, 2, 3]
    # a 4-cycle's vertices are almost simplicial; at low 1 they are blocked
    order = []
    assert _reduce(C.cycle(4).adjacency_masks(), 0b1111, 1, order) == (0b1111, 1, True)
    assert order == []
    # at low 2 the first goes, and the triangle left is simplicial
    assert _reduce(C.cycle(4).adjacency_masks(), 0b1111, 2, order) == (0, 2, False)
    assert order == [0, 1, 2, 3]
    # K3,3: no neighbourhood is a clique but for one vertex
    assert _reduce(C.complete_multipartite([3, 3]).adjacency_masks(), 0b111111, 3, []) \
        == (0b111111, 3, False)
    # without grow, a simplicial vertex above low stays: K4 plus a pendant vertex
    k4 = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    order = []
    assert _reduce(k4.adjacency_masks(), 0b11111, 1, order, grow=False) == (0b1111, 1, False)
    assert order == [4]
    assert _reduce(k4.adjacency_masks(), 0b11111, 1, order) == (0, 3, False)


def test_mmd_bound():
    for g, low in ((C.cycle(12), 2), (C.grid2(3, 4), 3), (C.complete(5), 4),
                   (Graph(4), 0), (C.path(6), 1)):
        assert _contraction_degeneracy(g.adjacency_masks(), (1 << g.n) - 1) == low
    for g in seeded_graphs()[:60]:
        bound = _contraction_degeneracy(g.adjacency_masks(), (1 << g.n) - 1)
        assert bound <= treewidth_exact(g)[0]
