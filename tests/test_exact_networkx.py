"""Differential checks of treewidth, pathwidth and clique number against networkx.

The width graphs have 10-14 vertices, above the range of the brute-force
oracles in conftest.py; networkx's heuristics and chordality test are
independent of the elimination DP.  The clique number is checked on every
labelled graph with at most 5 vertices and on seeded graphs with 6-9.
"""

import itertools

import networkx as nx
import pytest
from networkx.algorithms.approximation import (treewidth_min_degree,
                                               treewidth_min_fill_in)

from conftest import random_graph
from prodstruct.exact import max_clique_order, pathwidth_exact, treewidth_exact
from prodstruct.graphs import Graph
from prodstruct.rng import SplitMix64


@pytest.mark.parametrize("seed,n", [(1, 10), (2, 11), (3, 12), (4, 13), (5, 14),
                                    (6, 12), (7, 14)])
def test_treewidth_against_networkx(seed, n):
    g = random_graph(SplitMix64(seed), n, 1, 3)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(g.edges())

    tw, td = treewidth_exact(g)
    assert treewidth_min_fill_in(nxg)[0] >= tw
    assert treewidth_min_degree(nxg)[0] >= tw

    completion = nxg.copy()
    for bag in td.bags:
        completion.add_edges_from(itertools.combinations(bag, 2))
    assert nx.is_chordal(completion)
    assert max(len(c) for c in nx.find_cliques(completion)) - 1 == tw

    assert tw <= pathwidth_exact(g)[0]


def nx_clique_number(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return max((len(c) for c in nx.find_cliques(nxg)), default=0)


def test_max_clique_order_on_every_small_labelled_graph():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            assert max_clique_order(g) == nx_clique_number(g), g.edges()


@pytest.mark.parametrize("seed", range(12))
def test_max_clique_order_on_seeded_graphs(seed):
    rng = SplitMix64(100 + seed)
    for n in range(6, 10):
        g = random_graph(rng, n, 1 + seed % 3, 4)
        assert max_clique_order(g) == nx_clique_number(g), g.edges()
