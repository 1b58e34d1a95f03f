"""Differential checks of treewidth and pathwidth against networkx.

The graphs have 10-14 vertices, above the range of the brute-force oracles
in conftest.py; networkx's heuristics and chordality test are independent of
the elimination DP.
"""

import itertools

import networkx as nx
import pytest
from networkx.algorithms.approximation import (treewidth_min_degree,
                                               treewidth_min_fill_in)

from conftest import random_graph
from prodstruct.exact import pathwidth_exact, treewidth_exact
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
