import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_valid_subgraph_map, random_graph
from prodstruct.graphs import (Graph, Digraph, GraphError, VertexPartition,
                               complete_join, apex, quotient, clique_paste,
                               bidirect, underlying, subgraph_contained)
from prodstruct.rng import SplitMix64


def small_graphs():
    return st.integers(0, 6).flatmap(
        lambda n: st.builds(
            Graph, st.just(n),
            st.lists(
                st.tuples(st.integers(0, max(n - 1, 0)),
                          st.integers(0, max(n - 1, 0))).filter(lambda e: e[0] < e[1]),
                max_size=12) if n >= 2 else st.just([])))


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.m == 3
    assert g.degree(1) == 2
    assert g.max_degree() == 2
    assert g.has_edge(2, 1) and not g.has_edge(0, 3)
    assert g.is_connected()
    assert g.closed_neighborhood(1) == {0, 1, 2}


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph(2, [(1, 1)])


def test_json_round_trip():
    g = Graph(5, [(0, 4), (1, 2)])
    assert Graph.from_json(g.to_json()) == g
    with pytest.raises(GraphError):
        Graph.from_json(json.dumps({"n": 3, "edges": [[1, 0]]}))
    with pytest.raises(GraphError):
        Graph.from_json(json.dumps({"n": 3, "edges": [[0, 1], [0, 1]]}))


@pytest.mark.parametrize("edges,message", [
    ([[0, 1], [1, 2], [0, 2], [1, 2]], "duplicate edge [1, 2]"),
    ([[0, 1], [0, 2], [0, 1], [0, 2]], "duplicate edge [0, 1]"),
    ([[0, 1], [0, 1.0]], "edge [0, 1.0] has a non-integer endpoint"),
    ([[0, 1], [2, 1]], "edge [2, 1] not in u<v form"),
    ([[0, 1], [1, 3]], "edge (1,3) out of range for n=3"),
])
def test_json_errors_name_the_fault(edges, message):
    with pytest.raises(GraphError) as ex:
        Graph.from_json(json.dumps({"n": 3, "edges": edges}))
    assert str(ex.value) == message


def test_digraph_json_rejects_duplicate_arcs():
    with pytest.raises(GraphError, match="duplicate arcs"):
        Digraph.from_json(json.dumps({"n": 3, "arcs": [[0, 1], [1, 0], [0, 1]]}))


def test_subgraph_relabels_ascending():
    g = Graph(5, [(0, 3), (3, 4), (1, 4)])
    sub, order = g.subgraph({1, 3, 4})
    assert order == [1, 3, 4]
    assert sub.edges() == [(0, 2), (1, 2)]


def test_components():
    g = Graph(5, [(0, 1), (3, 4)])
    assert g.components() == [[0, 1], [2], [3, 4]]


def test_clique_independent():
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    assert g.is_clique([0, 1, 2]) and not g.is_clique([0, 1, 3])


def pairwise_adjacent(g: Graph, vs) -> bool:
    """is_clique as it was: every pair tested."""
    vs = list(vs)
    return all(vs[j] in g.adj[vs[i]] for i in range(len(vs)) for j in range(i + 1, len(vs)))


def test_is_clique_matches_the_pair_loop():
    rng = SplitMix64(31)
    cliques = 0
    for _ in range(60):
        n = rng.randrange(9)
        g = random_graph(rng, n, 3, 4)
        for _ in range(20):
            vs = [v for v in range(n) if rng.randrange(3) == 0]
            rng.shuffle(vs)
            want = pairwise_adjacent(g, vs)
            cliques += want and len(vs) > 2
            assert g.is_clique(vs) is want
            assert g.is_clique(set(vs)) is want and g.is_clique(frozenset(vs)) is want
    assert cliques > 20


def test_complete_join_and_apex():
    j = complete_join(Graph(2, [(0, 1)]), Graph(2))
    assert j.n == 4 and j.m == 5
    a = apex(Graph(3, [(0, 1)]))
    assert a.n == 4 and a.degree(3) == 3


def test_quotient():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    q = quotient(g, VertexPartition(4, [{0, 1}, {2, 3}]))
    assert q.n == 2 and q.edges() == [(0, 1)]


def test_clique_paste():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    g = clique_paste(k3, [1, 2], k3, [0, 1])
    assert g.n == 4 and g.m == 5
    with pytest.raises(GraphError):
        clique_paste(Graph(3, [(0, 1)]), [0, 2], k3, [0, 1])
    for c1, c2 in (([3], [0]), ([0], [5]), ([-1], [0])):
        with pytest.raises(GraphError, match="clique vertex out of range"):
            clique_paste(k3, c1, k3, c2)


def test_digraph_and_conversions():
    d = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    assert d.indegree(0) == 1 and d.max_indegree() == 1
    assert underlying(d).edges() == [(0, 1), (1, 2)]
    b = bidirect(Graph(2, [(0, 1)]))
    assert b.has_arc(0, 1) and b.has_arc(1, 0)
    assert Digraph.from_json(d.to_json()) == d


def test_ids_out_of_range_are_not_adjacent():
    """A negative id would index from the end and n would raise IndexError."""
    g = Graph(3, [(0, 2)])
    d = Digraph(3, [(0, 2), (2, 0)])
    assert g.has_edge(0, 2) and d.has_arc(2, 0)
    for u, v in ((-1, 0), (0, -1), (3, 0), (0, 3), (-3, 2), (5, 7)):
        assert not g.has_edge(u, v)
        assert not d.has_arc(u, v)
    assert not Graph(0).has_edge(0, 0) and not Digraph(0).has_arc(0, 0)


def test_from_data_reads_what_from_json_reads():
    g = Graph(4, [(0, 1), (2, 3)])
    d = Digraph(3, [(0, 1), (2, 1)])
    assert Graph.from_data(g.to_data()) == g == Graph.from_json(g.to_json())
    assert Digraph.from_data(d.to_data()) == d == Digraph.from_json(d.to_json())
    assert json.dumps(g.to_data()) == g.to_json()
    assert json.dumps(d.to_data()) == d.to_json()
    with pytest.raises(GraphError, match="duplicate edge"):
        Graph.from_data({"n": 3, "edges": [[0, 1], [0, 1]]})
    with pytest.raises(GraphError, match="duplicate arcs"):
        Digraph.from_data({"n": 3, "arcs": [[0, 1], [0, 1]]})


def test_partition_validation():
    with pytest.raises(GraphError):
        VertexPartition(3, [{0, 1}])
    with pytest.raises(GraphError):
        VertexPartition(3, [{0, 1}, {1, 2}])
    p = VertexPartition(3, [{0}, {1}, {2}])
    assert p.part_of == (0, 1, 2)


def test_subgraph_contained_examples():
    p3 = Graph(3, [(0, 1), (1, 2)])
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    phi = subgraph_contained(p3, c4)
    assert phi is not None and is_valid_subgraph_map(p3, c4, phi)
    assert subgraph_contained(k3, c4) is None
    assert subgraph_contained(c4, p3) is None


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_subgraph_contained_self(g):
    phi = subgraph_contained(g, g)
    assert phi is not None and is_valid_subgraph_map(g, g, phi)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 7))
def test_subgraph_contained_random_subgraph(seed, n):
    rng = SplitMix64(seed)
    g = random_graph(rng, n)
    kept = [e for e in g.edges() if rng.randrange(2)]
    h = Graph(n, kept)
    phi = subgraph_contained(h, g)
    assert phi is not None and is_valid_subgraph_map(h, g, phi)
