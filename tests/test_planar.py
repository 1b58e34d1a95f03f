import networkx as nx
import pytest

from prodstruct.constructions import stacked_triangulation
from prodstruct.decomposition import validate
from prodstruct.graphs import Graph, GraphError
from prodstruct.planar import (PlaneTriangulation, EmbeddingInvalid, faces,
                               lex_bfs, cotree,
                               planar_bandwidth3_decomposition, v8_fixture)


def k4_triangulation():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    rotation = [[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 2, 1]]
    return PlaneTriangulation(g, rotation, (0, 1, 2))


def test_k4_faces():
    pt = k4_triangulation()
    fs = faces(pt)
    assert len(fs) == 4
    assert all(len(f) == 3 for f in fs)


def test_rotation_must_match_adjacency():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(EmbeddingInvalid):
        PlaneTriangulation(g, [[1], [2, 0], [0, 1]], (0, 1, 2))


def test_outer_face_must_exist():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    rotation = [[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 2, 1]]
    with pytest.raises(EmbeddingInvalid):
        PlaneTriangulation(g, rotation, (0, 1, 3))


# 1.0 == 1 and True == 1: such ids passed every check of the constructor,
# and planar_bandwidth3_decomposition then raised TypeError
TRIANGLE = [[1, 2], [2, 0], [0, 1]]


@pytest.mark.parametrize("outer", [[0.0, 1.0, 2.0], [0, True, 2]])
def test_outer_face_entries_must_be_ints(outer):
    with pytest.raises(EmbeddingInvalid, match="outer_face is not a face"):
        PlaneTriangulation.from_rotation(3, TRIANGLE, outer)
    assert PlaneTriangulation.from_rotation(3, TRIANGLE, [0, 1, 2]).outer_face == (0, 1, 2)


def test_n_and_rotation_entries_must_be_ints():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(GraphError, match="must be integers"):
        PlaneTriangulation(g, [[True, 2, 3], [2, 0, 3], [0, 1, 3], [0, 2, 1]], (0, 1, 2))
    with pytest.raises(GraphError, match="must be integers"):
        PlaneTriangulation.from_rotation(True, [[]], ())


def test_json_round_trip():
    pt = k4_triangulation()
    pt2 = PlaneTriangulation.from_json(pt.to_json())
    assert pt2.graph == pt.graph and pt2.rotation == pt.rotation


def test_lex_bfs_root_must_be_outer():
    pt = k4_triangulation()
    with pytest.raises(Exception):
        lex_bfs(pt, 3)
    t = lex_bfs(pt, 0)
    assert t.layers[0] == [0]
    assert t.parent[0] == -1
    assert sorted(t.order) == [0, 1, 2, 3]


def test_cotree_is_spanning():
    """cotree does not check its output: duality must make the dual edges a tree."""
    pts = [k4_triangulation()] + [stacked_triangulation(n, seed)
                                  for n in (3, 5, 57, 250) for seed in (0, 1)]
    for pt in pts:
        fs, dual = cotree(pt, lex_bfs(pt, min(pt.outer_face)))
        assert len(dual) == len(fs) - 1
        d = nx.MultiGraph(dual)
        d.add_nodes_from(range(len(fs)))
        assert nx.is_tree(d)


def test_bandwidth3_on_k4():
    pt = k4_triangulation()
    td, order, rep = planar_bandwidth3_decomposition(pt)
    assert validate(pt.graph, td).ok
    assert rep["max_span"] <= 3


def test_stacked_face_counts():
    for seed in (0, 5, 9):
        for n in (3, 4, 7, 15):
            pt = stacked_triangulation(n, seed)
            assert pt.graph.n == n
            assert len(faces(pt)) == 2 + 2 * (n - 3)
            assert pt.graph.m == 3 + 3 * (n - 3)


def test_stacked_deterministic():
    a = stacked_triangulation(20, 42)
    b = stacked_triangulation(20, 42)
    assert a.to_json() == b.to_json()
    c = stacked_triangulation(20, 43)
    assert a.to_json() != c.to_json()


def test_stacked_4_is_k4():
    pt = stacked_triangulation(4, 11)
    assert pt.graph.m == 6


def test_v8_fixture():
    g, pd, orderings = v8_fixture()
    assert g.n == 8 and g.m == 12
    assert all(g.degree(v) == 3 for v in range(8))
    rep = validate(g, pd)
    assert rep.ok and rep.width == 4
    for bag, order in zip(pd.bags, orderings):
        assert set(order) == set(bag)
        pos = {v: i for i, v in enumerate(order)}
        span = max(abs(pos[u] - pos[v])
                   for u in order for v in g.adj[u] if v in pos)
        assert span <= 3
