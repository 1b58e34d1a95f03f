import pytest

from conftest import random_graph, random_tree
from prodstruct.constructions import (path, cycle, complete,
                                      complete_multipartite, grid2, star)
from prodstruct.decomposition import (TreeDecomposition, PathDecomposition,
                                      Layering, DecompositionError, validate,
                                      torso, orthogonality,
                                      project_product_decomposition,
                                      bfs_layering,
                                      layering_to_path_decomposition,
                                      make_layered_witness,
                                      witness_to_bandwidth_decomposition,
                                      witness_to_partition,
                                      bipartite_orthogonal_paths,
                                      bipartite_star_decomposition,
                                      glue_tree_f, glue_orthogonal)
from prodstruct.exact import treewidth_exact, pathwidth_exact
from prodstruct.graphs import Graph
from prodstruct.products import ProductEmbedding, strong
from prodstruct.rng import SplitMix64


def test_tree_shape_enforced():
    with pytest.raises(DecompositionError):
        TreeDecomposition(2, [{0}, {1}], [])       # disconnected
    with pytest.raises(DecompositionError):
        TreeDecomposition(2, [{0}, {1}], [(0, 1), (0, 1)])


def test_validate_single_bag():
    g = random_graph(SplitMix64(1), 5)
    td = TreeDecomposition(5, [set(range(5))], [])
    rep = validate(g, td)
    assert rep.ok and rep.width == 4


def test_validate_p3():
    g = path(3)
    td = TreeDecomposition(3, [{0, 1}, {1, 2}], [(0, 1)])
    rep = validate(g, td)
    assert rep.ok and rep.width == 1 and rep.adhesion == 1 and rep.taut
    g2 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    rep2 = validate(g2, td)
    assert not rep2.ok and any("(0,2)" in e for e in rep2.errors)


def test_validate_catches_disconnected_trace():
    g = path(3)
    td = TreeDecomposition(3, [{0, 1}, {1, 2}, {0}], [(0, 1), (1, 2)])
    rep = validate(g, td)
    assert not rep.ok and any("disconnected" in e for e in rep.errors)


def test_validate_catches_uncovered_vertex():
    g = Graph(3, [(0, 1)])
    td = TreeDecomposition(3, [{0, 1}], [])
    rep = validate(g, td)
    assert not rep.ok and any("vertex 2" in e for e in rep.errors)


def test_oracle_witnesses_validate():
    rng = SplitMix64(7)
    for _ in range(20):
        g = random_graph(rng, 2 + rng.randrange(6))
        value, td = treewidth_exact(g)
        rep = validate(g, td)
        assert rep.ok and rep.width == value


def test_torso_examples():
    c4 = cycle(4)
    td = TreeDecomposition(4, [{0, 1, 2}, {0, 2, 3}], [(0, 1)])
    for x in range(2):
        t = torso(c4, td, x)
        assert t.m == 3  # K3 after completing the adhesion {0,2}
    g = path(3)
    single = TreeDecomposition(3, [{0, 1, 2}], [])
    assert torso(g, single, 0) == g


def test_torso_checks_only_what_it_reads():
    """td is invalid away from nodes 0 and 1: vertex 1's nodes are apart and
    node 2 holds vertex 5.  The torsos there are still g[B_x] plus the
    adhesion clique {0, 2}."""
    c4 = cycle(4)
    td = TreeDecomposition(4, [{0, 1, 2}, {0, 2, 3}, {1, 5}], [(0, 1), (1, 2)])
    assert not validate(c4, td).ok
    assert torso(c4, td, 0) == torso(c4, td, 1) == complete(3)
    for bad in ({1, 5}, {-1, 1}):
        wild = TreeDecomposition(4, td.bags[:2] + (bad,), td.tree_edges)
        with pytest.raises(DecompositionError, match=r"^bag 2 has a vertex out of range for n=4$"):
            torso(c4, wild, 2)
    with pytest.raises(DecompositionError, match=r"^host mismatch: decomposition host_n=5, graph n=4$"):
        torso(c4, TreeDecomposition(5, td.bags, td.tree_edges), 0)


def test_orthogonality_values():
    g = grid2(4, 4)
    rows = PathDecomposition(16, [
        {r * 4 + c for r in (i, i + 1) for c in range(4)} for i in range(3)])
    cols = PathDecomposition(16, [
        {r * 4 + c for c in (j, j + 1) for r in range(4)} for j in range(3)])
    assert validate(g, rows).ok and validate(g, cols).ok
    assert orthogonality(rows.as_tree(), cols.as_tree()) == 4
    full = TreeDecomposition(16, [set(range(16))], [])
    assert orthogonality(full, full) == 16


def test_bag_restriction_is_decomposition():
    # the cross-restriction (B_x n C_y : y) is a decomposition of g[B_x]
    rng = SplitMix64(9)
    for _ in range(10):
        g = random_graph(rng, 6)
        _, td1 = treewidth_exact(g)
        _, td2 = pathwidth_exact(g)
        td2 = td2.as_tree()
        for x in range(td1.nodes):
            bag = td1.bags[x]
            sub, order = g.subgraph(bag)
            idx = {v: i for i, v in enumerate(order)}
            rest = TreeDecomposition(
                sub.n, [frozenset(idx[v] for v in bag & c) for c in td2.bags],
                td2.tree_edges)
            assert validate(sub, rest).ok


def test_bfs_layering():
    assert [sorted(l) for l in bfs_layering(star(4), 0).layers] == [[0], [1, 2, 3, 4]]
    assert len(bfs_layering(path(5), 0).layers) == 5
    sizes = [len(l) for l in bfs_layering(grid2(3, 3), 0).layers]
    assert sizes == [1, 2, 3, 2, 1]
    with pytest.raises(DecompositionError):
        bfs_layering(Graph(3, [(0, 1)]), 0)


def test_layering_edge_axiom():
    with pytest.raises(DecompositionError):
        Layering(3, [{0, 2}, set(), {1}])  # empty layer before non-empty


def test_layering_to_path_decomposition():
    l = bfs_layering(path(5), 0)
    pd = layering_to_path_decomposition(l)
    assert validate(path(5), pd).ok and pd.width() == 1


def test_witness_to_bandwidth():
    g = grid2(4, 4)
    l = Layering(16, [{r * 4 + c for c in range(4)} for r in range(4)])
    cols = PathDecomposition(16, [
        {r * 4 + c for c in (j, j + 1) for r in range(4)} for j in range(3)])
    w = make_layered_witness(g, l, cols.as_tree())
    assert w.k == 2
    td, orderings, span = witness_to_bandwidth_decomposition(g, w)
    assert span <= 3


def test_witness_to_partition():
    g = grid2(3, 3)
    l = bfs_layering(g, 0)
    w = make_layered_witness(g, l, TreeDecomposition(9, [set(range(9))], []))
    vp = witness_to_partition(w)
    for part in vp.parts:
        sub, _ = g.subgraph(part)
        assert treewidth_exact(sub)[0] <= w.k - 1


def test_bipartite_constructions():
    g = complete_multipartite([3, 4])
    p1, p2 = bipartite_orthogonal_paths(g, {0, 1, 2})
    assert validate(g, p1).ok and validate(g, p2).ok
    assert orthogonality(p1.as_tree(), p2.as_tree()) == 2
    sd = bipartite_star_decomposition(g, {0, 1, 2})
    assert validate(g, sd).ok
    for bag in sd.bags:
        sub, _ = g.subgraph(bag)
        assert treewidth_exact(sub)[0] <= 1
    with pytest.raises(DecompositionError):
        bipartite_orthogonal_paths(complete(3), {0})


def test_glue_tree_f_two_triangles():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    td = TreeDecomposition(4, [{0, 1, 2}, {1, 2, 3}], [(0, 1)])
    pieces = {x: TreeDecomposition(3, [{0, 1, 2}], []) for x in range(2)}
    glued = glue_tree_f(g, td, pieces)
    assert validate(g, glued).ok and glued.nodes == 2


def test_glue_tree_f_single_node_identity():
    g = path(3)
    td = TreeDecomposition(3, [{0, 1, 2}], [])
    piece = pathwidth_exact(g)[1].as_tree()
    glued = glue_tree_f(g, td, {0: piece})
    assert validate(g, glued).ok
    assert set(glued.bags) == set(piece.bags)


def test_glue_tree_f_rejects_untaut():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    td = TreeDecomposition(4, [{0, 1, 2}, {0, 2, 3}], [(0, 1)])  # {0,2} no edge
    with pytest.raises(DecompositionError):
        glue_tree_f(g, td, {0: TreeDecomposition(3, [{0, 1, 2}], []),
                            1: TreeDecomposition(3, [{0, 1, 2}], [])})


def _bipartition(sub):
    color = {}
    for comp in sub.components():
        color[comp[0]] = 0
        stack = [comp[0]]
        while stack:
            u = stack.pop()
            for w in sub.adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
    return {v for v, c in color.items() if c == 0}


def test_glue_orthogonal_chain():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    td = TreeDecomposition(7, [{0, 1, 2}, {2, 3, 4}, {4, 5, 6}],
                           [(0, 1), (1, 2)])
    pairs = {}
    for x in range(3):
        sub, _ = g.subgraph(td.bags[x])
        p1, p2 = bipartite_orthogonal_paths(sub, _bipartition(sub))
        pairs[x] = (p1.as_tree(), p2)
    t, p = glue_orthogonal(g, td, pairs)
    assert validate(g, t).ok and validate(g, p).ok
    assert orthogonality(t, p.as_tree()) <= 2


def test_project_product_decomposition():
    t1, t2 = path(4), star(3)
    host = strong(t1, t2)
    e = ProductEmbedding(host, (t1, t2), None,
                         tuple((v // t2.n, v % t2.n) for v in range(host.n)))
    w1, td1 = treewidth_exact(t1)
    w2, td2 = treewidth_exact(t2)
    o1, o2 = project_product_decomposition(e, td1, td2)
    assert orthogonality(o1, o2) <= (w1 + 1) * (w2 + 1)
    # single-bag factors on K2 x K2 = K4
    k2 = complete(2)
    k4 = strong(k2, k2)
    e2 = ProductEmbedding(k4, (k2, k2), None,
                          tuple((v // 2, v % 2) for v in range(4)))
    one = TreeDecomposition(2, [{0, 1}], [])
    a, b = project_product_decomposition(e2, one, one)
    assert orthogonality(a, b) == 4


def test_json_round_trips():
    td = TreeDecomposition(3, [{0, 1}, {1, 2}], [(0, 1)])
    assert TreeDecomposition.from_json(td.to_json()).bags == td.bags
    pd = PathDecomposition(3, [{0, 1}, {1, 2}])
    assert PathDecomposition.from_json(pd.to_json()).bags == pd.bags
