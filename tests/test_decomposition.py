import json

import pytest

from conftest import random_graph, random_tree
from prodstruct.constructions import (path, cycle, complete,
                                      complete_multipartite, grid2, star)
from prodstruct.decomposition import (TreeDecomposition, PathDecomposition,
                                      Layering, LayeredWitness, DecompositionError, validate,
                                      bag_span,
                                      torso, orthogonality,
                                      project_product_decomposition,
                                      bfs_layering,
                                      layering_to_path_decomposition,
                                      witness_to_bandwidth_decomposition,
                                      witness_to_partition,
                                      bipartite_orthogonal_paths,
                                      bipartite_star_decomposition,
                                      glue_tree_f, glue_orthogonal)
from prodstruct.exact import treewidth_exact, pathwidth_exact
from prodstruct.graphs import Graph
from prodstruct.products import EmbeddingError, ProductEmbedding, strong
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


def test_validate_out_of_range_adhesion_is_not_taut():
    """An adhesion set with members outside g is not taut, and tautness
    never looks them up in g.adj: 5 is past its end, and -1 would be read as
    the last vertex's row."""
    rep = validate(path(3), TreeDecomposition(3, [{0, 1, 5, 6}, {2, 5, 6}], [(0, 1)]))
    assert (rep.ok, rep.taut, rep.adhesion) == (False, False, 2)
    assert rep.errors == [f"bag {x} mentions out-of-range vertex {v}"
                          for x in (0, 1) for v in (5, 6)] + ["edge (1,2) in no bag"]
    rep = validate(path(3), TreeDecomposition(3, [{-1, 0, 1}, {-1, 1, 2}], [(0, 1)]))
    assert (rep.ok, rep.taut, rep.adhesion) == (False, False, 2)
    assert rep.errors == [f"bag {x} mentions out-of-range vertex -1" for x in (0, 1)]


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
    assert orthogonality(rows, cols) == 4
    full = TreeDecomposition(16, [set(range(16))], [])
    assert orthogonality(full, full) == 16


def test_bag_restriction_is_decomposition():
    # the cross-restriction (B_x n C_y : y) is a decomposition of g[B_x]
    rng = SplitMix64(9)
    for _ in range(10):
        g = random_graph(rng, 6)
        _, td1 = treewidth_exact(g)
        _, td2 = pathwidth_exact(g)
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
    # fewer than two non-empty layers give one bag, empty for the empty graph
    for l, bag in ((Layering(0, []), set()), (Layering(0, [set()]), set()),
                   (Layering(3, [{0, 1, 2}, set()]), {0, 1, 2})):
        pd = layering_to_path_decomposition(l)
        assert pd.bags == (frozenset(bag),) and validate(Graph(l.host_n), pd).ok


def test_witness_to_bandwidth():
    g = grid2(4, 4)
    l = Layering(16, [{r * 4 + c for c in range(4)} for r in range(4)])
    cols = PathDecomposition(16, [
        {r * 4 + c for c in (j, j + 1) for r in range(4)} for j in range(3)])
    w = LayeredWitness(g, l, cols)
    assert w.k == 2
    orderings, span = witness_to_bandwidth_decomposition(w)
    assert span <= 3


def test_witness_to_partition():
    g = grid2(3, 3)
    l = bfs_layering(g, 0)
    w = LayeredWitness(g, l, TreeDecomposition(9, [set(range(9))], []))
    vp = witness_to_partition(w)
    for part in vp.parts:
        sub, _ = g.subgraph(part)
        assert treewidth_exact(sub)[0] <= w.k - 1


def test_bipartite_constructions():
    g = complete_multipartite([3, 4])
    p1, p2 = bipartite_orthogonal_paths(g, {0, 1, 2})
    assert validate(g, p1).ok and validate(g, p2).ok
    assert orthogonality(p1, p2) == 2
    assert p1.to_json() == PathDecomposition(7, [{v, 3, 4, 5, 6} for v in range(3)]).to_json()
    assert p2.to_json() == PathDecomposition(7, [{0, 1, 2, w} for w in range(3, 7)]).to_json()
    sd = bipartite_star_decomposition(g, {0, 1, 2})
    assert validate(g, sd).ok
    for bag in sd.bags:
        sub, _ = g.subgraph(bag)
        assert treewidth_exact(sub)[0] <= 1
    with pytest.raises(DecompositionError):
        bipartite_orthogonal_paths(complete(3), {0})


def test_degenerate_bipartite_pairs_are_2_orthogonal():
    for n in range(6):
        g = Graph(n)
        for side in (set(), set(range(n))):
            p1, p2 = bipartite_orthogonal_paths(g, side)
            assert validate(g, p1).ok and validate(g, p2).ok
            assert orthogonality(p1, p2) <= 2
            assert p1.to_json() == bipartite_star_decomposition(g, side).to_json()


def test_bipartite_side_must_be_a_vertex_set():
    with pytest.raises(DecompositionError, match=r"^side vertex 99 out of range for n=3$"):
        bipartite_orthogonal_paths(Graph(3), {99})
    with pytest.raises(DecompositionError, match=r"^side vertex 5 out of range for n=2$"):
        bipartite_star_decomposition(complete(2), {0, 5})
    with pytest.raises(DecompositionError, match=r"^side vertex -1 out of range for n=2$"):
        bipartite_star_decomposition(complete(2), {-1, 0})


def test_glue_tree_f_two_triangles():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    td = TreeDecomposition(4, [{0, 1, 2}, {1, 2, 3}], [(0, 1)])
    pieces = {x: TreeDecomposition(3, [{0, 1, 2}], []) for x in range(2)}
    glued = glue_tree_f(g, td, pieces)
    assert validate(g, glued).ok and glued.nodes == 2


def test_glue_tree_f_single_node_identity():
    g = path(3)
    td = TreeDecomposition(3, [{0, 1, 2}], [])
    piece = pathwidth_exact(g)[1]
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
        pairs[x] = (p1, p2)
    t, p = glue_orthogonal(g, td, pairs)
    assert validate(g, t).ok and validate(g, p).ok
    assert orthogonality(t, p) <= 2


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
    moved = ProductEmbedding(k4, (k2, k2), None, ((0, 0), (0, 1), (1, 0), (0, 0)))
    with pytest.raises(EmbeddingError, match=r"^invalid embedding: \['map not injective'"):
        project_product_decomposition(moved, one, one)


def test_json_round_trips():
    td = TreeDecomposition(3, [{0, 1}, {1, 2}], [(0, 1)])
    assert TreeDecomposition.from_json(td.to_json()).bags == td.bags
    pd = PathDecomposition(3, [{0, 1}, {1, 2}])
    assert PathDecomposition.from_json(pd.to_json()).bags == pd.bags
    for dec in (td, pd):
        read = type(dec).from_data(json.loads(dec.to_json()))
        assert type(read) is type(dec) and read.to_json() == dec.to_json()
    with pytest.raises(DecompositionError, match="node count mismatch"):
        TreeDecomposition.from_data({"host_n": 3, "nodes": 3, "bags": [[0, 1], [1, 2]],
                                     "tree_edges": [[0, 1]]})


@pytest.mark.parametrize("nodes, bags, edges", [
    (True, [[0, 1, 2]], []), (2.0, [[0, 1], [1, 2]], [[0, 1]]),
    (2, [[0, 1], [1, 2]], [[0, True]]), (2, [[0, 1], [1, 2]], [[0, 1.0]])])
def test_tree_decomposition_ids_must_be_integers(nodes, bags, edges):
    # True == 1 and 2.0 == 2 passed the tree and node-count checks, and a
    # float endpoint raised a bare TypeError when it indexed the tree
    with pytest.raises(DecompositionError,
                       match="^nodes and tree-edge endpoints must be integers$"):
        TreeDecomposition.from_data({"host_n": 3, "nodes": nodes, "bags": bags,
                                     "tree_edges": edges})


def test_bag_members_must_be_integers():
    for kind in (TreeDecomposition, PathDecomposition):
        with pytest.raises(DecompositionError, match="^bag members must be integers$"):
            kind.from_data({"host_n": 3, "nodes": 1, "bags": [[0, 1.0, 2]], "tree_edges": []})


def test_path_decomposition_is_a_tree_decomposition():
    pd = PathDecomposition(3, [{0, 1}, {1, 2}])
    assert isinstance(pd, TreeDecomposition)
    assert pd.tree_edges == ((0, 1),) and pd.nodes == 2 and pd.width() == 1
    assert pd.neighbors(1) == [0]
    assert "tree_edges" not in json.loads(pd.to_json())
    assert type(PathDecomposition.from_json(pd.to_json())) is PathDecomposition
    with pytest.raises(DecompositionError, match="^empty path-decomposition$"):
        PathDecomposition(3, [])


def _as_tree(pd):
    """The same bags as a TreeDecomposition on the path edges."""
    return TreeDecomposition(pd.host_n, pd.bags, [(i, i + 1) for i in range(pd.nodes - 1)])


def _shape(td):
    return td.host_n, td.bags, td.tree_edges


def test_path_decomposition_where_a_tree_decomposition_goes():
    """Each function that takes a tree-decomposition gives the same answer
    for a path-decomposition as for its bags on the path edges."""
    g = path(7)
    pd = PathDecomposition(7, [{0, 1, 2}, {2, 3, 4}, {4, 5, 6}])
    td = _as_tree(pd)
    for x in range(pd.nodes):
        assert torso(g, pd, x) == torso(g, td, x)

    pieces = {x: pathwidth_exact(torso(g, pd, x))[1] for x in range(pd.nodes)}
    assert all(type(p) is PathDecomposition for p in pieces.values())
    tree_pieces = {x: _as_tree(p) for x, p in pieces.items()}
    want = _shape(glue_tree_f(g, td, tree_pieces))
    assert _shape(glue_tree_f(g, pd, tree_pieces)) == want
    assert _shape(glue_tree_f(g, td, pieces)) == want

    pairs = {}
    for x in range(pd.nodes):
        sub, _ = g.subgraph(pd.bags[x])
        pairs[x] = bipartite_orthogonal_paths(sub, _bipartition(sub))
    tree_pairs = {x: (_as_tree(p1), p2) for x, (p1, p2) in pairs.items()}
    want = [_shape(d) for d in glue_orthogonal(g, td, tree_pairs)]
    assert [_shape(d) for d in glue_orthogonal(g, pd, tree_pairs)] == want
    assert [_shape(d) for d in glue_orthogonal(g, td, pairs)] == want

    h = grid2(4, 4)
    l = Layering(16, [{r * 4 + c for c in range(4)} for r in range(4)])
    cols = PathDecomposition(16, [
        {r * 4 + c for c in (j, j + 1) for r in range(4)} for j in range(3)])
    w, wt = (LayeredWitness(h, l, d) for d in (cols, _as_tree(cols)))
    assert w.k == wt.k == 2
    assert witness_to_bandwidth_decomposition(w) == witness_to_bandwidth_decomposition(wt)


def test_layered_witness_k_is_read_off_its_bags():
    g = grid2(3, 3)
    w = LayeredWitness(g, bfs_layering(g, 0), TreeDecomposition(9, [range(9)], []))
    assert w.k == 3       # the middle diagonal {2, 4, 6}
    with pytest.raises(AttributeError):
        w.k = 1


def test_layered_witness_checks_itself():
    g, full = path(3), TreeDecomposition(3, [range(3)], [])
    for layers in ([{0}, {1}], [{0}, {2}, {1}]):     # of another host; edge 01 skips a layer
        with pytest.raises(DecompositionError, match="^not a layering of g$"):
            LayeredWitness(g, Layering(len(set().union(*layers)), layers), full)
    with pytest.raises(DecompositionError, match=r"^invalid decomposition: \["):
        LayeredWitness(g, Layering(3, [{0}, {1}, {2}]), TreeDecomposition(3, [{0, 1}], []))


# in-test copies of the three span loops that bag_span replaced, and of its
# own earlier formula: |i - pos[w]| over both ends of every edge in the bag

def _abs_span(g, order):
    pos = {v: i for i, v in enumerate(order)}
    bag = frozenset(pos)
    return max((abs(i - pos[w]) for v, i in pos.items() for w in g.adj[v] & bag), default=0)


def _hex_span(g, order):          # constructions.hex_graph
    pos = {v: i for i, v in enumerate(order)}
    return max((abs(pos[u] - pos[v]) for u in order for v in g.adj[u] if v in pos),
               default=0)


def _planar_span(g, order):       # planar.planar_bandwidth3_decomposition
    bag = frozenset(order)
    bpos = {v: i for i, v in enumerate(order)}
    span = 0
    for u in order:
        for v in g.adj[u] & bag:
            span = max(span, abs(bpos[u] - bpos[v]))
    return span


def _witness_span(g, order):      # decomposition.witness_to_bandwidth_decomposition
    pos = {v: i for i, v in enumerate(order)}
    span = 0
    for u in order:
        for v in g.adj[u]:
            if v in pos:
                span = max(span, abs(pos[u] - pos[v]))
    return span


def test_bag_span_matches_the_old_loops():
    rng = SplitMix64(31)
    for _ in range(200):
        g = random_graph(rng, 1 + rng.randrange(9), 1 + rng.randrange(3), 4)
        order = [v for v in range(g.n) if rng.randrange(3)]
        rng.shuffle(order)
        want = _hex_span(g, order)
        assert bag_span(g, order) == want == _planar_span(g, order) == _witness_span(g, order)
        assert want == _abs_span(g, order)
    assert bag_span(path(3), []) == 0 and bag_span(path(3), [1]) == 0
    assert bag_span(path(4), [0, 2, 1, 3]) == 2


def test_bag_span_matches_its_earlier_formula_on_planar_bags():
    from prodstruct.constructions import stacked_triangulation
    from prodstruct.planar import planar_bandwidth3_decomposition
    rng = SplitMix64(5)
    for n, seed in ((60, 1), (300, 2)):
        pt = stacked_triangulation(n, seed)
        g = pt.graph
        td, order, report = planar_bandwidth3_decomposition(pt)
        pos = {v: i for i, v in enumerate(order)}
        spans = []
        for bag in td.bags:
            ordered = sorted(bag, key=pos.__getitem__)
            spans.append(bag_span(g, ordered))
            assert spans[-1] == _abs_span(g, ordered)
            shuffled = list(bag)
            rng.shuffle(shuffled)
            assert bag_span(g, shuffled) == _abs_span(g, shuffled)
        assert spans == report["per_bag"] and max(spans) <= 3
