import itertools

import pytest

from prodstruct import constructions as C
from prodstruct.decomposition import validate
from prodstruct.exact import (treewidth_exact, pathwidth_exact,
                              treedepth_exact, tree_param_exact)
from prodstruct.graphs import Graph, GraphError
from prodstruct.planar import faces
from prodstruct.products import validate_embedding, EmbeddingError


def test_basic_families():
    assert C.path(5).m == 4
    assert C.cycle(3) == C.complete(3)
    assert C.complete_multipartite([1, 3, 4]).m == 19
    assert C.star(4) == C.complete_multipartite([1, 4])
    g22 = C.grid2(2, 2)
    assert g22.m == 4 and all(g22.degree(v) == 2 for v in range(4))
    assert C.grid3(2, 2, 2).m == 12  # the cube


@pytest.mark.parametrize("sizes", [[1], [3], [1, 4], [2, 2, 2], [1, 3, 4], [2, 1, 3, 1]])
def test_complete_multipartite_is_the_join(sizes):
    # the blockwise loop it replaced, same ids and same edge order
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    edges = [(u, v) for i in range(len(sizes)) for j in range(i + 1, len(sizes))
             for u in range(starts[i], starts[i + 1])
             for v in range(starts[j], starts[j + 1])]
    g = C.complete_multipartite(sizes)
    assert g == Graph(starts[-1], edges)
    assert [list(s) for s in g.adj] == [list(s) for s in Graph(starts[-1], edges).adj]


def test_hex_counts_and_witness():
    g2, pd2, _, _ = C.hex_graph(2, [1])
    assert g2.n == 4 and g2.m == 5
    g3, pd3, orderings, spans = C.hex_graph(3)
    assert g3.n == 9 and g3.m == 16
    assert validate(g3, pd3).ok
    assert max(spans) <= 2
    for bag, order in zip(pd3.bags, orderings):
        assert set(order) == set(bag)
    with pytest.raises(GraphError):
        C.hex_graph(3, [0, 1])  # wrong bit count
    for bit in (7, 2, -1):
        with pytest.raises(GraphError, match="each 0 or 1"):
            C.hex_graph(2, [bit])


def test_hex_witness_all_sizes():
    for n in (2, 4, 5):
        g, pd, _, spans = C.hex_graph(n)
        assert validate(g, pd).ok and max(spans) <= 2


def test_triangulated_grid2():
    g = C.triangulated_grid2(C.path(2), C.path(2))
    assert g.n == 4 and g.m == 5
    h = C.triangulated_grid2(C.path(3), C.path(3))
    assert h.m == 12 + 4


def test_triangulated_grid3_slice_accounting():
    g = C.triangulated_grid3(2, 2, 2)
    # cube: 12 grid edges + 6 faces, one diagonal each
    assert g.n == 8 and g.m == 18
    big = C.triangulated_grid3(4, 4, 2)
    cells = 3 * 3 * 2 + 3 * 1 * 4 + 3 * 1 * 4
    grid_m = 3 * 4 * 2 * 2 + 4 * 4 * 1
    assert big.n == 32 and big.m == grid_m + cells


def test_triangulated_grids_keep_the_default_diagonal():
    """In-test copies of the loops as they were with the default rule."""
    def grid2_loop(g1, g2):
        edges = list(C.cartesian(g1, g2).edges())
        for x, xp in g1.edges():
            for y, yp in g2.edges():
                edges.append((x * g2.n + y, xp * g2.n + yp))
        return Graph(g1.n * g2.n, edges)

    def grid3_loop(dims):
        step = (dims[1] * dims[2], dims[2], 1)
        vid = lambda p: sum(a * b for a, b in zip(p, step))
        edges = list(C.grid3(*dims).edges())
        for u_ax, v_ax in ((0, 1), (0, 2), (1, 2)):
            for p in itertools.product(*(range(d) for d in dims)):
                if p[u_ax] + 1 < dims[u_ax] and p[v_ax] + 1 < dims[v_ax]:
                    puv = list(p)
                    puv[u_ax] += 1
                    puv[v_ax] += 1
                    edges.append((vid(p), vid(puv)))
        return Graph(dims[0] * dims[1] * dims[2], edges)

    for g1, g2 in ((C.path(3), C.path(4)), (C.star(3), C.cycle(5))):
        assert C.triangulated_grid2(g1, g2) == grid2_loop(g1, g2)
    for dims in ((2, 2, 2), (3, 2, 4), (1, 3, 3)):
        assert C.triangulated_grid3(*dims) == grid3_loop(dims)


def test_pyramid():
    assert C.pyramid(1).m == 1  # K2
    w = C.pyramid(2)            # wheel over C4
    assert w.n == 5 and w.m == 8
    assert tree_param_exact(w, "maxdeg")[0] >= 3


def test_windmill_flower():
    assert C.windmill(0).n == 1
    assert pathwidth_exact(C.windmill(3))[0] == 2
    assert pathwidth_exact(C.flower(2))[0] == 3
    assert C.flower(2).degree(6) == 6


def test_treedepth_family():
    g0 = C.treedepth_family(0, 2)
    assert g0.n == 1
    g1 = C.treedepth_family(1, 1)
    assert g1.n == 3 and treedepth_exact(g1)[0] == 2
    for c in (1, 2):
        for k in (1, 2):
            g = C.treedepth_family(k, c)
            if g.n <= 12:
                assert treedepth_exact(g)[0] <= k + 1
    with pytest.raises(GraphError):
        C.treedepth_family(3, 1)


def test_separating_graph():
    g, w = C.separating_graph(1)
    assert g.n == 3 and g.m == 3  # K3
    assert validate(g, w).ok
    g2, w2 = C.separating_graph(2)
    rep = validate(g2, w2)
    assert rep.ok
    for bag in w2.bags:
        sub, _ = g2.subgraph(bag)
        assert treedepth_exact(sub)[0] <= 4


def test_v8():
    g = C.v8()
    assert g.n == 8 and g.m == 12


def test_stacked_triangulation_properties():
    assert C.stacked_triangulation(3, 0).graph.m == 3
    assert C.stacked_triangulation(4, 1).graph.m == 6
    pt = C.stacked_triangulation(25, 77)
    assert len(faces(pt)) == 2 + 2 * 22


def test_random_regular():
    for seed in (1, 2, 3):
        g = C.random_regular(10, 3, seed)
        assert all(g.degree(v) == 3 for v in range(10))
        assert g.m == 15
    assert C.random_regular(12, 4, 5).to_json() == C.random_regular(12, 4, 5).to_json()
    assert C.random_regular(4, 3, 9) == C.complete(4)
    with pytest.raises(GraphError):
        C.random_regular(5, 3, 0)  # odd n*d
    with pytest.raises(GraphError):
        C.random_regular(4, 4, 0)


def test_tightness_example():
    guest, f1, f2, e = C.tightness_example(1, 1, 2)
    assert guest.n == 5
    assert validate_embedding(e) == []
    assert treewidth_exact(guest)[0] == 3
    guest3, _, _, e3 = C.tightness_example(1, 1, 3)
    assert validate_embedding(e3) == []


def test_tightness_example_octahedron_fails():
    # K_{2,2,2} has no embedding into K_{1,2} x K_{2,2}: the construction
    # does not extend beyond a single apex
    with pytest.raises(EmbeddingError):
        C.tightness_example(1, 2, 2)


def test_generators_deterministic_serialization():
    assert C.hex_graph(4)[0].to_json() == C.hex_graph(4)[0].to_json()
    assert C.separating_graph(2)[0].to_json() == C.separating_graph(2)[0].to_json()
