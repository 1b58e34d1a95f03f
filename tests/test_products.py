import pytest

from conftest import random_graph
from prodstruct.constructions import (path, cycle, complete, star,
                                      complete_multipartite)
from prodstruct.graphs import (Graph, Digraph, GraphError, bidirect, underlying,
                               subgraph_contained, VertexPartition)
from prodstruct.products import (cartesian, direct, strong, directed_strong,
                                 ProductEmbedding, DirectedProductEmbedding,
                                 EmbeddingError,
                                 validate_embedding, validate_directed_embedding,
                                 embed_join_product, embed_move_apex,
                                 embed_apex_partition, partition_product_check,
                                 degree_partition, orient_apex_fan)
from prodstruct.rng import SplitMix64


def test_cartesian_grid():
    g = cartesian(path(2), path(2))
    assert g.n == 4 and sorted(g.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_direct_k2_k2():
    g = direct(complete(2), complete(2))
    # perfect matching on 4 vertices
    assert g.m == 2 and g.max_degree() == 1


def test_strong_k2_k2_is_k4():
    assert strong(complete(2), complete(2)).m == 6


def test_edge_count_formula_seeded():
    rng = SplitMix64(17)
    for _ in range(25):
        a = random_graph(rng, 2 + rng.randrange(6))
        b = random_graph(rng, 2 + rng.randrange(6))
        s = strong(a, b)
        assert s.m == a.n * b.m + b.n * a.m + 2 * a.m * b.m
        assert set(s.edges()) == set(cartesian(a, b).edges()) | set(direct(a, b).edges())


def test_directed_strong_matches_strong_on_bidirections():
    rng = SplitMix64(23)
    for _ in range(10):
        a = random_graph(rng, 2 + rng.randrange(4))
        b = random_graph(rng, 2 + rng.randrange(4))
        ds = directed_strong(bidirect(a), bidirect(b))
        assert underlying(ds) == strong(a, b)
        # every arc has its reverse here
        assert all(ds.has_arc(v, u) for u, v in ds.arcs())


def test_directed_strong_orientation():
    d1 = Digraph(2, [(0, 1)])
    d2 = Digraph(1, [])
    ds = directed_strong(d1, d2)
    assert ds.arcs() == [(0, 1)]


def test_validate_embedding_catches_bad_maps():
    g = complete(2)
    f = (path(2), path(1))
    ok = ProductEmbedding(g, f, None, ((0, 0), (1, 0)))
    assert validate_embedding(ok) == []
    dup = ProductEmbedding(g, f, None, ((0, 0), (0, 0)))
    assert any("injective" in e or "identical" in e for e in validate_embedding(dup))
    far = ProductEmbedding(complete(2), (path(3), path(1)), None, ((0, 0), (2, 0)))
    assert validate_embedding(far)
    for images in (((1.0, 0), (0, 0)), ((True, 0), (0, 0))):
        e = ProductEmbedding(g, f, None, images)
        assert validate_embedding(e) == ["vertex 0: non-integer coordinate"]
    kc = ProductEmbedding(g, f, 2, ((0, 0, 0), (1, 0, 1.0)))
    assert validate_embedding(kc) == ["vertex 1: non-integer coordinate"]


def test_directed_checker_reports_bad_images_without_raising():
    d, p2 = Digraph(2, [(0, 1)]), path(2)
    for images, want in ((((0, 0, 0), (1, 0)), ["vertex 0: tuple arity 3 != 2"]),
                         (((0, 0), (2, 0)), ["vertex 1: coordinate out of range"]),
                         (((0, 0), (1.0, 0)), ["vertex 1: non-integer coordinate"]),
                         (((0, 0), (0, 0)), ["map not injective",
                                             "edge (0,1) realized in neither direction"])):
        e = DirectedProductEmbedding(p2, (d, Digraph(1, [])), images)
        assert validate_directed_embedding(e) == want


def test_degree_partition_refuses_a_part_above_threshold():
    with pytest.raises(GraphError, match="^vertex 0 keeps more than 1 neighbours in its part$"):
        degree_partition(complete(5), 1)
    for part in degree_partition(complete(5), 2).parts:
        assert complete(5).subgraph(part)[0].max_degree() <= 2
    with pytest.raises(GraphError, match="^empty graph has no partition$"):
        degree_partition(Graph(0), 1)


def test_join_product_corpus():
    rng = SplitMix64(31)
    graphs = [path(3), cycle(4), star(3), random_graph(rng, 5)]
    for a in graphs:
        for b in graphs:
            for p in (1, 2):
                for q in (1, 3):
                    e = embed_join_product(a, b, p, q)
                    assert validate_embedding(e) == []
                    # guest is A + B + K_pq
                    assert e.guest.n == a.n + b.n + p * q
                    e2 = embed_move_apex(a, b, p, q)
                    assert validate_embedding(e2) == []
                    assert e2.guest.n == a.n * b.n + p * q


def test_star_star_product_contains_k134():
    guest = complete_multipartite([1, 3, 4])
    assert guest.m == 1 * 3 + 1 * 4 + 3 * 4
    host = strong(star(3), star(4))
    assert subgraph_contained(guest, host) is not None


def test_apex_partition():
    g = cycle(5)
    e, f1, f2 = embed_apex_partition(g, {0, 1, 2})
    assert validate_embedding(e) == []
    assert f1.n == 4 and f2.n == 3  # 3+apex, 2+apex
    ea, _, _ = embed_apex_partition(g, {0, 1, 2}, include_apex=True)
    assert validate_embedding(ea) == []
    assert ea.guest.n == 6


def test_partition_product_check():
    g = cycle(4)
    p1 = VertexPartition(4, [{0, 1}, {2, 3}])
    p2 = VertexPartition(4, [{0, 3}, {1, 2}])
    e, bad = partition_product_check(g, p1, p2, 1)
    assert bad is None and validate_embedding(e) == []
    e2, bad2 = partition_product_check(g, p1, p1, 1)
    assert e2 is None and bad2 == (0, 0)
    e3, bad3 = partition_product_check(g, p1, p1, 2)
    assert bad3 is None and validate_embedding(e3) == []


def test_degree_partition_bounds():
    rng = SplitMix64(41)
    from conftest import random_graph_max_degree
    for delta, bound in ((3, 1), (4, 2)):
        for _ in range(10):
            g = random_graph_max_degree(rng, 12, delta)
            vp = degree_partition(g, 1 if delta == 3 else 2)
            for part in vp.parts:
                assert g.subgraph(part)[0].max_degree() <= bound


def rescanning_degree_parts(g):
    """degree_partition's earlier loop: after every flip it rescans from vertex 0."""
    side = [v % 2 for v in range(g.n)]
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            same = sum(1 for w in g.adj[v] if side[w] == side[v])
            if 2 * same > len(g.adj[v]):
                side[v] ^= 1
                improved = True
                break
    return [p for p in ([v for v in range(g.n) if side[v] == s] for s in (0, 1)) if p]


def test_degree_partition_matches_the_rescanning_loop():
    from conftest import random_graph_max_degree
    from prodstruct.constructions import grid2, random_regular
    rng = SplitMix64(43)
    graphs = [grid2(12, 12), random_regular(300, 3, 1), random_regular(200, 4, 2)]
    graphs += [random_graph_max_degree(rng, 5 + i % 40, 3 + i % 2) for i in range(60)]
    for g in graphs:
        assert [sorted(p) for p in degree_partition(g, 2).parts] == rescanning_degree_parts(g)
    # denser graphs too, where a part may keep more than the threshold allows
    for i in range(40):
        g = random_graph(rng, 4 + i % 12)
        ref = rescanning_degree_parts(g)
        over = [v for v in range(g.n) for p in ref if v in p
                if sum(w in p for w in g.adj[v]) > 2]
        if over:
            with pytest.raises(GraphError, match=f"^vertex {over[0]} keeps"):
                degree_partition(g, 2)
        else:
            assert [sorted(p) for p in degree_partition(g, 2).parts] == ref


def test_orient_apex_fan():
    h = cycle(4)
    j, f, e = orient_apex_fan(h, [0, 1, 2, 3], 3, 2)
    assert validate_directed_embedding(e) == []
    # J: oriented C4 + 2 apexes dominating everything
    assert j.n == 6 and f.n == 4
    assert j.max_indegree() <= h.max_degree() + 2
    with pytest.raises(Exception):
        orient_apex_fan(h, [0, 1, 2], 3, 1)
