"""The gluing fold shared by glue_tree_f, glue_orthogonal and glue_directed_products.

The oracles are in-test copies of the loops the fold replaced: the directed
gluer that put the root back before its loop, and glue_tree_f, which listed
the pieces in node order and hung each one inside the piece of its
neighbour.  The directed gluing must give the same factors, map and bytes;
glue_tree_f the same bags and width.  All three gluers must reject an untaut
decomposition at its first non-taut tree edge, and an invalid piece at its
node.
"""

import random

import pytest

import prodstruct.decomposition as D
from prodstruct.decomposition import (DecompositionError, PathDecomposition,
                                      TreeDecomposition, _leaf_removal_order,
                                      glue_orthogonal, glue_tree_f, torso, validate)
from prodstruct.exact import treewidth_exact
from prodstruct.graphs import Digraph, Graph
from prodstruct.products import (DirectedProductEmbedding, EmbeddingError,
                                 glue_directed_products)
from prodstruct.rng import SplitMix64

from test_acceptance import _random_pasted_host
from test_glue_deep import stacked_3tree
from test_product_layer import random_pair


def _complete_digraph(k):
    return Digraph(k, [(u, v) for u in range(k) for v in range(k) if u != v])


def random_embedding(rng: random.Random, sub: Graph) -> DirectedProductEmbedding:
    """sub in K⃡_a ⊠ K⃡_b under a random injective map: every pair of distinct
    images is an arc both ways, so any map is an embedding."""
    a = rng.randrange(1, sub.n + 1)
    b = -(-sub.n // a)
    cells = rng.sample([(x, y) for x in range(a) for y in range(b)], sub.n)
    return DirectedProductEmbedding(sub, (_complete_digraph(a), _complete_digraph(b)),
                                    tuple(cells))


def parent_glue_directed(g, td, bag_embeddings):
    """glue_directed_products' loop as it was, checks left out: the root's
    factors first, then the stripped leaves in reverse removal order."""
    removal, root = _leaf_removal_order(td)
    e, order = bag_embeddings[root], sorted(td.bags[root])
    n1, n2 = e.factors[0].n, e.factors[1].n
    arcs1, arcs2 = e.factors[0].arcs(), e.factors[1].arcs()
    image = {order[v]: e.map[v] for v in range(len(order))}
    for x, y in reversed(removal):
        e, order = bag_embeddings[x], sorted(td.bags[x])
        j1, j2 = e.factors
        adh = sorted(td.bags[x] & td.bags[y])
        k1 = {image[v][0] for v in adh}
        k2 = {image[v][1] for v in adh}
        arcs1 += [(u + n1, v + n1) for u, v in j1.arcs()]
        arcs1 += [(u, w + n1) for u in k1 for w in range(j1.n)]
        arcs2 += [(u + n2, v + n2) for u, v in j2.arcs()]
        arcs2 += [(u, w + n2) for u in k2 for w in range(j2.n)]
        for i, v in enumerate(order):
            if v not in image:
                ex, ey = e.map[i]
                image[v] = (ex + n1, ey + n2)
        n1 += j1.n
        n2 += j2.n
    return DirectedProductEmbedding(g, (Digraph(n1, arcs1), Digraph(n2, arcs2)),
                                    tuple(image[v] for v in range(g.n)))


def parent_glue_tree_f(g, td, pieces):
    """glue_tree_f's loop as it was: pieces in node order, each tree edge xy
    linking the lowest bags of x's and y's pieces holding the adhesion."""
    offsets, globalized, bags, edges = {}, {}, [], []
    for x in range(td.nodes):
        order = sorted(td.bags[x])
        offsets[x] = len(bags)
        globalized[x] = [frozenset(order[v] for v in b) for b in pieces[x].bags]
        bags += globalized[x]
        edges += [(offsets[x] + a, offsets[x] + b) for a, b in pieces[x].tree_edges]
    for x, y in td.tree_edges:
        adh = td.bags[x] & td.bags[y]
        ax = min(i for i, b in enumerate(globalized[x]) if adh <= b)
        ay = min(i for i, b in enumerate(globalized[y]) if adh <= b)
        edges.append((offsets[x] + ax, offsets[y] + ay))
    return TreeDecomposition(g.n, bags, edges)


def hosts():
    """Stacked 3-trees of 48 and 300 nodes, and clique-pasted hosts whose
    adhesions are vertices or edges."""
    for nodes in (48, 300):
        for seed in range(2):
            yield stacked_3tree(nodes + 2, nodes + seed)
    rng = SplitMix64(7)
    for _ in range(20):
        g, td, _ = _random_pasted_host(rng)
        yield g, td


def test_glue_directed_matches_the_root_first_loop():
    rng = random.Random(1)
    for g, td in hosts():
        embs = {x: random_embedding(rng, g.subgraph(b)[0]) for x, b in enumerate(td.bags)}
        e = glue_directed_products(g, td, embs)
        old = parent_glue_directed(g, td, embs)
        assert e.factors == old.factors and e.map == old.map
        assert e.to_json() == old.to_json()


def test_glue_tree_f_keeps_the_bags_of_the_node_order_loop():
    rng = random.Random(2)
    for g, td in hosts():
        pieces = {}
        for x, b in enumerate(td.bags):
            tx = torso(g, td, x)
            pieces[x] = (random_pair(rng, len(b))[0] if tx.m == len(b) * (len(b) - 1) // 2
                         else treewidth_exact(tx)[1])
        glued = glue_tree_f(g, td, pieces)
        old = parent_glue_tree_f(g, td, pieces)
        assert sorted(map(sorted, glued.bags)) == sorted(map(sorted, old.bags))
        assert glued.width() == old.width()
        assert validate(g, glued).ok


def test_glue_tree_f_validates_the_decomposition_once(monkeypatch):
    g, td = stacked_3tree(152, 150)
    pieces = {x: TreeDecomposition(len(b), [range(len(b))], []) for x, b in enumerate(td.bags)}
    calls = []

    def counting(*args):
        calls.append(args[1])
        return validate(*args)

    monkeypatch.setattr(D, "validate", counting)
    glue_tree_f(g, td, pieces)
    # td once, each piece once, the output once
    assert len(calls) == td.nodes + 2
    assert sum(c is td for c in calls) == 1


# -- rejections ------------------------------------------------------------

def untaut_at_2_3_and_10_11():
    """Bags {i, i+1, i+2} on a path of 15 vertices without the edges 3-4 and
    11-12: valid, and not taut exactly at the tree edges (2,3) and (10,11),
    whose string order differs from their tuple order."""
    g = Graph(15, [(v, v + 1) for v in range(14) if v not in (3, 11)])
    td = TreeDecomposition(15, [{i, i + 1, i + 2} for i in range(13)],
                           [(i, i + 1) for i in range(12)])
    assert validate(g, td).ok
    return g, td


@pytest.mark.parametrize("glue", [glue_tree_f, glue_orthogonal, glue_directed_products])
def test_gluers_name_the_first_untaut_tree_edge(glue):
    g, td = untaut_at_2_3_and_10_11()
    with pytest.raises(DecompositionError, match=r"^decomposition not taut at tree edge \(2,3\)$"):
        glue(g, td, {})


@pytest.mark.parametrize("glue", [glue_tree_f, glue_orthogonal, glue_directed_products])
def test_gluers_reject_an_invalid_decomposition(glue):
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    td = TreeDecomposition(4, [{0, 1, 2}, {2, 3}], [(0, 1)])    # edge 13 in no bag
    with pytest.raises(DecompositionError, match=r"^invalid decomposition: "):
        glue(g, td, {})


def two_triangles():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    return g, TreeDecomposition(4, [{0, 1, 2}, {1, 2, 3}], [(0, 1)])


@pytest.mark.parametrize("bad", [0, 1])
def test_gluers_reject_an_invalid_piece_at_its_node(bad):
    g, td = two_triangles()
    k3 = TreeDecomposition(3, [{0, 1, 2}], [])
    split = TreeDecomposition(3, [{0, 1}, {1, 2}], [(0, 1)])     # edge 02 in no bag
    pieces = {x: split if x == bad else k3 for x in range(2)}
    with pytest.raises(DecompositionError, match=f"^torso decomposition at node {bad} invalid: "):
        glue_tree_f(g, td, pieces)

    path = PathDecomposition(3, [{0, 1, 2}])
    pairs = {x: (k3, PathDecomposition(3, [{0, 1}, {1, 2}]) if x == bad else path)
             for x in range(2)}
    with pytest.raises(DecompositionError, match=f"^pair at node {bad} invalid: "):
        glue_orthogonal(g, td, pairs)

    sub = Graph(3, [(0, 1), (0, 2), (1, 2)])
    good = DirectedProductEmbedding(sub, (_complete_digraph(3), Digraph(1)),
                                    ((0, 0), (1, 0), (2, 0)))
    arcless = DirectedProductEmbedding(sub, (Digraph(3), Digraph(1)), good.map)
    embs = {x: arcless if x == bad else good for x in range(2)}
    with pytest.raises(EmbeddingError, match=f"^bag embedding at node {bad} invalid: "):
        glue_directed_products(g, td, embs)
    edgeless = DirectedProductEmbedding(Graph(3), good.factors, good.map)
    embs = {x: edgeless if x == bad else good for x in range(2)}
    with pytest.raises(EmbeddingError, match=rf"^bag embedding at node {bad} is not over g\[B_{bad}\]$"):
        glue_directed_products(g, td, embs)
