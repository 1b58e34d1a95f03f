"""Gluing along a decomposition whose leaf-removal sequence is long.

Both gluing lemmas put the stripped leaves back one at a time; a stacked
3-tree with 1600 nodes needs 1599 such steps, more than Python's default
recursion limit.
"""

from prodstruct.decomposition import (TreeDecomposition, PathDecomposition,
                                      glue_orthogonal, validate)
from prodstruct.graphs import Digraph, Graph
from prodstruct.products import (DirectedProductEmbedding, glue_directed_products,
                                 validate_directed_embedding)
from prodstruct.rng import SplitMix64

NODES = 1600


def stacked_3tree(n, seed):
    """A random stacked triangulation and its insertion-order decomposition.

    Vertex x >= 3 goes into a random face; its node x - 2 holds x and the
    face, and hangs below the node of the face's newest vertex.  Every
    adhesion set is a triangle, so the decomposition is taut.
    """
    rng = SplitMix64(seed)
    edges, faces = [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]
    bags, tree_edges = [{0, 1, 2}], []
    for x in range(3, n):
        i = rng.randrange(len(faces))
        faces[i], faces[-1] = faces[-1], faces[i]
        a, b, c = faces.pop()
        edges += [(a, x), (b, x), (c, x)]
        faces += [(a, b, x), (b, c, x), (a, c, x)]
        bags.append({x, a, b, c})
        tree_edges.append((max(max(a, b, c) - 2, 0), x - 2))
    return Graph(n, edges), TreeDecomposition(n, bags, tree_edges)


def test_glue_long_removal_sequence():
    g, td = stacked_3tree(NODES + 2, 1600)
    assert td.nodes == NODES
    sizes = [len(b) for b in td.bags]

    pairs = {x: (TreeDecomposition(k, [range(k)], []), PathDecomposition(k, [range(k)]))
             for x, k in enumerate(sizes)}
    t, p = glue_orthogonal(g, td, pairs)
    assert validate(g, t).ok and validate(g, p).ok
    assert t.nodes == NODES

    bag_embeddings = {}
    for x, k in enumerate(sizes):
        sub, _ = g.subgraph(td.bags[x])
        tournament = Digraph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])
        bag_embeddings[x] = DirectedProductEmbedding(
            sub, (tournament, Digraph(1)), tuple((i, 0) for i in range(k)))
    e = glue_directed_products(g, td, bag_embeddings, h=3)
    assert validate_directed_embedding(e) == []
    d1, d2 = e.factors
    assert d1.n == sum(sizes) and d2.n == NODES
    assert d1.max_indegree() <= 3 + 3 and d2.max_indegree() <= 0 + 3
