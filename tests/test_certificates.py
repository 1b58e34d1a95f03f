"""The certificate checkers against their per-edge and per-pair references.

`validate` tests edges by subtree tops and `validate_embedding` tests both
coordinate rules per vertex; the references in conftest.py test every edge
on node sets and image pairs.  `orthogonality` counts shared members per
bag; its reference is the plain maximum over bag pairs.  Reports, error
lists (in order) and values must be identical.
"""

import itertools
import json
import random

import pytest

from conftest import edge_validate_embedding, node_set_validate, random_graph
from prodstruct.cli import main
from prodstruct.constructions import cycle, grid2, stacked_triangulation
from prodstruct.decomposition import (PathDecomposition, TreeDecomposition,
                                      glue_orthogonal, orthogonality,
                                      project_product_decomposition, validate)
from prodstruct.graphs import Graph
from prodstruct.planar import planar_bandwidth3_decomposition
from prodstruct.products import ProductEmbedding, embed_move_apex, validate_embedding
from prodstruct.rng import SplitMix64

from test_glue_deep import stacked_3tree
from test_product_layer import fan_td, window_td


# -- validate ------------------------------------------------------------

def random_tree(rng: random.Random, nodes: int) -> list:
    """A random tree on 0..nodes-1, its nodes shuffled so that node 0, where
    validate roots it, can sit anywhere in it."""
    perm = list(range(nodes))
    rng.shuffle(perm)
    return [(perm[rng.randrange(x)], perm[x]) for x in range(1, nodes)]


def random_decomposition_case(rng: random.Random):
    """A graph on up to 8 vertices and a decomposition on 1-7 tree nodes.

    Each vertex gets a random subtree (or none); edges join most pairs that
    share a bag and a few that do not.  Then one mutation at most: a bag
    emptied, a vertex dropped from or added to a bag (which can split its
    node set), members -1 and n, or a host mismatch.
    """
    n, nodes = rng.randrange(9), 1 + rng.randrange(7)
    tree = random_tree(rng, nodes)
    adj = [[] for _ in range(nodes)]
    for x, y in tree:
        adj[x].append(y)
        adj[y].append(x)
    bags = [set() for _ in range(nodes)]
    for v in range(n):
        if rng.randrange(8) == 0:
            continue
        sub = [rng.randrange(nodes)]
        for _ in range(rng.randrange(nodes)):
            x = rng.choice(sub)
            if adj[x]:
                sub.append(rng.choice(adj[x]))
        for x in sub:
            bags[x].add(v)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.randrange(10) < (6 if any(u in b and v in b for b in bags) else 1)]
    host_n = n
    kind = rng.randrange(7)
    if kind == 0:
        bags[rng.randrange(nodes)].clear()
    elif kind == 1:
        bag = bags[rng.randrange(nodes)]
        if bag:
            bag.discard(rng.choice(sorted(bag)))
    elif kind == 2 and n:
        bags[rng.randrange(nodes)].add(rng.randrange(n))
    elif kind == 3:
        for _ in range(1 + rng.randrange(3)):
            bags[rng.randrange(nodes)].add(rng.choice((-1, n)))
    elif kind == 4 and rng.randrange(4) == 0:
        host_n = n + 1
    return Graph(n, edges), TreeDecomposition(host_n, bags, tree)


def test_validate_matches_the_node_set_reference_on_random_cases():
    rng = random.Random(2024)
    seen = set()
    for _ in range(6000):
        g, td = random_decomposition_case(rng)
        rep = validate(g, td)
        assert rep == node_set_validate(g, td), (g, td.bags, td.tree_edges)
        seen.add(rep.ok)
        seen.update(error.split(" ")[0] + (" split" if "disconnected" in error else "")
                    for error in rep.errors)
    # every error kind and both verdicts came up
    assert seen >= {True, False, "host", "bag", "vertex", "vertex split", "edge"}


def mutants(rng: random.Random, g: Graph, td):
    """td itself, then td with a bag emptied, a vertex dropped from a middle
    bag of its node set, a vertex put in a far bag, and members -1 and n."""
    bags = list(td.bags)
    yield bags
    emptied = list(bags)
    emptied[rng.randrange(len(bags))] = frozenset()
    yield emptied
    for _ in range(3):
        x = rng.randrange(len(bags))
        if bags[x]:
            dropped = list(bags)
            dropped[x] = bags[x] - {rng.choice(sorted(bags[x]))}
            yield dropped
    far = list(bags)
    far[-1] = far[-1] | {rng.randrange(g.n)}
    yield far
    wild = list(bags)
    for x in rng.sample(range(len(bags)), min(3, len(bags))):
        wild[x] = bags[x] | {-1, g.n}
    yield wild


def large_cases():
    """The planar decomposition at n = 1000, the project-product pair of the
    move-apex embedding of grid 12x12 and cycle 30, and the glue-ortho pair
    of a 300-node stacked 3-tree."""
    pt = stacked_triangulation(1000, 1)
    yield pt.graph, planar_bandwidth3_decomposition(pt)[0]
    a, b = grid2(12, 12), cycle(30)
    e = embed_move_apex(a, b, 1, 1)
    for td in project_product_decomposition(e, window_td(a, 12), fan_td(30)):
        yield e.guest, td
    g, td = stacked_3tree(302, 300)
    pairs = {x: (TreeDecomposition(len(bag), [range(len(bag))], []),
                 PathDecomposition(len(bag), [range(len(bag))]))
             for x, bag in enumerate(td.bags)}
    yield g, td
    yield from zip((g, g), glue_orthogonal(g, td, pairs))


def test_validate_matches_the_node_set_reference_on_large_decompositions():
    rng = random.Random(5)
    for g, td in large_cases():
        assert validate(g, td).ok
        for bags in mutants(rng, g, td):
            bad = TreeDecomposition(td.host_n, bags, td.tree_edges)
            assert validate(g, bad) == node_set_validate(g, bad)


# -- validate_embedding --------------------------------------------------

def random_embedding_case(rng: random.Random):
    """An embedding of a random guest on up to 8 vertices into two random
    factors (and K_c for about half of them), with at most one defect."""
    f1, f2 = (random_graph(SplitMix64(rng.randrange(1 << 30)), 1 + rng.randrange(4))
              for _ in range(2))
    c = rng.choice((None, 1 + rng.randrange(3)))
    cells = list(itertools.product(range(f1.n), range(f2.n), range(c or 1)))
    n = rng.randrange(min(len(cells), 8) + 1)
    images = [t[:2] if c is None else t for t in rng.sample(cells, n)]
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.randrange(10) < (6 if all(images[u][i] == images[v][i]
                                                or f.has_edge(images[u][i], images[v][i])
                                                for i, f in enumerate((f1, f2))) else 1)]
    kind = rng.randrange(9)
    v = rng.randrange(n) if n else None
    if kind == 0 and n > 1:
        images[v] = images[(v + 1) % n]                     # identical images
    elif kind == 1 and n:
        images[v] = images[v][:-1] if rng.randrange(2) else images[v] + (0,)
    elif kind == 2 and n:
        i = rng.randrange(len(images[v]))
        images[v] = images[v][:i] + (float(images[v][i]),) + images[v][i + 1:]
    elif kind in (3, 4, 5) and n:
        i = kind - 3 if c is not None else rng.randrange(2)
        far = rng.choice((-1, (f1.n, f2.n, c)[i]))
        images[v] = images[v][:i] + (far,) + images[v][i + 1:]
    elif kind == 6 and rng.randrange(4) == 0:
        images = images[:-1] if images else [(0, 0)]
    return ProductEmbedding(Graph(n, edges), (f1, f2), c, tuple(images))


def test_validate_embedding_matches_the_edge_reference_on_random_cases():
    rng = random.Random(99)
    seen = set()
    for _ in range(5000):
        e = random_embedding_case(rng)
        errors = validate_embedding(e)
        assert errors == edge_validate_embedding(e), e
        seen.update(error.split(": ")[-1].split(" ")[0] for error in errors)
        seen.add(not errors)
    assert seen >= {True, "map", "tuple", "non-integer", "coordinate", "K_c",
                    "identical", "first", "second"}


def test_validate_embedding_matches_the_edge_reference_on_move_apex():
    a, b = grid2(12, 12), cycle(30)
    e = embed_move_apex(a, b, 1, 1)
    assert validate_embedding(e) == edge_validate_embedding(e) == []
    images = list(e.map)
    images[5], images[700] = images[700], images[5]     # two far-moved vertices
    moved = ProductEmbedding(e.guest, e.factors, None, tuple(images))
    assert validate_embedding(moved) == edge_validate_embedding(moved) != []


# -- orthogonality -------------------------------------------------------

def plain_orthogonality(td1, td2) -> int:
    return max(len(a & b) for a in td1.bags for b in td2.bags)


def test_orthogonality_matches_the_plain_maximum():
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.randrange(8)
        tds = []
        for _ in range(2):
            nodes = 1 + rng.randrange(6)
            bags = [{v for v in range(-1, n + 1) if rng.randrange(3) == 0}
                    for _ in range(nodes)]
            tds.append(TreeDecomposition(n, bags, random_tree(rng, nodes)))
        assert orthogonality(*tds) == plain_orthogonality(*tds)
    for g, td in large_cases():
        other = TreeDecomposition(td.host_n, [range(0, td.host_n, 2), range(1, td.host_n, 2)],
                                  [(0, 1)])
        assert orthogonality(td, other) == plain_orthogonality(td, other)
        assert orthogonality(other, td) == plain_orthogonality(other, td)


@pytest.mark.parametrize("bags1, bags2, value", [
    ([{-1}], [{2}], 0),       # -1 must not stand for the last vertex
    ([{2}], [{-1}], 0),
    ([{3, -1}], [{-1, 3}], 2),
    ([set()], [set()], 0),
])
def test_orthogonality_counts_out_of_range_members_by_value(bags1, bags2, value):
    td1, td2 = TreeDecomposition(3, bags1, []), TreeDecomposition(3, bags2, [])
    assert orthogonality(td1, td2) == plain_orthogonality(td1, td2) == value


# -- check ortho reports why it fails ---------------------------------------

def test_check_ortho_reports_the_errors_of_both_decompositions(tmp_path, capsys):
    g = Graph(3, [(0, 1), (1, 2)])
    good = TreeDecomposition(3, [{0, 1}, {1, 2}], [(0, 1)])
    no_edge = TreeDecomposition(3, [{0, 1}, {2}], [(0, 1)])
    split = TreeDecomposition(3, [{0, 1}, {2, 5}, {1, 2}], [(0, 1), (1, 2)])
    wild = TreeDecomposition(3, [{0, 1, 2} | set(range(10, 20))], [])
    paths = {}
    for name, td in (("g", g), ("good", good), ("no_edge", no_edge), ("split", split),
                     ("wild", wild)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(td.to_json())

    def check(a, b):
        code = main(["check", "ortho", str(paths["g"]), str(paths[a]), str(paths[b])])
        return code, json.loads(capsys.readouterr().out)["outputs"]

    assert check("good", "good") == (0, {"ok": True, "errors": [], "value": 2})
    # td2 is validated even though td1 fails
    assert check("no_edge", "split") == (1, {"ok": False, "value": None, "errors": [
        "td1: edge (1,2) in no bag",
        "td2: bag 1 mentions out-of-range vertex 5",
        "td2: vertex 1 has a disconnected node set"]})
    code, out = check("wild", "split")
    assert code == 1 and out["value"] is None
    assert out["errors"] == ["td1: " + err for err in validate(g, wild).errors][:10]
