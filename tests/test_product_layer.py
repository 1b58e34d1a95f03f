"""The product, projection, validation and gluing layer against oracles.

The oracles are networkx's products and in-test copies of the plain loops
that the output-linear code replaced: the edge-list products and joins, each
built by one checked `Graph(n, edges)` call, the four-loop directed strong
product, the per-vertex BFS and any-bag edge check of `validate`, the
pull-back that scans every guest vertex per bag, and the gluing loop that
rescans every glued bag for the adhesion clique and re-unions every path bag
on each step.  The fast code must give the same arcs, messages, bags and
edges.
"""

import json
import random
import time

import networkx as nx
import pytest

from conftest import random_graph
from prodstruct import products as P
from prodstruct.cli import main
from prodstruct.constructions import (complete_multipartite, cycle, grid2, path,
                                      stacked_triangulation)
from prodstruct.decomposition import (DecompositionError, PathDecomposition,
                                      TreeDecomposition, _leaf_removal_order,
                                      glue_orthogonal,
                                      project_product_decomposition, validate)
from prodstruct.graphs import Digraph, Graph, apex, bidirect, complete_join
from prodstruct.planar import planar_bandwidth3_decomposition
from prodstruct.rng import SplitMix64

from test_glue_deep import stacked_3tree


# -- products against networkx -------------------------------------------

def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return h


def product_pairs():
    rng = SplitMix64(41)
    pairs = [(grid2(3, 4), cycle(5)), (cycle(6), grid2(2, 3)), (path(1), cycle(4)),
             (Graph(3), path(4))]
    for _ in range(12):
        pairs.append((random_graph(rng, 1 + rng.randrange(7)),
                      random_graph(rng, 1 + rng.randrange(7))))
    return pairs


@pytest.mark.parametrize("ours, theirs", [(P.cartesian, nx.cartesian_product),
                                          (P.direct, nx.tensor_product),
                                          (P.strong, nx.strong_product)])
def test_products_match_networkx(ours, theirs):
    for a, b in product_pairs():
        got = ours(a, b)
        want = nx.relabel_nodes(theirs(to_nx(a), to_nx(b)),
                                {(i, j): i * b.n + j
                                 for i in range(a.n) for j in range(b.n)})
        assert got.n == want.number_of_nodes() == a.n * b.n
        assert set(got.edges()) == {(min(e), max(e)) for e in want.edges()}


# -- directed strong product against the four-loop ------------------------

def four_loop_directed_strong(d1: Digraph, d2: Digraph) -> set:
    arcs = set()
    for x in range(d1.n):
        for xp in range(d1.n):
            if x != xp and not d1.has_arc(x, xp):
                continue
            for y in range(d2.n):
                for yp in range(d2.n):
                    if y != yp and not d2.has_arc(y, yp):
                        continue
                    if (x, y) == (xp, yp):
                        continue
                    arcs.add((x * d2.n + y, xp * d2.n + yp))
    return arcs


def random_digraph(rng: random.Random, n: int) -> Digraph:
    return Digraph(n, [(u, v) for u in range(n) for v in range(n)
                       if u != v and rng.random() < 0.35])


def test_directed_strong_matches_the_four_loop():
    rng = random.Random(11)
    cases = [(random_digraph(rng, rng.randrange(1, 8)), random_digraph(rng, rng.randrange(1, 8)))
             for _ in range(30)]
    cases.append((bidirect(grid2(3, 3)), bidirect(cycle(5))))
    for d1, d2 in cases:
        got = P.directed_strong(d1, d2)
        want = four_loop_directed_strong(d1, d2)
        assert set(got.arcs()) == want
        old_json = json.dumps({"n": d1.n * d2.n, "arcs": sorted(map(list, want))})
        assert got.to_json() == old_json


# -- digraphs kept as out-sets ---------------------------------------------

def test_built_digraphs_equal_and_hash_like_checked_ones():
    """_from_out, directed_strong and bidirect skip the arc-by-arc check of
    Digraph(n, arcs), and must still give the same value."""
    rng = random.Random(5)
    g = grid2(2, 3)
    cases = [(Digraph._from_out((frozenset({1, 2}), frozenset(), frozenset({0}))),
              [(0, 1), (0, 2), (2, 0)]),
             (bidirect(g), [a for u, v in g.edges() for a in ((u, v), (v, u))])]
    for _ in range(10):
        d1, d2 = random_digraph(rng, rng.randrange(0, 5)), random_digraph(rng, rng.randrange(0, 5))
        cases.append((P.directed_strong(d1, d2), four_loop_directed_strong(d1, d2)))
    for built, arcs in cases:
        checked = Digraph(built.n, arcs)
        assert built == checked and hash(built) == hash(checked)
        assert built.arcs() == sorted(arcs) and built.to_json() == checked.to_json()


def test_directed_strong_with_empty_and_one_vertex_factors():
    d = Digraph(3, [(0, 1), (2, 1)])
    for empty in (P.directed_strong(d, Digraph(0)), P.directed_strong(Digraph(0), d)):
        assert empty == Digraph(0) and empty.arcs() == []
    # the one-vertex factor only stays: the product is d itself, relabelled
    assert P.directed_strong(d, Digraph(1)) == d
    assert P.directed_strong(Digraph(1), d) == d
    assert P.directed_strong(Digraph(1), Digraph(1)) == Digraph(1)


def test_underlying_and_indegree_on_one_way_arcs():
    from prodstruct.graphs import underlying
    # 0 -> 1 one way, 1 <-> 2 both ways, 3 -> 2 and 0 -> 2 one way
    d = Digraph(4, [(0, 1), (1, 2), (2, 1), (3, 2), (0, 2)])
    assert underlying(d).edges() == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert [d.indegree(v) for v in range(4)] == [0, 2, 3, 0]
    assert d.max_indegree() == 3 and d.m == 5
    assert Digraph(3, [(2, 0)]).max_indegree() == 1
    assert underlying(Digraph(3, [(2, 0)])).edges() == [(0, 2)]


@pytest.mark.parametrize("arcs, message", [
    ([[0, 1], [1, 0], [0, 1]], "duplicate arcs"),
    ([[0, 1], [1, 1]], "self-loop at 1"),
    ([[0, 1], [1, 2]], "arc (1,2) out of range for n=2"),
    ([[0, -1]], "arc (0,-1) out of range for n=2"),
    ([[0, 1.0]], "arc endpoints must be integers"),
    ([[0, True]], "arc endpoints must be integers"),
], ids=["duplicate", "self-loop", "out of range", "negative", "float", "boolean"])
def test_dstrong_refuses_bad_arcs(arcs, message, tmp_path, capsys):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps({"n": 2, "arcs": arcs}))
    good.write_text(Digraph(2, [(0, 1)]).to_json())
    for inputs in ((bad, good), (good, bad)):
        code = main(["product", "dstrong", *map(str, inputs)])
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": f"InputError: malformed {bad}: {message}"}


# -- products and joins against the edge-list builders ---------------------

def edge_list_product(a: Graph, b: Graph, rows: bool, pairs) -> list:
    """Edges (i,j)(i,l) for jl in E(b) when rows is set, and (i,j)(k,l) for
    ik in E(a) and (j,l) in pairs."""
    nb, b_edges = b.n, b.edges()
    edges = [(i * nb + j, i * nb + l) for i in range(a.n) for j, l in b_edges] if rows else []
    edges += [(i * nb + j, k * nb + l) for i, k in a.edges() for j, l in pairs]
    return edges


def both_ways(g: Graph) -> list:
    return g.edges() + [(v, u) for u, v in g.edges()]


def edge_list_strong(a: Graph, b: Graph) -> list:
    return edge_list_product(a, b, True, [(j, j) for j in range(b.n)] + both_ways(b))


EDGE_LIST_PRODUCTS = {
    P.cartesian: lambda a, b: Graph(a.n * b.n, edge_list_product(
        a, b, True, [(j, j) for j in range(b.n)])),
    P.direct: lambda a, b: Graph(a.n * b.n, edge_list_product(a, b, False, both_ways(b))),
    P.strong: lambda a, b: Graph(a.n * b.n, edge_list_strong(a, b)),
}


def clique_edges(k: int) -> list:
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def edge_list_join(parts) -> Graph:
    """The join of graphs given as (n, edges): ids run through the parts in
    order, and vertices of different parts are adjacent."""
    n, edges = 0, []
    for m, part in parts:
        edges += [(u + n, v + n) for u, v in part]
        edges += [(u, n + v) for u in range(n) for v in range(m)]
        n += m
    return Graph(n, edges)


def plus_clique(g: Graph, k: int) -> Graph:
    return edge_list_join([(g.n, g.edges()), (k, clique_edges(k))])


def assert_built_like(built: Graph, checked: Graph):
    """built, from unchecked neighbour sets, is the value Graph(n, edges) gives."""
    assert built == checked and hash(built) == hash(checked)
    assert type(built.adj) is tuple and len(built.adj) == built.n
    assert all(type(s) is frozenset for s in built.adj)
    assert all(u not in s and all(u in built.adj[v] for v in s)
               for u, s in enumerate(built.adj))


def factor_graphs():
    """Random factors, with the empty graph, K_1, an edgeless and a complete
    graph among them."""
    rng = SplitMix64(29)
    graphs = [Graph(0), Graph(1), Graph(3), Graph(4, clique_edges(4))]
    graphs += [random_graph(rng, rng.randrange(7)) for _ in range(8)]
    return graphs


@pytest.mark.parametrize("product", list(EDGE_LIST_PRODUCTS), ids=lambda f: f.__name__)
def test_products_equal_the_edge_list_builders(product):
    graphs = factor_graphs()
    for a in graphs:
        for b in graphs:
            assert_built_like(product(a, b), EDGE_LIST_PRODUCTS[product](a, b))


def test_joins_equal_the_edge_list_builders():
    graphs = factor_graphs()
    rng = random.Random(13)
    for k in range(4):
        for _ in range(12):
            chosen = [rng.choice(graphs) for _ in range(k)]
            assert_built_like(complete_join(*chosen),
                              edge_list_join([(g.n, g.edges()) for g in chosen]))
    for g in graphs:
        assert_built_like(apex(g), edge_list_join([(g.n, g.edges()), (1, [])]))
        assert_built_like(complete_join(*[Graph(1)] * g.n), Graph(g.n, clique_edges(g.n)))
    for sizes in ([1], [3], [2, 1], [1, 2, 3], [2, 2, 2, 1]):
        assert_built_like(complete_multipartite(sizes),
                          edge_list_join([(s, []) for s in sizes]))


def test_join_lemma_guests_and_factors_equal_the_edge_list_builders():
    graphs = factor_graphs()
    for a, b in zip(graphs, graphs[1:] + graphs[:1]):
        for p, q in ((1, 1), (2, 1), (1, 3), (2, 2)):
            pq = (p * q, clique_edges(p * q))
            join = P.embed_join_product(a, b, p, q)
            move = P.embed_move_apex(a, b, p, q)
            assert_built_like(join.guest, edge_list_join(
                [(a.n, a.edges()), (b.n, b.edges()), pq]))
            assert_built_like(move.guest, edge_list_join(
                [(a.n * b.n, edge_list_strong(a, b)), pq]))
            for e in (join, move):
                assert_built_like(e.factors[0], plus_clique(a, p))
                assert_built_like(e.factors[1], plus_clique(b, q))


def test_apex_fan_guests_equal_the_edge_list_builder():
    for h in factor_graphs():
        for path_len, a in ((1, 0), (3, 0), (2, 1), (4, 3)):
            _, _, e = P.orient_apex_fan(h, range(h.n), path_len, a)
            p = Graph(path_len, [(j, j + 1) for j in range(path_len - 1)])
            assert_built_like(e.guest, edge_list_join(
                [(h.n * path_len, edge_list_strong(h, p)), (a, clique_edges(a))]))


# -- validate against the BFS / any-bag copy ------------------------------

def bfs_validate(g: Graph, td):
    """validate as it was: any-bag edge check and one BFS per vertex."""
    errors = []
    if td.host_n != g.n:
        errors.append(f"host mismatch: decomposition host_n={td.host_n}, graph n={g.n}")
        return errors, -1, -1, False
    nodes_of = [[] for _ in range(g.n)]
    for x, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.n):
                errors.append(f"bag {x} mentions out-of-range vertex {v}")
            else:
                nodes_of[v].append(x)
    for v in range(g.n):
        if not nodes_of[v]:
            errors.append(f"vertex {v} in no bag")
    for u, v in g.edges():
        if not any(u in b and v in b for b in td.bags):
            errors.append(f"edge ({u},{v}) in no bag")
    adj = [[] for _ in range(td.nodes)]
    for x, y in td.tree_edges:
        adj[x].append(y)
        adj[y].append(x)
    for v in range(g.n):
        xs = set(nodes_of[v])
        if not xs:
            continue
        seen = {min(xs)}
        stack = [min(xs)]
        while stack:
            for w in adj[stack.pop()]:
                if w in xs and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != xs:
            errors.append(f"vertex {v} has a disconnected node set")
    adhesion = max((len(td.bags[x] & td.bags[y]) for x, y in td.tree_edges), default=0)
    taut = all(g.is_clique(td.bags[x] & td.bags[y]) for x, y in td.tree_edges)
    return errors, max(len(b) for b in td.bags) - 1, adhesion, taut


def assert_same_report(g, td):
    rep = validate(g, td)
    errors, width, adhesion, taut = bfs_validate(g, td)
    assert rep.errors == errors
    assert rep.ok == (not errors)
    assert (rep.width, rep.adhesion, rep.taut) == (width, adhesion, taut)
    return rep


def window_td(a: Graph, cols: int) -> TreeDecomposition:
    """a + K_1 for a row-major grid with `cols` columns: every window of
    cols + 1 consecutive ids, plus the apex a.n."""
    windows = [set(range(i, i + cols + 1)) | {a.n} for i in range(a.n - cols)]
    return TreeDecomposition(a.n + 1, windows, [(i, i + 1) for i in range(len(windows) - 1)])


def fan_td(k: int) -> TreeDecomposition:
    """cycle(k) + K_1: the fan bags {0, i, i + 1, apex}."""
    fan = [{0, i, i + 1, k} for i in range(1, k - 1)]
    return TreeDecomposition(k + 1, fan, [(i, i + 1) for i in range(len(fan) - 1)])


def move_apex_case():
    a, b = grid2(4, 5), cycle(6)
    e = P.embed_move_apex(a, b, 1, 1)
    return e, window_td(a, 5), fan_td(6)


def validation_cases():
    cases = []
    for n in (12, 60):
        cases.append(stacked_3tree(n, n))
        pt = stacked_triangulation(n, n)
        cases.append((pt.graph, planar_bandwidth3_decomposition(pt)[0]))
    e, t1, t2 = move_apex_case()
    cases += [(e.guest, t) for t in project_product_decomposition(e, t1, t2)]
    return cases


def test_validate_matches_the_bfs_copy():
    rng = random.Random(7)
    seen = set()
    for g, td in validation_cases():
        assert assert_same_report(g, td).ok
        bags, edges = list(td.bags), td.tree_edges
        mutants = []
        # bags emptied
        emptied = list(bags)
        for x in rng.sample(range(len(bags)), len(bags) // 3):
            emptied[x] = frozenset()
        mutants.append(emptied)
        # one vertex dropped from a middle bag of its node set
        for _ in range(4):
            v = rng.randrange(g.n)
            xs = [x for x, b in enumerate(bags) if v in b]
            inner = [x for x in xs if sum(1 for e in edges if x in e and set(e) <= set(xs)) >= 2]
            if inner:
                dropped = list(bags)
                x = rng.choice(inner)
                dropped[x] = bags[x] - {v}
                mutants.append(dropped)
        # out-of-range members, also in adhesion sets
        wild = list(bags)
        for x in rng.sample(range(len(bags)), min(3, len(bags))):
            wild[x] = bags[x] | {g.n, g.n + 5}
        wild[0] = wild[0] | {-1}
        mutants.append(wild)
        for bad in mutants:
            rep = assert_same_report(g, TreeDecomposition(td.host_n, bad, edges))
            seen.update(map(error_kind, rep.errors))
        rep = assert_same_report(g, TreeDecomposition(td.host_n + 1, bags, edges))
        seen.update(map(error_kind, rep.errors))
    assert seen == {"host mismatch", "out-of-range", "in no bag", "edge", "disconnected"}


def error_kind(error: str) -> str:
    for kind in ("host mismatch", "out-of-range", "edge", "disconnected"):
        if kind in error:
            return kind
    return "in no bag"


# -- pull-back against the per-bag scan -----------------------------------

def test_pull_back_matches_the_scan():
    e, t1, t2 = move_apex_case()
    out1, out2 = project_product_decomposition(e, t1, t2)
    for i, (out, td) in enumerate(((out1, t1), (out2, t2))):
        want = tuple(frozenset(v for v in range(e.guest.n) if e.map[v][i] in bag)
                     for bag in td.bags)
        assert out.bags == want
        assert out.tree_edges == td.tree_edges


# -- one validation per embed call ----------------------------------------

def test_embed_move_apex_validates_once(tmp_path, monkeypatch, capsys):
    calls = []
    original = P.validate_embedding

    def counted(e):
        calls.append(e)
        return original(e)

    monkeypatch.setattr(P, "validate_embedding", counted)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(grid2(3, 4).to_json())
    b.write_text(cycle(5).to_json())
    code = main(["embed", "move-apex", str(a), str(b), "--p", "1", "--q", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(calls) == 1
    assert report["outputs"]["valid"] is True and report["outputs"]["errors"] == []


# -- gluing against the rescanning loop ------------------------------------

def rescanning_glue(g, td, pairs):
    """glue_orthogonal's loop as it was: returns (tree bags, tree edges,
    path bags) before they become decompositions."""
    def globalize(x):
        order = sorted(td.bags[x])
        r, p = pairs[x]
        return ([frozenset(order[v] for v in b) for b in r.bags], r.tree_edges,
                [frozenset(order[v] for v in b) for b in p.bags])

    removal, root = _leaf_removal_order(td)
    tree_bags, tree_edges, path_bags = globalize(root)
    tree_edges = list(tree_edges)
    for x, y in reversed(removal):
        tx, tx_edges, px = globalize(x)
        adh = td.bags[x] & td.bags[y]

        def lowest(bags):
            for i, b in enumerate(bags):
                if adh <= b:
                    return i
            raise DecompositionError("adhesion clique not inside one bag")

        a_star, p_star, i_star, j_star = lowest(tree_bags), lowest(tx), lowest(path_bags), lowest(px)
        n_r = len(tree_bags)
        tree_edges += [(n_r + a, n_r + b) for a, b in tx_edges]
        tree_edges.append((a_star, n_r + p_star))
        tree_bags += tx
        shift = i_star - j_star
        merged = []
        for i in range(min(0, shift), max(len(path_bags) - 1, shift + len(px) - 1) + 1):
            bag = frozenset()
            if 0 <= i < len(path_bags):
                bag |= path_bags[i]
            if 0 <= i - shift < len(px):
                bag |= px[i - shift]
            merged.append(bag)
        path_bags = merged
    return tree_bags, tree_edges, path_bags


def random_pair(rng: random.Random, k: int):
    """A tree- and a path-decomposition of K_k with extra proper sub-bags.

    The tree hangs shrinking subsets below the full bag; the path puts the
    full bag at a random index, with subsets shrinking away from it on both
    sides, so every vertex's bags stay consecutive.
    """
    full = frozenset(range(k))
    bags, edges = [full], []
    for _ in range(rng.randrange(4)):
        parent = rng.randrange(len(bags))
        bags.append(frozenset(rng.sample(sorted(bags[parent]), rng.randrange(len(bags[parent]) + 1))))
        edges.append((parent, len(bags) - 1))
    sides = []
    for _ in range(2):
        side, cur = [], full
        for _ in range(rng.randrange(3)):
            cur = frozenset(rng.sample(sorted(cur), rng.randrange(len(cur) + 1)))
            side.append(cur)
        sides.append(side)
    path_bags = sides[0][::-1] + [full] + sides[1]
    return TreeDecomposition(k, bags, edges), PathDecomposition(k, path_bags)


@pytest.mark.parametrize("nodes", [48, 300])
def test_glue_orthogonal_matches_the_rescanning_loop(nodes):
    for seed in range(3):
        g, td = stacked_3tree(nodes + 2, nodes + seed)
        rng = random.Random(seed)
        pairs = {x: random_pair(rng, len(b)) for x, b in enumerate(td.bags)}
        t, p = glue_orthogonal(g, td, pairs)
        tree_bags, tree_edges, path_bags = rescanning_glue(g, td, pairs)
        assert t.bags == tuple(tree_bags)
        assert t.tree_edges == tuple(sorted(tree_edges))
        assert p.bags == tuple(path_bags)
        assert len(path_bags) > 1


def test_glue_orthogonal_at_ten_thousand_nodes():
    g, td = stacked_3tree(10_002, 10_000)
    pairs = {x: (TreeDecomposition(len(b), [range(len(b))], []),
                 PathDecomposition(len(b), [range(len(b))]))
             for x, b in enumerate(td.bags)}
    start = time.perf_counter()
    t, p = glue_orthogonal(g, td, pairs)
    assert time.perf_counter() - start < 3
    assert t.nodes == 10_000 and p.nodes == 1
    assert validate(g, t).ok and validate(g, p).ok
