"""The elimination kernels against copies of their earlier full-table loops.

treewidth_dp and pathwidth_dp search level by level, queue each state once,
record the vertex that first reached each state, and stop when they pop the
full set; flood grows the component of a vertex and unions its
neighbourhoods in one pass, and q_set reads Q(t, v) off it.  The references
below are full_elimination_dp, which fills all 2^n states for any step
cost, a component walk followed by a second walk over the component, and
the pathwidth table filled by the full DP with one cost per (state, vertex)
pair.  Both searches share one contract, checked against the full table:
the returned width is the full table's dp[full], and the returned ordering
of all vertices has largest step cost, under the reference cost, equal to
that width.  pathwidth_exact is also checked against the brute force over
orderings and the full table, with its witness re-validated, and both
searches against bounds on the work they do.

tree_param_exact is the block DP over potential maximal cliques.  The full
elimination table with the tree-f step cost is its reference, and the block
DP with cost |Ω| - 1 is checked as a second treewidth oracle, against
treewidth_exact and networkx.
"""

from array import array

import pytest

import prodstruct.constructions as C
import prodstruct.exact as X
import prodstruct.exact._kernels as K
from conftest import brute_vertex_separation, connected_atlas, counting, queued, random_graph
from prodstruct.decomposition import TreeDecomposition, validate
from prodstruct.exact import pathwidth_exact, tree_param_exact, treewidth_exact
from prodstruct.exact._kernels import bits, pathwidth_dp, q_set, treewidth_dp
from prodstruct.graphs import Graph
from prodstruct.rng import SplitMix64


# -- reference kernels: the earlier loops ----------------------------------

def full_elimination_dp(n, cost):
    dp = bytearray(1 << n)
    for s in range(1, 1 << n):
        best = 256
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            t = s ^ bit
            d = dp[t]
            if d >= best:
                continue
            c = cost(t, bit.bit_length() - 1)
            if c > d:
                d = c
            if d < best:
                best = d
        dp[s] = best
    return dp


def plain_component(masks, within, v):
    comp = frontier = 1 << v
    while frontier:
        reach = 0
        for w in bits(frontier):
            reach |= masks[w]
        frontier = reach & within & ~comp
        comp |= frontier
    return comp


def plain_q_set(masks, t, v):
    reach = 0
    for w in bits(plain_component(masks, t, v)):
        reach |= masks[w]
    return reach & ~t & ~(1 << v)


def plain_treewidth_dp(masks):
    def cost(t, v):
        return plain_q_set(masks, t, v).bit_count()
    return full_elimination_dp(len(masks), cost), cost


def plain_pathwidth_dp(masks):
    size = 1 << len(masks)
    nb = array("q", [0]) * size
    for s in range(1, size):
        low = s & -s
        nb[s] = nb[s ^ low] | masks[low.bit_length() - 1]

    def cost(t, v):
        s = t | 1 << v
        return (nb[s] & ~s).bit_count()
    return full_elimination_dp(len(masks), cost), cost


def tree_f_cost(g, f):
    """The step cost of the elimination search tree_param_exact ran before
    the block DP: f of the elimination bag, memoized."""
    masks = g.adjacency_masks()
    memo = {}

    def cost(t, v):
        bag = 1 << v | q_set(masks, t, v)
        if bag not in memo:
            memo[bag] = X.PARAMS[f](g.subgraph(bits(bag))[0])
        return memo[bag]
    return cost


# -- instances -------------------------------------------------------------

def exact_large_graphs():
    """The graphs of the exact-large benchmark workload (same generator seeds)."""
    return {
        "rr13_4": C.random_regular(13, 4, 5), "rr12_3": C.random_regular(12, 3, 3),
        "cycle12": C.cycle(12), "grid3x4": C.grid2(3, 4),
        "rr14_5": C.random_regular(14, 5, 7), "grid4x4": C.grid2(4, 4),
        "rr16_7": C.random_regular(16, 7, 11), "hex4": C.hex_graph(4)[0],
    }


# the workload runs tw on these only; tw of the others takes seconds
TW_LARGE = ("rr13_4", "rr12_3", "cycle12", "grid3x4")
LARGE = exact_large_graphs()


def seeded_graphs():
    rng = SplitMix64(7)
    out = [Graph(0), Graph(1)]
    for i in range(30):
        out.append(random_graph(rng, 2 + i % 9, 1 + rng.randrange(3), 4))
    return out


SMALL = seeded_graphs()


def assert_search(kernel, plain, masks):
    """kernel's width and ordering against plain's full table: the same
    width as dp[full], and an ordering of all vertices whose largest step
    cost under plain's cost is that width."""
    width, order = kernel(masks)
    ref, cost = plain(masks)
    assert width == ref[-1]
    assert sorted(order) == list(range(len(masks)))
    t = worst = 0
    for v in order:
        worst = max(worst, cost(t, v))
        t |= 1 << v
    assert worst == width


# -- the tests -------------------------------------------------------------

@pytest.mark.parametrize("name", TW_LARGE)
def test_treewidth_table_matches_plain_loop_on_large(name):
    assert_search(treewidth_dp, plain_treewidth_dp, LARGE[name].adjacency_masks())


@pytest.mark.parametrize("name", LARGE)
def test_pathwidth_table_matches_plain_loop_on_large(name):
    assert_search(pathwidth_dp, plain_pathwidth_dp, LARGE[name].adjacency_masks())


@pytest.mark.parametrize("g", SMALL, ids=lambda g: f"n{g.n}m{g.m}")
def test_tables_match_plain_loops_on_small(g):
    masks = g.adjacency_masks()
    assert_search(treewidth_dp, plain_treewidth_dp, masks)
    assert_search(pathwidth_dp, plain_pathwidth_dp, masks)


def test_greedy_step_bounds_the_pathwidth_search(monkeypatch):
    # without the step the two searches reach 65,536 and 20,064 states; with
    # a strict b(S u v) < b(S) they reach 65,536 and 1,514; with the step but
    # finishing the level after the full set, 124 and 472
    states = queued(monkeypatch)
    assert pathwidth_dp(C.star(15).adjacency_masks())[0] == 1
    assert len(states) <= 64
    states.clear()
    assert pathwidth_dp(LARGE["rr16_7"].adjacency_masks())[0] == 9
    assert len(states) <= 300


def assert_pathwidth_witness(g, value, pd):
    rep = validate(g, pd)
    assert rep.ok and rep.width == value, (g.edges(), rep)


def test_pathwidth_matches_brute_force_on_the_atlas():
    for g in connected_atlas(7):
        value, pd = pathwidth_exact(g)
        assert value == brute_vertex_separation(g), g.edges()
        assert_pathwidth_witness(g, value, pd)


def seeded_pathwidth_graphs():
    # n <= 11 at edge densities 1/4 to 3/4, and each with two isolated
    # vertices added while it stays within n <= 11
    rng = SplitMix64(29)
    out = []
    for i in range(60):
        g = random_graph(rng, 1 + i % 11, 1 + rng.randrange(3), 4)
        out.append(g)
        if g.n <= 9:
            out.append(Graph(g.n + 2, g.edges()))
    return out


def test_pathwidth_matches_full_table_on_seeded_graphs():
    graphs = seeded_pathwidth_graphs()
    assert any(not g.is_connected() for g in graphs)
    assert any(g.n > 1 and any(not a for a in g.adj) for g in graphs)
    for g in graphs:
        value, pd = pathwidth_exact(g)
        assert value == plain_pathwidth_dp(g.adjacency_masks())[0][-1], g.edges()
        assert_pathwidth_witness(g, value, pd)


@pytest.mark.parametrize("g", SMALL[2:20], ids=lambda g: f"n{g.n}m{g.m}")
def test_q_set_and_component_match_plain_loops(g):
    masks = g.adjacency_masks()
    for t in range(1 << g.n):
        for v in range(g.n):
            if not t >> v & 1:
                assert q_set(masks, t, v) == plain_q_set(masks, t, v)
                assert K.flood(masks, t, v)[0] == plain_component(masks, t, v)


def test_only_tw_runs_the_shared_dp(monkeypatch):
    # K3,3 has no simplicial or almost simplicial vertex: the front end leaves it whole
    calls = counting(monkeypatch, "treewidth_dp")
    g = C.complete_multipartite([3, 3])
    pathwidth_exact(g)
    assert len(calls) == 0
    tree_param_exact(g, "maxdeg")
    assert len(calls) == 0
    treewidth_exact(g)
    assert len(calls) == 1


def test_front_end_leaves_the_dp_only_what_no_rule_reduces(monkeypatch):
    # the almost simplicial rule under the MMD+ bound empties three of
    # exact-large's tw graphs; rr13_4 has no almost simplicial vertex
    sizes = []
    real = X.treewidth_dp
    monkeypatch.setattr(X, "treewidth_dp", lambda masks: sizes.append(len(masks)) or real(masks))
    for g in (C.cycle(12), C.grid2(3, 4), C.random_regular(12, 3, 3)):
        treewidth_exact(g)
    assert sizes == []
    treewidth_exact(C.random_regular(13, 4, 5))
    assert sizes == [13]


def test_search_on_a_path_stops_at_its_treewidth(monkeypatch):
    # one q_set call per queued state but the empty set: a reached state is
    # never offered again.  The full table made 1.05 M cost calls on the
    # path, one per state, for tw = 1; finishing the level after the full set
    # made 1,350.  Rescanning each level and offering reached states again
    # made 1,695 calls on rr13_4.
    calls = counting(monkeypatch, "q_set", K)
    states = queued(monkeypatch)
    for g, tw, bound in ((C.path(20), 1, 400), (LARGE["rr13_4"], 5, 1300)):
        calls.clear()
        states.clear()
        assert treewidth_dp(g.adjacency_masks())[0] == tw
        assert 0 < len(calls) == len(states) - 1 <= bound


# -- the block DP over potential maximal cliques ---------------------------

def tree_f_reference(g, f):
    """tree-f as the elimination-ordering DP computed it: the full table."""
    return full_elimination_dp(g.n, tree_f_cost(g, f))[-1]


def seeded_tree_f_graphs():
    # n <= 8 at edge densities 1/4 to 3/4: the sparse ones are often disconnected
    rng = SplitMix64(17)
    return [random_graph(rng, 2 + i % 7, 1 + rng.randrange(3), 4) for i in range(28)]


TREE_F_GRAPHS = {
    "atlas6": connected_atlas(6),
    "seeded": seeded_tree_f_graphs(),
    "edge": [Graph(0), Graph(1), C.complete(6)],
}


def assert_witness_attains(g, f, value, td):
    rep = validate(g, td)
    assert rep.ok, rep
    assert max(X.PARAMS[f](g.subgraph(b)[0]) for b in td.bags) == value


@pytest.mark.parametrize("f", X.PARAMS)
@pytest.mark.parametrize("family", TREE_F_GRAPHS)
def test_tree_f_block_dp_matches_elimination_reference(family, f):
    graphs = TREE_F_GRAPHS[family]
    if family == "seeded":
        assert any(not g.is_connected() for g in graphs)
    for g in graphs:
        value, td = tree_param_exact(g, f)
        assert value == tree_f_reference(g, f), (g.n, g.edges())
        if g.n:
            assert_witness_attains(g, f, value, td)


def minimal_triangulation_cliques(g):
    """The maximal cliques of the minimal triangulations of g, by brute force.

    Every minimal triangulation is the fill graph of some elimination
    ordering; a fill graph is a minimal triangulation iff removing any one
    fill edge leaves it non-chordal (Rose, Tarjan & Lueker, SIAM J. Comput.
    1976)."""
    import itertools
    import networkx as nx
    out = set()
    seen = set()
    for order in itertools.permutations(range(g.n)):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        later = set(range(g.n))
        fill = []
        for v in order:
            later.discard(v)
            nb = [w for w in h[v] if w in later]
            for a, b in itertools.combinations(nb, 2):
                if not h.has_edge(a, b):
                    h.add_edge(a, b)
                    fill.append((a, b))
        key = frozenset(map(frozenset, fill))
        if key in seen:
            continue
        seen.add(key)
        if all(not nx.is_chordal(nx.restricted_view(h, [], [e])) for e in fill):
            out |= {sum(1 << v for v in c) for c in nx.find_cliques(h)}
    return sorted(out)


@pytest.mark.parametrize("g", connected_atlas(5) + [g for g in seeded_tree_f_graphs() if g.n <= 6],
                         ids=lambda g: f"n{g.n}m{g.m}")
def test_pmcs_are_the_cliques_of_minimal_triangulations(g):
    assert list(X.potential_maximal_cliques(g.adjacency_masks())) == \
        minimal_triangulation_cliques(g)


def block_dp_treewidth(g):
    value, bags, edges = X._block_dp(X._blocks(g.adjacency_masks()),
                                     lambda omega: omega.bit_count() - 1)
    td = TreeDecomposition(g.n, [bits(b) for b in bags], edges)
    rep = validate(g, td)
    assert rep.ok and rep.width == value
    return value


def seeded_treewidth_graphs():
    rng = SplitMix64(23)
    return [random_graph(rng, 1 + i % 10, 1 + rng.randrange(3), 4) for i in range(40)]


def test_block_dp_is_a_second_treewidth_oracle_on_the_atlas():
    for g in connected_atlas(7):
        assert block_dp_treewidth(g) == treewidth_exact(g)[0], g.edges()


def test_block_dp_is_a_second_treewidth_oracle_on_seeded_graphs():
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_fill_in
    for g in seeded_treewidth_graphs():
        tw = block_dp_treewidth(g)
        assert tw == treewidth_exact(g)[0], g.edges()
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        assert tw <= treewidth_min_fill_in(nxg)[0]
