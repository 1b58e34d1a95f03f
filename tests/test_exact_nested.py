"""The nested oracles twtw and TwIntTw against copies of their plain loops.

twtw_exact walks partition prefixes level by level, building quotient masks
along the walk, and asks each distinct prefix quotient "tw <= k?" once per
level (_tw_at_most: low-degree elimination for k <= 2, the treewidth front
end and DP above it).  A prefix that fails is cut, and level k + 1 resumes
from the prefixes cut at level k.  twintw_exact takes each
minimal triangulation T1 that _minimal_triangulations enumerates from one
PMC sweep, by the block recursion of the tree-f DP, and asks the block DP
for its best partner T2.  The reference oracles below are the loops without
any of that: every partition and quotient for twtw, and for TwIntTw every
elimination ordering's chordal completion, of which the minimal
triangulations are those with no other completion's edges strictly inside
their own, tried in pairs.  Both oracles must give the values of the
references, and the block DP the best partner the pair loop finds for each
T1.  twtw must give the same witnesses; a TwIntTw witness must be a valid
pair of clique trees of minimal triangulations that attains the value.  And
the fast oracles must do bounded work: twtw pops fewer prefixes than a walk
without the cut would, and asks fewer questions than there are quotients.
"""

import itertools
import sys

import networkx as nx
import pytest

import prodstruct.exact as X
import prodstruct.exact._kernels as K
from conftest import connected_atlas, counting, disjoint_union, random_graph, twintw_raw
from prodstruct.constructions import (complete_multipartite, cycle, grid2, path,
                                      stacked_triangulation)
from prodstruct.decomposition import TreeDecomposition, orthogonality, validate
from prodstruct.exact import (_blocks, _minimal_triangulations, _reduce, _treewidth_value,
                              _tw_at_most, max_clique_order, treewidth_exact, twintw_exact,
                              twtw_exact)
from prodstruct.exact._kernels import bits, q_set
from prodstruct.graphs import Graph, VertexPartition, quotient
from prodstruct.rng import SplitMix64


# -- reference oracles: every partition, quotient and ordering, no memo ---

def plain_set_partitions(n):
    def rec(prefix, k):
        i = len(prefix)
        if i == n:
            parts = [[] for _ in range(k)]
            for v, p in enumerate(prefix):
                parts[p].append(v)
            yield parts
            return
        for p in range(k + 1):
            yield from rec(prefix + [p], max(k, p + 1))
    yield from rec([], 0)


def plain_twtw(g, c):
    cands = []
    for parts in plain_set_partitions(g.n):
        vp = VertexPartition(g.n, parts)
        cands.append((treewidth_exact(quotient(g, vp))[0], vp))
    cands.sort(key=lambda t: t[0])

    def compatible(a, b):
        return all(len(x & y) <= c for x in a.parts for y in b.parts)

    for k in range(0, max(t for t, _ in cands) + 1):
        pool = [vp for tw, vp in cands if tw <= k]
        for i, p1 in enumerate(pool):
            for p2 in pool[i:]:
                if compatible(p1, p2):
                    return k, (p1, p2, quotient(g, p1), quotient(g, p2))


def plain_completions(g):
    masks = g.adjacency_masks()
    seen = {}
    for order in itertools.permutations(range(g.n)):
        bags = []
        prefix = 0
        for v in order:
            bags.append(1 << v | q_set(masks, prefix, v))
            prefix |= 1 << v
        maximal = tuple(sorted(b for b in bags
                               if not any(b != o and (b & o) == b for o in bags)))
        if maximal not in seen:
            seen[maximal] = order
    return [(list(k), v) for k, v in sorted(seen.items())]


def clique_edges(cliques):
    return {(u, v) for c in cliques for u, v in itertools.combinations(bits(c), 2)}


def plain_minimal_triangulations(g):
    """The completions with no other completion's edges strictly inside theirs."""
    comps = [bags for bags, _ in plain_completions(g)]
    fills = [clique_edges(bags) for bags in comps]
    return [tuple(bags) for bags, e in zip(comps, fills) if not any(f < e for f in fills)]


def pair_max(t1, t2):
    """The largest intersection of a clique of t1 with a clique of t2."""
    return max((b1 & b2).bit_count() for b1 in t1 for b2 in t2)


def plain_best_partners(tris):
    """The plain pair loop: for each T1, the least pair_max over every T2."""
    return [min(pair_max(t1, t2) for t2 in tris) for t1 in tris]


def plain_twintw_orders(g):
    comps = plain_completions(g)
    lb = max_clique_order(g)
    best = pair = None
    for i, (bags1, o1) in enumerate(comps):
        for bags2, o2 in comps[i:]:
            val = max(bin(b1 & b2).count("1") for b1 in bags1 for b2 in bags2)
            if best is None or val < best:
                best, pair = val, (o1, o2)
                if best == lb:
                    break
        if best == lb:
            break
    return best, pair


# -- instances ------------------------------------------------------------

def random_instances(sizes, count):
    rng = SplitMix64(20240521)
    return [random_graph(rng, n) for n in sizes for _ in range(count)]


TWTW_GRAPHS = ([grid2(2, 4), path(7), complete_multipartite([2, 2, 2]), cycle(6)]
               + random_instances((4, 5, 6, 7), 2))
TWINTW_GRAPHS = ([complete_multipartite([2, 2, 2]), cycle(7),
                  stacked_triangulation(7, 3).graph]
                 + random_instances((4, 5, 6, 7), 2))
# seeded graphs with n <= 7, sparse to dense
SEEDED = [random_graph(rng, n, num, 4) for rng in [SplitMix64(7)]
          for num in (1, 2, 3) for n in range(1, 8)]
TWTW_SEEDED = (SEEDED + [random_graph(rng, n, num, 4) for rng in [SplitMix64(11)]
                         for num in (1, 2, 3) for n in range(2, 8)]
               # disjoint unions, and graphs with isolated vertices
               + [disjoint_union(random_graph(rng, a, num, 4), random_graph(rng, b, 3, 4))
                  for rng in [SplitMix64(13)] for num in (2, 3) for a, b in ((2, 3), (3, 4), (4, 3))]
               + [disjoint_union(g, Graph(k, []))
                  for g in (path(4), cycle(5), complete_multipartite([2, 3])) for k in (1, 2)]
               + [Graph(n, []) for n in (1, 4, 7)])


def all_labelled_graphs(max_n):
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if m >> i & 1])


def _recognizer_graphs():
    rng = SplitMix64(3)
    out = []
    for n in range(6, 10):
        out += [random_graph(rng, n, num, 8) for num in (1, 2, 3, 4, 5, 6, 7) for _ in range(3)]
        # disconnected: a dense part beside a sparse one
        out += [disjoint_union(random_graph(rng, n - a, 7, 8), random_graph(rng, a, num, 8))
                for a in (1, 2, 3) for num in (2, 6)]
    return out


# treewidth 3, with one vertex of degree 2 and the rest of degree 3 or more
TW3_STUCK = Graph(7, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 6), (2, 3), (2, 6),
                      (3, 5), (3, 6), (4, 5), (4, 6)])

# treewidth 3, but no vertex is almost simplicial, so eliminating vertices of
# degree at most 3 gets stuck at once: level 3 needs the treewidth DP
K33 = complete_multipartite([3, 3])

# every labelled graph with n <= 5, seeded graphs with n = 6-9 up to tw 8,
# TW3_STUCK and K33
LOW_TW_GRAPHS = list(all_labelled_graphs(5)) + _recognizer_graphs() + [TW3_STUCK, K33]


def snapshot(w):
    p1, p2, q1, q2 = w
    return ([sorted(map(sorted, p.parts)) for p in (p1, p2)],
            [p.parts for p in (p1, p2)], [(q.n, q.edges()) for q in (q1, q2)])


# -- identity -------------------------------------------------------------

@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("i", range(len(TWTW_GRAPHS)))
def test_twtw_matches_the_plain_loop(i, c):
    g = TWTW_GRAPHS[i]
    value, witness = twtw_exact(g, c)
    ref_value, ref_witness = plain_twtw(g, c)
    assert value == ref_value
    assert snapshot(witness) == snapshot(ref_witness)


def assert_minimal_clique_tree(g, td):
    """td is a valid clique tree of a minimal triangulation of g.  A
    triangulation is minimal iff removing any one fill edge leaves it
    non-chordal (Rose, Tarjan & Lueker, SIAM J. Comput. 1976)."""
    assert validate(g, td).ok
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(clique_edges(sum(1 << v for v in b) for b in td.bags))
    assert nx.is_chordal(h)
    assert sorted(td.bags, key=sorted) == sorted(map(frozenset, nx.find_cliques(h)), key=sorted)
    fill = [e for e in h.edges() if not g.has_edge(*e)]
    assert all(not nx.is_chordal(nx.restricted_view(h, [], [e])) for e in fill), g.edges()


def assert_twintw_witness(g, value, witness):
    """Both decompositions are valid clique trees of minimal triangulations,
    and their orthogonality is the value."""
    td1, td2 = witness
    assert orthogonality(td1, td2) == value
    for td in witness:
        assert_minimal_clique_tree(g, td)


def assert_twintw_matches_the_plain_loop(g):
    value, witness = twintw_exact(g)
    assert value == plain_twintw_orders(g)[0], g.edges()
    assert_twintw_witness(g, value, witness)


@pytest.mark.parametrize("i", range(len(TWINTW_GRAPHS)))
def test_completions_and_twintw_match_the_plain_loop(i):
    assert_twintw_matches_the_plain_loop(TWINTW_GRAPHS[i])


def test_twintw_matches_the_plain_loop_on_the_atlas():
    for g in connected_atlas(6):
        assert_twintw_matches_the_plain_loop(g)


def test_twintw_matches_raw_enumeration_up_to_four_vertices():
    # one graph per isomorphism class, connected or not
    from networkx.generators.atlas import graph_atlas_g
    for h in graph_atlas_g()[1:19]:
        g = Graph(h.number_of_nodes(), [tuple(sorted(e)) for e in h.edges()])
        assert g.n <= 4
        value, witness = twintw_exact(g)
        assert value == twintw_raw(g), g.edges()
        assert_twintw_witness(g, value, witness)


def test_block_dp_finds_the_best_partner_of_each_triangulation(monkeypatch):
    # twintw_exact runs _block_dp once per T1, in _minimal_triangulations's
    # order, and then once more for T1's witness; with no clique bound to
    # stop at, it runs every T1
    runs = []
    real = X._block_dp
    monkeypatch.setattr(X, "_block_dp", lambda blocks, cost: runs.append(real(blocks, cost))
                        or runs[-1])
    monkeypatch.setattr(X, "max_clique_order", lambda g: -1)
    for g in connected_atlas(6) + SEEDED:
        runs.clear()
        tris = _minimal_triangulations(_blocks(g.adjacency_masks()))
        value, witness = twintw_exact(g)
        best = plain_best_partners(tris)
        assert len(runs) == len(tris) + 1
        for t1, least, (val, bags, edges) in zip(tris, best, runs):
            assert val == least, (g.edges(), t1)
            # the partner's clique tree attains the value with T1
            assert pair_max(t1, bags) == val
            assert_minimal_clique_tree(g, TreeDecomposition(g.n, [bits(b) for b in bags], edges))
        assert value == min(best)
        assert_twintw_witness(g, value, witness)


def test_every_block_pmc_meets_its_component():
    # so _blocks needs no test that Ω meets C: Ω = N(C) is never a PMC
    for g in connected_atlas(6) + SEEDED:
        masks = g.adjacency_masks()
        pmcs = X.potential_maximal_cliques(masks)
        seps = {nc for comps in pmcs.values() for _, nc in comps}
        assert not seps & set(pmcs)
        for c, choices in _blocks(masks):
            assert all(omega & c for omega, _ in choices)


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("i", range(len(TWTW_SEEDED)))
def test_twtw_matches_the_plain_loop_on_seeded_graphs(i, c):
    g = TWTW_SEEDED[i]
    value, witness = twtw_exact(g, c)
    ref_value, ref_witness = plain_twtw(g, c)
    assert value == ref_value
    assert snapshot(witness) == snapshot(ref_witness)


@pytest.mark.parametrize("i", range(len(SEEDED)))
def test_completions_match_the_plain_loop_on_seeded_graphs(i):
    # the minimal ones among the plain loop's completions, and the value
    g = SEEDED[i]
    tris = _minimal_triangulations(_blocks(g.adjacency_masks()))
    assert tris == plain_minimal_triangulations(g)
    assert_twintw_matches_the_plain_loop(g)


# -- tw <= k without a subset search ---------------------------------------

def test_tw_at_most_answers_each_level():
    # levels 0-2 by low-degree elimination, higher ones by the treewidth
    # front end and DP, where the degree rule alone would leave K33
    tws = []
    for g in LOW_TW_GRAPHS:
        tw = treewidth_exact(g)[0]
        masks = tuple(g.adjacency_masks())
        got = [_tw_at_most(masks, k) for k in range(g.n + 1)]
        assert got == [tw <= k for k in range(g.n + 1)], (g.n, g.edges())
        assert masks == tuple(g.adjacency_masks())
        tws.append(tw)
    assert max(tws) >= 6
    stuck = K33.adjacency_masks()
    assert _reduce(list(stuck), (1 << 6) - 1, 3, [], grow=False)[0] == (1 << 6) - 1
    assert _tw_at_most(tuple(stuck), 3)


def test_treewidth_value_is_treewidth():
    for g in LOW_TW_GRAPHS:
        assert _treewidth_value(g) == treewidth_exact(g)[0], (g.n, g.edges())


# -- work bounds ----------------------------------------------------------

def popped_prefixes(g):
    """twtw_exact's value on g, and how many prefixes it pops off its walk
    stack: the profile hook's calls of list.pop in twtw_exact's own frame."""
    pops = []

    def hook(frame, event, arg):
        if event == "c_call" and frame.f_code is twtw_exact.__code__ and arg.__name__ == "pop":
            pops.append(1)
    sys.setprofile(hook)
    try:
        value = twtw_exact(g)[0]
    finally:
        sys.setprofile(None)
    return value, len(pops)


def test_twtw_cuts_prefixes_of_quotient_tw_over_the_level():
    # grid2(2, 4) has 5,296 prefixes and Bell(8) = 4140 partitions; the cut
    # pops 16 at level 0 and 1,367 at level 1.  A walk that cut nothing, or
    # asked only full partitions, would pop all 5,296 at level 0
    value, pops = popped_prefixes(grid2(2, 4))
    assert value == 1 and 0 < pops < 1500


def test_twtw_resumes_each_level_from_its_cuts():
    # the answer is 2 on stacked7 and K222: the walk pops 883 and 298
    # prefixes, where walking each level again from the empty prefix pops
    # 1,042 and 378
    for g, most in ((stacked_triangulation(7, 3).graph, 950),
                    (complete_multipartite([2, 2, 2]), 340)):
        value, pops = popped_prefixes(g)
        assert value == 2 and 0 < pops < most


def test_twtw_asks_each_quotient_once_per_level(monkeypatch):
    # grid2(2, 4) has 455 distinct partition quotients; the walk asks 3
    # distinct prefix quotients at level 0 and 70 at level 1
    calls = counting(monkeypatch, "_tw_at_most")
    assert twtw_exact(grid2(2, 4))[0] == 1
    assert 0 < len(calls) <= 73


def test_twintw_sweeps_the_pmcs_once(monkeypatch):
    # cycle(7) has as many minimal triangulations as distinct chordal
    # completions, 42; stacked7 has 1 against 23
    sweeps = counting(monkeypatch, "potential_maximal_cliques")
    found = []
    real = X._minimal_triangulations
    monkeypatch.setattr(X, "_minimal_triangulations",
                        lambda blocks: found.append(real(blocks)) or found[-1])
    for g, tris, completions in ((cycle(7), 42, 42), (stacked_triangulation(7, 3).graph, 1, 23)):
        sweeps.clear()
        found.clear()
        twintw_exact(g)
        assert len(sweeps) == 1 and [len(t) for t in found] == [tris]
        assert len(plain_completions(g)) == completions


def test_memo_does_not_outlive_the_call(monkeypatch):
    calls = counting(monkeypatch, "_tw_at_most")
    twtw_exact(path(5))
    first = len(calls)
    twtw_exact(path(5))
    assert 0 < first and len(calls) == 2 * first


def test_twtw_searches_no_quotient_past_the_answer(monkeypatch):
    # computing every quotient's exact treewidth took 19,378 Q-sets on grid 2x4;
    # the answer is 1, and levels 0-2 need no subset search at all
    q_sets = counting(monkeypatch, "q_set", K)
    dps = counting(monkeypatch, "treewidth_dp")
    assert twtw_exact(grid2(2, 4))[0] == 1
    assert q_sets == [] and dps == []
