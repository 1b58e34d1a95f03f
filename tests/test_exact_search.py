"""The bandwidth and treedepth searches against copies of their earlier loops.

bandwidth_exact places vertices over adjacency bitmasks with the leaving-vertex
rule and the deadline rule, and treedepth_exact fills one table over all
vertex subsets in increasing numeric order, reading each subset's component
off the shared low_table, splitting its witness walk by the same table, and
stopping its root scan at the first different value.
The reference oracles below are the earlier forms: a branch-and-bound over
adjacency sets and a position dict that also checks every placed neighbour,
the same bitmask search with the leaving-vertex rule alone, and a memoized
recursion that splits components with the flooding reference in conftest and
rebuilds the witness in a second recursion.  Each must give the same values
and the same witnesses.
"""

import json
import sys
from functools import lru_cache
from math import ceil

import pytest

import prodstruct.constructions as C
import prodstruct.exact._kernels as K
from conftest import components, counting, disjoint_union, random_graph
from prodstruct.cli import main
from prodstruct.exact import (InstanceTooLarge, bandwidth_exact, longest_path_order,
                              max_clique_order, treedepth_exact)
from prodstruct.exact._kernels import bits
from prodstruct.graphs import Graph
from prodstruct.rng import SplitMix64


# -- reference oracles: the earlier loops ---------------------------------

def plain_bandwidth(g):
    n = g.n
    if n <= 1:
        return 0, list(range(n))
    lb = max(ceil(g.degree(v) / 2) for v in range(n))

    def feasible(k):
        pos = {}
        placed = []

        def rec(p):
            if p == n:
                return True
            for v in range(n):
                if v in pos:
                    continue
                if any(u in pos and p - pos[u] > k for u in g.adj[v]):
                    continue
                if k > 0 and p >= k:
                    w = placed[p - k]
                    if any(x not in pos and x != v for x in g.adj[w]):
                        continue
                pos[v] = p
                placed.append(v)
                if rec(p + 1):
                    return True
                del pos[v]
                placed.pop()
            return False

        return placed if rec(0) else None

    for k in range(lb, n):
        order = feasible(k)
        if order is not None:
            return k, order


def window_bandwidth(g):
    """The bitmask search with the leaving-vertex rule and no deadlines."""
    masks = g.adjacency_masks()
    full = (1 << g.n) - 1

    def place(k):
        order = []
        done = 0
        todo = []
        while done != full:
            p = len(order)
            if len(todo) == p:
                leaving = masks[order[p - k]] & ~done if 0 < k <= p else 0
                todo.append(0 if leaving & (leaving - 1) else leaving or full & ~done)
            cand = todo[p]
            if cand:
                b = cand & -cand
                todo[p] = cand ^ b
                order.append(b.bit_length() - 1)
                done |= b
            elif p:
                todo.pop()
                done ^= 1 << order.pop()
            else:
                return None
        return order

    k = max(((m.bit_count() + 1) // 2 for m in masks), default=0)
    while (order := place(k)) is None:
        k += 1
    return k, order


def plain_treedepth(g):
    if g.n == 0:
        return 0, []
    masks = g.adjacency_masks()

    def comps(mask):
        return [c for c, _ in components(masks, mask)]

    @lru_cache(maxsize=None)
    def solve(mask):
        cs = comps(mask)
        if len(cs) > 1:
            return max(solve(c)[0] for c in cs), -1
        if all(masks[v] & mask == 0 for v in bits(mask)):
            return 1, -1
        best, root = None, None
        for v in bits(mask):
            val = 1 + max(solve(c)[0] for c in comps(mask ^ (1 << v)))
            if best is None or val < best:
                best, root = val, v
        return best, root

    parent = [-1] * g.n

    def witness(mask, par):
        cs = comps(mask)
        if len(cs) > 1:
            for c in cs:
                witness(c, par)
            return
        if all(masks[v] & mask == 0 for v in bits(mask)):
            for v in bits(mask):
                parent[v] = par
            return
        _, root = solve(mask)
        parent[root] = par
        for c in comps(mask ^ (1 << root)):
            witness(c, root)

    full = (1 << g.n) - 1
    value = solve(full)[0]
    witness(full, -1)
    return value, parent


# -- instances -------------------------------------------------------------

def exact_small_graphs():
    """The graphs the exact-small benchmark workload runs bw and td on."""
    return [C.path(10), C.cycle(10), C.complete(6), C.star(8), C.grid3(2, 2, 2),
            C.hex_graph(3)[0], C.pyramid(3), C.windmill(4), C.flower(3), C.v8(),
            C.complete_multipartite([2, 2, 2]), C.complete_multipartite([2, 3, 3]),
            C.separating_graph(1)[0], C.random_regular(10, 3, 5),
            C.stacked_triangulation(10, 3).graph, C.random_regular(8, 3, 5),
            C.stacked_triangulation(7, 3).graph, C.cycle(7), C.path(7), C.cycle(6),
            C.grid2(2, 4)]


def seeded_graphs():
    rng = SplitMix64(41)
    out = [Graph(0), Graph(1), Graph(5)]
    for i in range(40):
        out.append(random_graph(rng, 1 + i % 10, 1 + rng.randrange(2), 4))
    return out


def split_graphs(max_n):
    """Seeded graphs of two parts with no edge between them, n <= max_n."""
    rng = SplitMix64(43)
    out = []
    for n in range(2, max_n + 1):
        for a in range(1, n // 2 + 1):
            out.append(disjoint_union(random_graph(rng, n - a, 1 + rng.randrange(3), 4),
                                      random_graph(rng, a, 1 + rng.randrange(3), 4)))
    return out


INSTANCES = exact_small_graphs() + seeded_graphs()
# the deadline rule cuts most here: the window search alone takes 4-280 ms
MULTIPARTITE = [C.complete_multipartite(s) for s in
                ([3, 3, 3], [2, 3, 4], [2, 2, 2, 2], [1, 2, 3, 4])]
BW_SEEDED = [random_graph(rng, n, num, 4) for rng in [SplitMix64(47)]
             for num in (1, 2, 3) for n in range(1, 10) for _ in range(2)] + split_graphs(9)


def graph_id(g):
    return f"n{g.n}m{g.m}"


@pytest.mark.parametrize("g", INSTANCES, ids=graph_id)
def test_bandwidth_matches_plain_loop(g):
    assert bandwidth_exact(g) == plain_bandwidth(g)


@pytest.mark.parametrize("g", INSTANCES + MULTIPARTITE + BW_SEEDED, ids=graph_id)
def test_bandwidth_deadlines_keep_the_first_ordering(g):
    assert bandwidth_exact(g) == window_bandwidth(g)


@pytest.mark.parametrize("g", INSTANCES, ids=graph_id)
def test_treedepth_matches_plain_loop(g):
    assert treedepth_exact(g) == plain_treedepth(g)


@pytest.mark.parametrize("g", split_graphs(10), ids=graph_id)
def test_treedepth_of_split_graphs_matches_plain_loop(g):
    assert treedepth_exact(g) == plain_treedepth(g)


# -- no recursion per placed vertex ----------------------------------------

def test_bandwidth_of_a_path_past_the_recursion_limit(tmp_path, capsys):
    g = C.path(1100)
    assert bandwidth_exact(g, max_n=1100) == (1, list(range(1100)))
    p = tmp_path / "p1100.json"
    p.write_text(g.to_json())
    assert main(["exact", "bw", str(p), "--max-n", "1100"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["value"] == 1


def test_max_clique_of_a_path_deeper_than_the_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert max_clique_order(C.path(400)) == 2
    finally:
        sys.setrecursionlimit(limit)


def test_longest_path_deeper_than_the_recursion_limit():
    # a path of 400 vertices has 400^2 simple paths, so lower the limit
    # rather than pay seconds for a path longer than the default limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert longest_path_order(C.path(400)) == 400
    finally:
        sys.setrecursionlimit(limit)


# -- bandwidth: deadlines cut the search -----------------------------------

def test_bandwidth_deadlines_bound_the_search(monkeypatch):
    # each search step reads masks; K_{4,4,4} takes 365 reads with the
    # deadline rule, and 25,342,493 reads, seconds of search, with the
    # leaving-vertex rule alone, so the count stops the search past 1000
    reads = []

    class Counted(list):
        def __getitem__(self, i):
            reads.append(1)
            if len(reads) > 1000:
                raise AssertionError("over 1000 search steps")
            return super().__getitem__(i)

    real = Graph.adjacency_masks
    monkeypatch.setattr(Graph, "adjacency_masks", lambda g: Counted(real(g)))
    assert bandwidth_exact(C.complete_multipartite([4, 4, 4])) == (
        9, [0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 2, 3])


# -- treedepth: one table entry per subset ---------------------------------

@pytest.mark.parametrize("g", INSTANCES, ids=graph_id)
def test_treedepth_splits_each_subset_once(g, monkeypatch):
    # the table and the witness walk both read the shared low_table: no flood
    calls = counting(monkeypatch, "flood", K)
    treedepth_exact(g)
    assert len(calls) == 0


def test_treedepth_table_floods_no_subset(monkeypatch):
    # a subset's component is its prefix's, or the highest vertex with the
    # components it touches, each a table lookup: path(10) flooded 45 of its
    # 1023 subsets when the highest vertex's component was flooded, then once
    # per root in the witness walk, and now floods none
    calls = counting(monkeypatch, "flood", K)
    assert treedepth_exact(C.path(10))[0] == 4
    assert len(calls) == 0


def test_treedepth_override_is_refused_not_overflowed(tmp_path, capsys):
    # the tables hold 2 + array("I").itemsize bytes per subset (6 on common
    # platforms), so n = 200 is far over the budget
    with pytest.raises(InstanceTooLarge, match="DP table"):
        treedepth_exact(C.path(200), max_n=200)
    p = tmp_path / "p300.json"
    p.write_text(C.path(300).to_json())
    assert main(["exact", "td", str(p), "--max-n", "300"]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("InstanceTooLarge")
