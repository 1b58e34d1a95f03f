"""The bandwidth and treedepth searches against copies of their earlier loops.

bandwidth_exact places vertices over adjacency bitmasks with one window rule,
and treedepth_exact fills one table over all vertex subsets in increasing
numeric order.  The reference oracles below are the earlier forms: a
branch-and-bound over adjacency sets and a position dict that also checks
every placed neighbour, and a memoized recursion that splits components
itself and rebuilds the witness in a second recursion.  Both pairs must give
the same values and the same witnesses.
"""

import json
import sys
from functools import lru_cache
from math import ceil

import pytest

import prodstruct.constructions as C
from conftest import counting, random_graph
from prodstruct.cli import main
from prodstruct.exact import (InstanceTooLarge, bandwidth_exact, longest_path_order,
                              max_clique_order, treedepth_exact)
from prodstruct.exact._kernels import bits, flood
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


def plain_treedepth(g):
    if g.n == 0:
        return 0, []
    masks = g.adjacency_masks()

    def comps(mask):
        out = []
        rest = mask
        while rest:
            comp = flood(masks, mask, (rest & -rest).bit_length() - 1)[0]
            out.append(comp)
            rest &= ~comp
        return out

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


INSTANCES = exact_small_graphs() + seeded_graphs()


@pytest.mark.parametrize("g", INSTANCES, ids=lambda g: f"n{g.n}m{g.m}")
def test_bandwidth_matches_plain_loop(g):
    assert bandwidth_exact(g) == plain_bandwidth(g)


@pytest.mark.parametrize("g", INSTANCES, ids=lambda g: f"n{g.n}m{g.m}")
def test_treedepth_matches_plain_loop(g):
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


# -- treedepth: one table entry per subset ---------------------------------

@pytest.mark.parametrize("g", INSTANCES, ids=lambda g: f"n{g.n}m{g.m}")
def test_treedepth_splits_each_subset_once(g, monkeypatch):
    # one flood per nonempty subset for the table; the witness walk's floods,
    # at most one per root, run inside components
    calls = counting(monkeypatch, "flood")
    treedepth_exact(g)
    assert len(calls) <= 2 ** g.n + g.n


def test_treedepth_override_is_refused_not_overflowed(tmp_path, capsys):
    # the table holds 2 bytes per subset, so n = 200 is far over the budget
    with pytest.raises(InstanceTooLarge, match="DP table"):
        treedepth_exact(C.path(200), max_n=200)
    p = tmp_path / "p300.json"
    p.write_text(C.path(300).to_json())
    assert main(["exact", "td", str(p), "--max-n", "300"]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("InstanceTooLarge")
