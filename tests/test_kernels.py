"""The elimination kernels against copies of their earlier full-table loops.

elimination_dp and pathwidth_dp search their tables level by level and stop
once dp[full] is known; q_set grows the component and unions its
neighbourhoods in one flood fill.  The references below are the earlier
forms: elimination_dp filling all 2^n states, a component walk followed by a
second walk over the component, and the pathwidth table filled by that full
DP with one cost per (state, vertex) pair.  The searched table must hold the
same dp[full], the same value at every entry at most dp[full] and a larger
one everywhere else, and recover_order must read the same ordering out of it.
"""

from array import array

import pytest

import prodstruct.constructions as C
import prodstruct.exact as X
import prodstruct.exact._kernels as K
from conftest import random_graph
from prodstruct.exact import pathwidth_exact, tree_param_exact, treewidth_exact
from prodstruct.exact._kernels import (bits, elimination_dp, pathwidth_dp, q_set,
                                       recover_order, treewidth_dp)
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
    """tree_param_exact's step cost: f of the elimination bag, memoized."""
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


def assert_same_search(dp, cost, ref_dp, ref_cost):
    """dp is the searched table, ref_dp the full one."""
    top = ref_dp[-1]
    assert len(dp) == len(ref_dp) and dp[-1] == top
    for s, (d, ref) in enumerate(zip(dp, ref_dp)):
        if ref <= top:
            assert d == ref, f"state {s:#x}: {d} != {ref}"
        else:
            assert d > top, f"state {s:#x}: {d} <= dp[full] = {top}"
    assert recover_order(dp, cost) == recover_order(ref_dp, ref_cost)


def assert_same_kernel(new, old, masks):
    assert_same_search(*new(masks), *old(masks))


# -- the tests -------------------------------------------------------------

@pytest.mark.parametrize("name", TW_LARGE)
def test_treewidth_table_matches_plain_loop_on_large(name):
    assert_same_kernel(treewidth_dp, plain_treewidth_dp, LARGE[name].adjacency_masks())


@pytest.mark.parametrize("name", LARGE)
def test_pathwidth_table_matches_plain_loop_on_large(name):
    assert_same_kernel(pathwidth_dp, plain_pathwidth_dp, LARGE[name].adjacency_masks())


@pytest.mark.parametrize("g", SMALL, ids=lambda g: f"n{g.n}m{g.m}")
def test_tables_match_plain_loops_on_small(g):
    masks = g.adjacency_masks()
    assert_same_kernel(treewidth_dp, plain_treewidth_dp, masks)
    assert_same_kernel(pathwidth_dp, plain_pathwidth_dp, masks)


@pytest.mark.parametrize("g", SMALL[2:20], ids=lambda g: f"n{g.n}m{g.m}")
def test_q_set_and_component_match_plain_loops(g):
    masks = g.adjacency_masks()
    for t in range(1 << g.n):
        for v in range(g.n):
            if not t >> v & 1:
                assert q_set(masks, t, v) == plain_q_set(masks, t, v)
                assert K.component(masks, t, v) == plain_component(masks, t, v)


def test_only_tw_and_tree_f_run_the_shared_dp(monkeypatch):
    calls = []
    real = K.elimination_dp

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)
    monkeypatch.setattr(K, "elimination_dp", counted)
    monkeypatch.setattr(X, "elimination_dp", counted)
    g = C.cycle(5)
    pathwidth_exact(g)
    assert len(calls) == 0
    treewidth_exact(g)
    assert len(calls) == 1
    tree_param_exact(g, "maxdeg")
    assert len(calls) == 2


# seeded graphs with n <= 7 and a clique: td and longest-path of a clique bag
# cost n, so the search must run past level n - 1
TREE_F = [g for g in SMALL if g.n <= 7] + [C.complete(6)]


@pytest.mark.parametrize("f", X.PARAMS)
def test_tree_f_search_matches_full_table(f):
    for g in TREE_F:
        cost = tree_f_cost(g, f)
        assert_same_search(elimination_dp(g.n, cost), cost,
                           full_elimination_dp(g.n, cost), cost)


def test_recover_order_refuses_an_unreachable_value():
    # dp[full] = 3, but every step costs 0 from dp[t] <= 1: nothing attains 3
    dp = bytearray([0, 1, 1, 3])
    with pytest.raises(AssertionError, match="attains"):
        recover_order(dp, lambda t, v: 0)


def test_search_on_a_path_stops_at_its_treewidth():
    # the full table made 1.05 M cost calls here, one per state, for tw = 1
    masks = C.path(20).adjacency_masks()
    calls = 0

    def cost(t, v):
        nonlocal calls
        calls += 1
        return q_set(masks, t, v).bit_count()
    assert elimination_dp(20, cost)[-1] == 1
    assert calls <= 20 ** 3
