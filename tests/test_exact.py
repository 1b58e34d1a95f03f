import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (random_graph, brute_bandwidth, brute_treedepth,
                      brute_vertex_separation, check_elimination_forest,
                      twintw_raw, twtw_raw, raw_bag_path_check)
import prodstruct.exact
from prodstruct.cli import main
from prodstruct.constructions import (path, cycle, complete, star,
                                      complete_multipartite, grid2, hex_graph,
                                      windmill, flower)
from prodstruct.decomposition import validate, orthogonality
from prodstruct.exact import (InstanceTooLarge, treewidth_exact,
                              pathwidth_exact, bandwidth_exact,
                              treedepth_exact, tree_param_exact,
                              neighborhood_lower_bound, max_clique_order,
                              twintw_exact, twtw_exact, hex_bag_path_check,
                              expander_mixing_check, longest_path_order)
from prodstruct.graphs import Graph, subgraph_contained
from prodstruct.products import strong
from prodstruct.rng import SplitMix64


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


# -- point values from the literature -------------------------------------

@pytest.mark.parametrize("g,value", [
    (path(6), 1), (cycle(6), 2), (complete(5), 4),
    (complete_multipartite([2, 3]), 2), (grid2(3, 3), 3),
    (grid2(3, 5), 3), (petersen(), 4), (star(5), 1),
])
def test_treewidth_known(g, value):
    v, td = treewidth_exact(g)
    assert v == value
    rep = validate(g, td)
    assert rep.ok and rep.width == value


@pytest.mark.parametrize("g,value", [
    (path(6), 1), (cycle(6), 2), (complete(5), 4),
    (star(5), 1), (grid2(3, 4), 3), (petersen(), 5),
])
def test_pathwidth_known(g, value):
    v, pd = pathwidth_exact(g)
    assert v == value
    rep = validate(g, pd)
    assert rep.ok and rep.width == value


@pytest.mark.parametrize("g,value", [
    (path(6), 1), (cycle(6), 2), (complete(5), 4),
    (star(4), 2), (grid2(3, 4), 3),
])
def test_bandwidth_known(g, value):
    v, order = bandwidth_exact(g)
    assert v == value
    pos = {x: i for i, x in enumerate(order)}
    realized = max((abs(pos[u] - pos[v]) for u, v in g.edges()), default=0)
    assert realized == value


@pytest.mark.parametrize("g,value", [
    (path(5), 3), (path(7), 3), (path(8), 4), (complete(4), 4),
    (cycle(4), 3), (star(5), 2),
])
def test_treedepth_known(g, value):
    v, parent = treedepth_exact(g)
    assert v == value
    assert check_elimination_forest(g, parent, value)


def test_path_treedepth_log_formula():
    for n in range(1, 11):
        assert treedepth_exact(path(n))[0] == math.ceil(math.log2(n + 1))


# -- cross-checks against definition-first brute force --------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_bandwidth_vs_brute(seed):
    g = random_graph(SplitMix64(seed), 6)
    assert bandwidth_exact(g)[0] == brute_bandwidth(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_treedepth_vs_brute(seed):
    g = random_graph(SplitMix64(seed), 6)
    assert treedepth_exact(g)[0] == brute_treedepth(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_pathwidth_vs_brute(seed):
    g = random_graph(SplitMix64(seed), 6)
    assert pathwidth_exact(g)[0] == brute_vertex_separation(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_treewidth_sandwich(seed):
    # tw <= pw always, and the witness is itself an upper-bound certificate
    g = random_graph(SplitMix64(seed), 7)
    tw, td = treewidth_exact(g)
    rep = validate(g, td)
    assert rep.ok and rep.width == tw
    assert tw <= pathwidth_exact(g)[0]
    assert tw >= max_clique_order(g) - 1


# -- tree-f ---------------------------------------------------------------

def test_tree_param_witnesses():
    for g in (cycle(5), grid2(3, 3), complete(4), windmill(3), flower(2)):
        for f in ("tw", "pw", "bw", "td", "maxdeg", "longest-path"):
            v, td = tree_param_exact(g, f)
            rep = validate(g, td)
            assert rep.ok
            # witness achieves the value per-bag (upper-bound certificate)
            from prodstruct.exact import PARAMS
            assert max(PARAMS[f](g.subgraph(b)[0]) for b in td.bags) <= v


def test_tree_param_point_values():
    assert tree_param_exact(complete(4), "tw")[0] == 3
    assert tree_param_exact(complete_multipartite([3, 3]), "tw")[0] == 1
    assert tree_param_exact(complete_multipartite([3, 3]), "pw")[0] == 1
    assert tree_param_exact(complete(4), "bw")[0] == 3


def test_neighborhood_lower_bound():
    g = grid2(3, 3)
    for f in ("tw", "pw"):
        assert neighborhood_lower_bound(g, f) <= tree_param_exact(g, f)[0]


def test_windmill_flower_pathwidth():
    assert pathwidth_exact(windmill(3))[0] == 2
    assert pathwidth_exact(flower(2))[0] == 3


# -- TwIntTw / twtw -------------------------------------------------------

def test_twintw_known():
    assert twintw_exact(complete(3))[0] == 3
    assert twintw_exact(complete(4))[0] == 4
    assert twintw_exact(path(4))[0] == 2
    assert twintw_exact(Graph(1))[0] == 1


def test_twintw_witness_orthogonality():
    rng = SplitMix64(13)
    for _ in range(8):
        g = random_graph(rng, 5)
        v, (td1, td2) = twintw_exact(g)
        assert validate(g, td1).ok and validate(g, td2).ok
        assert orthogonality(td1, td2) == v


def test_twintw_vs_raw():
    rng = SplitMix64(19)
    seen = set()
    for _ in range(30):
        g = random_graph(rng, 1 + rng.randrange(4))
        if g in seen:
            continue
        seen.add(g)
        assert twintw_exact(g)[0] == twintw_raw(g)


def test_twtw_known():
    assert twtw_exact(cycle(5))[0] == 1
    assert twtw_exact(complete_multipartite([3, 3]))[0] == 1
    assert twtw_exact(complete(4))[0] == 1
    assert twtw_exact(grid2(2, 3))[0] == 1  # planar grids are in P x P


def test_twtw_witness_is_an_embedding():
    from prodstruct.products import partition_product_check, validate_embedding
    g = cycle(6)
    k, (p1, p2, q1, q2) = twtw_exact(g, c=1)
    e, bad = partition_product_check(g, p1, p2, 1)
    assert bad is None and validate_embedding(e) == []
    assert treewidth_exact(q1)[0] <= k and treewidth_exact(q2)[0] <= k


def test_twtw_vs_raw():
    rng = SplitMix64(29)
    seen = set()
    for _ in range(20):
        g = random_graph(rng, 1 + rng.randrange(4))
        if g in seen:
            continue
        seen.add(g)
        assert twtw_exact(g)[0] == twtw_raw(g)


def test_twtw_host_certificate():
    # the witness quotients actually contain g in their strong product
    g = cycle(5)
    k, (p1, p2, q1, q2) = twtw_exact(g)
    assert subgraph_contained(g, strong(q1, q2)) is not None


# -- bag-path checks ------------------------------------------------------

def test_hex_bag_path():
    g2 = hex_graph(2)[0]
    assert hex_bag_path_check(g2, 2)
    assert hex_bag_path_check(g2, 2) == raw_bag_path_check(g2, 2)
    g3 = hex_graph(3)[0]
    assert hex_bag_path_check(g3, 3)
    # a path host trivially fails for n above its bag capability
    assert not hex_bag_path_check(path(3), 4)


def test_longest_path_order():
    assert longest_path_order(path(5)) == 5
    assert longest_path_order(star(3)) == 3
    assert longest_path_order(cycle(6)) == 6


# -- caps -----------------------------------------------------------------

def test_size_caps():
    big = path(20)
    with pytest.raises(InstanceTooLarge):
        treewidth_exact(big)
    v, _ = treewidth_exact(big, max_n=20)
    assert v == 1
    with pytest.raises(InstanceTooLarge):
        twintw_exact(path(8))
    with pytest.raises(InstanceTooLarge):
        twtw_raw(path(5))


# -- mixing ---------------------------------------------------------------

def test_mixing_report_shape():
    from prodstruct.constructions import random_regular
    g = random_regular(20, 16, 3)
    rep = expander_mixing_check(g, 16, 50, 3)
    assert rep["set_size"] == math.ceil(2 * 20 / 4)
    assert rep["failures"] == 0
    small = random_regular(6, 2, 1)
    rep2 = expander_mixing_check(small, 2, 10, 1)
    assert rep2["vacuous"]
    with pytest.raises(Exception):
        expander_mixing_check(path(4), 3, 10, 0)


def test_table_budget_refuses_before_allocating():
    # 9 * 2^27 bytes and more are over TABLE_BUDGET_BYTES: refused at once
    from prodstruct.exact import TABLE_BUDGET_BYTES
    assert TABLE_BUDGET_BYTES == 1 << 30
    with pytest.raises(InstanceTooLarge, match="DP table"):
        pathwidth_exact(path(30), max_n=30)
    with pytest.raises(InstanceTooLarge, match="DP table"):
        treewidth_exact(path(40), max_n=40)
    with pytest.raises(InstanceTooLarge, match="DP table"):
        treewidth_exact(path(27), max_n=27)
    with pytest.raises(InstanceTooLarge, match="DP table"):
        tree_param_exact(path(31), "maxdeg", max_n=31)
    with pytest.raises(InstanceTooLarge, match="DP table"):
        twintw_exact(path(31), max_n=31)
    # treedepth: 2 bytes per subset, so n = 30 is over and n = 29 exactly at the budget
    with pytest.raises(InstanceTooLarge, match="DP table"):
        treedepth_exact(path(30), max_n=30)


def test_twintw_enumeration_is_refused_before_it_is_built(tmp_path, capsys):
    # the blocks of cycle(16) would build about 54 million triangulations,
    # about 4x more per vertex: refused from the count, before any is built
    with pytest.raises(InstanceTooLarge, match="block triangulations"):
        twintw_exact(cycle(16), max_n=16)
    assert twintw_exact(cycle(12), max_n=12)[0] == 2
    p = tmp_path / "c16.json"
    p.write_text(cycle(16).to_json())
    assert main(["exact", "twintw", str(p), "--max-n", "16"]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("InstanceTooLarge")


def test_twtw_enumeration_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    # at 209 bytes per partition, Bell(12) = 4,213,597 fit the budget and
    # Bell(13) = 27,644,437 do not: refused from the count, before the first
    # prefix's quotient is asked "tw <= k?"
    class Searched(Exception):
        pass

    def search(masks, k):
        raise Searched
    monkeypatch.setattr(prodstruct.exact, "_tw_at_most", search)
    with pytest.raises(Searched):
        twtw_exact(path(12), max_n=12)
    for n in (13, 1000):
        with pytest.raises(InstanceTooLarge, match="27644437 or more partitions"):
            twtw_exact(path(n), max_n=n)
    p = tmp_path / "p13.json"
    p.write_text(path(13).to_json())
    assert main(["exact", "twtw", str(p), "--max-n", "13"]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("InstanceTooLarge")
