"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion is exercised exactly as stated, with two documented
corrections recorded in the project notes: the treewidth-vs-n/2 inequality in
criterion 5 is checked in the form tw <= ceil((ttw+n-1)/2) (the +1 variant is
false for every complete graph), and criterion 4's per-bag orderings are the
fixture's explicitly stated ones.
"""

import itertools
import math

from conftest import (connected_atlas, random_graph, random_graph_max_degree,
                      random_tree, raw_bag_path_check)
from prodstruct import constructions as C
from prodstruct.decomposition import (TreeDecomposition, validate,
                                      orthogonality,
                                      bipartite_orthogonal_paths,
                                      glue_orthogonal,
                                      project_product_decomposition)
from prodstruct.exact import (treewidth_exact, pathwidth_exact,
                              bandwidth_exact, treedepth_exact,
                              tree_param_exact, twintw_exact, twtw_exact,
                              hex_bag_path_check, expander_mixing_check)
from prodstruct.graphs import (Graph, Digraph, underlying,
                               subgraph_contained)
from prodstruct.planar import planar_bandwidth3_decomposition, v8_fixture
from prodstruct.products import (ProductEmbedding, DirectedProductEmbedding,
                                 cartesian, direct, strong,
                                 validate_embedding,
                                 validate_directed_embedding,
                                 embed_join_product, embed_move_apex,
                                 embed_apex_partition, degree_partition,
                                 glue_directed_products)
from prodstruct.rng import SplitMix64


def report(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_product_algebra():
    rng = SplitMix64(101)
    bad = 0
    for _ in range(50):
        a = random_graph(rng, 2 + rng.randrange(7))
        b = random_graph(rng, 2 + rng.randrange(7))
        s = strong(a, b)
        if s.m != a.n * b.m + b.n * a.m + 2 * a.m * b.m:
            bad += 1
        elif set(s.edges()) != set(cartesian(a, b).edges()) | set(direct(a, b).edges()):
            bad += 1
    report(1, bad == 0,
           f"strong-product edge formula and cart-union-direct on 50 pairs ({bad} bad)")


def _corpus20():
    rng = SplitMix64(202)
    graphs = [C.complete(n) for n in range(1, 6)]
    graphs += [C.path(n) for n in range(2, 6)]
    graphs += [C.cycle(n) for n in range(3, 6)]
    graphs += [C.star(n) for n in range(2, 5)]
    graphs += [random_graph(rng, 5) for _ in range(5)]
    assert len(graphs) == 20
    return graphs


def test_criterion_02_join_lemmas():
    corpus = _corpus20()
    bad = 0
    for a in corpus:
        for b in corpus:
            for p in (1, 2, 3):
                for q in (1, 2, 3):
                    for fn in (embed_join_product, embed_move_apex):
                        if validate_embedding(fn(a, b, p, q)):
                            bad += 1
    found = subgraph_contained(C.complete_multipartite([1, 3, 4]),
                               strong(C.star(3), C.star(4))) is not None
    report(2, bad == 0 and found,
           f"join/move-apex embeddings over 20x20 corpus, p,q<=3 ({bad} bad); "
           f"K_1,3,4 inside K_1,3 x K_1,4: {found}")


def test_criterion_03_planar_bandwidth3():
    worst = 0
    bad = 0
    for i in range(100):
        n = 4 + (i * 7) % 37
        pt = C.stacked_triangulation(n, 3000 + i)
        td, order, rep = planar_bandwidth3_decomposition(pt)
        if not validate(pt.graph, td).ok:
            bad += 1
        worst = max(worst, rep["max_span"])
    tbw_k4 = tree_param_exact(C.complete(4), "bw")[0]
    report(3, bad == 0 and worst <= 3 and tbw_k4 == 3,
           f"100 stacked triangulations, max per-bag span {worst} <= 3; "
           f"tbw(K4) = {tbw_k4}")


def test_criterion_04_v8_fixture():
    g, pd, orderings = v8_fixture()
    rep = validate(g, pd)
    worst = 0
    for bag, order in zip(pd.bags, orderings):
        assert set(order) == set(bag)
        pos = {v: i for i, v in enumerate(order)}
        worst = max(worst, max(abs(pos[u] - pos[v])
                               for u in order for v in g.adj[u] if v in pos))
    report(4, rep.ok and worst <= 3,
           f"V8 four-bag path-decomposition valid, per-bag span {worst} <= 3")


def test_criterion_05_inequality_suite():
    reps = connected_atlas(6)
    violations = []
    for g in reps:
        tw = treewidth_exact(g)[0]
        pw = pathwidth_exact(g)[0]
        bw = bandwidth_exact(g)[0]
        td = treedepth_exact(g)[0]
        ttw = tree_param_exact(g, "tw")[0]
        tpw = tree_param_exact(g, "pw")[0]
        tbw = tree_param_exact(g, "bw")[0]
        twintw = twintw_exact(g)[0]
        twtw = twtw_exact(g)[0]
        checks = {
            "tw<=pw<=bw": tw <= pw <= bw,
            "pw<=td-1": pw <= td - 1,
            "ttw<=tpw<=tbw": ttw <= tpw <= tbw,
            "ttw+1<=TwIntTw": ttw + 1 <= twintw,
            "TwIntTw<=(twtw+1)^2": twintw <= (twtw + 1) ** 2,
            "tw<=ceil((ttw+n-1)/2)": tw <= math.ceil((ttw + g.n - 1) / 2),
        }
        for name, ok in checks.items():
            if not ok:
                violations.append((name, g.n, g.edges()))
    report(5, not violations,
           f"inequality suite over {len(reps)} connected graphs n<=6, "
           f"{len(violations)} violations (last bound in corrected form "
           f"tw<=ceil((ttw+n-1)/2); stated +1 form fails on complete graphs)")


def test_criterion_06_point_values():
    vals = {
        "ttw(K4)": tree_param_exact(C.complete(4), "tw")[0],
        "ttw(K33)": tree_param_exact(C.complete_multipartite([3, 3]), "tw")[0],
        "twtw(C5)": twtw_exact(C.cycle(5))[0],
        "twtw(K33)": twtw_exact(C.complete_multipartite([3, 3]))[0],
        "TwIntTw(K3)": twintw_exact(C.complete(3))[0],
        "td(P5)": treedepth_exact(C.path(5))[0],
    }
    want = {"ttw(K4)": 3, "ttw(K33)": 1, "twtw(C5)": 1, "twtw(K33)": 1,
            "TwIntTw(K3)": 3, "td(P5)": 3}
    cross = math.ceil(math.log2(6))
    ok = vals == want and vals["td(P5)"] == cross
    report(6, ok, f"point values {vals} (td(P5) cross-check ceil(log2 6)={cross})")


def test_criterion_07_pyramid():
    v = tree_param_exact(C.pyramid(2), "maxdeg")[0]
    report(7, v >= 3, f"tree-max-degree(pyramid(2)) = {v} >= 3")


def test_criterion_08_hex_bag_path():
    ok16 = all(hex_bag_path_check(C.hex_graph(3, [b >> i & 1 for i in range(4)])[0], 3)
               for b in range(16))
    agree = all(
        hex_bag_path_check(C.hex_graph(2, [bit])[0], 2)
        == raw_bag_path_check(C.hex_graph(2, [bit])[0], 2)
        for bit in (0, 1))
    report(8, ok16 and agree,
           f"bag-path check true for all 16 3x3 Hex triangulations: {ok16}; "
           f"raw-enumeration agreement at n=2: {agree}")


def test_criterion_09_separating():
    g, w = C.separating_graph(1)
    rep = validate(g, w)
    depths = []
    for bag in w.bags:
        sub, _ = g.subgraph(bag)
        depths.append(treedepth_exact(sub)[0])
    twintw = twintw_exact(g)[0]
    ok = rep.ok and max(depths) <= 4 and twintw == 3
    report(9, ok,
           f"separating_graph(1) witness valid, per-bag td {max(depths)} <= 4, "
           f"TwIntTw = {twintw} > 1")


def test_criterion_10_degree_partitions():
    bad = []
    for delta, threshold, deg_bound, pw_bound in ((3, 1, 1, 2), (4, 2, 2, 3)):
        rng = SplitMix64(1000 + delta)
        for i in range(50):
            n = 8 + (i % 13)
            g = random_graph_max_degree(rng, n, delta)
            vp = degree_partition(g, threshold)
            if any(g.subgraph(p)[0].max_degree() > deg_bound for p in vp.parts):
                bad.append((delta, i, "degree"))
                continue
            e, f1, f2 = embed_apex_partition(g, vp.parts[0])
            if validate_embedding(e):
                bad.append((delta, i, "embedding"))
                continue
            for f in (f1, f2):
                if pathwidth_exact(f, max_n=22)[0] > pw_bound:
                    bad.append((delta, i, "pw"))
    report(10, not bad,
           f"50+50 degree partitions (Delta<=3 and Delta<=4): part degrees, "
           f"apex-product embeddings, factor pathwidths all in bounds "
           f"({len(bad)} bad)")


def _random_pasted_host(rng, bipartite_bags=False, bag_sum_cap=16):
    """Host built by clique-pasting <= 5 bags (sizes <= 4, adhesion <= 2).

    Returns (g, taut TreeDecomposition, sides).  With bipartite_bags the bag
    graphs are bipartite (odd locals on one side), every adhesion is a single
    vertex on the even ("path-singleton") side of each piece containing it,
    and sides[x] is the odd-local side of bag x in global ids.  Without it,
    adhesions are vertices or edges and sides is None.
    """
    def bag_graph(size, force_edge):
        while True:
            if bipartite_bags:
                edges = [(u, v) for u in range(size) for v in range(u + 1, size)
                         if u % 2 != v % 2 and rng.randrange(2)]
            else:
                edges = [(u, v) for u in range(size) for v in range(u + 1, size)
                         if rng.randrange(2)]
            if force_edge:
                edges.append((0, 1))
            g = Graph(size, set(edges))
            if g.is_connected():
                return g

    bags = []
    first = bag_graph(2 + rng.randrange(3), False)
    g = first
    bags.append(frozenset(range(first.n)))
    sides = [frozenset(v for v in range(first.n) if v % 2)]
    tree_edges = []
    bag_sum = g.n
    node = 1
    while node < 5:
        parent = rng.randrange(len(bags))
        pbag = sorted(bags[parent])
        if bipartite_bags:
            even = sorted(set(pbag) - sides[parent])
            adh = [even[rng.randrange(len(even))]]
        else:
            psub, _ = g.subgraph(pbag)
            pedges = psub.edges()
            if pedges and rng.randrange(2):
                u, v = pedges[rng.randrange(len(pedges))]
                adh = [pbag[u], pbag[v]]
            else:
                adh = [pbag[rng.randrange(len(pbag))]]
        size = len(adh) + 1 + rng.randrange(3)
        if bag_sum + size > bag_sum_cap:
            break
        piece = bag_graph(size, len(adh) == 2)
        base = g.n

        def glob(local):
            return adh[local] if local < len(adh) else base + local - len(adh)

        edges = list(g.edges()) + [(min(glob(a), glob(b)), max(glob(a), glob(b)))
                                   for a, b in piece.edges()]
        g = Graph(base + size - len(adh), set(edges))
        bags.append(frozenset(glob(v) for v in range(size)))
        sides.append(frozenset(glob(v) for v in range(size) if v % 2))
        tree_edges.append((parent, node))
        bag_sum += size
        node += 1
    td = TreeDecomposition(g.n, bags, tree_edges)
    rep = validate(g, td)
    assert rep.ok and rep.taut and rep.adhesion <= 2
    return g, td, sides if bipartite_bags else None


def test_criterion_11_directed_gluing():
    bad = []
    rng = SplitMix64(1111)
    for trial in range(30):
        g, td, _ = _random_pasted_host(rng)
        h = td.adhesion()
        d_i = c_i = 0
        bag_embeddings = {}
        for x in range(td.nodes):
            sub, _ = g.subgraph(td.bags[x])
            j1 = Digraph(sub.n, list(sub.edges()))  # ascending-id orientation
            j2 = Digraph(1, [])
            bag_embeddings[x] = DirectedProductEmbedding(
                sub, (j1, j2), tuple((v, 0) for v in range(sub.n)))
            d_i = max(d_i, j1.max_indegree())
            c_i = max(c_i, treewidth_exact(underlying(j1))[0])
        e = glue_directed_products(g, td, bag_embeddings, h=h)
        if validate_directed_embedding(e):
            bad.append((trial, "invalid"))
            continue
        d1, d2 = e.factors
        if d1.max_indegree() > d_i + h or d2.max_indegree() > 0 + h:
            bad.append((trial, "indegree"))
        if treewidth_exact(underlying(d1))[0] > c_i + h:
            bad.append((trial, "treewidth"))
    report(11, not bad,
           f"30 directed gluings: embeddings valid, indegree <= d_i+h, "
           f"tw(underlying) <= c_i+h ({len(bad)} bad)")


def test_criterion_12_orthogonal_gluing():
    bad = []
    rng = SplitMix64(1212)
    for trial in range(30):
        g, td, sides = _random_pasted_host(rng, bipartite_bags=True)
        pairs = {}
        for x in range(td.nodes):
            order = sorted(td.bags[x])
            sub, _ = g.subgraph(td.bags[x])
            local_side = {order.index(v) for v in sides[x]}
            p1, p2 = bipartite_orthogonal_paths(sub, local_side)
            pairs[x] = (p1, p2)
        t, p = glue_orthogonal(g, td, pairs)
        if not (validate(g, t).ok and validate(g, p).ok):
            bad.append((trial, "invalid"))
        elif orthogonality(t, p) > 2:
            bad.append((trial, orthogonality(t, p)))
    report(12, not bad,
           f"30 orthogonal gluings valid and 2-orthogonal ({len(bad)} bad)")


def test_criterion_13_projection():
    bad = []
    rng = SplitMix64(1313)
    for trial in range(30):
        t1 = random_tree(rng, 2 + rng.randrange(7))
        t2 = random_tree(rng, 2 + rng.randrange(7))
        host = strong(t1, t2)
        kept = [e for e in host.edges() if rng.randrange(4) < 3]
        guest = Graph(host.n, kept)
        e = ProductEmbedding(guest, (t1, t2), None,
                             tuple((v // t2.n, v % t2.n) for v in range(host.n)))
        w1, td1 = treewidth_exact(t1)
        w2, td2 = treewidth_exact(t2)
        o1, o2 = project_product_decomposition(e, td1, td2)
        if orthogonality(o1, o2) > (w1 + 1) * (w2 + 1):
            bad.append(trial)
    report(13, not bad,
           f"30 tree-product projections, orthogonality <= (w1+1)(w2+1) "
           f"({len(bad)} bad)")


def test_criterion_14_mixing():
    failures = 0
    for seed in range(10):
        g = C.random_regular(40, 16, 5000 + seed)
        rep = expander_mixing_check(g, 16, 1000, 5000 + seed)
        failures += rep["failures"]
    note = "" if failures == 0 else " (single failure: re-examine)"
    report(14, failures <= 1,
           f"10 seeds x 1000 sampled (S,T) pairs on random 16-regular n=40: "
           f"{failures} uncrossed pairs{note}")


def test_criterion_15_tightness():
    guest, f1, f2, e = C.tightness_example(1, 1, 2)
    tw = treewidth_exact(guest)[0]
    errs = validate_embedding(e)
    report(15, tw == 3 and not errs,
           f"tw(K_1,2,2) = {tw} = m+pq; embedding into K_1,2 x K_1,2 valid: "
           f"{not errs}")
