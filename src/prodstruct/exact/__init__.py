"""Desk-scale exact oracles for the width parameters.

All oracles are exact and return witnesses.  Size caps are module constants
with per-call overrides; exceeding a cap raises InstanceTooLarge, never
silently truncates.  tw, pw and tree-f share one elimination-ordering subset
DP (see _kernels) and differ only in the cost of an elimination step; bw/td
use branch-and-bound/memoized recursion, TwIntTw enumerates chordal
completions, and twtw enumerates ordered pairs of set partitions.  Where an
oracle nests many small computations (elimination bags in TwIntTw, quotient
treewidths in twtw) it memoizes them in a dict local to the call, so nothing
is cached from one call to the next.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import ceil, sqrt

from ..graphs import Graph, GraphError, VertexPartition, quotient, subgraph_contained
from ..decomposition import TreeDecomposition, PathDecomposition
from ..rng import SplitMix64
from ._kernels import (bits, component, elimination_dp, pathwidth_dp, q_set,
                       recover_order, treewidth_dp)

TW_MAX_N = 16
PW_MAX_N = 16
BW_MAX_N = 12
TD_MAX_N = 12
TREEF_MAX_N = 9
TWINTW_MAX_N = 7
TWTW_MAX_N = 8
# the largest subset-DP table a max_n override may allocate
TABLE_BUDGET_BYTES = 1 << 30


class InstanceTooLarge(ValueError):
    pass


def _cap(g: Graph, cap: int, max_n, what: str, state_bytes: int = 0):
    """Refuse g above the size cap, or when its DP table of state_bytes per
    vertex subset would outgrow TABLE_BUDGET_BYTES."""
    limit = cap if max_n is None else max_n
    if g.n > limit:
        raise InstanceTooLarge(f"{what}: n={g.n} exceeds cap {limit}")
    table = state_bytes << g.n
    if table > TABLE_BUDGET_BYTES:
        raise InstanceTooLarge(f"{what}: n={g.n} needs a {table}-byte DP table, "
                               f"over the budget of {TABLE_BUDGET_BYTES} bytes")


# -- treewidth -----------------------------------------------------------

def _elimination_bags(masks, order) -> list:
    """Bitmask bags {v} u Q(prefix, v) of an elimination ordering."""
    bags = []
    prefix = 0
    for v in order:
        bags.append(1 << v | q_set(masks, prefix, v))
        prefix |= 1 << v
    return bags


def _elimination_td(g: Graph, order) -> TreeDecomposition:
    """Tree-decomposition from an elimination ordering: bags {v} u Q."""
    pos = {v: i for i, v in enumerate(order)}
    bags = [frozenset(bits(b)) for b in _elimination_bags(g.adjacency_masks(), order)]
    edges = []
    for i, v in enumerate(order):
        later = [pos[w] for w in bags[i] if w != v]
        if later:
            edges.append((i, min(later)))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(g.n, bags, edges)


def treewidth_exact(g: Graph, max_n=None):
    """Exact treewidth with a witness decomposition."""
    _cap(g, TW_MAX_N, max_n, "treewidth_exact", 1)
    if g.n == 0:
        return -1, TreeDecomposition(0, [frozenset()], [])
    dp, cost = treewidth_dp(g.adjacency_masks())
    return dp[-1], _elimination_td(g, recover_order(dp, cost))


def _treewidth_value(g: Graph) -> int:
    """Exact treewidth without a witness, for callers that need the value only."""
    _cap(g, TW_MAX_N, None, "treewidth", 1)
    return treewidth_dp(g.adjacency_masks())[0][-1] if g.n else -1


# -- pathwidth -----------------------------------------------------------

def pathwidth_exact(g: Graph, max_n=None):
    """Exact pathwidth via the vertex-separation DP, with a witness."""
    _cap(g, PW_MAX_N, max_n, "pathwidth_exact", 9)   # dp table plus 8-byte N(S) table
    if g.n == 0:
        return -1, PathDecomposition(0, [frozenset()])
    masks = g.adjacency_masks()
    dp, cost = pathwidth_dp(masks)
    bags = []
    prefix = reach = 0
    for v in recover_order(dp, cost):
        prefix |= 1 << v
        reach |= masks[v]
        bags.append(frozenset(bits(1 << v | reach & ~prefix)))   # {v} u (N(prefix) - prefix)
    return dp[-1], PathDecomposition(g.n, bags)


# -- bandwidth -----------------------------------------------------------

def bandwidth_exact(g: Graph, max_n=None):
    """Exact bandwidth with a witness ordering (branch-and-bound)."""
    _cap(g, BW_MAX_N, max_n, "bandwidth_exact")
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
                ok = True
                for u in g.adj[v]:
                    if u in pos and p - pos[u] > k:
                        ok = False
                        break
                if not ok:
                    continue
                # any vertex k behind must have all neighbours placed
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

        if rec(0):
            return placed
        return None

    for k in range(lb, n):          # k = n - 1 is always feasible
        order = feasible(k)
        if order is not None:
            return k, order


# -- treedepth -----------------------------------------------------------

def treedepth_exact(g: Graph, max_n=None):
    """Exact treedepth with an elimination-forest witness (parent array)."""
    _cap(g, TD_MAX_N, max_n, "treedepth_exact")
    if g.n == 0:
        return 0, []
    masks = g.adjacency_masks()

    @lru_cache(maxsize=None)
    def comps(mask):
        out = []
        rest = mask
        while rest:
            comp = component(masks, mask, (rest & -rest).bit_length() - 1)
            out.append(comp)
            rest &= ~comp
        return out

    @lru_cache(maxsize=None)
    def solve(mask):
        """Returns (value, chosen root or -1 when edgeless/split)."""
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


# -- hereditary bag parameters and tree-f --------------------------------

def max_degree_param(g: Graph) -> int:
    return g.max_degree()


def longest_path_order(g: Graph) -> int:
    """Number of vertices of a longest path (DFS over simple paths)."""
    if g.n == 0:
        return 0
    masks = g.adjacency_masks()
    best = 1

    def rec(v, visited, length):
        nonlocal best
        if length > best:
            best = length
        rest = masks[v] & ~visited
        for w in bits(rest):
            rec(w, visited | (1 << w), length + 1)

    for v in range(g.n):
        rec(v, 1 << v, 1)
    return best


PARAMS = {
    "tw": _treewidth_value,
    "pw": lambda sub: pathwidth_exact(sub)[0],
    "bw": lambda sub: bandwidth_exact(sub)[0],
    "td": lambda sub: treedepth_exact(sub)[0],
    "maxdeg": max_degree_param,
    "longest-path": longest_path_order,
}
# every entry is hereditary: its value never increases on induced subgraphs,
# which is what justifies minimizing over chordal completions below


def tree_param_exact(g: Graph, f: str, max_n=None):
    """Exact tree-f for hereditary f, with a witness decomposition.

    Every tree-decomposition refines to the clique tree of its bag-completion
    (a chordal completion); the refined bags are induced subgraphs of the
    originals, so for hereditary f the minimum over chordal completions
    equals tree-f.  Chordal completions are swept by the elimination-ordering
    subset DP; f is evaluated on each elimination bag {v} u Q and memoized.
    """
    if f not in PARAMS:
        raise GraphError(f"unknown or non-hereditary parameter {f!r}")
    _cap(g, TREEF_MAX_N, max_n, "tree_param_exact", 1)
    if g.n == 0:
        return 0, TreeDecomposition(0, [frozenset()], [])
    masks = g.adjacency_masks()
    fn = PARAMS[f]

    @lru_cache(maxsize=None)
    def bag_value(bag_mask):
        sub, _ = g.subgraph(bits(bag_mask))
        return fn(sub)

    def cost(t, v):
        return bag_value(1 << v | q_set(masks, t, v))

    dp = elimination_dp(g.n, cost)
    return dp[-1], _elimination_td(g, recover_order(dp, cost))


def neighborhood_lower_bound(g: Graph, f: str) -> int:
    """min over v of f(g[N[v]]): a lower bound on tree-f(g)."""
    if f not in PARAMS:
        raise GraphError(f"unknown parameter {f!r}")
    if g.n == 0:
        return 0
    best = None
    for v in range(g.n):
        sub, _ = g.subgraph(g.closed_neighborhood(v))
        val = PARAMS[f](sub)
        if best is None or val < best:
            best = val
    return best


# -- TwIntTw -------------------------------------------------------------

def max_clique_order(g: Graph) -> int:
    masks = g.adjacency_masks()
    best = 0

    def rec(cand, size):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & (-cand)).bit_length() - 1
        rec(cand & masks[v], size + 1)
        rec(cand ^ (1 << v), size)

    rec((1 << g.n) - 1, 0)
    return best


def _completions(g: Graph):
    """Distinct chordal completions, keyed by maximal elimination bags.

    Returns a list of (maximal_bag_masks, representative_order).  A bag
    {v} u Q(prefix, v) depends on the prefix set only, so each is computed
    once per call: at most n 2^(n-1) bags for the n! orderings.  A bag can
    lie only inside an earlier one, since later bags miss its vertex v and
    earlier ones hold their own vertex, which is in the prefix.
    """
    n = g.n
    masks = g.adjacency_masks()
    bag_of = {}         # prefix * n + v -> {v} u Q(prefix, v)
    seen = {}
    for order in itertools.permutations(range(n)):
        bags = []
        maximal = []
        prefix = 0
        for v in order:
            key = prefix * n + v
            bag = bag_of.get(key)
            if bag is None:
                bag = bag_of[key] = 1 << v | q_set(masks, prefix, v)
            if not any(bag | o == o for o in bags):
                maximal.append(bag)
            bags.append(bag)
            prefix |= 1 << v
        maximal = tuple(sorted(maximal))
        if maximal not in seen:
            seen[maximal] = order
    return [(list(k), v) for k, v in sorted(seen.items())]


def twintw_exact(g: Graph, max_n=None):
    """Minimum k admitting a pair of k-orthogonal tree-decompositions.

    WLOG both decompositions are clique trees of chordal completions:
    refining bags to the bag-completion's maximal cliques never increases a
    pairwise intersection (see also twintw_raw, cross-checked for n <= 4).
    """
    _cap(g, TWINTW_MAX_N, max_n, "twintw_exact")
    if g.n == 0:
        return 0, None
    comps = _completions(g)
    lb = max_clique_order(g)
    best = None
    pair = None
    for i, (bags1, o1) in enumerate(comps):
        for bags2, o2 in comps[i:]:
            val = max(bin(b1 & b2).count("1") for b1 in bags1 for b2 in bags2)
            if best is None or val < best:
                best, pair = val, (o1, o2)
                if best == lb:
                    break
        if best == lb:
            break
    td1 = _elimination_td(g, list(pair[0]))
    td2 = _elimination_td(g, list(pair[1]))
    return best, (td1, td2)


def _all_tree_shapes(m: int):
    """All labeled trees on m nodes (via Pruefer sequences)."""
    if m == 1:
        return [[]]
    if m == 2:
        return [[(0, 1)]]
    import heapq
    shapes = []
    for seq in itertools.product(range(m), repeat=m - 2):
        deg = [1] * m
        for x in seq:
            deg[x] += 1
        edges = []
        leaves = [i for i in range(m) if deg[i] == 1]
        heapq.heapify(leaves)
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, x))
            deg[x] -= 1
            if deg[x] == 1:
                heapq.heappush(leaves, x)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.append((u, v))
        shapes.append(edges)
    return shapes


def _valid_bag_families(g: Graph):
    """All valid tree-decompositions with <= n inclusion-free bags, as bag sets.

    Raw enumeration for tiny hosts; used to cross-check the clique-tree
    reductions.  Restricting to inclusion-free families is safe for
    universally-quantified bag properties: merging a bag into a superset
    neighbour only removes bags.
    """
    from ..decomposition import validate
    n = g.n
    subsets = [frozenset(c) for r in range(1, n + 1)
               for c in itertools.combinations(range(n), r)]
    families = []
    for m in range(1, n + 1):
        for combo in itertools.combinations(subsets, m):
            if any(a < b for a in combo for b in combo):
                continue
            for shape in _all_tree_shapes(m):
                td = TreeDecomposition(n, combo, shape)
                if validate(g, td).ok:
                    families.append(frozenset(combo))
                    break
    return sorted(set(families), key=lambda f: sorted(map(sorted, f)))


def twintw_raw(g: Graph) -> int:
    """TwIntTw by raw bag-family enumeration (n <= 4 cross-check)."""
    _cap(g, 4, None, "twintw_raw")
    fams = _valid_bag_families(g)
    return min(max(len(a & b) for a in f1 for b in f2)
               for f1 in fams for f2 in fams)


# -- twtw ----------------------------------------------------------------

def _growth_labels(n: int):
    """All set partitions of range(n) as restricted growth strings.

    Yields (labels, k) in lexicographic order of labels: vertex v lies in
    part labels[v], and the k parts are labelled 0..k-1 in order of their
    least vertex.
    """
    labels = [0] * n

    def rec(v, k):
        if v == n:
            yield tuple(labels), k
            return
        for p in range(k + 1):
            labels[v] = p
            yield from rec(v + 1, max(k, p + 1))
    yield from rec(0, 0)


def _partition(n: int, labels, k: int) -> VertexPartition:
    """The partition of range(n) into the k parts of a growth string."""
    parts = [[] for _ in range(k)]
    for v, p in enumerate(labels):
        parts[p].append(v)
    return VertexPartition(n, parts)


def twtw_exact(g: Graph, c: int = 1, max_n=None):
    """Least k with g inside H1 boxtimes H2 boxtimes K_c, tw(Hi) <= k.

    By the partition characterization this is a minimum over ordered pairs of
    vertex partitions with part intersections <= c; the factors may be taken
    as the quotients themselves (supergraph factors only raise treewidth).
    Cross-checked against explicit host enumeration for n <= 4 (twtw_raw).

    Partitions are walked as label strings, and a quotient's treewidth is
    computed once per distinct quotient (as adjacency masks) within the call.
    Only the returned pair is built as partitions and quotient graphs.
    """
    if c < 1:
        raise GraphError("need c >= 1")
    _cap(g, TWTW_MAX_N, max_n, "twtw_exact")
    if g.n == 0:
        return 0, None
    edges = g.edges()
    tw_of = {}          # quotient adjacency masks -> treewidth
    cands = []
    for labels, nparts in _growth_labels(g.n):
        masks = [0] * nparts
        for u, v in edges:
            a, b = labels[u], labels[v]
            if a != b:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
        key = tuple(masks)
        tw = tw_of.get(key)
        if tw is None:
            tw = tw_of[key] = treewidth_dp(masks)[0][-1]
        cands.append((tw, labels, nparts))
    cands.sort(key=lambda t: t[0])

    def compatible(a, b) -> bool:
        # |x & y| for parts x of a and y of b is the number of vertices labelled (x, y)
        meet = {}
        for pair in zip(a, b):
            m = meet[pair] = meet.get(pair, 0) + 1
            if m > c:
                return False
        return True

    for k in range(cands[-1][0] + 1):
        pool = [t for t in cands if t[0] <= k]
        for i, a in enumerate(pool):
            for b in pool[i:]:
                if compatible(a[1], b[1]):
                    p1, p2 = (_partition(g.n, *x[1:]) for x in (a, b))
                    return k, (p1, p2, quotient(g, p1), quotient(g, p2))
    raise AssertionError("unreachable: singleton/whole pair is always compatible")


def _graphs_on(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def twtw_raw(g: Graph) -> int:
    """twtw (c = 1) by explicit host-pair enumeration (n <= 4 cross-check)."""
    _cap(g, 4, None, "twtw_raw")
    from ..products import strong
    hosts = [h for n1 in range(1, g.n + 1) for h in _graphs_on(n1)]
    host_tw = [(h, _treewidth_value(h)) for h in hosts]
    for k in itertools.count(0):
        pool = [h for h, tw in host_tw if tw <= k]
        for h1 in pool:
            for h2 in pool:
                if h1.n * h2.n < g.n:
                    continue
                if subgraph_contained(g, strong(h1, h2)) is not None:
                    return k


# -- hex bag/path checks -------------------------------------------------

def hex_bag_path_check(g: Graph, n: int) -> bool:
    """True iff every chordal completion has a maximal clique whose induced
    subgraph contains a path on n vertices.

    Equivalent to tree-longest-path(g) >= n.  Sufficient for the bag-path
    claim over all tree-decompositions: any decomposition's bag-completion is
    a chordal completion whose maximal cliques sit inside original bags, and
    a path in an induced subgraph survives in the superset bag.  The size
    cap is tree_param_exact's.
    """
    if n < 1:
        raise GraphError("need n >= 1")
    value, _ = tree_param_exact(g, "longest-path")
    return value >= n


def raw_bag_path_check(g: Graph, n: int) -> bool:
    """Raw-enumeration verdict over all (inclusion-free) tree-decompositions."""
    _cap(g, 4, None, "raw_bag_path_check")
    for fam in _valid_bag_families(g):
        if not any(longest_path_order(g.subgraph(b)[0]) >= n for b in fam):
            return False
    return True


# -- expander mixing -----------------------------------------------------

def expander_mixing_check(g: Graph, d: int, samples: int, seed: int) -> dict:
    """Sampled check that every pair of ceil(2n/sqrt(d))-sets is joined.

    Draws disjoint uniform (S, T) pairs and counts pairs with no crossing
    edge (expected 0 for a random regular graph).
    """
    if samples < 1:
        raise GraphError(f"samples must be at least 1, got {samples}")
    if any(g.degree(v) != d for v in range(g.n)):
        raise GraphError("graph is not d-regular")
    size = ceil(2 * g.n / sqrt(d))
    report = {"n": g.n, "d": d, "set_size": size, "samples": samples,
              "seed": seed, "failures": 0, "vacuous": False}
    if 2 * size > g.n:
        report["vacuous"] = True
        return report
    rng = SplitMix64(seed)
    failures = 0
    for _ in range(samples):
        picked = rng.sample(range(g.n), 2 * size)
        s, t = set(picked[:size]), set(picked[size:])
        if not any(w in t for v in s for w in g.adj[v]):
            failures += 1
    report["failures"] = failures
    return report
