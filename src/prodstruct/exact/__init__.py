"""Desk-scale exact oracles for the width parameters.

All oracles are exact and return witnesses.  Size caps are module constants
with per-call overrides; exceeding a cap, or a table over TABLE_BUDGET_BYTES,
raises InstanceTooLarge, never silently truncates.  tw and pw are
elimination-ordering subset DPs (the Q-set DP of Bodlaender, Fomin, Koster,
Kratsch & Thilikos, ACM TALG 2012; see _kernels), each searched level by
level from the empty set until it pops the full set: only states of value
at most the answer are expanded.  A state's value is final when it is
first reached, so each search queues each state once, on the level of its
value, and keeps one byte per state: the vertex that first reached it.  The
witness ordering is read back along those bytes from the full set, with no
step cost evaluated again.  pw expands a state only by the lowest vertex
that does not grow its boundary, if there is one (a safe greedy step, since
the boundary size is submodular).  tw runs a safe-reduction front end
first (_reduce): simplicial vertices, and almost simplicial ones of degree
at most a lower bound on tw, are eliminated while there are any, the bound
raised to MMD+ once one is blocked, and the DP runs only on the relabelled
remainder.  Its elimination
ordering continues the front end's, so the witness needs no lifting.  tree-f
is the block DP of Bouchitté & Todinca over the potential maximal cliques
(PMCs), each PMC found by testing its definition on every vertex subset, and
f evaluated once per PMC it needs.  bw is one branch-and-bound over vertex
bitmasks on an explicit stack, cut by placement deadlines, and td one table
over all vertex subsets, filled bottom-up, each subset's component taken
from its prefix's.  td's witness walk and the PMC test both split vertex sets
with _kernels.components.  TwIntTw enumerates the minimal triangulations
over the blocks of the same PMCs, and the block DP finds the best partner of
each.  twtw walks set partitions level by level, asking of each prefix's
quotient only "tw <= k?" at level k, and cuts the prefixes that fail: their
completions' quotients contain theirs.  Level k + 1 resumes from the
prefixes cut at level k.  For k <= 2 the question needs no subset search:
_tw_at_most answers it with the front end's rules at low = k, which
eliminate vertices of degree at most k, and only level 3 and up runs the
front end and the treewidth DP.  twtw keeps its answers in one dict per
level, a local of the call, so nothing is cached from one call to the next.
The brute-force references these oracles are cross-checked against live in
tests/conftest.py, not in the package.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, product
from math import ceil, prod, sqrt

from ..graphs import Graph, GraphError, VertexPartition, quotient
from ..decomposition import TreeDecomposition, PathDecomposition
from ..rng import SplitMix64
from ._kernels import STATE_BYTES, bits, components, pathwidth_dp, q_set, treewidth_dp

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

def _elimination_td(g: Graph, order) -> TreeDecomposition:
    """Tree-decomposition from an elimination ordering: bags {v} u Q(prefix, v)."""
    masks = g.adjacency_masks()
    pos = {v: i for i, v in enumerate(order)}
    bags, edges = [], []
    prefix = 0
    for i, v in enumerate(order):
        q = q_set(masks, prefix, v)
        prefix |= 1 << v
        bags.append(frozenset(bits(1 << v | q)))
        if q:
            edges.append((i, min(pos[w] for w in bits(q))))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(g.n, bags, edges)


def _clique_gap(adj, nb) -> int:
    """0 if the vertices of nb form a clique, 1 if they do once some one
    vertex u of them is left out, else 2.  Every non-edge must touch u."""
    hubs = nb       # the vertices that every non-edge seen so far touches
    gap = 0
    for w in bits(nb):
        miss = nb & ~adj[w] ^ 1 << w         # w's non-neighbours in nb
        if miss:
            gap = 1
            hubs &= 1 << w | (0 if miss & (miss - 1) else miss)
            if not hubs:
                return 2
    return gap


def _reduce(adj, left, low, order, grow=True):
    """The safe reductions of the treewidth front end, on the graph that
    `left` induces in adj, given tw >= low.  While a rule fires, the lowest
    vertex v it fires on is eliminated and appended to order:

    - simplicial: N(v) is a clique; low becomes max(low, deg v);
    - almost simplicial: N(v) - {u} is a clique for some u, and deg v <= low
      (Bodlaender, Koster & van den Eijkhof, Comput. Intell. 2005).

    Each step leaves a minor G' with tw(G) = max(low, tw(G')), and the fill
    of the step is the elimination's, so order is the start of an
    elimination ordering of width max(low, tw(G')).  A vertex of degree at
    most 2 is almost simplicial, so it needs no clique test.  If grow is
    false, a simplicial vertex of degree above low stays and low stays too;
    with low <= 2 the rules then eliminate exactly the vertices of degree at
    most low.  Returns (left, low, blocked); blocked says that an almost
    simplicial vertex of degree above low is left.
    """
    while True:
        blocked = False
        for v in bits(left):
            nb = adj[v]
            d = nb.bit_count()
            if d <= low:
                if d < 3:
                    break
            elif not grow:
                continue
            gap = _clique_gap(adj, nb)
            if not gap:
                low = max(low, d)
                break
            if gap == 1:
                if d <= low:
                    break
                blocked = True
        else:
            return left, low, blocked
        for u in bits(nb):      # join the neighbours of v, and delete v
            adj[u] = (adj[u] | nb) ^ (1 << u | 1 << v)
        left ^= 1 << v
        order.append(v)


def _contraction_degeneracy(adj, left) -> int:
    """MMD+ with the min-d rule (Bodlaender & Koster, JGAA 2006), a lower
    bound on tw: repeatedly contract a vertex of least degree into its
    neighbour of least degree, lowest ids first, and keep the largest least
    degree seen.  Contractions leave minors, and a graph of treewidth t has
    a vertex of degree at most t."""
    adj = list(adj)
    low = 0
    while left.bit_count() > low + 1:       # below that no degree exceeds low
        v = min(bits(left), key=lambda v: adj[v].bit_count())
        nb = adj[v]
        low = max(low, nb.bit_count())
        left ^= 1 << v
        if nb:
            u = min(bits(nb), key=lambda u: adj[u].bit_count())
            for w in bits(nb):
                adj[w] ^= 1 << v
            rest = nb ^ 1 << u
            adj[u] |= rest
            for w in bits(rest):
                adj[w] |= 1 << u
    return low


def _treewidth(adj, left, low, order):
    """tw of the graph that `left` induces in adj, given tw >= low.  The
    front end (_reduce) runs first, and if it is blocked it runs again under
    the MMD+ bound.  treewidth_dp then searches what is left, relabelled as
    rest[0], rest[1], ...  The eliminated vertices, then the DP's ordering of
    what is left, are appended to order: an elimination ordering of width tw."""
    left, low, blocked = _reduce(adj, left, low, order)
    if blocked:
        low = max(low, _contraction_degeneracy(adj, left))
        left, low, _ = _reduce(adj, left, low, order)
    if not left:
        return low
    rest = list(bits(left))
    index = {v: 1 << i for i, v in enumerate(rest)}
    width, dp_order = treewidth_dp([sum(map(index.__getitem__, bits(adj[v]))) for v in rest])
    order += [rest[i] for i in dp_order]
    return max(low, width)


def treewidth_exact(g: Graph, max_n=None):
    """Exact treewidth with a witness decomposition: the elimination ordering
    of the front end, then the DP's ordering of what the front end leaves."""
    _cap(g, TW_MAX_N, max_n, "treewidth_exact", STATE_BYTES)
    if g.n == 0:
        return -1, TreeDecomposition(0, [frozenset()], [])
    order = []
    tw = _treewidth(g.adjacency_masks(), (1 << g.n) - 1, 0, order)
    return tw, _elimination_td(g, order)


def _tw_at_most(masks, k) -> bool:
    """tw <= k for the graph of adjacency masks.  Levels 0-2 run the front
    end's rules at low = k without growing low, which eliminate vertices of
    degree at most k while there are any.  A graph of treewidth t has a
    vertex of degree at most t, and each step leaves a minor, so the graph
    empties iff tw <= k (the edgeless, forest and series-parallel reductions
    of Arnborg & Proskurowski, SIAM J. Alg. Disc. Meth. 1986).  Above level
    2, _treewidth answers at low = k: max(k, tw) <= k."""
    full = (1 << len(masks)) - 1
    if k < 3:
        return not _reduce(list(masks), full, k, [], grow=False)[0]
    return _treewidth(list(masks), full, k, []) <= k


def _treewidth_value(g: Graph) -> int:
    """Exact treewidth without a witness, for callers that need the value
    only: _treewidth's front end and DP, their ordering dropped."""
    _cap(g, TW_MAX_N, None, "treewidth", STATE_BYTES)
    if not g.n:
        return -1
    return _treewidth(g.adjacency_masks(), (1 << g.n) - 1, 0, [])


# -- pathwidth -----------------------------------------------------------

def pathwidth_exact(g: Graph, max_n=None):
    """Exact pathwidth via the vertex-separation DP, with a witness."""
    _cap(g, PW_MAX_N, max_n, "pathwidth_exact", STATE_BYTES)
    if g.n == 0:
        return -1, PathDecomposition(0, [frozenset()])
    masks = g.adjacency_masks()
    width, order = pathwidth_dp(masks)
    bags = []
    prefix = reach = 0
    for v in order:
        prefix |= 1 << v
        reach |= masks[v]
        bags.append(frozenset(bits(1 << v | reach & ~prefix)))   # {v} u (N(prefix) - prefix)
    return width, PathDecomposition(g.n, bags)


# -- bandwidth -----------------------------------------------------------

def bandwidth_exact(g: Graph, max_n=None):
    """Exact bandwidth with a witness ordering (branch-and-bound).

    An ordering has bandwidth <= k iff each vertex has all its neighbours
    placed within the next k positions.  So before position p is filled, the
    vertex at p - k leaves the window and may miss at most the vertex placed
    at p; that rule alone keeps every placed edge within k.  The deadline rule
    of Del Corso & Manzini (Computing 62, 1999) extends it to the window: the
    unplaced neighbours of the vertices at positions <= q are due by q + k,
    so for each q in (p - k, p) they must number at most q + k - p + 1, or
    the partial ordering has no completion.  Only subtrees without a
    solution are cut, so the first ordering found is the same.
    """
    _cap(g, BW_MAX_N, max_n, "bandwidth_exact")
    masks = g.adjacency_masks()
    full = (1 << g.n) - 1

    def place(k):
        """The first ordering in the search of bandwidth <= k, or None."""
        order = []
        done = 0
        todo = []           # todo[p]: the untried vertices for position p
        while done != full:
            p = len(order)
            if len(todo) == p:
                free = full ^ done
                leaving = masks[order[p - k]] & free if 0 < k <= p else 0
                # two unplaced neighbours of the leaving vertex, one position
                cand = 0 if leaving & (leaving - 1) else leaving or free
                # deadlines: the unplaced neighbours of positions <= q must
                # all fit into positions p .. q + k
                due = leaving
                for q in range(max(p - k + 1, 0), p if cand else 0):
                    due |= masks[order[q]] & free
                    if due.bit_count() > q + k - p + 1:
                        cand = 0
                        break
                todo.append(cand)
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
    while (order := place(k)) is None:      # k = n - 1 always succeeds
        k += 1
    return k, order


# -- treedepth -----------------------------------------------------------

def treedepth_exact(g: Graph, max_n=None):
    """Exact treedepth with an elimination-forest witness (parent array).

    One table over all 2^n vertex sets, filled in increasing numeric order,
    so that every subset of S comes before S.  Let C be the component of S's
    lowest vertex.  If C != S, td[S] = max(td[C], td[S - C]); otherwise
    td[S] = 1 + min over v of td[S - v], and root[S] is the least v that
    attains it.  The witness walks down from the components of the full set,
    each component hanging from the root of the set it split from.

    C comes from the prefix: low[S] is C, and with h the highest vertex of S,
    C = low[S - h] unless h has a neighbour in it.  Then C is h with every
    component of S - h that h touches, and those are peeled off S - h one
    lookup at a time, each the low entry of what is left: no subset is
    flooded.  The root scan stops early: since td(S) - 1 <= td(S - v) <=
    td(S), the values td[S - v] lie within 1 of each other, so the first one
    that differs from the lowest vertex's decides.  A smaller one is the
    minimum and its vertex the least root; a larger one makes the lowest
    vertex the root.
    """
    # td and root: 1 byte each; low: one array item, which holds a vertex set
    _cap(g, TD_MAX_N, max_n, "treedepth_exact", 2 + array("I").itemsize)
    masks = g.adjacency_masks()
    size = 1 << g.n
    td = bytearray(size)
    root = bytearray(size)
    low = array("I", [0]) * size
    for s in range(1, size):
        h = s.bit_length() - 1
        comp = low[s ^ 1 << h] or s         # a singleton is its own component
        if masks[h] & comp:
            rest = s ^ comp ^ 1 << h        # the other components of S - h
            comp |= 1 << h
            while rest:
                c = low[rest]
                rest ^= c
                if masks[h] & c:
                    comp |= c
        low[s] = comp
        if comp != s:
            td[s] = max(td[comp], td[s ^ comp])
            continue
        first = s & -s
        rest = s ^ first
        best = td[s ^ first]
        while rest:
            b = rest & -rest
            rest ^= b
            if td[s ^ b] != best:
                if td[s ^ b] < best:
                    best, first = td[s ^ b], b
                break
        td[s] = best + 1
        root[s] = first.bit_length() - 1

    parent = [-1] * g.n
    stack = [(c, -1) for c, _ in components(masks, size - 1)]
    while stack:
        mask, par = stack.pop()
        r = root[mask]
        parent[r] = par
        stack += [(c, r) for c, _ in components(masks, mask ^ 1 << r)]
    return td[-1], parent


# -- hereditary bag parameters and tree-f --------------------------------

def longest_path_order(g: Graph) -> int:
    """Number of vertices of a longest path (DFS over simple paths)."""
    masks = g.adjacency_masks()
    best = 0
    stack = [(v, 1 << v) for v in range(g.n)]      # (end, vertices) of a path
    while stack:
        v, path = stack.pop()
        best = max(best, path.bit_count())
        stack += [(w, path | 1 << w) for w in bits(masks[v] & ~path)]
    return best


PARAMS = {
    "tw": _treewidth_value,
    "pw": lambda sub: pathwidth_exact(sub)[0],
    "bw": lambda sub: bandwidth_exact(sub)[0],
    "td": lambda sub: treedepth_exact(sub)[0],
    "maxdeg": Graph.max_degree,
    "longest-path": longest_path_order,
}
# every entry is hereditary: its value never increases on induced subgraphs,
# which is what justifies minimizing over minimal triangulations below


def potential_maximal_cliques(masks) -> dict:
    """{Ω: [(C, N(C)) for the components C of G - Ω]} over the potential
    maximal cliques Ω of the graph, in ascending mask order.

    Every non-empty vertex set is tested with the definition (Bouchitté &
    Todinca, TCS 2002, Theorem 3.15): Ω is a PMC iff no component C of
    G - Ω has N(C) = Ω, and every non-adjacent pair of Ω lies in one N(C).
    """
    full = (1 << len(masks)) - 1
    out = {}
    for omega in range(1, full + 1):
        comps = components(masks, full ^ omega)
        seps = [nc for _, nc in comps]
        if omega in seps:
            continue
        for x in bits(omega):
            # the later non-neighbours of x in Ω, each to share an N(C) with x
            miss = omega & ~masks[x] & ~((2 << x) - 1)
            if miss:
                for nc in seps:
                    if nc >> x & 1:
                        miss &= ~nc
                if miss:
                    break
        else:
            out[omega] = comps
    return out


def _blocks(masks) -> list:
    """The full blocks, each with its PMCs: [(C, [(Ω, [D])])].

    One block (N(C), C) per component C of G - Ω' over the PMCs Ω', by |C|
    ascending, and last C = V with N(V) = ∅.  A block's PMCs Ω are those
    with N(C) ⊆ Ω ⊆ N(C) u C, by ascending mask, each with the components D
    of G - Ω inside C.  Each Ω meets C, since N(C) is no PMC: C is a
    component of G - N(C) with neighbourhood N(C).
    """
    pmcs = potential_maximal_cliques(masks)
    sep = {c: nc for comps in pmcs.values() for c, nc in comps}
    sep[(1 << len(masks)) - 1] = 0
    out = []
    for c in sorted(sep, key=lambda c: (c.bit_count(), c)):
        s = sep[c]
        region = s | c
        out.append((c, [(omega, [d for d, _ in comps if d & c])
                        for omega, comps in pmcs.items()
                        if omega & s == s and not omega & ~region]))
    return out


def _block_dp(blocks, cost):
    """min over minimal triangulations H of the largest cost(Ω) over the
    maximal cliques Ω of H, with the bags and tree edges of a witness.

    The block DP of Bouchitté & Todinca (SIAM J. Comput. 2001) over the
    blocks of _blocks, solved in their order: val(C) is the minimum over the
    PMCs Ω of the block of the largest of cost(Ω) and val(D) over the
    components D of G - Ω inside C; the answer is val(V).  cost is
    non-negative and called at most once per PMC, only for a PMC whose
    blocks stay below the best value so far.  Ties go to the lowest mask.
    The witness hangs each block's PMC below the bag whose component it came
    from.
    """
    costs = {}
    val = {}
    choice = {}
    for c, pmcs in blocks:
        best = None
        for omega, subs in pmcs:
            sub = max(map(val.__getitem__, subs), default=0)
            if best is not None and sub >= best:
                continue
            k = costs.get(omega)
            if k is None:
                k = costs[omega] = cost(omega)
            if best is None or k < best:
                best = max(k, sub)
                choice[c] = omega, subs
        val[c] = best
    root = c                # V, the last block
    bags, edges = [], []
    stack = [(root, -1)]
    while stack:
        c, up = stack.pop()
        omega, subs = choice[c]
        if up >= 0:
            edges.append((up, len(bags)))
        stack += [(d, len(bags)) for d in subs]
        bags.append(omega)
    return val[root], bags, edges


def _minimal_triangulations(blocks) -> list:
    """Every minimal triangulation as the ascending tuple of its maximal
    cliques, in ascending order: _block_dp's recursion, enumerating instead
    of minimizing.  A minimal triangulation of a block is one of its PMCs Ω
    with one of each block D of Ω, and its maximal cliques are Ω and theirs
    (Bouchitté & Todinca, SIAM J. Comput. 2001).  Two choices of Ω can give
    the same triangulation, so each block keeps a set.

    Before any set is built, the entries the blocks would build are counted,
    repeats included, and charged against TABLE_BUDGET_BYTES."""
    count = {}
    for c, pmcs in blocks:
        count[c] = sum(prod(map(count.__getitem__, subs)) for _, subs in pmcs)
    entries = sum(count.values())
    # 304 bytes per entry: tracemalloc peaked at 248-303 per counted entry on
    # cycle(n), n = 8-12 (1304 to 250,964 entries, 0.3 to 72.5 MiB)
    if entries * 304 > TABLE_BUDGET_BYTES:
        raise InstanceTooLarge(f"twintw_exact: {entries} block triangulations to enumerate "
                               f"are over the budget of {TABLE_BUDGET_BYTES} bytes")
    tri = {}
    for c, pmcs in blocks:
        tri[c] = {frozenset((omega,)).union(*parts)
                  for omega, subs in pmcs
                  for parts in product(*(tri[d] for d in subs))}
    return sorted(tuple(sorted(t)) for t in tri[c])      # c is V, the last block


def tree_param_exact(g: Graph, f: str, max_n=None):
    """Exact tree-f for hereditary f, with a witness decomposition.

    Every tree-decomposition refines to the clique tree of a minimal
    triangulation inside its bag-completion; the refined bags are induced
    subgraphs of the originals, so for hereditary f tree-f is the minimum
    over minimal triangulations of the largest f(G[Ω]) over their maximal
    cliques, which are potential maximal cliques.  _block_dp finds it,
    evaluating f once on each PMC it needs.
    """
    if f not in PARAMS:
        raise GraphError(f"unknown or non-hereditary parameter {f!r}")
    _cap(g, TREEF_MAX_N, max_n, "tree_param_exact", STATE_BYTES)
    if g.n == 0:
        return 0, TreeDecomposition(0, [frozenset()], [])
    fn = PARAMS[f]
    value, bags, edges = _block_dp(_blocks(g.adjacency_masks()),
                                   lambda omega: fn(g.subgraph(bits(omega))[0]))
    return value, TreeDecomposition(g.n, [bits(b) for b in bags], edges)


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
    """Branch and bound on the lowest candidate, on an explicit stack."""
    masks = g.adjacency_masks()
    best = 0
    stack = [((1 << g.n) - 1, 0)]
    while stack:
        cand, size = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if cand == 0:
            best = size
            continue
        v = (cand & (-cand)).bit_length() - 1
        # the branch with v pops first and runs to its end, as in a recursion
        stack += [(cand ^ (1 << v), size), (cand & masks[v], size + 1)]
    return best


def twintw_exact(g: Graph, max_n=None):
    """Minimum k admitting a pair of k-orthogonal tree-decompositions.

    WLOG both are clique trees of minimal triangulations: every chordal
    completion, such as a bag-completion, contains a minimal triangulation
    whose maximal cliques each lie inside one of its own (Parra & Scheffler,
    DAM 1997), and shrinking bags never increases an intersection.  For each
    T1, _block_dp at cost Ω ↦ max over Ω1 of T1 of |Ω ∩ Ω1| finds the best T2
    and its clique tree; the search stops early at the largest clique, a
    lower bound.  T1's witness is the clique tree _block_dp builds at cost 0
    on T1's cliques and 1 elsewhere: only T1 reaches 0, as another that did
    would be a subgraph of it.
    """
    _cap(g, TWINTW_MAX_N, max_n, "twintw_exact", STATE_BYTES)
    if g.n == 0:
        return 0, None
    blocks = _blocks(g.adjacency_masks())
    lb = max_clique_order(g)
    best = None
    for t1 in _minimal_triangulations(blocks):
        val, *tree = _block_dp(blocks, lambda omega: max((omega & o).bit_count() for o in t1))
        if best is None or val < best:
            best, cliques, second = val, t1, tree
            if best == lb:
                break
    _, *first = _block_dp(blocks, lambda omega: 0 if omega in cliques else 1)
    return best, tuple(TreeDecomposition(g.n, [bits(b) for b in bags], edges)
                       for bags, edges in (first, second))


# -- twtw ----------------------------------------------------------------

def _partition(n: int, labels) -> VertexPartition:
    """The partition of range(n) into the parts of a growth string."""
    parts = [[] for _ in range(max(labels) + 1)]
    for v, p in enumerate(labels):
        parts[p].append(v)
    return VertexPartition(n, parts)


def twtw_exact(g: Graph, c: int = 1, max_n=None):
    """Least k with g inside H1 boxtimes H2 boxtimes K_c, tw(Hi) <= k.

    By the partition characterization this is a minimum over ordered pairs of
    vertex partitions with part intersections <= c; the factors may be taken
    as the quotients themselves (supergraph factors only raise treewidth).

    Partitions are walked as restricted growth strings (vertex v in part
    labels[v], parts numbered in order of their least vertex), depth-first
    in lexicographic order on an explicit stack that carries each prefix's
    quotient masks, so vertex v adds its edges to earlier vertices once per
    prefix.  Level k asks each prefix it pops only "tw(quotient) <= k?",
    once per distinct quotient.  A prefix's quotient is a subgraph of the
    quotient of each of its completions (parts only gain vertices, and edges
    between parts are only added), so a prefix that fails is cut: it joins
    the frontier of level k + 1, which walks on from the prefixes cut at
    level k in the order they were cut.  No prefix is expanded at two
    levels, each partition joins the pool at the level of its quotient's tw,
    and within a level in partition order.  Levels 0-2 need no subset search,
    and for c >= 1 every graph with n <= 9 has twtw <= 2 (the rows and the
    columns of a 3 x 3 grid layout), so the treewidth DP runs only under
    max_n overrides above 9.  Only the returned pair is built as partitions
    and quotient graphs.
    """
    if c < 1:
        raise GraphError("need c >= 1")
    _cap(g, TWTW_MAX_N, max_n, "twtw_exact")
    n = g.n
    # 209 bytes per partition, the walk's pool, cuts and per-level dict
    # included: tracemalloc peaked at 187-209 per partition on edgeless n =
    # 9-11 (every partition joins the level-0 pool), 32-62 on path(n), n =
    # 9-11, and 6-98 on K_n, n = 8-10; so n <= 12 fits
    fits = TABLE_BUDGET_BYTES // 209
    row = [1]       # the Bell triangle: row k starts with Bell(k)
    while len(row) <= n and row[0] <= fits:
        row = list(accumulate(row, initial=row[-1]))
    if row[0] > fits:
        raise InstanceTooLarge(f"twtw_exact: n={n} has {row[0]} or more partitions to "
                               f"enumerate, over the budget of {TABLE_BUDGET_BYTES} bytes")
    if n == 0:
        return 0, None
    earlier = [list(bits(m & ((1 << v) - 1))) for v, m in enumerate(g.adjacency_masks())]

    def compatible(a, b) -> bool:
        # parts x of a and y of b meet in the vertices labelled (x, y)
        return max(Counter(zip(a, b)).values()) <= c

    # the pool at level k holds the partitions of quotient tw <= k, by tw and
    # then in partition order; every pair of the pool at level k - 1 failed
    pool = []
    frontier = [((), ())]       # (labels of a prefix, its quotient's masks)
    for k in range(n):
        known = {}      # quotient masks -> tw <= k
        cut = []        # the prefixes whose quotient has tw > k, in walk order
        old = len(pool)
        stack = frontier[::-1]
        while stack:
            labels, masks = stack.pop()
            ok = known.get(masks)
            if ok is None:
                ok = known[masks] = _tw_at_most(masks, k)
            if not ok:
                cut.append((labels, masks))
                continue
            v = len(labels)
            if v == n:      # one quotient vertex per part: the count and the largest size
                pool.append((labels, len(masks), max(map(labels.count, range(len(masks))))))
                continue
            near = 0        # the parts of v's earlier neighbours
            for u in earlier[v]:
                near |= 1 << labels[u]
            near_parts = list(bits(near))
            for p in range(len(masks), -1, -1):     # highest first, so part 0 pops first
                bit = 1 << p
                grown = list(masks) if p < len(masks) else [*masks, 0]
                for a in near_parts:
                    grown[a] |= bit
                grown[p] = (grown[p] | near) & ~bit
                stack.append((labels + (p,), tuple(grown)))
        frontier = cut
        for i, (a, na, sa) in enumerate(pool):
            for b, nb, sb in pool[max(i, old):]:
                # a part of a meets each of the nb parts of b in at most c
                # vertices, so it has at most c * nb; and the same for b
                if sa <= c * nb and sb <= c * na and compatible(a, b):
                    p1, p2 = _partition(n, a), _partition(n, b)
                    return k, (p1, p2, quotient(g, p1), quotient(g, p2))
    raise AssertionError("unreachable: singleton/whole pair is always compatible")


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


# -- expander mixing -----------------------------------------------------

def expander_mixing_check(g: Graph, d: int, samples: int, seed: int) -> dict:
    """Sampled check that every pair of ceil(2n/sqrt(d))-sets is joined.

    Draws disjoint uniform (S, T) pairs and counts pairs with no crossing
    edge (expected 0 for a random regular graph).
    """
    if samples < 1:
        raise GraphError(f"samples must be at least 1, got {samples}")
    if d < 1:
        raise GraphError(f"d must be at least 1, got {d}")
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
