"""The elimination-ordering DPs behind the treewidth and pathwidth oracles,
and the bitmask flood fills that split vertex sets into components.

Both parameters are a minimum over vertex orderings of the largest cost
of one elimination step (the Q-set recurrence of Bodlaender, Fomin, Koster,
Kratsch & Thilikos, On exact algorithms for treewidth, ACM TALG 2012), so the
table is dp[S] = min over v in S of max(dp[S - v], cost(S - v, v)) for every
subset S of the vertices.  The cost of eliminating v after the set t is:

- treewidth: |Q(t, v)|, the vertices outside t u {v} that v reaches through t;
- pathwidth: |N(S) - S| for S = t u {v}, the vertex separation of S.

Only states of value at most dp[full] can lie on an optimal ordering (TALG
2012 prunes the DP to the sets below an upper bound the same way).  So the
table is not filled but searched level by level from the empty set: level k
expands the states of value k.  Each search keeps one bytearray, last, where
last[S u v] = v records the vertex that first reached S u v and 255 means
unreached, and it queues each state once, on the level of the value it is
first reached with.  That is sound because of one invariant: a state's value
is final when it is first reached.

- pathwidth: the cost |N(S) - S| does not depend on which v of S is last.
- treewidth: say S u v is first reached from S at level k with cost
  c = |Q(S, v)| > k.  Then Q(S, v) = N(C) for the component C of v in
  G[S u v].  A later offer comes from some S' = (S u v) - v' at a level
  k' >= k.  If v' is in C, its Q-set is N(C) again.  Otherwise C is a whole
  component of G[S'], every ordering of S' has a step, at the last vertex of
  C, whose Q-set contains N(C), and so k' >= c.  No later offer goes below c.

The full set's step cost is 0 (its Q-set and its boundary are empty), so
it joins the level that first reaches it, and the search stops when it pops
the full set, at the level k that is the width.  The last-chain down from the full set runs through states whose
values are final and at most k, so the ordering it spells attains k.  Both
kernels return (width, order), order first-eliminated first.

pathwidth_dp adds the greedy step of vertex-separation solvers (Coudert,
Mazauric & Nisse, SEA 2014): if some v outside S has b(S u v) <= b(S), where
b(X) = |N(X) - X|, S is expanded to S u v for the lowest such v only.  This
is safe because b(X) = |N[X]| - |X| is submodular: for every continuation
S c S1 c ... c V, b(Si u v) <= b(Si) + b(S u v) - b(S) <= b(Si), so putting
v next never raises the largest boundary, and some optimal ordering follows
the rule at every state.

Graphs are lists of neighbourhood bitmasks and vertex sets are int bitmasks.
Each search holds one bytearray of 2^n entries, last, and queues at most one
8-byte array('q') entry per state; both costs stay below n.
"""

from array import array

# There is one kernel path, plain Python; benchmark reports still name it.
USE_NUMBA = False
# bytes a search may hold per state: the 1-byte last entry and at most one
# 8-byte array('q') queue entry
STATE_BYTES = 9


def bits(mask: int):
    """The vertices of a bitmask, in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def flood(masks, within: int, v: int):
    """(C, N(C)): the vertices C that v reaches through vertices of `within`,
    v included, and the union N(C) of their neighbourhoods."""
    comp = frontier = 1 << v
    reach = 0
    while frontier:
        while frontier:         # empties this level into reach
            b = frontier & -frontier
            frontier ^= b
            reach |= masks[b.bit_length() - 1]
        frontier = reach & within & ~comp
        comp |= frontier
    return comp, reach


def components(masks, within: int) -> list:
    """[(C, N(C))] for the components C of the subgraph that `within` induces,
    the component of the lowest vertex first; N(C) is the set of vertices
    outside C with a neighbour in C."""
    out = []
    rest = within
    while rest:
        comp, reach = flood(masks, within, (rest & -rest).bit_length() - 1)
        out.append((comp, reach & ~comp))
        rest ^= comp
    return out


def q_set(masks, t: int, v: int) -> int:
    """Q(t, v): the vertices outside t u {v} that v reaches through t."""
    return flood(masks, t, v)[1] & ~t & ~(1 << v)


def _walk(last: bytearray) -> list:
    """The ordering that reached the full set, first-eliminated first: the
    last vertex of each state is the one that first reached it."""
    s = len(last) - 1
    order = [0] * s.bit_length()
    for i in reversed(range(len(order))):
        order[i] = v = last[s]
        s ^= 1 << v
    return order


def treewidth_dp(masks):
    """(tw, an elimination ordering that attains it), searched level by level.

    Level k expands the states of value k.  From S, a v outside S whose state
    S u v is not reached yet gives it the value max(|Q(S, v)|, k), which is
    final, and last[S u v] = v; the state is queued once, on the level of its
    value.  The search stops when it pops the full set.
    """
    n = len(masks)
    full = (1 << n) - 1
    last = bytearray(b"\xff") * (full + 1)
    levels = [array("q") for _ in range(max(n, 1))]     # a Q-set has at most n - 1 vertices
    levels[0].append(0)
    for k, level in enumerate(levels):
        while level:
            s = level.pop()
            if s == full:
                return k, _walk(last)
            rest = full ^ s
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = s | bit
                if last[u] != 255:          # reached already: its value stays
                    continue
                v = bit.bit_length() - 1
                c = q_set(masks, s, v).bit_count()
                last[u] = v
                levels[c if c > k else k].append(u)


def pathwidth_dp(masks):
    """(pw, a vertex ordering that attains it), searched level by level.

    Level k expands the states of value k.  A state S is expanded first by the
    greedy step: if some v outside S has |N(S u v) - (S u v)| <= |N(S) - S|,
    the lowest such v gives S u v the value k, it joins level k, and no other
    vertex is tried from S.  Otherwise every v outside S is tried, and a state
    first reached from S gets the value max(|N(S u v) - (S u v)|, k), which is
    final, and last[S u v] = v.  Each reached state is queued once, on the
    level of its value, as N(S) << n | S.  The search stops when it pops the
    full set.
    """
    n = len(masks)
    full = (1 << n) - 1
    last = bytearray(b"\xff") * (full + 1)
    levels = [array("q") for _ in range(n + 1)]      # values stay below n
    levels[0].append(0)
    for k, level in enumerate(levels):
        while level:
            entry = level.pop()
            s = entry & full
            if s == full:
                return k, _walk(last)
            ns = entry >> n
            rest = full ^ s
            b = (ns & ~s).bit_count()
            greedy = rest
            while greedy:
                bit = greedy & -greedy
                greedy ^= bit
                v = bit.bit_length() - 1
                nu = ns | masks[v]
                if (nu & ~(s | bit)).bit_count() <= b:     # v does not grow the boundary
                    u = s | bit
                    if last[u] == 255:
                        last[u] = v
                        level.append(nu << n | u)
                    break
            else:
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    u = s | bit
                    if last[u] != 255:      # reached already: its value stays
                        continue
                    v = bit.bit_length() - 1
                    nu = ns | masks[v]
                    c = (nu & ~u).bit_count()
                    last[u] = v
                    levels[c if c > k else k].append(nu << n | u)
