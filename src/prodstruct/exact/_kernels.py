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
tables are not filled in full but searched level by level from the empty set:
level k expands the states of value k.  Wherever a search writes dp[S u v],
it also writes last[S u v] = v, and it stops when it pops the full set.  The
full set's step cost is 0 (its Q-set and its boundary are empty), so dp[full]
is only ever set to the current level k, after every state of value below k
was expanded without reaching it.  A state expanded at level k keeps the
value k, so the last-chain down from the full set runs through values that
were final when they were expanded, and the ordering it spells has width
dp[full].  Both kernels return (dp, order), and the table contract is:

- dp[full] is the width, and order, first-eliminated first, attains it;
- every other entry is 255 if the search never reached it, or else the
  largest step cost along the path that reached it: an upper bound on the
  full table's value, not always equal to it.

pathwidth_dp adds the greedy step of vertex-separation solvers (Coudert,
Mazauric & Nisse, SEA 2014): if some v outside S has b(S u v) <= b(S), where
b(X) = |N(X) - X|, S is expanded to S u v for the lowest such v only.  This
is safe because b(X) = |N[X]| - |X| is submodular: for every continuation
S c S1 c ... c V, b(Si u v) <= b(Si) + b(S u v) - b(S) <= b(Si), so putting
v next never raises the largest boundary, and some optimal ordering follows
the rule at every state.  The cost b(S) does not depend on which v of S is
last, so a state keeps the value it is first reached with.

Graphs are lists of neighbourhood bitmasks and vertex sets are int bitmasks.
Each search holds two bytearrays of 2^n entries, dp and last, and queues at
most one 8-byte array('q') entry per state; both costs stay below n.
"""

from array import array

# There is one kernel path, plain Python; benchmark reports still name it.
USE_NUMBA = False
# bytes a search may hold per state: the 1-byte dp and last entries and at
# most one 8-byte array('q') queue entry
STATE_BYTES = 10


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
    last vertex of each state is the one that set its table entry."""
    s = len(last) - 1
    order = [0] * s.bit_length()
    for i in reversed(range(len(order))):
        order[i] = v = last[s]
        s ^= 1 << v
    return order


def treewidth_dp(masks):
    """The treewidth table (dp[full] is tw), searched level by level, and an
    elimination ordering that attains it.

    Level k expands the states of value exactly k: from S, each v outside S
    offers dp[S | v] the value max(k, |Q(S, v)|), and last[S | v] = v records
    who set it.  A state that drops to k joins the level's stack, so no state
    is pushed twice.  The search stops when it pops the full set.
    """
    n = len(masks)
    full = (1 << n) - 1
    dp = bytearray(b"\xff") * (full + 1)
    last = bytearray(full + 1)
    dp[0] = 0
    stack = array("q")
    for k in range(max(n, 1)):      # a Q-set has at most n - 1 vertices
        s = dp.find(k)
        while s >= 0:
            stack.append(s)
            s = dp.find(k, s + 1)
        while stack:
            s = stack.pop()
            if s == full:
                return dp, _walk(last)
            rest = full ^ s
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = s | bit
                d = dp[u]
                if d <= k:
                    continue
                v = bit.bit_length() - 1
                c = q_set(masks, s, v).bit_count()
                if c <= k:
                    dp[u] = k
                    last[u] = v
                    stack.append(u)
                elif c < d:
                    dp[u] = c
                    last[u] = v
    raise AssertionError("unreachable: every step costs at most n - 1")


def pathwidth_dp(masks):
    """The vertex-separation table (dp[full] is pw) and an ordering that attains it.

    Level k expands the states of value k.  A state S is expanded first by the
    greedy step: if some v outside S has |N(S u v) - (S u v)| <= |N(S) - S|,
    the lowest such v gives S u v the value k, it joins level k, and no other
    vertex is tried from S.  Otherwise every v outside S is tried, and a state
    first reached from S gets the value max(|N(S u v) - (S u v)|, k), which is
    kept, as is last[S u v] = v.  Each reached state is queued once, on the
    level of its value, as N(S) << n | S.  The search stops when it pops the
    full set.
    """
    n = len(masks)
    full = (1 << n) - 1
    dp = bytearray(b"\xff") * (full + 1)
    last = bytearray(full + 1)
    dp[0] = 0
    levels = [array("q") for _ in range(n + 1)]      # values stay below n
    levels[0].append(0)
    for k, level in enumerate(levels):
        while level:
            entry = level.pop()
            s = entry & full
            if s == full:
                return dp, _walk(last)
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
                    if dp[u] == 255:
                        dp[u] = k
                        last[u] = v
                        level.append(nu << n | u)
                    break
            else:
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    u = s | bit
                    if dp[u] != 255:        # reached already: its value stays
                        continue
                    v = bit.bit_length() - 1
                    nu = ns | masks[v]
                    c = (nu & ~u).bit_count()
                    if c < k:
                        c = k
                    dp[u] = c
                    last[u] = v
                    levels[c].append(nu << n | u)
