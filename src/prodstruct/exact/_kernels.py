"""The elimination-ordering DPs behind the treewidth and pathwidth oracles,
and the bitmask flood fills that split vertex sets into components.

Both parameters are a minimum over vertex orderings of the largest cost
of one elimination step (the Q-set recurrence of Bodlaender, Fomin, Koster,
Kratsch & Thilikos, On exact algorithms for treewidth, ACM TALG 2012), so the
table is dp[S] = min over v in S of max(dp[S - v], cost(S - v, v)) for every
subset S of the vertices, and recover_order reads an optimal ordering back
out of it.  The cost of eliminating v after the set t is:

- treewidth: |Q(t, v)|, the vertices outside t u {v} that v reaches through t;
- pathwidth: |N(S) - S| for S = t u {v}, the vertex separation of S.

Only states of value at most dp[full] can lie on an optimal ordering (TALG
2012 prunes the DP to the sets below an upper bound the same way).  So the
tables are not filled in full but searched level by level from the empty set:
level k expands the states of value k, and the search stops once level k is
done and dp[full] <= k.

treewidth_dp expands each state by every v outside it, and its table contract
is: every entry at most dp[full] is exact; every other entry is above
dp[full], or 255 if the search never reached it.  recover_order reads only
entries at most dp[full], so it gives the ordering a full table would.

pathwidth_dp adds the greedy step of vertex-separation solvers (Coudert,
Mazauric & Nisse, SEA 2014): if some v outside S has b(S u v) <= b(S), where
b(X) = |N(X) - X|, S is expanded to S u v for the lowest such v only.  This
is safe because b(X) = |N[X]| - |X| is submodular: for every continuation
S c S1 c ... c V, b(Si u v) <= b(Si) + b(S u v) - b(S) <= b(Si), so putting
v next never raises the largest boundary, and some optimal ordering follows
the rule at every state.  The cost b(S) does not depend on which v of S is
last, so a state keeps the value it is first reached with.  The table
contract is:

- dp[full] is pw;
- every other entry is 255, if the search never reached it, or the largest
  boundary along some ordering of its set: an upper bound on the full table's
  value, not always equal to it.

recover_order still returns an ordering of width dp[full], but not always the
one a full table would give.

Graphs are lists of neighbourhood bitmasks and vertex sets are int bitmasks.
Tables are bytearrays of 2^n entries, and each search queues at most one
8-byte array('q') entry per state; both costs stay below n.
"""

from array import array

# There is one kernel path, plain Python; benchmark reports still name it.
USE_NUMBA = False
# bytes a search may hold per state: the 1-byte table entry and at most one
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


def recover_order(dp: bytearray, cost) -> list:
    """An elimination ordering attaining dp[full], first-eliminated first.

    Walking down from the full set, the last vertex of S is the first v in
    ascending order with max(dp[S - v], cost(S - v, v)) == dp[S].  Only
    entries at most dp[full] are read.  Each one is the value of some ordering
    of its set, and the state that gave it that value attains the equation, so
    the walk never gets stuck.  On a treewidth table those entries are exact,
    and the ordering is the one a full table gives; on a pathwidth table it
    may be another one of the same width.
    """
    s = len(dp) - 1
    order = []
    while s:
        for v in bits(s):
            t = s ^ (1 << v)
            # a v with dp[t] > dp[S] cannot attain dp[S]: its cost is not needed
            if dp[t] <= dp[s] and max(dp[t], cost(t, v)) == dp[s]:
                order.append(v)
                s = t
                break
        else:
            raise AssertionError(f"no vertex of state {s:#x} attains dp = {dp[s]}")
    order.reverse()
    return order


def treewidth_dp(masks):
    """The treewidth table (dp[full] is tw), searched level by level, and the
    cost it was searched with: cost(t, v) = |Q(t, v)|.

    Level k expands the states of value exactly k: from S, each v outside S
    offers dp[S | v] the value max(k, |Q(S, v)|).  A state that drops to k
    joins the level's stack, so no state is pushed twice.  The search stops
    once level k is done and dp[full] <= k.  Every entry at most dp[full] is
    then exact; every other one is above it, or 255 if never reached.
    """
    def cost(t, v):
        return q_set(masks, t, v).bit_count()
    n = len(masks)
    full = (1 << n) - 1
    dp = bytearray(b"\xff") * (full + 1)
    dp[0] = 0
    stack = array("q")
    for k in range(max(n, 1)):      # a Q-set has at most n - 1 vertices
        s = dp.find(k)
        while s >= 0:
            stack.append(s)
            s = dp.find(k, s + 1)
        while stack:
            s = stack.pop()
            rest = full ^ s
            while rest:
                bit = rest & -rest
                rest ^= bit
                u = s | bit
                d = dp[u]
                if d <= k:
                    continue
                c = q_set(masks, s, bit.bit_length() - 1).bit_count()
                if c <= k:
                    dp[u] = k
                    stack.append(u)
                elif c < d:
                    dp[u] = c
        if dp[full] <= k:
            return dp, cost
    raise AssertionError("unreachable: every step costs at most n - 1")


def pathwidth_dp(masks):
    """The vertex-separation table (dp[full] is pw) and the cost it was searched with.

    Level k expands the states of value k.  A state S is expanded first by the
    greedy step: if some v outside S has |N(S u v) - (S u v)| <= |N(S) - S|,
    the lowest such v gives S u v the value k, it joins level k, and no other
    vertex is tried from S.  Otherwise every v outside S is tried, and a state
    first reached from S gets the value max(|N(S u v) - (S u v)|, k), which is
    kept.  Each reached state is queued once, on the level of its value, as
    N(S) << n | S.  Every reached entry is the largest boundary along some
    ordering of its set, and dp[full] is pw (see the module docstring).
    """
    n = len(masks)
    full = (1 << n) - 1
    dp = bytearray(b"\xff") * (full + 1)
    dp[0] = 0
    levels = [array("q") for _ in range(n + 1)]      # values stay below n
    levels[0].append(0)
    for k, level in enumerate(levels):
        while level:
            entry = level.pop()
            s = entry & full
            ns = entry >> n
            rest = full ^ s
            b = (ns & ~s).bit_count()
            greedy = rest
            while greedy:
                bit = greedy & -greedy
                greedy ^= bit
                nu = ns | masks[bit.bit_length() - 1]
                if (nu & ~(s | bit)).bit_count() <= b:     # v does not grow the boundary
                    u = s | bit
                    if dp[u] == 255:
                        dp[u] = k
                        level.append(nu << n | u)
                    break
            else:
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    u = s | bit
                    if dp[u] != 255:        # reached already: its value stays
                        continue
                    nu = ns | masks[bit.bit_length() - 1]
                    c = (nu & ~u).bit_count()
                    if c < k:
                        c = k
                    dp[u] = c
                    levels[c].append(nu << n | u)
        if dp[full] <= k:
            break

    def cost(t, v):
        s = t | 1 << v
        ns = 0
        for w in bits(s):
            ns |= masks[w]
        return (ns & ~s).bit_count()
    return dp, cost
