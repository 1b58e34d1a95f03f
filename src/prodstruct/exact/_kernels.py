"""The elimination-ordering DPs behind the treewidth, pathwidth and tree-f oracles.

All three parameters are a minimum over vertex orderings of the largest cost
of one elimination step (the Q-set recurrence of Bodlaender, Fomin, Koster,
Kratsch & Thilikos, On exact algorithms for treewidth, ACM TALG 2012), so the
table is dp[S] = min over v in S of max(dp[S - v], cost(S - v, v)) for every
subset S of the vertices, and recover_order reads an optimal ordering back
out of it.  The cost of eliminating v after the set t is:

- treewidth: |Q(t, v)|, the vertices outside t u {v} that v reaches through t;
- tree-f: f of the elimination bag {v} u Q(t, v) (in prodstruct.exact);
- pathwidth: |N(S) - S| for S = t u {v}, the vertex separation of S.

tw and tree-f fill their tables with elimination_dp.  The pathwidth cost does
not depend on which v of S is last, so pathwidth_dp fills the same table with
its own loop over the states, one cost per state:
dp[S] = max(|N(S) - S|, min over v in S of dp[S - v]).

Graphs are lists of neighbourhood bitmasks and vertex sets are int bitmasks.
Tables are bytearrays of 2^n entries, so every value must stay below 256.
"""

from array import array

# There is one kernel path, plain Python; benchmark reports still name it.
USE_NUMBA = False


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


def component(masks, within: int, v: int) -> int:
    """The vertices that v reaches through vertices of `within`, v included."""
    return flood(masks, within, v)[0]


def q_set(masks, t: int, v: int) -> int:
    """Q(t, v): the vertices outside t u {v} that v reaches through t."""
    return flood(masks, t, v)[1] & ~t & ~(1 << v)


def elimination_dp(n: int, cost) -> bytearray:
    """dp[S] = min over v in S of max(dp[S - v], cost(S - v, v)), dp[empty] = 0."""
    dp = bytearray(1 << n)
    for s in range(1, 1 << n):
        best = 256
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            t = s ^ bit
            d = dp[t]
            if d >= best:       # max(d, cost) >= best: v cannot lower the minimum
                continue
            c = cost(t, bit.bit_length() - 1)
            if c > d:
                d = c
            if d < best:
                best = d
        dp[s] = best
    return dp


def recover_order(dp: bytearray, cost) -> list:
    """An elimination ordering attaining dp[full], first-eliminated first.

    Walking down from the full set, the last vertex of S is the first v in
    ascending order with max(dp[S - v], cost(S - v, v)) == dp[S].
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
    order.reverse()
    return order


def treewidth_dp(masks):
    """The treewidth table (dp[full] is tw) and the cost it was filled with."""
    def cost(t, v):
        return q_set(masks, t, v).bit_count()
    return elimination_dp(len(masks), cost), cost


def pathwidth_dp(masks):
    """The vertex-separation table (dp[full] is pw) and the cost it was filled with."""
    size = 1 << len(masks)
    nb = array("q", [0]) * size          # nb[S] = N(S), the union of S's neighbourhoods
    dp = bytearray(size)
    for s in range(1, size):
        low = s & -s
        ns = nb[s] = nb[s ^ low] | masks[low.bit_length() - 1]
        c = (ns & ~s).bit_count()
        best = 256
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            d = dp[s ^ bit]
            if d <= c:          # max(d, c) is c, the least the state can take
                best = c
                break
            if d < best:
                best = d
        dp[s] = best

    def cost(t, v):
        s = t | 1 << v
        return (nb[s] & ~s).bit_count()
    return dp, cost
