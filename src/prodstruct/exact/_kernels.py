"""The elimination-ordering DP behind the treewidth, pathwidth and tree-f oracles.

All three parameters are a minimum over vertex orderings of the largest cost
of one elimination step (the Q-set recurrence of Bodlaender, Fomin, Koster,
Kratsch & Thilikos, On exact algorithms for treewidth, ACM TALG 2012).
elimination_dp fills that minimum for every subset of the vertices, and
recover_order reads an optimal ordering back out of the table.  An oracle
supplies only cost(t, v), the cost of eliminating v after the set t:

- treewidth: |Q(t, v)|, the vertices outside t u {v} that v reaches through t;
- pathwidth: |N(S) - S| for S = t u {v}, the vertex separation of S;
- tree-f: f of the elimination bag {v} u Q(t, v) (in prodstruct.exact).

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


def component(masks, within: int, v: int) -> int:
    """The vertices that v reaches through vertices of `within`, v included."""
    comp = frontier = 1 << v
    while frontier:
        reach = 0
        for w in bits(frontier):
            reach |= masks[w]
        frontier = reach & within & ~comp
        comp |= frontier
    return comp


def q_set(masks, t: int, v: int) -> int:
    """Q(t, v): the vertices outside t u {v} that v reaches through t."""
    reach = 0
    for w in bits(component(masks, t, v)):
        reach |= masks[w]
    return reach & ~t & ~(1 << v)


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
    for s in range(1, size):
        low = s & -s
        nb[s] = nb[s ^ low] | masks[low.bit_length() - 1]

    def cost(t, v):
        s = t | 1 << v
        return (nb[s] & ~s).bit_count()
    return elimination_dp(len(masks), cost), cost
